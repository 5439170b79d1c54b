//! The codec as it stood before the word-level, sparse-aware rewrite:
//! `ajpg.rs`, `bitio.rs` and `dct.rs` copied verbatim (unit tests dropped,
//! `crate::` paths repointed). The equivalence suites hold the shipped
//! codec to these bit for bit — pixels, encoded bytes and `Result`s — so
//! nothing here may be "improved". `ajpg_full.rs` is the later decoder
//! that always produced every row, kept the same way for `grid_decode.rs`;
//! `ajpg_rows.rs` is the row-sampled decoder and the wire ingest on it that
//! came after, kept the same way for `ingest/`.
#![allow(dead_code)]

pub mod ajpg;
pub mod ajpg_full;
pub mod ajpg_rows;
pub mod bitio;
pub mod dct;
