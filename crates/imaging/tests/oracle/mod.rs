//! The codec as it stood before the word-level, sparse-aware rewrite:
//! `ajpg.rs`, `bitio.rs` and `dct.rs` copied verbatim (unit tests dropped,
//! `crate::` paths repointed). The equivalence suites hold the shipped
//! codec to these bit for bit — pixels, encoded bytes and `Result`s — so
//! nothing here may be "improved". `ajpg_full.rs` is the later decoder
//! that always produced every row, kept the same way for `row_decode.rs`.
#![allow(dead_code)]

pub mod ajpg;
pub mod ajpg_full;
pub mod bitio;
pub mod dct;
