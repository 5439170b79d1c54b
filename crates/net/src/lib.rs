//! Hardened wire front-end: std-only HTTP/1.1 serving over the batch
//! engine.
//!
//! This crate puts a real socket in front of the real-execution serving
//! stack: thread-per-core accept loops over `std::net::TcpListener` take
//! image POSTs, decode them (AJPG/RTIF sniffing), preprocess to the model
//! tensor, and run them through a pool of engine workers behind one
//! coordinator thread, streaming classification responses back.
//!
//! The robustness story, in four layers:
//!
//! * [`http`] — a from-scratch bounded HTTP/1.1 parser (typed `Err`, never
//!   panic, never over-read) plus the response writer and the client-side
//!   response parser;
//! * `chaos` — `FaultySocket`, the load generator's deterministic chaos
//!   transport, which replays seeded resets, truncations, garbling, stalls,
//!   and short reads/writes bit-for-bit;
//! * [`server`] — [`server::WireServer`]: per-connection deadlines, body
//!   caps shared with the serving layer's [`harvest_serving::ServingLimits`]
//!   (single source of truth), keep-alive with bounded pipelining, graceful
//!   drain, and outcome conservation
//!   (`responded + rejected + shed == accepted`, none lost, none duplicated);
//! * [`loadgen`] — an open-loop load generator that drives the wire under a
//!   [`harvest_simkit::SocketFaultPlan`] and writes the conservation +
//!   latency artifact behind `experiments wire`.

mod chaos;
pub mod http;
pub mod loadgen;
mod pool;
pub mod server;

pub use http::{parse_request, parse_response, write_response, HttpLimits, ParseError, Parsed};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport, LATENCY_BUCKETS_MS};
pub use server::{DrainReport, WireConfig, WireServer, WireSnapshot};
