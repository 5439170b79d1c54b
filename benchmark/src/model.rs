//! The executor a workload serves from (offline) or checks against (wire),
//! brought up the way a deployment would: materialise the weights, ship
//! them through the `HVWA` artifact, install the verified copy.

use crate::spec::MODEL_SEED;
use harvest_engine::{decode_artifact, encode_artifact, Executor};
use harvest_models::Graph;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Default)]
pub struct ModelTimings {
    pub materialize_ms: f64,
    pub artifact_encode_ms: f64,
    pub artifact_decode_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn bring_up(graph: &Graph) -> (Executor<'_>, ModelTimings) {
    let t = Instant::now();
    let mut exec = Executor::new(graph, MODEL_SEED);
    let materialize_ms = ms_since(t);
    let t = Instant::now();
    let artifact = encode_artifact(exec.materialized());
    let artifact_encode_ms = ms_since(t);
    let t = Instant::now();
    let weights = decode_artifact(&artifact, graph, false)
        .expect("an artifact encoded from this graph's own weights must load");
    let artifact_decode_ms = ms_since(t);
    exec.install_weights(Arc::new(weights));
    (
        exec,
        ModelTimings {
            materialize_ms,
            artifact_encode_ms,
            artifact_decode_ms,
        },
    )
}
