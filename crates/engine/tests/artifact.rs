//! The one-pass artifact loader held to the codec it replaced
//! (`oracle/artifact.rs`, verbatim): encode byte for byte, and decode
//! result for result — the same `ArtifactError` with the same fields, or
//! the same fingerprint, the same weight bits and the same INT8 caches — on
//! a tiny ViT (every weight but the biases packed) and a tiny CNN (conv and
//! BatchNorm tensors plain, one packed linear). Byte flips and truncation
//! run at every offset; a property test then mutates the framing: flips,
//! cuts, `len` and `count` fields inflated (up to `u64::MAX` and around
//! `usize::MAX / 4`, where the byte count overflows), appended bytes and
//! crash points, with INT8 caches on and off.
//!
//! The new loader is reached through its one public staged entry,
//! `WeightsCell::load`. The oracle's copy is not sealed (the call that did
//! it is crate-private), so its fingerprint is taken from its bits
//! ([`fingerprint_of_bits`], which is what the call computed) and its INT8
//! caches are checked as logits: an INT8 executor on the loaded weights
//! against one built from the artifact's source seed.
//!
//! `old_vs_new_decode_ab` (ignored; release) times both decoders, and a
//! ResNet50 B = 4 and a ViT-Tiny B = 8 forward on each one's weights, rep
//! by rep.

mod oracle;

use harvest_engine::{
    encode_artifact, ArtifactError, Executor, MaterializedWeights, WeightStore, WeightsCell,
};
use harvest_models::{resnet50, vit, vit_tiny, Graph, GraphBuilder, Op, Shape, VitConfig};
use harvest_tensor::integrity::{checksum_bytes, checksum_f32};
use harvest_tensor::Tensor;
use oracle::artifact as old;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// The seed every artifact here is encoded from.
const SEED: u64 = 77;

fn tiny_vit() -> Graph {
    vit(
        "tiny-vit",
        &VitConfig {
            dim: 16,
            depth: 1,
            heads: 2,
            patch: 4,
            img: 8,
            mlp_ratio: 2,
            classes: 3,
        },
    )
}

fn tiny_cnn() -> Graph {
    let (mut b, input) = GraphBuilder::new("tiny-cnn", Shape::Chw { c: 3, h: 8, w: 8 });
    let conv = b.push(
        "conv",
        Op::Conv2d {
            cin: 3,
            cout: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
            bias: true,
        },
        &[input],
    );
    let bn = b.push("bn", Op::BatchNorm { channels: 4 }, &[conv]);
    let relu = b.push("relu", Op::Relu, &[bn]);
    let gap = b.push("gap", Op::GlobalAvgPool, &[relu]);
    let fc = b.push(
        "fc",
        Op::Linear {
            cin: 4,
            cout: 5,
            bias: true,
        },
        &[gap],
    );
    b.finish(fc)
}

/// A model under test: its graph, the weights its artifact is encoded
/// from, with INT8 caches off and on, and that artifact.
struct Case {
    graph: Graph,
    source: [MaterializedWeights; 2],
    bytes: Vec<u8>,
}

impl Case {
    fn new(graph: Graph) -> Self {
        let source = [false, true]
            .map(|int8| MaterializedWeights::new(&graph, &WeightStore::new(SEED), int8));
        let bytes = encode_artifact(&source[0]);
        Case {
            graph,
            source,
            bytes,
        }
    }

    /// Where tensor `j`'s `len` field starts in the clean artifact.
    fn len_field(&self, j: u64) -> usize {
        let mut at = 16;
        for _ in 0..j {
            let len = u64::from_le_bytes(self.bytes[at + 8..at + 16].try_into().unwrap());
            at += 24 + 4 * len as usize;
        }
        at + 8
    }

    fn count(&self) -> u64 {
        u64::from_le_bytes(self.bytes[8..16].try_into().unwrap())
    }
}

/// FNV-1a over every `(tensor id, checksum of its bits)`: the fingerprint
/// a sealed copy reports.
fn fingerprint_of_bits(w: &MaterializedWeights) -> u64 {
    let mut bytes = Vec::new();
    w.for_each_buffer(|id, buf| {
        bytes.extend_from_slice(&id.to_le_bytes());
        bytes.extend_from_slice(&checksum_f32(buf).to_le_bytes());
    });
    checksum_bytes(&bytes)
}

fn bits(w: &MaterializedWeights) -> Vec<(u64, Vec<u32>)> {
    let mut out = Vec::new();
    w.for_each_buffer(|id, buf| out.push((id, buf.iter().map(|v| v.to_bits()).collect())));
    out
}

/// The new loader on `bytes`, through the cell.
fn load(
    case: &Case,
    bytes: &[u8],
    int8: bool,
    crash_after: Option<u64>,
) -> Result<Arc<MaterializedWeights>, ArtifactError> {
    let booted = Arc::new(MaterializedWeights::new(
        &case.graph,
        &WeightStore::new(0),
        int8,
    ));
    let mut cell = WeightsCell::new(booted);
    cell.load(bytes, &case.graph, int8, crash_after)
        .map(|_| cell.current().weights())
}

/// Both decoders on `bytes`: `Err` with what differs, if anything does.
fn same_outcome(
    case: &Case,
    bytes: &[u8],
    int8: bool,
    crash_after: Option<u64>,
) -> Result<(), String> {
    let want = old::decode_artifact_staged(bytes, &case.graph, int8, crash_after);
    let got = load(case, bytes, int8, crash_after);
    let (want, got) = match (want, got) {
        (Err(want), Err(got)) if want == got => return Ok(()),
        (Ok(want), Ok(got)) => (want, got),
        (want, got) => {
            return Err(format!(
                "oracle {:?}, new {:?}",
                want.map(|w| w.fingerprint()),
                got.map(|w| w.fingerprint())
            ))
        }
    };
    if got.fingerprint() != fingerprint_of_bits(&want) {
        return Err("fingerprints differ".into());
    }
    if bits(&got) != bits(&want) {
        return Err("weight bits differ".into());
    }
    let mut exec = Executor::new(&case.graph, 1);
    exec.install_weights(Arc::clone(&got));
    if exec.verify_weights().is_err() {
        return Err("the loaded copy fails its own sums".into());
    }
    if int8 {
        // The only loads that pass carry the source's bits (a flip that
        // passed every sum would be an FNV collision), so an INT8 executor
        // on them must give the source's INT8 logits.
        let x = Tensor::random(&INPUT, 5, 1.0);
        let mut loaded = Executor::new_int8(&case.graph, 1);
        loaded.install_weights(got);
        let mut source = Executor::new_int8(&case.graph, 1);
        source.install_weights(Arc::new(case.source[1].clone()));
        if loaded.forward(&x).data() != source.forward(&x).data() {
            return Err("INT8 logits differ".into());
        }
    }
    Ok(())
}

/// Both tiny models' input.
const INPUT: [usize; 3] = [3, 8, 8];

fn cases() -> [Case; 2] {
    [Case::new(tiny_vit()), Case::new(tiny_cnn())]
}

#[test]
fn encode_is_the_oracles_byte_for_byte() {
    let vit96 = vit(
        "vit96",
        &VitConfig {
            dim: 192,
            depth: 1,
            heads: 3,
            patch: 16,
            img: 96,
            mlp_ratio: 4,
            classes: 16,
        },
    );
    for graph in [tiny_vit(), tiny_cnn(), vit96] {
        for int8 in [false, true] {
            for seed in [0, SEED, 1 << 40] {
                let w = MaterializedWeights::new(&graph, &WeightStore::new(seed), int8);
                let bytes = encode_artifact(&w);
                assert!(
                    bytes == old::encode_artifact(&w),
                    "{} int8 {int8} seed {seed}: encodes differ",
                    graph.name()
                );
                assert_eq!(bytes.len(), bytes.capacity(), "one exact allocation");
            }
        }
    }
}

#[test]
fn clean_artifacts_round_trip_as_the_oracles() {
    for case in cases() {
        for int8 in [false, true] {
            let got = load(&case, &case.bytes, int8, None).expect("a clean artifact loads");
            assert_eq!(got.fingerprint(), case.source[0].fingerprint());
            assert!(bits(&got) == bits(&case.source[0]));
            same_outcome(&case, &case.bytes, int8, None).unwrap();
        }
    }
}

#[test]
fn every_offset_flipped_or_cut_fails_as_the_oracle() {
    for case in cases() {
        let n = case.bytes.len();
        for at in 0..n {
            let mut flipped = case.bytes.clone();
            flipped[at] ^= 1 << (at % 8);
            same_outcome(&case, &flipped, false, None)
                .unwrap_or_else(|e| panic!("{}: flip at {at}: {e}", case.graph.name()));
            same_outcome(&case, &case.bytes[..at], false, None)
                .unwrap_or_else(|e| panic!("{}: cut at {at}: {e}", case.graph.name()));
        }
    }
}

#[test]
fn every_crash_point_fails_as_the_oracle() {
    for case in cases() {
        for int8 in [false, true] {
            for k in 0..=case.count() + 1 {
                same_outcome(&case, &case.bytes, int8, Some(k))
                    .unwrap_or_else(|e| panic!("{}: crash after {k}: {e}", case.graph.name()));
            }
            same_outcome(&case, &case.bytes, int8, Some(u64::MAX)).unwrap();
        }
    }
}

/// What a property case does to a clean artifact.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    /// Flip bit `bit` of the byte at `at % len`.
    Flip { at: u64, bit: u8 },
    /// Keep the first `at % len` bytes.
    Cut { at: u64 },
    /// Overwrite tensor `tensor % count`'s `len` field with a
    /// [`field_value`] near it.
    Len { tensor: u64, pick: u8, any: u64 },
    /// Overwrite the tensor count with a [`field_value`] near it.
    Count { pick: u8, any: u64 },
    /// Append `n` bytes of `fill`.
    Append { n: u8, fill: u8 },
    /// Load the clean artifact with a crash point.
    Crash { after: u64 },
}

/// A `len` or `count` field's replacement for the value `near` it held:
/// one either side, `usize::MAX / 4` and its neighbours (where the byte
/// count overflows), `u64::MAX`, or `any`.
fn field_value(near: u64, pick: u8, any: u64) -> u64 {
    let quarter = (usize::MAX / 4) as u64;
    match pick {
        0 => near + 1,
        1 => near.saturating_sub(1),
        2 => quarter - 1,
        3 => quarter,
        4 => quarter + 1,
        5 => u64::MAX,
        _ => any,
    }
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<u64>(), 0u8..8).prop_map(|(at, bit)| Mutation::Flip { at, bit }),
        any::<u64>().prop_map(|at| Mutation::Cut { at }),
        (any::<u64>(), 0u8..7, any::<u64>()).prop_map(|(tensor, pick, any)| Mutation::Len {
            tensor,
            pick,
            any
        }),
        (0u8..7, any::<u64>()).prop_map(|(pick, any)| Mutation::Count { pick, any }),
        (1u8..=16, any::<u8>()).prop_map(|(n, fill)| Mutation::Append { n, fill }),
        (0u64..64).prop_map(|after| Mutation::Crash { after }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn mutated_artifacts_decode_as_the_oracle(
        which in 0usize..2,
        int8 in any::<bool>(),
        m in mutation(),
    ) {
        let case = &cases()[which];
        let mut bytes = case.bytes.clone();
        let len = bytes.len() as u64;
        let mut crash = None;
        match m {
            Mutation::Flip { at, bit } => bytes[(at % len) as usize] ^= 1 << bit,
            Mutation::Cut { at } => bytes.truncate((at % len) as usize),
            Mutation::Len { tensor, pick, any } => {
                let at = case.len_field(tensor % case.count());
                let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
                bytes[at..at + 8].copy_from_slice(&field_value(len, pick, any).to_le_bytes());
            }
            Mutation::Count { pick, any } => {
                let count = field_value(case.count(), pick, any);
                bytes[8..16].copy_from_slice(&count.to_le_bytes());
            }
            Mutation::Append { n, fill } => bytes.extend(std::iter::repeat_n(fill, n as usize)),
            Mutation::Crash { after } => crash = Some(after % (case.count() + 2)),
        }
        let verdict = same_outcome(case, &bytes, int8, crash);
        prop_assert!(verdict.is_ok(), "{} {:?} int8 {}: {:?}", case.graph.name(), m, int8, verdict);
    }
}

/// Rep by rep, alternating which goes first: the oracle's decode against
/// the new one, then a forward on each one's weights, on the benchmark's
/// two offline models (ResNet50 at B = 4, ViT-Tiny at B = 8, 16 classes).
/// Ratios are old/new per rep: median (q1-q3). A control row runs the new
/// decoder's weights against a second copy of themselves: the harness's
/// own spread, and its bias between the two slots. Prints; asserts only
/// that both decodes give the same bits and logits.
#[test]
#[ignore = "release-only timing: cargo test --release -p harvest-engine --test artifact -- --ignored --nocapture"]
fn old_vs_new_decode_ab() {
    let quartiles = |mut r: Vec<f64>| {
        r.sort_by(f64::total_cmp);
        let at = |q: f64| r[((r.len() - 1) as f64 * q).round() as usize];
        format!("{:.3} ({:.3}-{:.3})", at(0.5), at(0.25), at(0.75))
    };
    for (graph, b, side) in [(resnet50(16), 4, 224), (vit_tiny(16), 8, 32)] {
        let name = graph.name().to_string();
        let bytes = encode_artifact(&MaterializedWeights::new(
            &graph,
            &WeightStore::new(SEED),
            false,
        ));
        let decode_old = || old::decode_artifact_staged(&bytes, &graph, false, None).unwrap();
        let decode_new = || harvest_engine::decode_artifact(&bytes, &graph, false).unwrap();
        let (mut ratios, mut ms) = (Vec::new(), [Vec::new(), Vec::new()]);
        for rep in 0..9 {
            let sides: [&dyn Fn() -> MaterializedWeights; 2] = [&decode_old, &decode_new];
            let mut secs = [0.0; 2];
            for k in [rep % 2, 1 - rep % 2] {
                let t = Instant::now();
                std::hint::black_box(sides[k]());
                secs[k] = t.elapsed().as_secs_f64();
                ms[k].push(secs[k] * 1e3);
            }
            ratios.push(secs[0] / secs[1]);
        }
        let [old_ms, new_ms] = ms.map(quartiles);
        println!(
            "{name}, {:.1} MB artifact: decode ms old {old_ms}, new {new_ms}; old/new {}",
            bytes.len() as f64 / 1e6,
            quartiles(ratios)
        );

        let batch: Vec<Tensor> = (0..b)
            .map(|i| Tensor::random(&[3, side, side], 100 + i as u64, 1.0))
            .collect();
        let forward_ratios = |pair: [MaterializedWeights; 2]| {
            assert!(bits(&pair[0]) == bits(&pair[1]));
            let execs = pair.map(|w| {
                let mut exec = Executor::new(&graph, 0);
                exec.install_weights(Arc::new(w));
                exec
            });
            let logits = execs.each_ref().map(|e| e.forward_batch(&batch));
            assert!(logits[0]
                .iter()
                .zip(&logits[1])
                .all(|(a, b)| a.data() == b.data()));
            let mut ratios = Vec::new();
            for rep in 0..31 {
                let mut secs = [0.0; 2];
                for k in [rep % 2, 1 - rep % 2] {
                    let t = Instant::now();
                    std::hint::black_box(execs[k].forward_batch(&batch));
                    secs[k] = t.elapsed().as_secs_f64();
                }
                ratios.push(secs[0] / secs[1]);
            }
            quartiles(ratios)
        };
        println!(
            "{name} B = {b} forward, old-decoded / new-decoded weights: {}",
            forward_ratios([decode_old(), decode_new()])
        );
        println!(
            "{name} B = {b} forward, new-decoded / new-decoded weights (control): {}",
            forward_ratios([decode_new(), decode_new()])
        );
    }
}
