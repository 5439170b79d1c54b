//! The executor's `Mlp` and `Attention` nodes — a batch run in chunks of
//! rows sized to the cache, each chunk's intermediates in a per-thread
//! scratch loan — held bit for bit to the whole-batch walks they replaced
//! (`oracle/whole_batch.rs`, verbatim), on Mlp-only and Attention-only
//! graphs at ViT-Tiny's 257 rows per image (which no chunk of whole register
//! tiles divides) and the benchmark vit96's 37, B ∈ {1, 3, 8, 64} (64 on the
//! Mlp-only graph), at pool widths 1/2/3/8, for `Executor::new` and
//! `Executor::new_int8`. The oracle reads its weights through
//! `for_each_buffer`, so it multiplies the logical view of what the
//! executor packed.
//!
//! `whole_batch_vs_chunked_ab` (ignored; release) times the two walks on
//! whole ViT-Tiny forwards, in one process, rep by rep.

mod oracle;

use harvest_engine::Executor;
use harvest_models::{vit_tiny, Graph, GraphBuilder, Op, Shape};
use harvest_tensor::{add_bias, gemm_with, layernorm, PackedB, PanelSource, Tensor};
use oracle::whole_batch::{
    attention_whole_batch, matmul_into, mlp_whole_batch, Arena, LinearWeight,
};
use std::collections::HashMap;
use std::time::Instant;

/// `(name, rows per image)`; both models are ViT-Tiny wide.
const SHAPES: [(&str, usize); 2] = [("vit_tiny", 257), ("vit96", 37)];
const DIM: usize = 192;
const HEADS: usize = 3;
const HIDDEN: usize = 4 * DIM;

fn one_node_graph(s: usize, op: Op) -> Graph {
    let (mut b, input) = GraphBuilder::new("one-node", Shape::Seq { s, d: DIM });
    let node = b.push("node", op, &[input]);
    b.finish(node)
}

/// Every weight tensor of `exec`, keyed by its tensor id (`node << 3 | role`),
/// in its logical order.
fn weight_views(exec: &Executor<'_>) -> HashMap<u64, Vec<f32>> {
    let mut views = HashMap::new();
    exec.materialized().for_each_buffer(|id, buf| {
        views.insert(id, buf.to_vec());
    });
    views
}

/// Node `node`'s two matmul weights and biases (roles 0–3) as the oracle
/// holds them: `(k, n)` of each weight given, INT8-quantized when `int8`.
fn pair(
    views: &HashMap<u64, Vec<f32>>,
    node: u64,
    (k1, n1): (usize, usize),
    (k2, n2): (usize, usize),
    int8: bool,
) -> (LinearWeight, Vec<f32>, LinearWeight, Vec<f32>) {
    let view = |role: u64| views[&(node << 3 | role)].clone();
    (
        LinearWeight::new(&view(0), k1, n1, int8),
        view(1),
        LinearWeight::new(&view(2), k2, n2, int8),
        view(3),
    )
}

fn inputs(s: usize, b: usize) -> Vec<Tensor> {
    (0..b as u64)
        .map(|i| Tensor::random(&[s, DIM], 4500 + i, 1.0))
        .collect()
}

/// At every pool width, `exec`'s batch is `want` to the bit.
fn assert_bits_at_every_width(exec: &Executor<'_>, xs: &[Tensor], want: &[f32], what: &str) {
    for threads in [1usize, 2, 3, 8] {
        let mut sink = Vec::new();
        harvest_threads::with_threads(threads, || exec.forward_batch_into(xs, &mut sink));
        assert_eq!(sink.len(), want.len(), "{what} threads={threads}");
        for (i, (x, y)) in sink.iter().zip(want).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what} threads={threads}: element {i}: {x} vs {y}"
            );
        }
    }
}

#[test]
fn mlp_chunks_are_the_whole_batch_walk_bitwise() {
    for (name, s) in SHAPES {
        let g = one_node_graph(
            s,
            Op::Mlp {
                dim: DIM,
                hidden: HIDDEN,
            },
        );
        for int8 in [false, true] {
            let exec = if int8 {
                Executor::new_int8(&g, 0xc4a)
            } else {
                Executor::new(&g, 0xc4a)
            };
            let views = weight_views(&exec);
            let (w1, b1, w2, b2) = pair(&views, 1, (DIM, HIDDEN), (HIDDEN, DIM), int8);
            for b in [1usize, 3, 8, 64] {
                let xs = inputs(s, b);
                let stacked: Vec<f32> = xs.iter().flat_map(|x| x.data().to_vec()).collect();
                let want = harvest_threads::with_threads(1, || {
                    let weights = (&w1, &b1[..], &w2, &b2[..]);
                    let mut arena = Arena::default();
                    mlp_whole_batch(int8, &stacked, weights, b, s, DIM, HIDDEN, &mut arena)
                });
                let what = format!("mlp {name} int8={int8} B={b}");
                assert_bits_at_every_width(&exec, &xs, &want, &what);
            }
        }
    }
}

#[test]
fn attention_chunks_are_the_whole_batch_walk_bitwise() {
    for (name, s) in SHAPES {
        let g = one_node_graph(
            s,
            Op::Attention {
                dim: DIM,
                heads: HEADS,
            },
        );
        for int8 in [false, true] {
            let exec = if int8 {
                Executor::new_int8(&g, 0xa77)
            } else {
                Executor::new(&g, 0xa77)
            };
            // Attention projections stay f32 in an INT8 executor.
            let views = weight_views(&exec);
            let (wq, bq, wo, bo) = pair(&views, 1, (DIM, 3 * DIM), (DIM, DIM), false);
            for b in [1usize, 3, 8] {
                let xs = inputs(s, b);
                let stacked: Vec<f32> = xs.iter().flat_map(|x| x.data().to_vec()).collect();
                let want = harvest_threads::with_threads(1, || {
                    let weights = (&wq, &bq[..], &wo, &bo[..]);
                    let mut arena = Arena::default();
                    attention_whole_batch(int8, &stacked, weights, b, s, DIM, HEADS, &mut arena)
                });
                let what = format!("attention {name} int8={int8} B={b}");
                assert_bits_at_every_width(&exec, &xs, &want, &what);
            }
        }
    }
}

/// A node's weights as the whole-batch walk reads them.
enum Held {
    None,
    PatchEmbed {
        weight: PackedB,
        bias: Vec<f32>,
        cls: Vec<f32>,
        pos: Vec<f32>,
    },
    LayerNorm {
        gamma: Vec<f32>,
        beta: Vec<f32>,
    },
    Linear {
        w: LinearWeight,
        bias: Vec<f32>,
    },
    Pair(LinearWeight, Vec<f32>, LinearWeight, Vec<f32>),
}

/// An f32 ViT forward as the executor walked it before its `Mlp` and
/// `Attention` nodes ran in chunks: the same node order, liveness and arena
/// reuse, every other node's body the executor's own. Covers the ops
/// `harvest_models::vit` builds.
struct WholeBatchWalk<'g> {
    graph: &'g Graph,
    held: Vec<Held>,
    last_use: Vec<usize>,
}

impl<'g> WholeBatchWalk<'g> {
    fn new(graph: &'g Graph, exec: &Executor<'_>) -> Self {
        let views = weight_views(exec);
        let view = |node: usize, role: u64| views[&((node as u64) << 3 | role)].clone();
        let held = graph
            .nodes()
            .iter()
            .map(|node| {
                let id = node.id.0;
                match node.op {
                    Op::PatchEmbed { in_ch, dim, patch } => {
                        let (k, out_major) = (in_ch * patch * patch, view(id, 0));
                        let source = PanelSource::Transposed {
                            b: &out_major,
                            ldb: k,
                        };
                        Held::PatchEmbed {
                            weight: PackedB::new(source, k, dim),
                            bias: view(id, 1),
                            cls: view(id, 2),
                            pos: view(id, 3),
                        }
                    }
                    Op::LayerNorm { .. } => Held::LayerNorm {
                        gamma: view(id, 0),
                        beta: view(id, 1),
                    },
                    Op::Linear { cin, cout, .. } => Held::Linear {
                        w: LinearWeight::new(&view(id, 0), cin, cout, false),
                        bias: view(id, 1),
                    },
                    Op::Attention { dim, .. } => {
                        let (a, b, c, d) =
                            pair(&views, id as u64, (dim, 3 * dim), (dim, dim), false);
                        Held::Pair(a, b, c, d)
                    }
                    Op::Mlp { dim, hidden } => {
                        let (a, b, c, d) =
                            pair(&views, id as u64, (dim, hidden), (hidden, dim), false);
                        Held::Pair(a, b, c, d)
                    }
                    _ => Held::None,
                }
            })
            .collect();
        let mut last_use = vec![usize::MAX; graph.nodes().len()];
        for node in graph.nodes() {
            for inp in &node.inputs {
                last_use[inp.0] = node.id.0;
            }
        }
        last_use[graph.output().0] = usize::MAX;
        WholeBatchWalk {
            graph,
            held,
            last_use,
        }
    }

    fn forward(&self, xs: &[Tensor], arena: &mut Arena, sink: &mut Vec<f32>) {
        sink.clear();
        let b = xs.len();
        let per = self.graph.input_shape().elements();
        let mut values: Vec<Option<Vec<f32>>> = vec![None; self.graph.nodes().len()];
        let mut stacked = arena.take(b * per);
        for (slot, x) in stacked.chunks_exact_mut(per).zip(xs) {
            slot.copy_from_slice(x.data());
        }
        values[0] = Some(stacked);
        for node in self.graph.nodes().iter().skip(1) {
            let s = match node.out_shape {
                Shape::Seq { s, .. } => s,
                _ => 1,
            };
            let out = match (&node.op, &self.held[node.id.0]) {
                (
                    &Op::PatchEmbed { in_ch, patch, dim },
                    Held::PatchEmbed {
                        weight,
                        bias,
                        cls,
                        pos,
                    },
                ) => {
                    let Shape::Chw { h, w, .. } = self.graph.node(node.inputs[0]).out_shape else {
                        panic!("patch-embed input");
                    };
                    let x = values[node.inputs[0].0]
                        .as_ref()
                        .expect("topological order");
                    let (n_patches, gw, k, d) =
                        ((h / patch) * (w / patch), w / patch, weight.k(), dim);
                    let mut tokens = arena.take(b * n_patches * k);
                    let images = x.chunks_exact(in_ch * h * w);
                    for (img, rows) in images.zip(tokens.chunks_exact_mut(n_patches * k)) {
                        for (t, row) in rows.chunks_exact_mut(k).enumerate() {
                            let (y0, x0) = (t / gw * patch, t % gw * patch);
                            for (c_ky, seg) in row.chunks_exact_mut(patch).enumerate() {
                                let (c, ky) = (c_ky / patch, c_ky % patch);
                                seg.copy_from_slice(&img[(c * h + y0 + ky) * w + x0..][..patch]);
                            }
                        }
                    }
                    let mut seq = arena.take(b * s * d);
                    harvest_threads::for_each_zipped_chunks(
                        &tokens,
                        n_patches * k,
                        &mut seq,
                        s * d,
                        |_, tok, seq_img| {
                            seq_img[..d].copy_from_slice(cls);
                            let b = PanelSource::Packed(weight);
                            gemm_with(tok, k, b, &mut seq_img[d..], d, n_patches, k, d);
                            add_bias(&mut seq_img[d..], bias);
                            for (v, p) in seq_img.iter_mut().zip(pos) {
                                *v += p;
                            }
                        },
                    );
                    arena.give(tokens);
                    seq
                }
                (&Op::LayerNorm { dim }, Held::LayerNorm { gamma, beta }) => {
                    let mut x = self.take_input(&mut values, node.inputs[0].0, node.id.0, arena);
                    layernorm(&mut x, dim, gamma, beta, 1e-5);
                    x
                }
                (&Op::Attention { dim, heads }, Held::Pair(wq, bq, wo, bo)) => {
                    let x = values[node.inputs[0].0]
                        .as_ref()
                        .expect("topological order");
                    let weights = (wq, &bq[..], wo, &bo[..]);
                    attention_whole_batch(false, x, weights, b, s, dim, heads, arena)
                }
                (&Op::Mlp { dim, hidden }, Held::Pair(w1, b1, w2, b2)) => {
                    let x = values[node.inputs[0].0]
                        .as_ref()
                        .expect("topological order");
                    let weights = (w1, &b1[..], w2, &b2[..]);
                    mlp_whole_batch(false, x, weights, b, s, dim, hidden, arena)
                }
                (Op::Add, _) => {
                    let mut a = self.take_input(&mut values, node.inputs[0].0, node.id.0, arena);
                    let other = values[node.inputs[1].0]
                        .as_ref()
                        .expect("topological order");
                    for (av, bv) in a.iter_mut().zip(other) {
                        *av += bv;
                    }
                    a
                }
                (Op::ClsSelect, _) => {
                    let x = values[node.inputs[0].0]
                        .as_ref()
                        .expect("topological order");
                    let (d, sd) = (node.out_shape.elements(), x.len() / b);
                    let mut out = arena.take(b * d);
                    for img in 0..b {
                        out[img * d..(img + 1) * d].copy_from_slice(&x[img * sd..img * sd + d]);
                    }
                    out
                }
                (&Op::Linear { cin, .. }, Held::Linear { w, bias }) => {
                    let x = values[node.inputs[0].0]
                        .as_ref()
                        .expect("topological order");
                    let rows = x.len() / cin;
                    let mut out = arena.take(rows * w.b.n());
                    matmul_into(false, x, w, rows, b, &mut out);
                    add_bias(&mut out, bias);
                    out
                }
                (op, _) => panic!("the whole-batch walk runs ViT graphs only, not {op:?}"),
            };
            values[node.id.0] = Some(out);
            for inp in &node.inputs {
                if self.last_use[inp.0] == node.id.0 {
                    if let Some(v) = values[inp.0].take() {
                        arena.give(v);
                    }
                }
            }
        }
        let out = values[self.graph.output().0]
            .take()
            .expect("output computed");
        sink.extend_from_slice(&out);
        arena.give(out);
        for v in values.iter_mut() {
            if let Some(v) = v.take() {
                arena.give(v);
            }
        }
    }

    /// The executor's `take_input`: steal the buffer at its last use, copy
    /// it into an arena buffer otherwise.
    fn take_input(
        &self,
        values: &mut [Option<Vec<f32>>],
        inp: usize,
        at: usize,
        arena: &mut Arena,
    ) -> Vec<f32> {
        if self.last_use[inp] == at {
            values[inp].take().expect("topological order")
        } else {
            let v = values[inp].as_ref().expect("topological order");
            let mut data = arena.take(v.len());
            data.copy_from_slice(v);
            data
        }
    }
}

/// `(q1, median, q3)` of `v`, linearly interpolated.
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let x = q * (v.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Whole ViT-Tiny forwards through the whole-batch walk and through
/// `Executor::run`, at one and two threads and B ∈ {1, 8}: both walks'
/// logits are first asserted equal to the bit, then each rep times all four
/// (walk, B) forwards, alternating which walk goes first. It prints the
/// median and IQR of the per-rep new / old ratio at each B, and of the
/// batching ratio (one B = 8 forward over eight B = 1 forwards) of each walk.
/// It asserts nothing about time. Run it with `cargo test --release -p
/// harvest-engine --test chunked_nodes -- --ignored --nocapture`.
#[test]
#[ignore = "wall clock: run in release with --ignored --nocapture"]
fn whole_batch_vs_chunked_ab() {
    if cfg!(debug_assertions) {
        eprintln!("whole_batch_vs_chunked_ab: release builds only");
        return;
    }
    const REPS: usize = 15;
    let g = vit_tiny(16);
    let exec = Executor::new(&g, 0xab);
    let walk = WholeBatchWalk::new(&g, &exec);
    let xs: Vec<Tensor> = (0..8)
        .map(|i| Tensor::random(&[3, 32, 32], 4600 + i, 1.0))
        .collect();
    let mut arena = Arena::default();
    let (mut old_sink, mut new_sink) = (Vec::new(), Vec::new());
    for threads in [1usize, 2] {
        harvest_threads::with_threads(threads, || {
            for b in [1usize, 8] {
                walk.forward(&xs[..b], &mut arena, &mut old_sink);
                exec.forward_batch_into(&xs[..b], &mut new_sink);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&old_sink), bits(&new_sink), "threads={threads} B={b}");
            }
            // [old B=1, new B=1, old B=8, new B=8] seconds, per rep.
            let mut reps: Vec<[f64; 4]> = Vec::with_capacity(REPS);
            for rep in 0..REPS {
                let mut t = [0.0; 4];
                for b in [1usize, 8] {
                    let slot = if b == 1 { 0 } else { 2 };
                    for first_new in [rep % 2 == 1, rep % 2 == 0] {
                        let start = Instant::now();
                        if first_new {
                            exec.forward_batch_into(&xs[..b], &mut new_sink);
                        } else {
                            walk.forward(&xs[..b], &mut arena, &mut old_sink);
                        }
                        t[slot + first_new as usize] = start.elapsed().as_secs_f64();
                    }
                }
                reps.push(t);
            }
            let show = |label: &str, ratio: &dyn Fn(&[f64; 4]) -> f64| {
                let r: Vec<f64> = reps.iter().map(ratio).collect();
                let (q1, med, q3) = quartiles(&r);
                println!(
                    "threads={threads} {label}: median {med:.3} (IQR {q1:.3}-{q3:.3}), {REPS} reps"
                );
            };
            show("new/old B=1", &|t| t[1] / t[0]);
            show("new/old B=8", &|t| t[3] / t[2]);
            show("old B=8 / 8 x B=1", &|t| t[2] / (8.0 * t[0]));
            show("new B=8 / 8 x B=1", &|t| t[3] / (8.0 * t[1]));
            let ms = |i: usize| quartiles(&reps.iter().map(|t| t[i] * 1e3).collect::<Vec<_>>()).1;
            println!(
                "threads={threads} median ms: old B=1 {:.1}, new B=1 {:.1}, old B=8 {:.1}, new B=8 {:.1}",
                ms(0),
                ms(1),
                ms(2),
                ms(3)
            );
        });
    }
}
