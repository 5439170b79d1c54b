//! The weight artifact loader copies each payload byte once and builds no
//! second model: decoding allocates the staging weights and a bookkeeping
//! record per tensor, plus one view for packing the largest matmul weight,
//! and encoding allocates the artifact once. A counting global allocator
//! records this thread's allocations; the bounds are byte counts, not
//! timings.

use harvest::engine::{decode_artifact, encode_artifact, MaterializedWeights, WeightStore};
use harvest::models::{vit, Graph, GraphBuilder, Op, Shape, VitConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one thread allocated while `ON` was set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Tally {
    /// Bytes over every allocation (a reallocation counts its new size).
    bytes: usize,
    /// Allocations of at least `BIG` bytes.
    big: usize,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static BIG: Cell<usize> = const { Cell::new(usize::MAX) };
    static TALLY: Cell<Tally> = const { Cell::new(Tally { bytes: 0, big: 0 }) };
}

struct Counting;

impl Counting {
    fn note(size: usize) {
        // `try_with`: the allocator also runs while thread-locals are torn
        // down.
        if ON.try_with(Cell::get).unwrap_or(false) {
            let big = BIG.with(Cell::get);
            TALLY.with(|t| {
                let mut tally = t.get();
                tally.bytes += size;
                tally.big += usize::from(size >= big);
                t.set(tally);
            });
        }
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The allocations of `f` on this thread, counting as big those of at
/// least `big` bytes.
fn tally<R>(big: usize, f: impl FnOnce() -> R) -> (Tally, R) {
    BIG.with(|b| b.set(big));
    TALLY.with(|t| t.set(Tally::default()));
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    (TALLY.with(Cell::get), out)
}

/// Bookkeeping allowed per tensor: the loader's record of it, the graph's
/// manifest entry and the checksum kept, each a few words, with slack for
/// a growing `Vec`'s doubling.
const PER_TENSOR: usize = 256;

/// A ViT whose biggest tensor is a small share of the whole, so a second
/// copy of the payload cannot hide in the slack for one view.
fn small_vit() -> Graph {
    vit(
        "small-vit",
        &VitConfig {
            dim: 32,
            depth: 3,
            heads: 2,
            patch: 4,
            img: 16,
            mlp_ratio: 2,
            classes: 4,
        },
    )
}

/// Plain conv and BatchNorm tensors, one packed linear.
fn small_cnn() -> Graph {
    let (mut b, mut x) = GraphBuilder::new("small-cnn", Shape::Chw { c: 3, h: 8, w: 8 });
    let mut cin = 3;
    for (i, cout) in [8, 16, 16, 32].into_iter().enumerate() {
        let conv = Op::Conv2d {
            cin,
            cout,
            kernel: 3,
            stride: 1,
            pad: 1,
            bias: i % 2 == 0,
        };
        x = b.push(format!("conv{i}"), conv, &[x]);
        x = b.push(format!("bn{i}"), Op::BatchNorm { channels: cout }, &[x]);
        x = b.push(format!("relu{i}"), Op::Relu, &[x]);
        cin = cout;
    }
    let gap = b.push("gap", Op::GlobalAvgPool, &[x]);
    let fc = Op::Linear {
        cin,
        cout: 10,
        bias: true,
    };
    let fc = b.push("fc", fc, &[gap]);
    b.finish(fc)
}

/// Tensors in `w` and the largest one's bytes in its logical order.
fn tensors(w: &MaterializedWeights) -> (usize, usize) {
    let (mut count, mut largest) = (0, 0);
    w.for_each_buffer(|_, buf| {
        count += 1;
        largest = largest.max(4 * buf.len());
    });
    (count, largest)
}

#[test]
fn decode_allocates_the_staging_weights_and_bookkeeping_only() {
    for graph in [small_vit(), small_cnn()] {
        let name = graph.name().to_string();
        let source = MaterializedWeights::new(&graph, &WeightStore::new(5), false);
        let bytes = encode_artifact(&source);
        let (count, largest) = tensors(&source);
        // What the staging weights take: a copy of the same weights
        // allocates every buffer (panels included) and the checksum list.
        let (staging, copy) = tally(usize::MAX, || source.clone());
        drop(copy);
        let (decode, loaded) = tally(usize::MAX, || {
            decode_artifact(&bytes, &graph, false).expect("a clean artifact loads")
        });
        assert_eq!(loaded.fingerprint(), source.fingerprint(), "{name}");
        let payload = bytes.len() - 24 - 24 * count;
        let bound = staging.bytes + largest + PER_TENSOR * count;
        assert!(
            decode.bytes <= bound,
            "{name}: decode allocated {} bytes, over the staging weights' {} + one view of {largest} + {PER_TENSOR} × {count} tensors \
             (the payload is {payload} bytes)",
            decode.bytes,
            staging.bytes,
        );
        // The bound has no room for a second copy of the payload.
        assert!(
            largest + PER_TENSOR * count < payload,
            "{name}: the model is too small to tell"
        );
    }
}

#[test]
fn encode_allocates_the_artifact_once() {
    for graph in [small_vit(), small_cnn()] {
        let name = graph.name().to_string();
        let source = MaterializedWeights::new(&graph, &WeightStore::new(5), false);
        let expected = encode_artifact(&source);
        let (count, largest) = tensors(&source);
        let (encode, bytes) = tally(expected.len(), || encode_artifact(&source));
        assert!(bytes == expected, "{name}: encode is not deterministic");
        assert_eq!(
            bytes.len(),
            bytes.capacity(),
            "{name}: the artifact's one allocation is exact"
        );
        assert_eq!(encode.big, 1, "{name}: {encode:?}");
        // Besides the artifact: the per-tensor sums (four views of the
        // packed weights hashed at once, one more to write the payload)
        // and bookkeeping.
        let bound = bytes.len() + 5 * largest + PER_TENSOR * count;
        assert!(
            encode.bytes <= bound,
            "{name}: encode allocated {} bytes, over the artifact's {} + five views of {largest} + {PER_TENSOR} × {count} tensors",
            encode.bytes,
            bytes.len(),
        );
    }
}
