//! The wire's ingest allocates nothing the size of the image it decodes
//! once its thread has decoded a body: the sampled decode's buffers stay
//! with the thread, so a connection thread stops faulting fresh pages in
//! on every request. A counting global allocator records this thread's
//! allocations during one steady-state call; the bounds are byte counts,
//! not timings.

use harvest::imaging::{ajpg_encode, decode_auto, AjpgOptions, FieldScene, SynthImageSpec};
use harvest::preproc::{ingest, preprocess_decoded};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one thread allocated while `ON` was set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Tally {
    /// Bytes over every allocation (a reallocation counts its new size).
    bytes: usize,
    /// Allocations of at least `BIG` bytes, and their bytes.
    big: usize,
    big_bytes: usize,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static BIG: Cell<usize> = const { Cell::new(usize::MAX) };
    static TALLY: Cell<Tally> = const { Cell::new(Tally { bytes: 0, big: 0, big_bytes: 0 }) };
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
                if size >= big {
                    tally.big += 1;
                    tally.big_bytes += size;
                }
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

#[test]
fn a_steady_state_ingest_allocates_the_tensor_and_nothing_image_sized() {
    for (side, out_res) in [(512usize, 16usize), (128, 96)] {
        let body = ajpg_encode(
            &FieldScene::RowCrop.render(&SynthImageSpec {
                width: side,
                height: side,
                seed: 3,
            }),
            &AjpgOptions::default(),
        );
        let case = format!("{side}x{side} -> {out_res}");
        // Warm-up: the first body on a thread sizes its buffers.
        let first = ingest(&body, out_res).expect("decodes");
        let want = preprocess_decoded(&decode_auto(&body).unwrap(), out_res);
        assert!(first.data() == want.data(), "{case}: tensor differs");

        let image_bytes = side * side;
        let (tally, tensor) = tally(image_bytes, || ingest(&body, out_res).expect("decodes"));
        assert!(tensor.data() == want.data(), "{case}: tensor differs");
        let tensor_bytes = 3 * out_res * out_res * 4;
        // The one allocation allowed to reach w·h bytes is the returned
        // tensor's own (at 128 -> 96 it is 6.75 w·h).
        let tensor_is_big = usize::from(tensor_bytes >= image_bytes);
        assert_eq!(
            (tally.big, tally.big_bytes),
            (tensor_is_big, tensor_is_big * tensor_bytes),
            "{case}: an allocation of w·h = {image_bytes} bytes or more besides the tensor ({tally:?})"
        );
        // Everything besides the tensor stays under one byte per sample of
        // the rows the resize taps (at most two per output row) across the
        // image's padded width.
        let tapped_rows = (2 * out_res).min(side);
        let padded_width = side.div_ceil(8) * 8;
        let bound = tensor_bytes + tapped_rows * padded_width;
        assert!(
            tally.bytes <= bound,
            "{case}: {} bytes allocated, over tensor {tensor_bytes} + {tapped_rows} tapped rows × {padded_width}",
            tally.bytes
        );
    }
}
