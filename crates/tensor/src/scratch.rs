//! Thread-local recycling pool for kernel scratch buffers.
//!
//! The GEMM's packed B panels and the attention core's score rows are
//! short-lived `Vec<f32>`s whose sizes repeat exactly from forward to
//! forward. On the serving hot path that used to
//! mean a handful of heap allocations per layer per request. This module
//! loans those buffers from a per-thread free list instead: `with_f32`
//! hands the closure a zero-filled `&mut [f32]` of the requested length,
//! then returns the backing `Vec` to the pool when the closure exits.
//!
//! Semantics are identical to `vec![0.0f32; len]` — the loaned slice is
//! always fully zeroed — so converting a call site cannot change numerics.
//!
//! Recycling is a process-wide toggle (default **on**). The bench
//! harness's allocation probe turns it off to measure the pre-recycling
//! baseline. Buffers never migrate between threads, so the pool is safe
//! (and effective) under `harvest-threads` worker loops, where each pool
//! worker runs its forwards on one OS thread for its whole lifetime.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Process-wide switch: when false, `with_f32` allocates fresh per call
/// (the pre-recycling behaviour the allocation probe baselines against).
static RECYCLING: AtomicBool = AtomicBool::new(true);

/// Total `with_f32` loans issued (either mode).
static TAKES: AtomicU64 = AtomicU64::new(0);
/// Loans served by reusing a pooled buffer without growing it.
static HITS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread free list. Small by construction: a forward pass holds at
    /// most a few loans at once, and distinct sizes collapse onto the same
    /// buffer via best-fit reuse.
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Cap on pooled buffers per thread; beyond this the returned buffer is
/// simply dropped. Forward passes nest only a few loans deep.
const MAX_POOLED: usize = 16;

/// Enable or disable buffer recycling process-wide.
pub fn set_recycling(enabled: bool) {
    RECYCLING.store(enabled, Ordering::SeqCst);
}

/// `(takes, hits)` — loans issued and loans served without a fresh heap
/// allocation, process-wide since start.
pub fn counters() -> (u64, u64) {
    (TAKES.load(Ordering::SeqCst), HITS.load(Ordering::SeqCst))
}

/// Run `f` with a zero-filled scratch slice of `len` f32s.
///
/// Re-entrant: the buffer is removed from the pool for the duration of the
/// closure, so nested `with_f32` calls each get their own backing store.
pub(crate) fn with_f32<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    TAKES.fetch_add(1, Ordering::Relaxed);
    if !RECYCLING.load(Ordering::Relaxed) {
        let mut v = vec![0.0f32; len];
        return f(&mut v);
    }
    let mut buf = POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        // Best fit: smallest pooled buffer whose capacity covers the request.
        let best = pool
            .iter()
            .enumerate()
            .filter(|(_, v)| v.capacity() >= len)
            .min_by_key(|(_, v)| v.capacity())
            .map(|(i, _)| i);
        match best {
            Some(i) => {
                HITS.fetch_add(1, Ordering::Relaxed);
                pool.swap_remove(i)
            }
            None => Vec::new(),
        }
    });
    buf.clear();
    buf.resize(len, 0.0);
    let out = f(&mut buf);
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if buf.capacity() > 0 && pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    });
    out
}

/// Drop every buffer pooled by the *current* thread. Executors call this
/// when they are evicted so idle models do not pin scratch memory.
pub fn trim_thread_pool() {
    POOL.with(|pool| pool.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loans_are_zero_filled() {
        // Dirty a buffer, return it, and check the next loan is zeroed.
        with_f32(8, |s| s.fill(7.5));
        with_f32(8, |s| assert!(s.iter().all(|&v| v == 0.0)));
        with_f32(4, |s| assert!(s.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn reuse_is_counted() {
        let (takes0, hits0) = counters();
        with_f32(16, |_| {});
        with_f32(16, |_| {});
        let (takes, hits) = counters();
        assert!(takes - takes0 >= 2);
        if RECYCLING.load(Ordering::SeqCst) {
            assert!(
                hits - hits0 >= 1,
                "second identical loan should hit the pool"
            );
        }
    }

    #[test]
    fn nested_loans_are_distinct() {
        with_f32(4, |outer| {
            outer.fill(1.0);
            with_f32(4, |inner| {
                assert!(inner.iter().all(|&v| v == 0.0));
                inner.fill(2.0);
            });
            assert!(outer.iter().all(|&v| v == 1.0));
        });
    }

    #[test]
    fn disabled_mode_matches_semantics() {
        set_recycling(false);
        with_f32(8, |s| s.fill(3.0));
        with_f32(8, |s| assert!(s.iter().all(|&v| v == 0.0)));
        set_recycling(true);
    }

    #[test]
    fn trim_clears_thread_pool() {
        with_f32(32, |_| {});
        trim_thread_pool();
        // No assertion on internals beyond "doesn't panic and next loan works".
        with_f32(32, |s| assert_eq!(s.len(), 32));
    }
}
