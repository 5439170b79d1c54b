//! A deterministic multicore runtime with no external dependencies.
//!
//! The one parallel API of this workspace: a [`std::thread::scope`]-based
//! work-sharing pool that hands out task indices from an atomic counter, with
//! the calling thread itself participating as a worker. Kernels call
//! [`for_each_chunk_mut`], [`for_each_zipped_chunks`] and [`par_map`]
//! directly; all three share one private task loop, `run_tasks`. There is no persistent thread state and no unsafe
//! lifetime erasure of closures — each parallel region borrows its inputs
//! through the scope, so the borrow checker sees everything.
//!
//! # Determinism contract
//!
//! The pool schedules *which worker* runs a task dynamically, but every task
//! owns a disjoint output region and computes it from shared read-only
//! inputs with a fixed per-element arithmetic order. Results are therefore
//! **bit-identical at every thread count** — `HARVEST_THREADS=1` produces
//! exactly the bytes `HARVEST_THREADS=64` does. The proptests in
//! `harvest-tensor` and `harvest-engine` pin this property.
//!
//! # Thread-count resolution
//!
//! [`max_threads`] resolves, in order:
//!
//! 1. `1` when already inside a pool worker (nested parallel regions run
//!    sequentially instead of oversubscribing — the outer region already
//!    owns every core);
//! 2. a scoped [`with_threads`] override on the calling thread (how the
//!    in-process determinism tests compare thread counts);
//! 3. the `HARVEST_THREADS` environment variable, read once per process
//!    (values `>= 1`; `1` means exactly the sequential path — no scope is
//!    ever entered, no thread is ever spawned);
//! 4. [`std::thread::available_parallelism`].

use std::cell::Cell;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Hardware thread count of the host (ignores the env knob and overrides).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| match std::env::var("HARVEST_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => hardware_threads(),
        },
        Err(_) => hardware_threads(),
    })
}

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// The thread budget a parallel region started *now, on this thread* would
/// get. Callers use it to size work blocks; `1` means the region will run
/// sequentially.
pub fn max_threads() -> usize {
    if IN_POOL.with(Cell::get) {
        return 1;
    }
    match OVERRIDE.with(Cell::get) {
        Some(n) => n.max(1),
        None => configured_threads().max(1),
    }
}

/// Run `f` with the calling thread's budget forced to `n` (clamped to at
/// least 1). Restores the previous override on exit, panics included. This
/// is the in-process twin of the `HARVEST_THREADS` env knob, used by the
/// determinism tests and the logits ledger's two pool widths.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(Some(n.max(1)))));
    f()
}

/// Marks the current thread as a pool worker for the guard's lifetime, so
/// nested parallel regions take the sequential path.
struct PoolGuard(bool);

impl PoolGuard {
    fn enter() -> Self {
        PoolGuard(IN_POOL.with(|c| c.replace(true)))
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        IN_POOL.with(|c| c.set(self.0));
    }
}

/// Execute `f(0), f(1), …, f(n_tasks - 1)`, each exactly once, spread over
/// the current thread budget. Tasks are handed out through a shared atomic
/// counter (work-sharing: a worker that finishes a cheap task immediately
/// pulls the next index), and the calling thread works alongside the
/// spawned ones. With a budget of 1 — or a single task — this is a plain
/// sequential loop: no scope, no spawn, no atomics.
///
/// A panic inside any task propagates to the caller once the scope joins.
pub(crate) fn run_tasks<F: Fn(usize) + Sync>(n_tasks: usize, f: F) {
    let threads = max_threads().min(n_tasks);
    if threads <= 1 {
        for i in 0..n_tasks {
            f(i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let _guard = PoolGuard::enter();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_tasks {
                break;
            }
            f(i);
        }
    };
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(work);
        }
        work();
    });
}

/// Raw-pointer wrapper so disjoint regions of one buffer can be written
/// from several scoped workers. Safety rests on the callers below handing
/// every task a region no other task touches.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than direct field use) so closures capture the
    /// whole `Sync` wrapper, not the bare pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Call `f(block_index, chunk)` for every `chunk`-sized block of `data`
/// (the last block may be shorter), blocks in parallel. The parallel twin
/// of `data.chunks_mut(chunk).enumerate().for_each(…)`.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let len = data.len();
    if len == 0 {
        return;
    }
    let base = SendPtr(data.as_mut_ptr());
    run_tasks(len.div_ceil(chunk), |i| {
        let start = i * chunk;
        let n = chunk.min(len - start);
        // SAFETY: `run_tasks` hands out each block index exactly once, and
        // block `i` covers `[i·chunk, i·chunk + n)` — pairwise-disjoint
        // in-bounds ranges of a buffer that outlives the region.
        let block = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), n) };
        f(i, block);
    });
}

/// Call `f(i, a_chunk, b_chunk)` for each complete pair of an `a_chunk`-
/// sized block of `a` and a `b_chunk`-sized block of `b` (trailing
/// remainders are skipped, `chunks_exact` semantics). The parallel twin of
/// `a.chunks_exact(ac).zip(b.chunks_exact_mut(bc)).enumerate()`.
pub fn for_each_zipped_chunks<T, U, F>(a: &[T], a_chunk: usize, b: &mut [U], b_chunk: usize, f: F)
where
    T: Sync,
    U: Send,
    F: Fn(usize, &[T], &mut [U]) + Sync,
{
    assert!(a_chunk > 0 && b_chunk > 0, "chunk sizes must be positive");
    let pairs = (a.len() / a_chunk).min(b.len() / b_chunk);
    let base = SendPtr(b.as_mut_ptr());
    run_tasks(pairs, |i| {
        let a_blk = &a[i * a_chunk..(i + 1) * a_chunk];
        // SAFETY: as in `for_each_chunk_mut` — task `i` exclusively owns
        // `b[i·b_chunk, (i+1)·b_chunk)`.
        let b_blk = unsafe { std::slice::from_raw_parts_mut(base.get().add(i * b_chunk), b_chunk) };
        f(i, a_blk, b_blk);
    });
}

/// Evaluate `f(0), …, f(n - 1)` in parallel and collect the results **in
/// index order** — scheduling never reorders the output. The parallel twin
/// of `(0..n).map(f).collect()`.
///
/// If a task panics, the scope re-raises it; results produced by other
/// tasks are leaked (not dropped) in that case.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
    out.resize_with(n, MaybeUninit::uninit);
    let slots = SendPtr(out.as_mut_ptr());
    run_tasks(n, |i| {
        let v = f(i);
        // SAFETY: slot `i` belongs to task `i` alone, and `run_tasks`
        // visits every index exactly once, so each slot is written once.
        unsafe { (*slots.get().add(i)).write(v) };
    });
    // SAFETY: all `n` slots were initialized above (run_tasks returned, so
    // every task completed); MaybeUninit<T> and T share layout.
    unsafe {
        let mut out = ManuallyDrop::new(out);
        Vec::from_raw_parts(out.as_mut_ptr().cast::<T>(), n, out.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_task_runs_exactly_once() {
        for threads in [1, 2, 4, 7] {
            let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
            with_threads(threads, || {
                run_tasks(hits.len(), |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}: some task ran 0 or >1 times"
            );
        }
    }

    #[test]
    fn zero_and_one_task_edge_cases() {
        run_tasks(0, |_| panic!("no tasks to run"));
        let ran = AtomicUsize::new(0);
        with_threads(8, || {
            run_tasks(1, |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn nested_regions_run_sequentially() {
        // Inside a pool task the budget collapses to 1, so an inner region
        // must not spawn: record the inner-observed budget for every task.
        let budgets: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        with_threads(4, || {
            run_tasks(budgets.len(), |i| {
                budgets[i].store(max_threads(), Ordering::Relaxed);
            });
        });
        assert!(budgets.iter().all(|b| b.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn with_threads_restores_on_exit_and_panic() {
        let outer = max_threads();
        with_threads(3, || assert_eq!(max_threads(), 3));
        assert_eq!(max_threads(), outer);
        let caught = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(max_threads(), outer);
    }

    #[test]
    fn task_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || run_tasks(16, |i| assert!(i != 11, "task 11 fails")))
        });
        assert!(caught.is_err());
    }

    #[test]
    fn chunk_helper_matches_sequential_fill() {
        for threads in [1, 3, 8] {
            let mut par = vec![0u32; 103];
            with_threads(threads, || {
                for_each_chunk_mut(&mut par, 10, |i, c| {
                    for (j, v) in c.iter_mut().enumerate() {
                        *v = (i * 1000 + j) as u32;
                    }
                });
            });
            let mut seq = vec![0u32; 103];
            seq.chunks_mut(10).enumerate().for_each(|(i, c)| {
                for (j, v) in c.iter_mut().enumerate() {
                    *v = (i * 1000 + j) as u32;
                }
            });
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn zipped_chunks_skip_remainders() {
        let a: Vec<u32> = (0..10).collect(); // 3 complete chunks of 3
        let mut b = vec![0u32; 8]; // 4 complete chunks of 2 -> pairs = 3
        with_threads(4, || {
            for_each_zipped_chunks(&a, 3, &mut b, 2, |i, ac, bc| {
                bc[0] = ac[0];
                bc[1] = i as u32;
            });
        });
        assert_eq!(b, [0, 0, 3, 1, 6, 2, 0, 0]);
    }

    #[test]
    fn par_map_collects_in_index_order() {
        for threads in [1, 2, 8] {
            let out = with_threads(threads, || par_map(57, |i| i * i));
            assert_eq!(out, (0..57).map(|i| i * i).collect::<Vec<_>>());
        }
    }
}
