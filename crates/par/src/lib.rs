//! Persistent worker-pool runtime for the workspace's data parallelism.
//!
//! The build environment has no registry access, so this crate provides
//! the small rayon-style API subset the workspace needs — now backed by a
//! **persistent [`ThreadPool`]** instead of per-call scoped threads. The
//! paper's streaming architecture beamforms thousands of volumes per
//! second; spawning a thread per tile per volume is exactly the kind of
//! per-frame cost it amortizes away, so workers here are created once,
//! parked on preallocated per-worker queues, and handed jobs by
//! reference.
//!
//! Three layers:
//!
//! * [`ThreadPool`] — the pool itself: `new(threads)` or the process-wide
//!   [`global`] instance (sized from `USBF_POOL_THREADS` or the available
//!   parallelism);
//! * [`ThreadPool::register`] / [`JobHandle::run`] /
//!   [`JobHandle::start`] — preregistered job slots for frame loops: the
//!   completion barrier is allocated once and re-announced per frame,
//!   with borrowed state dispatched through a function pointer, so a
//!   warm run performs **zero per-task heap allocations** (no `Arc`
//!   churn, no task boxing). `start` returns a [`PendingJob`] guard that
//!   keeps the run in flight while the caller does other work —
//!   `wait()`/`try_wait()` redeem it, dropping it joins;
//! * [`par_map`] / [`ThreadPool::par_map_indexed`] — the parallel map
//!   for one-shot work: one run of a job core that lives for the call,
//!   with dynamic work claiming so stragglers don't serialize the pool.
//!
//! Every job is the same kind of job — a run of indexed tasks over
//! borrowed state — so the workers have one thing to drain. The calling
//! thread always participates in its own job, which makes nested
//! `par_map` calls from inside tasks deadlock-free: the inner job is
//! drained by its own caller even when every worker is busy.
//!
//! ```
//! let squares = usbf_par::par_map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod pool;
mod registered;

pub use pool::{global, global_arc, ThreadPool};
pub use registered::{JobHandle, PendingJob};

/// The pool's default sizing: `USBF_POOL_THREADS` when set to a positive
/// integer, the host's available parallelism otherwise. This is the size
/// [`global`] is built with, exposed so schedule planners (e.g. tile
/// fitting) can agree with the pool instead of re-deriving a core count
/// that ignores the override. A pure query — it does not build the
/// global pool.
pub fn default_threads() -> usize {
    ThreadPool::default_threads()
}

/// Maps `f` over `items` on the global pool, returning the results in
/// input order. `f` receives `(index, &item)`.
///
/// Items are claimed dynamically, so stragglers don't serialize the
/// pool. Panics in `f` propagate. This is
/// [`ThreadPool::par_map_indexed`] on [`global`]; no threads are spawned
/// by the call — the persistent workers of the global pool do the work.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    global().par_map_indexed(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = par_map(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let out = par_map(&[41u32], |_, &x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn global_pool_is_built_once() {
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
        assert_eq!(global_arc().threads(), global().threads());
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        // Enough items that a parallel path is taken on any machine.
        let items: Vec<usize> = (0..64).collect();
        par_map(&items, |_, &x| {
            if x == 13 {
                panic!("boom");
            }
            x
        });
    }
}
