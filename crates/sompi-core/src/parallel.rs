//! One level of parallelism.
//!
//! Monte-Carlo replay spreads replicas over worker threads, and an
//! adaptive replica runs a [`crate::twolevel::TwoLevelOptimizer`] search
//! every window it re-plans. If that search also fanned out to one thread
//! per core, every Monte-Carlo worker would spawn a full set of search
//! threads and the cores would be oversubscribed. The rule here makes
//! that impossible by construction: an outer parallel loop that spawns
//! `w` workers gives each its [`WorkerShare`] of the cores — the spawning
//! thread's cores divided by `w`, at least 1 — and on a worker thread
//! [`resolve_threads`] never answers more than that share. When the
//! workers already fill the cores the share is 1 and nested searches run
//! inline; when there are fewer workers than cores each worker's nested
//! searches get an equal part of them instead of leaving them idle.
//!
//! Searches outside a parallel loop — `sompi plan`, the server, the
//! tournament's planning, a Monte-Carlo run on one worker — are
//! unaffected and keep every core. Thread counts never change results
//! (every parallel reduction in this workspace is deterministic), only
//! wall-clock.

use std::cell::Cell;

thread_local! {
    /// The share of the cores the current thread may use while it is a
    /// worker of an outer parallel loop; `None` on any other thread.
    static SHARE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The cores the current thread may use: its share on a worker thread,
/// every core elsewhere.
fn core_budget() -> usize {
    SHARE.with(Cell::get).unwrap_or_else(available_cores)
}

/// Each worker's share of the cores in a parallel loop.
///
/// Compute it with [`WorkerShare::of`] on the thread that spawns the
/// workers, then run each worker's body through [`WorkerShare::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerShare(usize);

impl WorkerShare {
    /// The share of each of `workers` threads spawned from the current
    /// thread: its cores divided by `workers`, at least 1.
    pub fn of(workers: usize) -> Self {
        Self((core_budget() / workers.max(1)).max(1))
    }

    /// Run `f` with the current thread marked as a worker holding this
    /// share: [`resolve_threads`] answers at most the share until
    /// `f` returns (or unwinds), after which the previous marking is
    /// restored.
    pub fn run<R>(self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                SHARE.with(|s| s.set(self.0));
            }
        }
        let _restore = Restore(SHARE.with(|s| s.replace(Some(self.0))));
        f()
    }
}

/// Resolve a configured thread count: `0` = one per available core,
/// `n` = exactly `n` — except on a thread run through
/// [`WorkerShare::run`], where `0` is the worker's share and `n` is capped
/// at it.
pub fn resolve_threads(threads: usize) -> usize {
    match SHARE.with(Cell::get) {
        None if threads == 0 => available_cores(),
        None => threads,
        Some(share) if threads == 0 => share,
        Some(share) => threads.min(share),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmarked_threads_resolve_as_configured() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(0), available_cores());
    }

    #[test]
    fn workers_split_the_cores_and_the_mark_is_scoped() {
        let cores = available_cores();
        assert_eq!(WorkerShare::of(1).0, cores);
        assert_eq!(WorkerShare::of(2).0, (cores / 2).max(1));
        let saturated = WorkerShare::of(cores);
        assert_eq!(saturated.0, 1);
        saturated.run(|| {
            assert_eq!(resolve_threads(0), 1);
            assert_eq!(resolve_threads(8), 1);
            // A loop nested in a worker splits that worker's share.
            assert_eq!(WorkerShare::of(1).0, 1);
            WorkerShare::of(4).run(|| assert_eq!(resolve_threads(8), 1));
            assert_eq!(resolve_threads(8), 1);
        });
        assert_eq!(resolve_threads(8), 8);
        WorkerShare(3).run(|| {
            assert_eq!(resolve_threads(0), 3);
            assert_eq!(resolve_threads(2), 2);
            assert_eq!(resolve_threads(8), 3);
        });
    }

    #[test]
    fn the_mark_is_restored_after_a_panic() {
        let caught = std::panic::catch_unwind(|| WorkerShare(1).run(|| panic!("worker failed")));
        assert!(caught.is_err());
        assert_eq!(resolve_threads(5), 5);
    }
}
