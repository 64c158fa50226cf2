//! A persistent worker pool for the subset search.
//!
//! Every parallel [`crate::twolevel::TwoLevelOptimizer`] search used to
//! spawn fresh OS threads through a `crossbeam::thread::scope` — one
//! spawn/join round per `optimize()` call. That tax is invisible for a
//! single offline search but real for the adaptive loop (one search per
//! window) and for `sompi-server` (one search per uncached request). A
//! [`SearchPool`] keeps the workers alive across searches: callers submit
//! a batch of borrowed closures, the pool runs them on its resident
//! threads, and [`SearchPool::run`] blocks until the whole batch is done —
//! the same strict join barrier a scoped spawn gives, which is what makes
//! handing the workers stack-borrowed data sound.
//!
//! Exactness: the pool never decides how work is split. Callers chunk the
//! enumeration order themselves (by [`crate::twolevel::OptimizerConfig::threads`],
//! exactly as the scoped-spawn path does) and receive results in
//! submission order, so the deterministic total-order merge sees the same
//! per-chunk results in the same order regardless of how many resident
//! workers drained the queue — plans are bit-identical with or without
//! the pool, at any pool size.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A type-erased unit of work, lifetime-erased to `'static` for the
/// resident threads (see the safety argument in [`SearchPool::run`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Pool id source: unique per process so traces can prove that many
/// searches reused one pool.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signaled when a job is queued or shutdown is requested.
    ready: Condvar,
}

/// Countdown latch: [`SearchPool::run`] blocks on it until every job of
/// its batch has executed (including panicked ones — panics are caught
/// and re-thrown on the caller's thread after the barrier).
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(n: usize) -> Self {
        Self {
            remaining: Mutex::new(n),
            done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().expect("latch mutex poisoned");
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().expect("latch mutex poisoned");
        while *left > 0 {
            left = self.done.wait(left).expect("latch mutex poisoned");
        }
    }
}

/// A fixed set of resident worker threads that executes batches of
/// borrowed closures with a strict completion barrier per batch. See the
/// module docs for the exactness contract; see DESIGN.md §14 for the
/// lifecycle (create once, share via `&SearchPool` or `Arc<SearchPool>`
/// across adaptive windows and server requests, drop to join).
pub struct SearchPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    id: u64,
    searches: AtomicU64,
}

impl std::fmt::Debug for SearchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchPool")
            .field("id", &self.id)
            .field("workers", &self.workers.len())
            .field("searches", &self.searches.load(Ordering::Relaxed))
            .finish()
    }
}

impl SearchPool {
    /// Spawn a pool with `workers` resident threads (`0` = one per
    /// available core, matching `OptimizerConfig::threads` semantics,
    /// including the worker-share cap of [`crate::parallel`]).
    /// The pool size only bounds concurrency — searches that chunk into
    /// more jobs than workers still complete, the excess jobs queue.
    pub fn new(workers: usize) -> Self {
        let n = crate::parallel::resolve_threads(workers);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let workers = (0..n)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self {
            shared,
            workers,
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            searches: AtomicU64::new(0),
        }
    }

    /// Process-unique pool id, for trace events proving pool reuse.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of resident worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// How many searches have dispatched through this pool so far.
    pub fn searches_served(&self) -> u64 {
        self.searches.load(Ordering::Relaxed)
    }

    /// Record one search dispatching onto the pool; returns its 1-based
    /// sequence number (the `search_seq` of the `SearchPoolUsed` event).
    pub fn begin_search(&self) -> u64 {
        self.searches.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Run a batch of borrowed closures to completion and return their
    /// results in submission order. Blocks until every job has executed;
    /// if any job panicked, the first panic (in submission order) is
    /// resumed on the caller's thread — after the barrier, so no borrow
    /// escapes either way.
    pub fn run<'env, T: Send + 'env>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<T> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let slots: Vec<Mutex<Option<std::thread::Result<T>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let latch = Latch::new(n);
        {
            let mut state = self.shared.state.lock().expect("pool mutex poisoned");
            for (slot, task) in slots.iter().zip(tasks) {
                let latch = &latch;
                // SAFETY: the job borrows `slot`, `latch`, and whatever
                // `task` captured (`'env` at most). `latch.wait()` below
                // does not return until every job has finished running
                // (panics included — `catch_unwind` still reaches
                // `count_down`), so no borrow is used after this call
                // frame ends. This is the same argument that makes scoped
                // threads sound, with the scope's join replaced by the
                // latch.
                let job: Job = unsafe {
                    erase_job_lifetime(Box::new(move || {
                        let result = catch_unwind(AssertUnwindSafe(task));
                        *slot.lock().expect("slot mutex poisoned") = Some(result);
                        latch.count_down();
                    }))
                };
                state.queue.push_back(job);
            }
            self.shared.ready.notify_all();
        }
        latch.wait();
        slots
            .into_iter()
            .map(|slot| {
                let result = slot
                    .into_inner()
                    .expect("slot mutex poisoned")
                    .expect("pool job never ran");
                match result {
                    Ok(value) => value,
                    Err(payload) => resume_unwind(payload),
                }
            })
            .collect()
    }
}

impl Drop for SearchPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool mutex poisoned");
            state.shutdown = true;
        }
        self.shared.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Pretend a borrowing job is `'static` so the resident threads can hold
/// it.
///
/// # Safety
///
/// The caller must not let any borrow captured by `job` expire until the
/// job has finished running ([`SearchPool::run`] guarantees this with its
/// per-batch latch barrier).
unsafe fn erase_job_lifetime<'a>(job: Box<dyn FnOnce() + Send + 'a>) -> Job {
    std::mem::transmute(job)
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool mutex poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = shared.ready.wait(state).expect("pool mutex poisoned");
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = SearchPool::new(3);
        let inputs: Vec<usize> = (0..17).collect();
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send + '_>> = inputs
            .iter()
            .map(|&i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = pool.run(tasks);
        assert_eq!(out, inputs.iter().map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn borrowed_state_survives_many_batches_on_one_pool() {
        // More jobs than workers, stack-borrowed accumulator, repeated
        // batches on the same pool — the persistent-reuse shape.
        let pool = SearchPool::new(2);
        assert_eq!(pool.workers(), 2);
        let data: Vec<u64> = (1..=100).collect();
        for round in 0..5 {
            let hits = AtomicUsize::new(0);
            let tasks: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = data
                .chunks(7)
                .map(|chunk| {
                    let hits = &hits;
                    Box::new(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                        chunk.iter().sum::<u64>()
                    }) as Box<dyn FnOnce() -> u64 + Send>
                })
                .collect();
            let jobs = tasks.len();
            let seq = pool.begin_search();
            assert_eq!(seq, round + 1, "search sequence must be monotone");
            let total: u64 = pool.run(tasks).into_iter().sum();
            assert_eq!(total, 5050);
            assert_eq!(hits.load(Ordering::Relaxed), jobs);
        }
        assert_eq!(pool.searches_served(), 5);
    }

    #[test]
    fn panics_propagate_after_the_barrier() {
        let pool = SearchPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
                Box::new(|| 1),
                Box::new(|| std::panic::panic_any("job exploded")),
                Box::new(|| 3),
            ];
            pool.run(tasks)
        }));
        assert!(caught.is_err(), "worker panic must reach the caller");
        // The pool is still serviceable after a panicked batch.
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| 7)];
        assert_eq!(pool.run(tasks), vec![7]);
    }

    #[test]
    fn pool_ids_are_unique() {
        let a = SearchPool::new(1);
        let b = SearchPool::new(1);
        assert_ne!(a.id(), b.id());
    }
}
