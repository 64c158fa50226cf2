//! Cross-tenant plan cache with single-flight coalescing.
//!
//! [`SharedPlanCache`] memoizes completed plan searches under the key
//! from [`crate::service::plan_request_key`] (request shape × the view's
//! sample ranges). It is safe to share across worker threads, and it
//! *coalesces* concurrent identical requests: the first caller for a
//! key computes while later arrivals block on a condition variable and
//! receive the same `Arc`'d result. A burst of identical-key
//! requests therefore performs **exactly one** search — the property
//! the server's cache-hit trace events exist to prove.
//!
//! This is deliberately a different animal from sompi-core's
//! `PlanCache`, which is a single-slot, tolerance-matched cache used
//! *inside* one adaptive run. Here keys are exact, entries are shared
//! across tenants and connections, and eviction is FIFO by insertion.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// How a lookup was satisfied. Stringified into the wire response and
/// the `CacheHit`/`RequestCompleted` trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// No usable entry: this caller ran the computation.
    Miss,
    /// A completed entry was already present.
    Hit,
    /// An identical request was in flight; this caller waited for it.
    Coalesced,
}

impl CacheOutcome {
    /// The label used in responses and trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Miss => "miss",
            CacheOutcome::Hit => "hit",
            CacheOutcome::Coalesced => "coalesced",
        }
    }
}

enum Slot<V> {
    /// Some thread is computing this key; waiters sleep on the condvar.
    InFlight,
    Ready(Arc<V>),
}

struct Inner<V> {
    map: HashMap<u64, Slot<V>>,
    /// Completed keys in insertion order, for FIFO eviction.
    order: VecDeque<u64>,
}

/// A bounded, thread-safe, single-flight memo table. `V` is the cached
/// value ([`crate::service::PlanReport`] in the server).
pub struct SharedCache<V> {
    inner: Mutex<Inner<V>>,
    ready: Condvar,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

/// The server's concrete cache: request key → completed plan report.
pub type SharedPlanCache = SharedCache<crate::service::PlanReport>;

impl<V> SharedCache<V> {
    /// An empty cache holding at most `capacity` completed entries
    /// (in-flight computations are not counted against the bound).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Look up `key`, running `compute` only if no completed or
    /// in-flight entry exists. Exactly one caller computes per key at a
    /// time; concurrent callers for the same key block and share the
    /// result. If `compute` fails, the error is returned to the caller
    /// that ran it, the in-flight marker is removed, and one waiter is
    /// promoted to retry the computation (so a transient failure does
    /// not poison the key).
    pub fn get_or_compute<E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> (Result<Arc<V>, E>, CacheOutcome) {
        let mut waited = false;
        let mut guard = self.inner.lock().expect("cache lock");
        loop {
            match guard.map.get(&key) {
                Some(Slot::Ready(v)) => {
                    let outcome = if waited {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        CacheOutcome::Coalesced
                    } else {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        CacheOutcome::Hit
                    };
                    return (Ok(Arc::clone(v)), outcome);
                }
                Some(Slot::InFlight) => {
                    waited = true;
                    guard = self.ready.wait(guard).expect("cache lock");
                }
                None => {
                    guard.map.insert(key, Slot::InFlight);
                    drop(guard);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let result = compute();
                    let mut guard = self.inner.lock().expect("cache lock");
                    match result {
                        Ok(v) => {
                            let v = Arc::new(v);
                            guard.map.insert(key, Slot::Ready(Arc::clone(&v)));
                            guard.order.push_back(key);
                            while guard.order.len() > self.capacity {
                                if let Some(old) = guard.order.pop_front() {
                                    guard.map.remove(&old);
                                }
                            }
                            drop(guard);
                            self.ready.notify_all();
                            // A waiter that arrived while we computed is
                            // coalesced, not a miss: it did no search.
                            return (Ok(v), CacheOutcome::Miss);
                        }
                        Err(e) => {
                            guard.map.remove(&key);
                            drop(guard);
                            self.ready.notify_all();
                            return (Err(e), CacheOutcome::Miss);
                        }
                    }
                }
            }
        }
    }

    /// Completed-entry hits served without waiting.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran the computation themselves.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lookups that waited on an in-flight computation.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Completed entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").order.len()
    }

    /// Whether the cache holds no completed entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    type TestCache = SharedCache<u64>;

    #[test]
    fn miss_then_hit() {
        let cache = TestCache::new(8);
        let (v, o) = cache.get_or_compute::<()>(1, || Ok(10));
        assert_eq!((*v.unwrap(), o), (10, CacheOutcome::Miss));
        let (v, o) = cache.get_or_compute::<()>(1, || Ok(99));
        assert_eq!((*v.unwrap(), o), (10, CacheOutcome::Hit));
        assert_eq!((cache.hits(), cache.misses(), cache.coalesced()), (1, 1, 0));
    }

    #[test]
    fn concurrent_identical_keys_compute_exactly_once() {
        let cache = Arc::new(TestCache::new(8));
        let computes = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            handles.push(std::thread::spawn(move || {
                let (v, o) = cache.get_or_compute::<()>(7, || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    Ok(70)
                });
                (*v.unwrap(), o)
            }));
        }
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(computes.load(Ordering::SeqCst), 1, "single-flight");
        assert!(outcomes.iter().all(|(v, _)| *v == 70));
        let misses = outcomes
            .iter()
            .filter(|(_, o)| *o == CacheOutcome::Miss)
            .count();
        assert_eq!(misses, 1);
        assert_eq!(
            cache.hits() + cache.coalesced(),
            15,
            "everyone else was served without searching"
        );
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let cache = Arc::new(TestCache::new(8));
        let handles: Vec<_> = (0..4u64)
            .map(|k| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let (v, _) = cache.get_or_compute::<()>(k, || Ok(k * 10));
                    *v.unwrap()
                })
            })
            .collect();
        for (k, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), k as u64 * 10);
        }
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn failed_compute_does_not_poison_the_key() {
        let cache = TestCache::new(8);
        let (r, _) = cache.get_or_compute(3, || Err("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        let (v, o) = cache.get_or_compute::<()>(3, || Ok(33));
        assert_eq!((*v.unwrap(), o), (33, CacheOutcome::Miss));
    }

    #[test]
    fn failure_promotes_a_waiter_to_compute() {
        let cache = Arc::new(TestCache::new(8));
        let gate = Arc::new(std::sync::Barrier::new(2));
        let first = {
            let cache = Arc::clone(&cache);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let (r, _) = cache.get_or_compute(5, || {
                    gate.wait(); // let the second thread queue up behind us
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    Err("flaky")
                });
                r.is_err()
            })
        };
        gate.wait();
        // By now key 5 is in flight; this call waits, sees the failure,
        // and retries as the new computer.
        let (v, _) = cache.get_or_compute::<&str>(5, || Ok(55));
        assert_eq!(*v.unwrap(), 55);
        assert!(first.join().unwrap());
    }

    #[test]
    fn capacity_evicts_oldest_entries_first() {
        let cache = TestCache::new(2);
        for k in 0..3u64 {
            cache.get_or_compute::<()>(k, || Ok(k)).0.unwrap();
        }
        assert_eq!(cache.len(), 2);
        // Key 0 was evicted; 1 and 2 remain.
        let (_, o) = cache.get_or_compute::<()>(1, || Ok(1));
        assert_eq!(o, CacheOutcome::Hit);
        let (_, o) = cache.get_or_compute::<()>(0, || Ok(0));
        assert_eq!(o, CacheOutcome::Miss);
    }
}
