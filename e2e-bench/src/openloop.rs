//! The open-loop load generator: requests go out on a fixed schedule
//! whatever the system's state, from a bounded set of sender threads.

use crate::stats::Sample;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Send request `i` at `schedule[i]` seconds after the start, from
/// `senders` threads that each hold one request at a time, and return one
/// [`Sample`] per request in schedule order. `send(i)` performs the request
/// and reports whether its answer was correct. A sender that is still busy
/// when the next request falls due sends it late; the lateness shows in
/// the sample, and the latency still counts from the due time.
pub fn run<F>(schedule: &[f64], senders: usize, send: F) -> Vec<Sample>
where
    F: Fn(usize) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    // A short lead so every sender is parked before the first due time.
    let start = Instant::now() + Duration::from_millis(5);
    let secs = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let mut samples: Vec<(usize, Sample)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..senders.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&due) = schedule.get(i) else {
                            return out;
                        };
                        let due_at = start + Duration::from_secs_f64(due);
                        let now = Instant::now();
                        if due_at > now {
                            std::thread::sleep(due_at - now);
                        }
                        let sent = secs(Instant::now());
                        let ok = send(i);
                        let done = secs(Instant::now());
                        out.push((
                            i,
                            Sample {
                                due,
                                sent,
                                done,
                                ok,
                            },
                        ));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("sender thread panicked"))
            .collect()
    });
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, s)| s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::lateness_grows;

    #[test]
    fn a_stall_charges_the_requests_due_behind_it() {
        // One sender, a request due every 10 ms; request 2 stalls 45 ms.
        let schedule: Vec<f64> = (0..8).map(|i| i as f64 * 0.010).collect();
        let samples = run(&schedule, 1, |i| {
            std::thread::sleep(Duration::from_millis(if i == 2 { 45 } else { 1 }));
            i != 5
        });
        assert_eq!(samples.len(), 8);
        assert!(samples.iter().zip(&schedule).all(|(s, d)| s.due == *d));
        assert!(!samples[5].ok && samples[4].ok);
        // Request 3 was due at 30 ms but could only start after the stall
        // ended (>= 65 ms): it is late, and its latency includes the wait.
        assert!(samples[3].lateness() >= 0.030, "{:?}", samples[3]);
        assert!(samples[3].latency() >= samples[3].lateness() + 0.001);
        assert!(samples[3].latency() > samples[3].done - samples[3].sent + 0.025);
        // Before the stall the generator kept up.
        assert!(samples[1].lateness() < 0.005, "{:?}", samples[1]);
    }

    #[test]
    fn a_slow_service_makes_lateness_grow() {
        let schedule: Vec<f64> = (0..24).map(|i| i as f64 * 0.004).collect();
        let slow = run(&schedule, 2, |_| {
            std::thread::sleep(Duration::from_millis(12));
            true
        });
        assert!(lateness_grows(&slow, 0.005));
        let fast = run(&schedule, 2, |_| true);
        assert!(!lateness_grows(&fast, 0.005));
    }
}
