//! The statistics the benchmark reports, kept apart from the workloads so
//! their rules are unit-tested on their own.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; with fewer, the tail value is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..=1`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond its rank. A p95 therefore
/// needs at least 200 samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v.len() - rank >= MIN_BEYOND).then(|| v[rank - 1])
}

/// Median (mean of the two middle values for an even count); `NaN` when
/// empty. Used where the sample count is set by the workload (a handful of
/// long jobs) rather than chosen for a tail percentile.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// One request of an open-loop run, all times in seconds from the start
/// of the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the schedule said the request was due.
    pub due: f64,
    /// When a sender actually started it.
    pub sent: f64,
    /// When its response was complete.
    pub done: f64,
    /// Whether the response was a correct answer (not an error or shed).
    pub ok: bool,
}

impl Sample {
    /// Latency as a user sees it: from when the request was due, so a
    /// stall also charges the requests queued behind it.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator started the request.
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Whether generator lateness grows across a run (in due order): the
/// median lateness of the last quarter exceeds that of the first quarter
/// by more than `tolerance_s`. A generator that keeps up shows jitter but
/// no trend; one that falls behind a backlog shows a ramp.
pub fn lateness_grows(samples: &[Sample], tolerance_s: f64) -> bool {
    let q = samples.len() / 4;
    if q == 0 {
        return false;
    }
    let late = |s: &[Sample]| median(&s.iter().map(Sample::lateness).collect::<Vec<_>>());
    late(&samples[samples.len() - q..]) - late(&samples[..q]) > tolerance_s
}

/// The outcome of one rung of the rate ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests completed per second between the first due time and the
    /// last completion (the median over the rung's passes).
    pub achieved: f64,
    /// p95 latency from due time, seconds (`None`: too few samples).
    pub p95: Option<f64>,
    /// Requests answered `Overloaded`.
    pub shed: u64,
    /// Requests that errored or failed their check (shed included).
    pub failed: u64,
    /// Whether generator lateness grew across the rung.
    pub late_grows: bool,
}

impl Rung {
    /// The ladder rule: the p95 stays under the limit, nothing is shed or
    /// failed, and the generator does not fall further and further behind.
    pub fn passes(&self, limit_s: f64) -> bool {
        self.shed == 0
            && self.failed == 0
            && !self.late_grows
            && self.p95.is_some_and(|p| p < limit_s)
    }
}

/// The highest rung of an ascending ladder that passes, with every rung
/// below it passing too (a pass above a failed rung is luck, not capacity).
pub fn max_passing(rungs: &[Rung], limit_s: f64) -> Option<&Rung> {
    rungs.iter().take_while(|r| r.passes(limit_s)).last()
}

/// A SplitMix64 generator: the benchmark's only source of randomness, so
/// a workload seed fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Due times (seconds from the start) of `n` arrivals at `rate` per
/// second: Poisson-process gaps scaled so the schedule spans exactly
/// `n / rate` seconds, which keeps the offered rate exact while arrivals
/// still bunch up the way independent users' do.
pub fn arrivals(rng: &mut Rng, n: usize, rate: f64) -> Vec<f64> {
    let gaps: Vec<f64> = (0..n).map(|_| -(1.0 - rng.unit()).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let span = n as f64 / rate;
    let mut t = 0.0;
    gaps.iter()
        .map(|g| {
            let due = t;
            t += g / total * span;
            due
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(due: f64, sent: f64, done: f64) -> Sample {
        Sample {
            due,
            sent,
            done,
            ok: true,
        }
    }

    #[test]
    fn p95_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), Some(190.0));
        assert_eq!(percentile(&v[..199], 0.95), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..300).map(|i| ((i * 37) % 300) as f64).collect();
        let a = percentile(&v, 0.95);
        v.reverse();
        assert_eq!(a, percentile(&v, 0.95));
        assert_eq!(a, Some(284.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        // Sent 30 ms late behind a stall, served in 5 ms: the user waited 35.
        let x = s(1.000, 1.030, 1.035);
        assert!((x.latency() - 0.035).abs() < 1e-12);
        assert!((x.lateness() - 0.030).abs() < 1e-12);
        // Sending early never counts as negative lateness.
        assert_eq!(s(1.0, 0.999, 1.002).lateness(), 0.0);
    }

    #[test]
    fn lateness_growth_detects_a_ramp_but_not_jitter() {
        let jitter: Vec<Sample> = (0..40)
            .map(|i| {
                let d = i as f64 * 0.01;
                s(d, d + if i % 3 == 0 { 0.002 } else { 0.0 }, d + 0.004)
            })
            .collect();
        assert!(!lateness_grows(&jitter, 0.005));
        let ramp: Vec<Sample> = (0..40)
            .map(|i| {
                let d = i as f64 * 0.01;
                s(d, d + i as f64 * 0.002, d + i as f64 * 0.002 + 0.004)
            })
            .collect();
        assert!(lateness_grows(&ramp, 0.005));
    }

    fn rung(rate: f64, p95: Option<f64>, shed: u64, late_grows: bool) -> Rung {
        Rung {
            rate,
            achieved: rate,
            p95,
            shed,
            failed: shed,
            late_grows,
        }
    }

    #[test]
    fn ladder_rule_needs_limit_no_shedding_and_steady_lateness() {
        let limit = 0.050;
        assert!(rung(10.0, Some(0.01), 0, false).passes(limit));
        assert!(!rung(10.0, Some(0.06), 0, false).passes(limit));
        assert!(!rung(10.0, None, 0, false).passes(limit));
        assert!(!rung(10.0, Some(0.01), 1, false).passes(limit));
        assert!(!rung(10.0, Some(0.01), 0, true).passes(limit));
        let ladder = [
            rung(10.0, Some(0.01), 0, false),
            rung(20.0, Some(0.02), 0, false),
            rung(40.0, Some(0.09), 0, false),
            rung(80.0, Some(0.01), 0, false),
        ];
        assert_eq!(max_passing(&ladder, limit).map(|r| r.rate), Some(20.0));
        assert_eq!(max_passing(&ladder[2..], limit), None);
    }

    #[test]
    fn arrivals_span_exactly_and_repeat_per_seed() {
        let a = arrivals(&mut Rng::new(7, 1), 100, 50.0);
        assert_eq!(a.len(), 100);
        assert_eq!(a[0], 0.0);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a[99] < 2.0 && a[99] > 1.5);
        assert_eq!(a, arrivals(&mut Rng::new(7, 1), 100, 50.0));
        assert_ne!(a, arrivals(&mut Rng::new(8, 1), 100, 50.0));
    }
}
