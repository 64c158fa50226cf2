//! Failure-rate function `f_i(P, t)` and expected spot price `S_i(P)`.
//!
//! Section 4.4 ("Obtaining Failure Rate Function") estimates the probability
//! that a circle group bidding `P` suffers its first out-of-bid event in the
//! hour bucket `[t, t+1)` by repeatedly picking a random start point in the
//! recent spot price history and recording the first passage above `P`. We
//! implement both that Monte-Carlo estimator (seeded, reproducible) and the
//! exhaustive all-start-points estimator it converges to.
//!
//! The expected spot price `S_i(P)` is the mean of historical prices at or
//! below the bid (Section 3.2.1), precomputed here with a sorted prefix-sum
//! table so bid-price sweeps are O(log n) per query.

use crate::trace::TraceWindow;
use crate::{Hours, Usd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The estimated failure-rate function of one circle group at one bid price:
/// a sub-distribution over hourly failure buckets plus the survival mass.
///
/// ```
/// use ec2_market::failure::FailureRateFn;
///
/// // 10% chance of dying in hour [0,1), 30% in [1,2), 60% survival.
/// let f = FailureRateFn::new(0.2, vec![0.1, 0.3], 0.6);
/// assert_eq!(f.horizon(), 2);
/// assert_eq!(f.prob_fail_in(0), 0.1);
/// assert_eq!(f.prob_fail_in(5), 0.0); // past the horizon
/// assert!((f.prob_fail() - 0.4).abs() < 1e-12);
/// assert!(f.mean_time_to_failure().is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureRateFn {
    bid: Usd,
    /// `bucket[t]` = P[first out-of-bid event lands in hour `[t, t+1)`].
    buckets: Vec<f64>,
    /// P[no out-of-bid event within the horizon] — the paper's
    /// `f_i(P, T_i)`, i.e. the application completes on this circle group.
    survival: f64,
}

impl FailureRateFn {
    /// Construct from raw bucket probabilities. Normalizes tiny numerical
    /// drift; panics if the mass is not ≈ 1 or any entry is negative.
    pub fn new(bid: Usd, buckets: Vec<f64>, survival: f64) -> Self {
        assert!(
            buckets.iter().all(|p| *p >= 0.0) && survival >= 0.0,
            "probabilities must be non-negative"
        );
        let mass: f64 = buckets.iter().sum::<f64>() + survival;
        assert!(
            (mass - 1.0).abs() < 1e-6,
            "failure distribution mass must be 1, got {mass}"
        );
        Self {
            bid,
            buckets,
            survival,
        }
    }

    /// The bid price this function was estimated for.
    pub fn bid(&self) -> Usd {
        self.bid
    }

    /// Horizon in hours (number of buckets).
    pub fn horizon(&self) -> usize {
        self.buckets.len()
    }

    /// P[first failure in `[t, t+1)`]; zero past the horizon.
    pub fn prob_fail_in(&self, t: usize) -> f64 {
        self.buckets.get(t).copied().unwrap_or(0.0)
    }

    /// All bucket probabilities.
    pub fn buckets(&self) -> &[f64] {
        &self.buckets
    }

    /// Consume the function and take ownership of its bucket vector —
    /// for callers that would otherwise `buckets().to_vec()` a function
    /// they are done with (the assessment hot path clones nothing).
    pub fn into_buckets(self) -> Vec<f64> {
        self.buckets
    }

    /// P[survive the entire horizon].
    pub fn survival(&self) -> f64 {
        self.survival
    }

    /// P[fail at some point within the horizon].
    pub fn prob_fail(&self) -> f64 {
        1.0 - self.survival
    }

    /// Mean time to failure in hours, treating survival as censoring at the
    /// horizon and extrapolating with the empirical tail hazard.
    ///
    /// Returns `None` when no failure mass was observed at all — the bid is
    /// effectively un-terminable (e.g. `P_i = H_i` in the paper, "terminated
    /// in extremely low probability, which we can ignore") and the optimal
    /// checkpoint interval degenerates to "no checkpoints".
    pub fn mean_time_to_failure(&self) -> Option<Hours> {
        let pf = self.prob_fail();
        if pf <= 1e-12 {
            return None;
        }
        let horizon = self.buckets.len() as f64;
        // Conditional mean within the horizon (bucket midpoints)...
        let within: f64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(t, p)| (t as f64 + 0.5) * p)
            .sum();
        // ...plus the censored mass extrapolated geometrically: survivors
        // restart the same first-passage experiment after `horizon` hours.
        // E[T] = within + survival * (horizon + E[T])  =>
        let ettf = (within + self.survival * horizon) / pf;
        Some(ettf)
    }
}

/// The fused first-passage table of one circle group at one bid: how
/// many admissible start points first went out of bid in each hour
/// bucket, how many never did, how many were usable at all, and the
/// expected launch delay — everything a failure estimate needs, from one
/// backward walk over the history ([`FailureEstimator::failure_table`]).
///
/// On a circular history of `n` samples every *finite* first passage is
/// at most `n` samples long, so `⌈n / samples_per_hour⌉` buckets record
/// every passage there is, and the table serves *any* horizon exactly
/// ([`FailureCounts::to_fn`]). Keeping the *integer* counts (rather than
/// the normalized probabilities) makes that exact: a passage of
/// `k ≤ h·sph` samples lands in the same hour bucket at every horizon
/// `≥ h`, longer passages fold into the survivors, and a horizon past the
/// recorded buckets only pads zero buckets. This is what lets one table
/// per `(group, bid)` serve `φ(P)`, every assessment horizon, and every
/// adaptive window whose history is unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureCounts {
    bid: Usd,
    /// `buckets[t]` = number of admissible starts whose first out-of-bid
    /// event landed in hour `[t, t+1)`, over every finite passage.
    buckets: Vec<u64>,
    /// Starts that never go out of bid (the bid covers the whole history).
    survived: u64,
    /// Admissible starts (price at or below the bid).
    used: u64,
    /// Expected wait before the price first admits the bid.
    launch_delay: Hours,
}

impl FailureCounts {
    /// The bid these counts were recorded for.
    pub fn bid(&self) -> Usd {
        self.bid
    }

    /// The expected launch delay at this bid, hours — the value
    /// [`FailureEstimator::expected_launch_delay`] returns.
    pub fn launch_delay(&self) -> Hours {
        self.launch_delay
    }

    /// Normalize into the failure-rate function for `horizon_hours`:
    /// truncated (later buckets fold into the survivors) or zero-padded,
    /// and bit-identical to the per-start scan at that horizon either way.
    ///
    /// # Panics
    /// Panics when `horizon_hours` is zero.
    pub fn to_fn(&self, horizon_hours: usize) -> FailureRateFn {
        assert!(horizon_hours > 0, "horizon must be positive");
        if self.used == 0 {
            // The bid never admits a launch; model it as immediate failure,
            // which the optimizer prices as "this circle group is useless".
            let mut b = vec![0.0; horizon_hours];
            b[0] = 1.0;
            return FailureRateFn::new(self.bid, b, 0.0);
        }
        let used = self.used as f64;
        let kept = horizon_hours.min(self.buckets.len());
        let mut buckets = Vec::with_capacity(horizon_hours);
        buckets.extend(self.buckets[..kept].iter().map(|&c| c as f64 / used));
        buckets.resize(horizon_hours, 0.0);
        let survived = self.survived + self.buckets[kept..].iter().sum::<u64>();
        FailureRateFn::new(self.bid, buckets, survived as f64 / used)
    }
}

/// Precomputed `S_i(P)` table: expected spot price given the bid, plus the
/// instant launch probability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpectedSpotPrice {
    sorted: Vec<Usd>,
    prefix_sum: Vec<f64>,
}

impl ExpectedSpotPrice {
    /// Build the table from a history window.
    pub fn from_window(window: TraceWindow<'_>) -> Self {
        let mut sorted = window.samples().to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite prices"));
        let mut prefix_sum = Vec::with_capacity(sorted.len() + 1);
        prefix_sum.push(0.0);
        let mut acc = 0.0;
        for &p in &sorted {
            acc += p;
            prefix_sum.push(acc);
        }
        Self { sorted, prefix_sum }
    }

    fn count_at_or_below(&self, bid: Usd) -> usize {
        self.sorted.partition_point(|&p| p <= bid)
    }

    /// Mean of historical prices at or below `bid` — the paper's `S_i(P_i)`.
    /// `None` when the bid is below every observed price (the instance
    /// would never launch).
    pub fn mean_below(&self, bid: Usd) -> Option<Usd> {
        let n = self.count_at_or_below(bid);
        (n > 0).then(|| self.prefix_sum[n] / n as f64)
    }

    /// Fraction of history time during which the price is at or below
    /// `bid` — the probability a launch request is immediately satisfied.
    pub fn launch_fraction(&self, bid: Usd) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.count_at_or_below(bid) as f64 / self.sorted.len() as f64
    }

    /// Highest observed price (`H_i`).
    pub fn max_price(&self) -> Usd {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// Lowest observed price.
    pub fn min_price(&self) -> Usd {
        self.sorted.first().copied().unwrap_or(0.0)
    }
}

/// Estimates failure-rate functions and expected spot prices from a price
/// history window (typically "the previous two days", per the paper).
///
/// ```
/// use ec2_market::failure::FailureEstimator;
/// use ec2_market::trace::SpotTrace;
///
/// // 48 h of calm $0.10 prices with one $1.00 spike at hour 10.
/// let mut prices = vec![0.1; 48];
/// prices[10] = 1.0;
/// let trace = SpotTrace::new(1.0, prices);
///
/// let est = FailureEstimator::from_window(trace.window(0.0, 48.0));
/// assert_eq!(est.max_price(), 1.0);
///
/// // Bidding $0.50 loses only to the single spike, so most of the
/// // exhaustively-enumerated start points survive a 12 h horizon
/// // (only starts within 12 h before the spike die).
/// let f = est.failure_rate_exact(0.5, 12);
/// assert!(f.survival() > 0.5);
///
/// // S_i(P): the mean of historical prices at or below the bid.
/// let s = est.expected_spot_price().mean_below(0.5).unwrap();
/// assert!((s - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct FailureEstimator {
    step_hours: Hours,
    prices: Vec<Usd>,
    expected: ExpectedSpotPrice,
}

impl FailureEstimator {
    /// Build an estimator over a history window.
    ///
    /// # Panics
    /// Panics if the window is empty.
    pub fn from_window(window: TraceWindow<'_>) -> Self {
        assert!(!window.is_empty(), "history window must be non-empty");
        Self {
            step_hours: window.step_hours(),
            prices: window.samples().to_vec(),
            expected: ExpectedSpotPrice::from_window(window),
        }
    }

    /// `S_i(P)` table for this history.
    pub fn expected_spot_price(&self) -> &ExpectedSpotPrice {
        &self.expected
    }

    /// FNV-1a digest over the history this estimator was built from (the
    /// step size and every price sample, bit for bit). Two estimators with
    /// equal digests produce bit-identical failure rates, launch delays,
    /// and expected prices, so the digest is a sound cache key for
    /// warm-started re-optimization across adaptive windows.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |word: u64| {
            for shift in (0..64).step_by(8) {
                h ^= (word >> shift) & 0xff;
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.prices.len() as u64);
        mix(self.step_hours.to_bits());
        for &p in &self.prices {
            mix(p.to_bits());
        }
        h
    }

    /// Highest historical price `H_i` — the top of the bid search range.
    pub fn max_price(&self) -> Usd {
        self.expected.max_price()
    }

    /// Expected delay (hours) between requesting an instance at a uniformly
    /// random time and the spot price first being at or below `bid` — the
    /// paper's "otherwise it waits" launch semantics. Zero when the bid
    /// covers the whole history; the full window duration when the bid
    /// never admits a launch. A read of [`FailureEstimator::failure_table`].
    pub fn expected_launch_delay(&self, bid: Usd) -> Hours {
        self.failure_table(bid).launch_delay()
    }

    /// Exhaustive estimator: every sample of the history serves as a start
    /// point once (the `G → all` limit of the paper's sampler). The history
    /// is treated as circular so late start points still observe a full
    /// horizon. Start points where the price already exceeds the bid (the
    /// instance cannot launch) are skipped, matching the paper's bidding
    /// semantics: "if the bid price is higher than the spot price, the
    /// instance can be successfully launched; otherwise it waits". A read
    /// of [`FailureEstimator::failure_table`].
    pub fn failure_rate_exact(&self, bid: Usd, horizon_hours: usize) -> FailureRateFn {
        self.failure_table(bid).to_fn(horizon_hours)
    }

    /// The fused first-passage table at `bid`: exhaustive integer counts
    /// that serve `failure_rate_exact(bid, h)` bit for bit at every
    /// horizon `h`, plus the expected launch delay, from one walk over
    /// the history. Callers that need several horizons, or a horizon and
    /// the launch delay, build it once.
    pub fn failure_table(&self, bid: Usd) -> FailureCounts {
        self.count(bid, |_| 1)
    }

    /// The paper's Monte-Carlo estimator with `g` random start points.
    pub fn failure_rate_sampled(
        &self,
        bid: Usd,
        horizon_hours: usize,
        g: usize,
        seed: u64,
    ) -> FailureRateFn {
        assert!(g > 0, "need at least one sample");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.prices.len();
        // A start drawn `m` times counts `m` times, exactly as if each
        // draw were walked separately.
        let mut draws = vec![0u64; n];
        for _ in 0..g {
            draws[rng.gen_range(0..n)] += 1;
        }
        self.count(bid, |s| draws[s]).to_fn(horizon_hours)
    }

    /// Samples per hour bucket (at least one).
    fn samples_per_hour(&self) -> usize {
        (1.0 / self.step_hours).round().max(1.0) as usize
    }

    /// The one counting pass: a single backward walk over the circular
    /// history that weights each admissible start `s` by `weight(s)` and
    /// buckets its first passage `k` (samples until the first price
    /// strictly above the bid) into hour `(k − 1) / samples_per_hour`,
    /// while summing each sample's wait until the next admissible price.
    /// The walk carries the passage's hour and in-hour offset and the
    /// wait from each sample to the one before it, so there is no
    /// distance array and no per-start division. Both carries start from
    /// the wrap-around: the first out-of-bid and first admissible sample.
    fn count(&self, bid: Usd, weight: impl Fn(usize) -> u64) -> FailureCounts {
        let prices = &self.prices;
        let n = prices.len();
        let per_hour = self.samples_per_hour();
        let mut buckets = vec![0u64; n.div_ceil(per_hour)];
        let first_out = prices.iter().position(|&p| p > bid);
        let first_in = prices.iter().position(|&p| p <= bid);
        let (Some(first_out), Some(first_in)) = (first_out, first_in) else {
            // Every sample admits the bid (every start survives, nothing
            // waits) or none does (nothing launches, every request waits
            // out the whole window).
            let used = match first_in {
                Some(_) => (0..n).map(&weight).sum(),
                None => 0,
            };
            let launch_delay = match first_in {
                Some(_) => 0.0,
                None => self.step_hours * n as f64,
            };
            return FailureCounts {
                bid,
                buckets,
                survived: used,
                used,
                launch_delay,
            };
        };
        // From the last sample, the next out-of-bid sample is `first_out`
        // past the wrap: a passage of `first_out + 1` samples, whose
        // offset `k − 1` is carried as `hour · per_hour + offset`.
        let (mut hour, mut offset) = (first_out / per_hour, first_out % per_hour);
        // Wait (samples) from the sample after the current one to the next
        // admissible price; past the last sample that is `first_in`.
        let mut wait = first_in as u64;
        let mut used = 0u64;
        let mut waited = 0u64;
        for s in (0..n).rev() {
            if prices[s] > bid {
                wait += 1;
                waited += wait;
                (hour, offset) = (0, 0);
            } else {
                let w = weight(s);
                used += w;
                buckets[hour] += w;
                wait = 0;
                offset += 1;
                if offset == per_hour {
                    (hour, offset) = (hour + 1, 0);
                }
            }
        }
        // The integer wait sum is exact in `f64`, so this equals summing
        // the per-sample waits as floats in any order.
        let launch_delay = waited as f64 / n as f64 * self.step_hours;
        FailureCounts {
            bid,
            buckets,
            survived: 0,
            used,
            launch_delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpotTrace;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn estimator(prices: &[f64], step: f64) -> FailureEstimator {
        let t = SpotTrace::new(step, prices.to_vec());
        FailureEstimator::from_window(t.window(0.0, f64::INFINITY))
    }

    #[test]
    fn constant_price_never_fails_above_it() {
        let e = estimator(&[0.1; 48], 1.0);
        let f = e.failure_rate_exact(0.2, 10);
        assert_eq!(f.survival(), 1.0);
        assert_eq!(f.prob_fail(), 0.0);
        assert!(f.mean_time_to_failure().is_none());
    }

    #[test]
    fn bid_below_all_prices_is_immediate_failure() {
        let e = estimator(&[0.1; 48], 1.0);
        let f = e.failure_rate_exact(0.05, 10);
        assert_eq!(f.prob_fail_in(0), 1.0);
        assert_eq!(f.survival(), 0.0);
    }

    #[test]
    fn periodic_spike_concentrates_failures() {
        // Price spikes every 12 hours for 1 hour; bidding between base and
        // spike must fail within 12 hours from any start.
        let mut prices = Vec::new();
        for day in 0..8 {
            let _ = day;
            prices.extend(std::iter::repeat_n(0.1, 11));
            prices.push(1.0);
        }
        let e = estimator(&prices, 1.0);
        let f = e.failure_rate_exact(0.5, 12);
        assert!(f.survival() < 1e-9, "survival {}", f.survival());
        let mass: f64 = f.buckets().iter().sum();
        assert!((mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn higher_bid_survives_no_worse() {
        let t = crate::tracegen::TraceGenConfig::preset(
            0.03,
            crate::tracegen::ZoneVolatility::Volatile,
        )
        .generate(240.0, 1.0 / 12.0, 3);
        let e = FailureEstimator::from_window(t.window(0.0, f64::INFINITY));
        let lo = e.failure_rate_exact(0.035, 24);
        let hi = e.failure_rate_exact(0.5, 24);
        assert!(hi.survival() >= lo.survival());
    }

    #[test]
    fn sampled_estimator_approaches_exact() {
        let t = crate::tracegen::TraceGenConfig::preset(
            0.03,
            crate::tracegen::ZoneVolatility::Volatile,
        )
        .generate(480.0, 1.0 / 12.0, 9);
        let e = FailureEstimator::from_window(t.window(0.0, f64::INFINITY));
        let exact = e.failure_rate_exact(0.06, 24);
        let sampled = e.failure_rate_sampled(0.06, 24, 20_000, 1);
        assert!(
            (exact.survival() - sampled.survival()).abs() < 0.05,
            "exact {} vs sampled {}",
            exact.survival(),
            sampled.survival()
        );
    }

    #[test]
    fn sampled_estimator_is_deterministic_per_seed() {
        let e = estimator(&[0.1, 0.2, 0.05, 0.4, 0.1, 0.1], 1.0);
        let a = e.failure_rate_sampled(0.25, 4, 500, 7);
        let b = e.failure_rate_sampled(0.25, 4, 500, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn expected_spot_price_means_below_bid() {
        let e = estimator(&[0.1, 0.2, 0.3, 0.4], 1.0);
        let s = e.expected_spot_price();
        assert_eq!(s.mean_below(0.05), None);
        assert!((s.mean_below(0.25).unwrap() - 0.15).abs() < 1e-12);
        assert!((s.mean_below(1.0).unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(s.launch_fraction(0.25), 0.5);
        assert_eq!(s.max_price(), 0.4);
    }

    #[test]
    fn launch_delay_zero_when_bid_covers_history() {
        let e = estimator(&[0.1, 0.2, 0.15, 0.1], 1.0);
        assert_eq!(e.expected_launch_delay(0.2), 0.0);
    }

    #[test]
    fn launch_delay_full_window_when_unlaunchable() {
        let e = estimator(&[0.1; 10], 0.5);
        assert_eq!(e.expected_launch_delay(0.05), 5.0);
    }

    #[test]
    fn launch_delay_matches_hand_computation() {
        // Prices: [hi, hi, lo, hi]; bid admits only index 2.
        // Distances to next admissible (circular): [2, 1, 0, 3] → mean 1.5
        // steps × 1 h.
        let e = estimator(&[9.0, 9.0, 0.1, 9.0], 1.0);
        assert!((e.expected_launch_delay(0.5) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn launch_delay_monotone_in_bid() {
        let t = crate::tracegen::TraceGenConfig::preset(
            0.03,
            crate::tracegen::ZoneVolatility::Volatile,
        )
        .generate(240.0, 1.0 / 12.0, 17);
        let e = FailureEstimator::from_window(t.window(0.0, f64::INFINITY));
        let mut prev = f64::INFINITY;
        for bid in [0.02, 0.03, 0.05, 0.1, 0.5] {
            let d = e.expected_launch_delay(bid);
            assert!(d <= prev + 1e-12, "bid {bid}: {d} > {prev}");
            prev = d;
        }
    }

    #[test]
    fn mttf_of_geometric_hazard_is_plausible() {
        // Hourly independent failure with p = 0.25 per hour has MTTF 4h
        // (geometric mean 1/p, measured from bucket midpoints ≈ 3.5–4.5).
        let buckets: Vec<f64> = (0..40).map(|t| 0.25 * (0.75f64).powi(t)).collect();
        let survival = 1.0 - buckets.iter().sum::<f64>();
        let f = FailureRateFn::new(0.1, buckets, survival);
        let mttf = f.mean_time_to_failure().unwrap();
        assert!((mttf - 4.0).abs() < 0.6, "mttf {mttf}");
    }

    /// The per-start probe loop the fused table replaced, kept as the
    /// oracle: walk forward from every start until the price first
    /// exceeds the bid or the horizon runs out.
    fn estimate_by_scan(
        e: &FailureEstimator,
        bid: Usd,
        horizon_hours: usize,
        starts: impl Iterator<Item = usize>,
    ) -> FailureRateFn {
        let n = e.prices.len();
        let samples_per_hour = e.samples_per_hour();
        let horizon_samples = horizon_hours * samples_per_hour;
        let mut buckets = vec![0u64; horizon_hours];
        let mut survived = 0u64;
        let mut used = 0u64;
        for s in starts {
            if e.prices[s] > bid {
                continue; // cannot launch here
            }
            used += 1;
            match (1..=horizon_samples).find(|&k| e.prices[(s + k) % n] > bid) {
                Some(k) => buckets[(k - 1) / samples_per_hour] += 1,
                None => survived += 1,
            }
        }
        if used == 0 {
            let mut b = vec![0.0; horizon_hours];
            b[0] = 1.0;
            return FailureRateFn::new(bid, b, 0.0);
        }
        let buckets = buckets
            .into_iter()
            .map(|c| c as f64 / used as f64)
            .collect();
        FailureRateFn::new(bid, buckets, survived as f64 / used as f64)
    }

    /// Naive launch delay: from every sample, probe forward for the first
    /// admissible price; the whole window when some sample never finds one.
    fn launch_delay_by_probe(e: &FailureEstimator, bid: Usd) -> Hours {
        let n = e.prices.len();
        let mut total = 0.0;
        for i in 0..n {
            match (0..n).find(|&d| e.prices[(i + d) % n] <= bid) {
                Some(d) => total += d as f64,
                None => return e.step_hours * n as f64,
            }
        }
        total / n as f64 * e.step_hours
    }

    /// Bids worth probing on a history: below, at and between every
    /// distinct price, and above the maximum.
    fn probe_bids(prices: &[f64]) -> Vec<f64> {
        let mut levels = prices.to_vec();
        levels.sort_by(|a, b| a.partial_cmp(b).unwrap());
        levels.dedup();
        let mut bids = vec![0.0, levels[0] * 0.5];
        for w in levels.windows(2) {
            bids.push(w[0]);
            bids.push((w[0] + w[1]) / 2.0);
        }
        bids.push(*levels.last().unwrap());
        bids.push(levels.last().unwrap() * 2.0);
        bids
    }

    /// Compare one history's fused tables against both oracles at every
    /// probe bid and every horizon up to twice the history's length.
    fn assert_table_matches_oracles(e: &FailureEstimator) {
        let n = e.prices.len();
        let history_hours = n.div_ceil(e.samples_per_hour());
        for bid in probe_bids(&e.prices) {
            let table = e.failure_table(bid);
            assert_eq!(table.bid(), bid);
            assert_eq!(
                table.launch_delay().to_bits(),
                launch_delay_by_probe(e, bid).to_bits(),
                "launch delay, bid {bid}, n {n}"
            );
            for h in 1..=2 * history_hours {
                assert_eq!(
                    table.to_fn(h),
                    estimate_by_scan(e, bid, h, 0..n),
                    "bid {bid} horizon {h} n {n}"
                );
            }
        }
    }

    #[test]
    fn fused_table_matches_scan_oracle_on_random_histories() {
        // Few price levels so bids tie with prices; steps whose samples
        // per hour (12, 7, 2, 1, 1) rarely divide the history length.
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for case in 0..100 {
            let step = [1.0 / 12.0, 1.0 / 7.0, 0.5, 1.0, 2.0][case % 5];
            let n = rng.gen_range(1..64);
            let levels = rng.gen_range(1..6);
            let prices: Vec<f64> = (0..n)
                .map(|_| 0.01 * (1 + rng.gen_range(0..levels)) as f64)
                .collect();
            assert_table_matches_oracles(&estimator(&prices, step));
        }
    }

    #[test]
    fn fused_table_matches_scan_oracle_on_degenerate_histories() {
        // 25 samples at 12 per hour: the last bucket is partial.
        let mut ragged = vec![0.1; 25];
        ragged[3] = 0.9;
        ragged[24] = 0.9;
        for (prices, step) in [
            (vec![0.1; 25], 1.0 / 12.0),               // constant price
            (vec![0.4], 1.0),                          // a single sample
            (vec![0.4], 1.0 / 12.0),                   // ...at sub-hour steps
            (ragged, 1.0 / 12.0),                      // sph does not divide n
            (vec![9.0, 9.0, 0.1, 9.0, 0.1, 0.1], 0.5), // wrap-around runs
            (vec![0.3, 0.1, 0.5, 0.5, 0.2, 0.9, 0.1], 1.0),
        ] {
            assert_table_matches_oracles(&estimator(&prices, step));
        }
        // Every price above the bid, and every price at or below it.
        let e = estimator(&[0.2, 0.3, 0.25], 1.0 / 12.0);
        let none = e.failure_table(0.1);
        assert_eq!(none.launch_delay(), 0.25);
        assert_eq!(none.to_fn(3), estimate_by_scan(&e, 0.1, 3, 0..3));
        assert_eq!(none.to_fn(3).survival(), 0.0);
        let all = e.failure_table(0.3);
        assert_eq!(all.launch_delay(), 0.0);
        assert_eq!(all.to_fn(5), estimate_by_scan(&e, 0.3, 5, 0..3));
        assert_eq!(all.to_fn(5).survival(), 1.0);
    }

    /// A generated trace (sub-hour steps, wrap-around) and degenerate
    /// hand traces.
    fn fixtures(seed: u64) -> [FailureEstimator; 4] {
        let gen = crate::tracegen::TraceGenConfig::preset(
            0.05,
            crate::tracegen::ZoneVolatility::Volatile,
        )
        .generate(120.0, 1.0 / 12.0, seed);
        [
            estimator(gen.samples(), 1.0 / 12.0),
            estimator(&[0.1; 5], 1.0),
            estimator(&[0.4], 1.0),
            estimator(&[9.0, 9.0, 0.1, 9.0, 0.1, 0.1], 0.5),
        ]
    }

    #[test]
    fn carry_estimate_matches_scan_reference() {
        // Exhaustive and sampled start points both go through the fused
        // pass and must reproduce the per-start probe loop bit for bit —
        // the same integer counts, so the same float divisions.
        for e in &fixtures(23) {
            let n = e.prices.len();
            let max = e.max_price();
            for bid in [0.0, 0.05, 0.09, 0.3, max, max * 2.0] {
                let slow = estimate_by_scan(e, bid, 24, 0..n);
                assert_eq!(e.failure_rate_exact(bid, 24), slow, "bid {bid}");
            }
            let mut rng = StdRng::seed_from_u64(5);
            let starts: Vec<usize> = (0..200).map(|_| rng.gen_range(0..n)).collect();
            let slow = estimate_by_scan(e, 0.08, 12, starts.into_iter());
            assert_eq!(e.failure_rate_sampled(0.08, 12, 200, 5), slow);
        }
    }

    #[test]
    fn launch_delay_matches_a_forward_probe() {
        let e = estimator(&[0.3, 0.1, 0.5, 0.5, 0.2, 0.9, 0.1], 1.0);
        for bid in [0.0, 0.1, 0.25, 0.5, 1.0] {
            let probe = launch_delay_by_probe(&e, bid);
            assert_eq!(e.expected_launch_delay(bid).to_bits(), probe.to_bits());
        }
    }

    #[test]
    fn truncated_counts_match_direct_estimation() {
        // One table per bid serves every horizon — shorter, equal to and
        // longer than the history — exactly as the per-start scan does:
        // the contract table reuse relies on. Unlaunchable bids included.
        for e in &fixtures(29) {
            let max = e.max_price();
            for bid in [0.0, 0.05, 0.09, 0.3, max, max * 2.0] {
                let table = e.failure_table(bid);
                for horizon in [1usize, 2, 7, 10, 24, 399, 400] {
                    let slow = estimate_by_scan(e, bid, horizon, 0..e.prices.len());
                    assert_eq!(table.to_fn(horizon), slow, "bid {bid} horizon {horizon}");
                }
            }
        }
    }

    #[test]
    fn longer_horizons_pad_exactly() {
        // 10 samples at 2 per hour: every passage fits in 5 buckets, so
        // longer horizons only append zero buckets, with the same
        // survivors, and still match the scan.
        let e = estimator(&[0.1, 0.1, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.9, 0.1], 0.5);
        let table = e.failure_table(0.5);
        let recorded = table.to_fn(5);
        for h in [6usize, 7, 50] {
            let padded = table.to_fn(h);
            assert_eq!(padded, estimate_by_scan(&e, 0.5, h, 0..10), "horizon {h}");
            assert_eq!(&padded.buckets()[..5], recorded.buckets());
            assert!(padded.buckets()[5..].iter().all(|&p| p == 0.0));
            assert_eq!(padded.survival(), recorded.survival());
        }
    }

    #[test]
    fn digest_separates_histories_and_sticks_to_equal_ones() {
        let a = estimator(&[0.1, 0.2, 0.3], 1.0);
        let b = estimator(&[0.1, 0.2, 0.3], 1.0);
        assert_eq!(a.digest(), b.digest());
        // Different prices, different step, and different length all move
        // the digest.
        assert_ne!(a.digest(), estimator(&[0.1, 0.2, 0.4], 1.0).digest());
        assert_ne!(a.digest(), estimator(&[0.1, 0.2, 0.3], 0.5).digest());
        assert_ne!(a.digest(), estimator(&[0.1, 0.2], 1.0).digest());
    }

    #[test]
    fn sub_hour_resolution_buckets_correctly() {
        // 5-minute steps; spike at sample 13 (~65 min) => failure in hour 1.
        let mut prices = vec![0.1; 36];
        prices[13] = 9.0;
        let e = estimator(&prices, 1.0 / 12.0);
        // Only start point 0 matters for this check; use exact and confirm
        // the mass in bucket 1 from starts near 0 is nonzero.
        let f = e.failure_rate_exact(0.5, 3);
        assert!(f.prob_fail() > 0.0);
        let mass: f64 = f.buckets().iter().sum::<f64>() + f.survival();
        assert!((mass - 1.0).abs() < 1e-9);
    }
}
