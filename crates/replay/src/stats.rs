//! Summary statistics for Monte-Carlo experiment results.
//!
//! Two ways to build a [`Summary`]:
//!
//! * [`Summary::of`] — exact, sort-based, needs the whole sample in memory;
//! * streaming, as the Monte-Carlo driver does, so peak memory does not
//!   scale with the replica count. The stream splits in two:
//!   - `Moments` — count, mean and M2 (Welford's update, Chan's pairwise
//!     merge), exact `min`/`max`. Float merges are order-sensitive, so the
//!     driver folds replicas in fixed-size chunks and merges the chunk
//!     moments in index order; the chunking depends only on the sample
//!     size, so the result is bit-identical at any thread count.
//!   - `QuantileHistogram` — `median`/`p95` from a log₂-quantized
//!     histogram (256 sub-bins per octave, ≲0.4% relative quantization
//!     error), clamped to the exact `[min, max]` — a documented
//!     approximation, adequate for the dispersion read-outs they feed. Its
//!     counts are integers, so any merge order gives the same histogram;
//!     the driver keeps one per worker and sums them once.

use serde::{Deserialize, Serialize};

/// Summary of a sample of scalar outcomes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Summarize a sample.
    ///
    /// # Panics
    /// Panics on an empty sample or non-finite values.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarize an empty sample");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "sample contains non-finite values"
        );
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Self {
            n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
        }
    }

    /// Coefficient of variation (std/mean); 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

/// Linear-interpolated percentile of a pre-sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&q));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Number of leading `f64` bits (sign + exponent + 8 mantissa bits) kept as
/// the histogram bucket key; 256 sub-bins per octave.
const BUCKET_SHIFT: u32 = 44;

/// Sub-bins per octave: the low 8 bits of a bucket key.
const OCTAVE_BINS: usize = 256;

/// Octaves a bucket key can name: its bits above the sub-bin (sign and
/// exponent).
const OCTAVES: usize = 1 << (64 - BUCKET_SHIFT as usize - 8);

/// Octave blocks reserved when a histogram is created. The costs or wall
/// hours of one study rarely span more octaves, so a histogram normally
/// allocates only when it is created.
const RESERVED_OCTAVES: usize = 16;

/// Bucket key for a non-negative finite value. Monotone in the value, so
/// cumulative bucket counts give rank bounds.
fn bucket_of(v: f64) -> u32 {
    if v <= 0.0 {
        0
    } else {
        (v.to_bits() >> BUCKET_SHIFT) as u32
    }
}

/// Half-open value range `[lo, hi)` covered by a bucket key.
fn bucket_bounds(key: u32) -> (f64, f64) {
    let lo = if key == 0 {
        0.0
    } else {
        f64::from_bits((key as u64) << BUCKET_SHIFT)
    };
    let hi = f64::from_bits(((key as u64) + 1) << BUCKET_SHIFT);
    (lo, hi)
}

/// Log₂-quantized counting histogram for quantile estimates: one dense
/// block of [`OCTAVE_BINS`] counts per octave that has seen a value, so a
/// push is two array reads and an increment. Bucket counts are integers,
/// so merging is exact in any order — the Monte-Carlo driver keeps one
/// histogram per worker and sums them once at the end.
#[derive(Debug, Clone)]
pub(crate) struct QuantileHistogram {
    /// `block_of[octave]` is one plus the index in `blocks` of the
    /// octave's counts; 0 while the octave has seen no value.
    block_of: Vec<u16>,
    blocks: Vec<[u64; OCTAVE_BINS]>,
}

impl Default for QuantileHistogram {
    fn default() -> Self {
        Self {
            block_of: vec![0; OCTAVES],
            blocks: Vec::with_capacity(RESERVED_OCTAVES),
        }
    }
}

impl QuantileHistogram {
    /// The counts of `octave`, created empty on first use.
    fn block_mut(&mut self, octave: usize) -> &mut [u64; OCTAVE_BINS] {
        let i = match self.block_of[octave] {
            0 => {
                self.blocks.push([0; OCTAVE_BINS]);
                // At most OCTAVES (4096) blocks, so the index fits.
                self.block_of[octave] = self.blocks.len() as u16;
                self.blocks.len() - 1
            }
            slot => usize::from(slot) - 1,
        };
        &mut self.blocks[i]
    }

    pub(crate) fn push(&mut self, v: f64) {
        let key = bucket_of(v) as usize;
        self.block_mut(key / OCTAVE_BINS)[key % OCTAVE_BINS] += 1;
    }

    pub(crate) fn merge(&mut self, other: &Self) {
        for (octave, &slot) in other.block_of.iter().enumerate() {
            if slot != 0 {
                let theirs = &other.blocks[usize::from(slot) - 1];
                for (mine, &n) in self.block_mut(octave).iter_mut().zip(theirs) {
                    *mine += n;
                }
            }
        }
    }

    /// `(key, count)` of every non-empty bucket, in ascending key order.
    fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.block_of
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != 0)
            .flat_map(move |(octave, &slot)| {
                self.blocks[usize::from(slot) - 1]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &count)| count != 0)
                    .map(move |(bin, &count)| ((octave * OCTAVE_BINS + bin) as u32, count))
            })
    }

    /// Value at integer rank `r` (0-based), interpolated linearly inside the
    /// bucket that contains the rank.
    fn value_at_rank(&self, r: u64) -> f64 {
        let mut before = 0u64;
        for (key, count) in self.buckets() {
            if r < before + count {
                let (lo, hi) = bucket_bounds(key);
                let frac = (r - before) as f64 + 0.5;
                return lo + (hi - lo) * (frac / count as f64);
            }
            before += count;
        }
        // Ranks are always < total count; fall back to the top bucket edge.
        f64::NAN
    }

    /// Approximate `q`-quantile of `n` accumulated values, clamped to the
    /// exact observed `[min, max]`.
    ///
    /// Total on degenerate input instead of UB-adjacent: `n == 0` answers
    /// NaN (there is no quantile of nothing), a NaN `q` answers NaN, and
    /// out-of-range `q` clamps to `[0, 1]`. The old `debug_assert!`-only
    /// guard let release builds underflow `n - 1` for `n == 0` and walk
    /// ranks past the histogram, surfacing as a `clamp` panic on the
    /// empty accumulator's inverted `[∞, -∞]` range.
    fn quantile(&self, q: f64, n: u64, min: f64, max: f64) -> f64 {
        if n == 0 || q.is_nan() {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        if n == 1 {
            return min;
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as u64;
        let hi = pos.ceil() as u64;
        let frac = pos - lo as f64;
        let v = self.value_at_rank(lo) * (1.0 - frac) + self.value_at_rank(hi) * frac;
        v.clamp(min, max)
    }
}

/// Streaming moments of a scalar sample: exact count, min and max, plus
/// Welford's mean/M2. Floating-point merges are not associative, so
/// callers merge partials in a fixed order. The quantiles live apart, in a
/// [`QuantileHistogram`] fed the same values.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Moments {
    fn default() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Moments {
    /// Number of values accumulated.
    pub(crate) fn count(&self) -> u64 {
        self.n
    }

    /// Fold one value in (Welford's update).
    ///
    /// # Panics
    /// Panics on non-finite values, matching [`Summary::of`].
    pub(crate) fn push(&mut self, v: f64) {
        assert!(v.is_finite(), "sample contains non-finite values");
        self.n += 1;
        let delta = v - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merge another partial in (Chan's pairwise update).
    pub(crate) fn merge(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * (n2 / n);
        self.m2 += other.m2 + delta * delta * (n1 * n2 / n);
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Finish into a [`Summary`], reading the quantiles from `hist`, which
    /// must hold the same values.
    ///
    /// # Panics
    /// Panics if no values were accumulated.
    pub(crate) fn summary(&self, hist: &QuantileHistogram) -> Summary {
        assert!(self.n > 0, "cannot summarize an empty sample");
        let var = if self.n > 1 {
            (self.m2 / (self.n - 1) as f64).max(0.0)
        } else {
            0.0
        };
        Summary {
            n: self.n as usize,
            mean: self.mean,
            std_dev: var.sqrt(),
            min: self.min,
            max: self.max,
            median: hist.quantile(0.50, self.n, self.min, self.max),
            p95: hist.quantile(0.95, self.n, self.min, self.max),
        }
    }
}

/// The histogram as it was before the dense per-octave layout: a
/// `BTreeMap` from bucket key to count. Kept as the oracle whose quantiles
/// the dense layout must reproduce bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{bucket_bounds, bucket_of};
    use std::collections::BTreeMap;

    #[derive(Debug, Default)]
    pub(crate) struct MapHistogram {
        buckets: BTreeMap<u32, u64>,
    }

    impl MapHistogram {
        pub(crate) fn push(&mut self, v: f64) {
            *self.buckets.entry(bucket_of(v)).or_insert(0) += 1;
        }

        fn value_at_rank(&self, r: u64) -> f64 {
            let mut before = 0u64;
            for (&key, &count) in &self.buckets {
                if r < before + count {
                    let (lo, hi) = bucket_bounds(key);
                    let frac = (r - before) as f64 + 0.5;
                    return lo + (hi - lo) * (frac / count as f64);
                }
                before += count;
            }
            f64::NAN
        }

        /// `q`-quantile of the `n` pushed values, clamped to `[min, max]`.
        pub(crate) fn quantile(&self, q: f64, n: u64, min: f64, max: f64) -> f64 {
            if n == 0 || q.is_nan() {
                return f64::NAN;
            }
            let q = q.clamp(0.0, 1.0);
            if n == 1 {
                return min;
            }
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as u64;
            let hi = pos.ceil() as u64;
            let frac = pos - lo as f64;
            let v = self.value_at_rank(lo) * (1.0 - frac) + self.value_at_rank(hi) * frac;
            v.clamp(min, max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn basic_moments() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn median_interpolates() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 10.0]);
        assert!((s.median - 2.5).abs() < 1e-12);
    }

    #[test]
    fn single_value_degenerate() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.p95, 7.0);
    }

    #[test]
    fn percentile_ordering() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = Summary::of(&vals);
        assert!(s.median < s.p95);
        assert!(s.p95 <= s.max);
        assert!((s.p95 - 94.05).abs() < 1e-9);
    }

    #[test]
    fn cv_of_constant_sample_is_zero() {
        let s = Summary::of(&[3.0, 3.0, 3.0]);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected() {
        Summary::of(&[1.0, f64::NAN]);
    }

    fn sample(n: usize) -> Vec<f64> {
        // Deterministic spread over ~3 orders of magnitude.
        (0..n)
            .map(|i| 0.07 + (i as f64 * 0.613).sin().abs() * 40.0 + (i % 13) as f64)
            .collect()
    }

    /// Stream `vals` in chunks of `chunk`: chunk moments merged in order,
    /// one histogram for the whole sample — the Monte-Carlo driver's fold.
    fn stream(vals: &[f64], chunk: usize) -> Summary {
        let mut merged = Moments::default();
        let mut hist = QuantileHistogram::default();
        for c in vals.chunks(chunk) {
            let mut part = Moments::default();
            for &v in c {
                part.push(v);
                hist.push(v);
            }
            merged.merge(&part);
        }
        merged.summary(&hist)
    }

    #[test]
    fn streaming_matches_exact_moments_and_extrema() {
        let vals = sample(500);
        let exact = Summary::of(&vals);
        let s = stream(&vals, vals.len());
        assert_eq!(s.n, exact.n);
        assert_eq!(s.min, exact.min);
        assert_eq!(s.max, exact.max);
        assert!((s.mean - exact.mean).abs() < 1e-9 * exact.mean.abs());
        assert!((s.std_dev - exact.std_dev).abs() < 1e-9 * exact.std_dev.abs());
    }

    #[test]
    fn streaming_quantiles_within_bucket_tolerance() {
        let vals = sample(2000);
        let exact = Summary::of(&vals);
        let s = stream(&vals, vals.len());
        // One log2 bucket spans a relative width of 2^-8 ≈ 0.4%; allow a
        // little slack for the cross-rank interpolation.
        assert!((s.median - exact.median).abs() < 0.01 * exact.median.abs());
        assert!((s.p95 - exact.p95).abs() < 0.01 * exact.p95.abs());
        assert!(s.median >= s.min && s.p95 <= s.max);
    }

    #[test]
    fn streaming_chunked_merge_is_bit_identical_to_itself() {
        // The determinism contract: identical chunk boundaries merged in
        // index order give bit-identical results however the partials were
        // produced.
        let vals = sample(777);
        assert_eq!(stream(&vals, 64), stream(&vals, 64));
        // Different chunkings agree to float tolerance (not necessarily
        // bit-identical — that is why evaluate() fixes the chunk size).
        let a = stream(&vals, 64);
        let b = stream(&vals, 13);
        assert!((a.mean - b.mean).abs() < 1e-9 * a.mean.abs());
        // The quantiles come from integer counts: any chunking agrees.
        assert_eq!((a.median, a.p95), (b.median, b.p95));
    }

    #[test]
    fn streaming_constant_sample_is_exact() {
        let s = stream(&[3.25; 100], 64);
        assert_eq!(s.mean, 3.25);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 3.25);
        assert_eq!(s.p95, 3.25);
    }

    #[test]
    fn streaming_single_and_zero_values() {
        let s = stream(&[7.0], 64);
        assert_eq!((s.n, s.mean, s.median, s.p95), (1, 7.0, 7.0, 7.0));

        let z = stream(&[0.0, 0.0], 64);
        assert_eq!((z.min, z.max, z.median), (0.0, 0.0, 0.0));
    }

    #[test]
    fn streaming_merge_with_empty_is_identity() {
        let mut acc = Moments::default();
        acc.push(1.0);
        acc.push(2.0);
        let before = acc.clone();
        acc.merge(&Moments::default());
        assert_eq!(acc, before);
        let mut empty = Moments::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn streaming_empty_summary_panics() {
        Moments::default().summary(&QuantileHistogram::default());
    }

    #[test]
    fn quantile_is_total_on_degenerate_inputs() {
        let mut h = QuantileHistogram::default();
        // n == 0: no quantile, not a panic. Release builds used to
        // underflow `n - 1`, walk ranks past the histogram, and panic in
        // `clamp` on the empty accumulator's inverted `[∞, -∞]` range.
        assert!(h
            .quantile(0.5, 0, f64::INFINITY, f64::NEG_INFINITY)
            .is_nan());
        h.push(4.0);
        assert_eq!(h.quantile(0.5, 1, 4.0, 4.0), 4.0);
        h.push(8.0);
        // Out-of-range and NaN q: clamp into [0, 1] / answer NaN instead
        // of interpolating at ranks that do not exist.
        assert_eq!(h.quantile(-0.3, 2, 4.0, 8.0), h.quantile(0.0, 2, 4.0, 8.0));
        assert_eq!(h.quantile(1.7, 2, 4.0, 8.0), h.quantile(1.0, 2, 4.0, 8.0));
        assert!(h.quantile(f64::NAN, 2, 4.0, 8.0).is_nan());
        // Healthy queries stay inside the observed extrema.
        let v = h.quantile(0.9, 2, 4.0, 8.0);
        assert!((4.0..=8.0).contains(&v));
    }

    /// A random sample with zeros, duplicates and values spread from
    /// subnormals to 1e300.
    fn wild_sample(rng: &mut StdRng, n: usize) -> Vec<f64> {
        let mut vals: Vec<f64> = Vec::with_capacity(n);
        while vals.len() < n {
            let v = match rng.gen_range(0..10) {
                0 => 0.0,
                1 if !vals.is_empty() => vals[rng.gen_range(0..vals.len())],
                2 => f64::MIN_POSITIVE * rng.gen_range(0.0..1.0),
                3 => 10f64.powf(rng.gen_range(-300.0..300.0)),
                _ => rng.gen_range(0.0..50.0) * 10f64.powi(rng.gen_range(-2..4)),
            };
            vals.push(v);
        }
        vals
    }

    #[test]
    fn dense_histogram_quantiles_match_the_map_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(13);
        for case in 0..200 {
            let n = match case % 4 {
                0 => rng.gen_range(1..5usize),
                1 => rng.gen_range(5..100usize),
                2 => rng.gen_range(100..2_000usize),
                _ => rng.gen_range(2_000..20_000usize),
            };
            let vals = wild_sample(&mut rng, n);
            let mut oracle = oracle::MapHistogram::default();
            // Split the sample over three "workers" in a shuffled pattern
            // and sum them in a random order: counts merge exactly.
            let mut workers = vec![QuantileHistogram::default(); 3];
            for &v in &vals {
                oracle.push(v);
                workers[rng.gen_range(0..3usize)].push(v);
            }
            let first = rng.gen_range(0..3usize);
            let mut hist = workers.swap_remove(first);
            for w in &workers {
                hist.merge(w);
            }
            let s = stream(&vals, 64);
            let (n, min, max) = (vals.len() as u64, s.min, s.max);
            for q in [0.0, 0.01, 0.25, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(
                    hist.quantile(q, n, min, max).to_bits(),
                    oracle.quantile(q, n, min, max).to_bits(),
                    "case {case}, n {n}, q {q}"
                );
            }
            assert_eq!(
                s.median.to_bits(),
                oracle.quantile(0.5, n, min, max).to_bits()
            );
            assert_eq!(
                s.p95.to_bits(),
                oracle.quantile(0.95, n, min, max).to_bits()
            );
        }
    }
}
