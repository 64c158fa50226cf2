//! Parallel Monte-Carlo evaluation over random trace start points.
//!
//! The paper repeats the trace-replay simulation "one million times" from
//! random start points. [`MonteCarlo`] distributes seeded replicas across
//! threads with crossbeam's scoped threads; results are deterministic for
//! a (seed, replica-count) pair regardless of thread count, because each
//! replica's start offset derives only from the seed and its index.
//!
//! Aggregation streams and splits by what its merge order can change.
//! Replicas fold into per-chunk `ChunkPartial`s — moments, extrema and
//! counters, whose float merges are order-sensitive — and the partials
//! merge in chunk-index order. Chunk boundaries depend only on the replica
//! count (never on the thread count), which keeps the merged result
//! bit-identical at any `threads` setting; peak memory is O(number of
//! chunks), bounded by [`MAX_CHUNKS`]. The quantile histograms hold
//! integer counts, which merge exactly in any order: each worker fills one
//! `Quantiles` for all its chunks, and the workers' are summed once.

use crate::batch::BatchTables;
use crate::exec::{ExecContext, ExecMode, Finisher, PlanRunner, RunOutcome};
use crate::stats::{Moments, QuantileHistogram, Summary};
use crate::Hours;
use ec2_market::market::SpotMarket;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sompi_core::error::SompiError;
use sompi_core::model::Plan;
use sompi_core::parallel::{resolve_threads, WorkerShare};
use sompi_obs::{emit, Event, TraceLevel};

/// Aggregated Monte-Carlo result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McResult {
    /// Summary of total cost, USD.
    pub cost: Summary,
    /// Summary of wall-clock time, hours.
    pub time: Summary,
    /// Fraction of replicas meeting the deadline.
    pub deadline_rate: f64,
    /// Fraction of replicas finished on spot (vs on-demand fallback).
    pub spot_finish_rate: f64,
    /// Mean number of out-of-bid terminations per replica.
    pub mean_failures: f64,
}

impl McResult {
    /// Build from raw outcomes in a single pass (no intermediate metric
    /// vectors). Folds the slice through the same fixed chunking as
    /// [`MonteCarlo::evaluate`], so for identical outcome sequences the two
    /// paths agree bit-for-bit. `Err(SompiError::NoOutcomes)` when
    /// `outcomes` is empty — there is no meaningful aggregate of zero
    /// replicas.
    pub fn from_outcomes(outcomes: &[RunOutcome]) -> Result<Self, SompiError> {
        let mut merged = ChunkPartial::default();
        let mut quantiles = Quantiles::default();
        for block in outcomes.chunks(chunk_size(outcomes.len())) {
            let mut part = ChunkPartial::default();
            for o in block {
                part.push(o, &mut quantiles);
            }
            merged.merge(&part);
        }
        merged.finish(&quantiles)
    }
}

/// Smallest chunk a replica range is split into for streaming aggregation.
const MIN_CHUNK: usize = 64;

/// Upper bound on the number of chunk partials held at once — this, not the
/// replica count, bounds the aggregation's peak memory.
pub const MAX_CHUNKS: usize = 4096;

/// Replicas per chunk. Depends only on the replica count, so the chunk
/// boundaries — and therefore the merged floating-point result — are
/// identical at every thread count.
fn chunk_size(replicas: usize) -> usize {
    MIN_CHUNK.max(replicas.div_ceil(MAX_CHUNKS))
}

/// The order-sensitive part of a chunk's aggregate: cost and time moments
/// plus exact integer counters. Merge partials in a fixed order (ascending
/// chunk index) for deterministic results.
#[derive(Debug, Clone, Default)]
struct ChunkPartial {
    cost: Moments,
    time: Moments,
    met_deadline: u64,
    spot_finish: u64,
    failures: u64,
}

/// The order-free part: cost and time quantile histograms, one per worker.
#[derive(Debug, Clone, Default)]
struct Quantiles {
    cost: QuantileHistogram,
    time: QuantileHistogram,
}

impl Quantiles {
    fn merge(&mut self, other: &Self) {
        self.cost.merge(&other.cost);
        self.time.merge(&other.time);
    }
}

impl ChunkPartial {
    /// Fold one replica outcome into this chunk and its worker's
    /// `quantiles`.
    fn push(&mut self, o: &RunOutcome, quantiles: &mut Quantiles) {
        self.cost.push(o.total_cost);
        self.time.push(o.wall_hours);
        quantiles.cost.push(o.total_cost);
        quantiles.time.push(o.wall_hours);
        self.met_deadline += u64::from(o.met_deadline);
        self.spot_finish += u64::from(matches!(o.finisher, Finisher::Spot(_)));
        self.failures += u64::from(o.groups_failed);
    }

    /// Merge the next chunk's partial in.
    fn merge(&mut self, other: &Self) {
        self.cost.merge(&other.cost);
        self.time.merge(&other.time);
        self.met_deadline += other.met_deadline;
        self.spot_finish += other.spot_finish;
        self.failures += other.failures;
    }

    /// Finish into an [`McResult`], given the histograms of every replica
    /// folded in; `Err(SompiError::NoOutcomes)` when there were none.
    fn finish(&self, quantiles: &Quantiles) -> Result<McResult, SompiError> {
        if self.cost.count() == 0 {
            return Err(SompiError::NoOutcomes);
        }
        let n = self.cost.count() as f64;
        Ok(McResult {
            cost: self.cost.summary(&quantiles.cost),
            time: self.time.summary(&quantiles.time),
            deadline_rate: self.met_deadline as f64 / n,
            spot_finish_rate: self.spot_finish as f64 / n,
            mean_failures: self.failures as f64 / n,
        })
    }
}

/// Monte-Carlo driver over a market region.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarlo {
    /// Number of replicas.
    pub replicas: usize,
    /// RNG seed for start-offset sampling.
    pub seed: u64,
    /// Earliest admissible start offset (hours) — leave room for the
    /// planner's history window before it.
    pub offset_min: Hours,
    /// Latest admissible start offset (hours) — leave room for the
    /// execution after it.
    pub offset_max: Hours,
    /// Worker threads, with the same semantics as
    /// `OptimizerConfig::threads`: `0` = one worker per available core,
    /// `1` = sequential, `n` = exactly `n` workers. Results are identical
    /// at any value — only wall-clock changes. With more than one worker,
    /// searches nested in a replica split the cores between the workers
    /// (`sompi_core::parallel`).
    pub threads: usize,
}

/// Builder for [`MonteCarlo`] (see [`MonteCarlo::builder`]).
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloBuilder {
    mc: MonteCarlo,
}

impl MonteCarloBuilder {
    /// Number of replicas.
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.mc.replicas = replicas;
        self
    }

    /// RNG seed for start-offset sampling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.mc.seed = seed;
        self
    }

    /// Admissible start-offset window `[min, max)`, hours.
    pub fn offsets(mut self, min: Hours, max: Hours) -> Self {
        self.mc.offset_min = min;
        self.mc.offset_max = max;
        self
    }

    /// Worker threads (`0` = all cores, `1` = sequential).
    pub fn threads(mut self, threads: usize) -> Self {
        self.mc.threads = threads;
        self
    }

    /// Finish the builder.
    pub fn build(self) -> MonteCarlo {
        self.mc
    }
}

impl MonteCarlo {
    /// A driver with sensible experiment defaults: all cores (`threads =
    /// 0`), no artificial cap.
    ///
    /// ```
    /// use replay::montecarlo::MonteCarlo;
    /// let mc = MonteCarlo::builder()
    ///     .replicas(64)
    ///     .seed(7)
    ///     .offsets(48.0, 250.0)
    ///     .build();
    /// assert_eq!(mc.threads, 0);
    /// ```
    pub fn builder() -> MonteCarloBuilder {
        MonteCarloBuilder {
            mc: MonteCarlo {
                replicas: 100,
                seed: 0,
                offset_min: 0.0,
                offset_max: 1.0,
                threads: 0,
            },
        }
    }

    /// Deterministic start offset of replica `i`.
    fn offset(&self, i: usize) -> Hours {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(i as u64));
        rng.gen_range(self.offset_min..self.offset_max)
    }

    /// Run `f(start_offset)` for every replica in parallel and aggregate
    /// by streaming, never materializing per-replica outcomes: each worker
    /// folds whole chunks of replicas into `ChunkPartial`s, which merge
    /// in ascending chunk order, and into its own `Quantiles`, which are
    /// summed once at the end. Chunk boundaries depend only on the replica
    /// count, so the result is bit-identical at every `threads` setting,
    /// and peak memory is bounded by [`MAX_CHUNKS`] partials plus one pair
    /// of histograms per worker, regardless of the replica count.
    ///
    /// When it spawns more than one worker, each runs with its
    /// [`WorkerShare`] of the cores, so an optimizer search inside `f` (the
    /// adaptive runner re-plans per window) uses at most that share: one
    /// thread, running inline, once the workers fill the cores. A run on
    /// one worker (one chunk, or `threads = 1`) leaves the caller's thread
    /// as it was, and its searches keep the caller's cores.
    ///
    /// `f` must be deterministic in the offset. The first replica error
    /// (in replica order, independent of thread count) aborts the
    /// aggregate; an empty or inverted configuration is
    /// [`SompiError::InvalidConfig`].
    pub fn evaluate<F>(&self, f: F) -> Result<McResult, SompiError>
    where
        F: Fn(Hours) -> Result<RunOutcome, SompiError> + Sync,
    {
        if self.replicas == 0 {
            return Err(SompiError::InvalidConfig {
                message: "need at least one replica".to_string(),
            });
        }
        if self.offset_max <= self.offset_min {
            return Err(SompiError::InvalidConfig {
                message: "offset window must be non-empty".to_string(),
            });
        }
        let chunk = chunk_size(self.replicas);
        let n_chunks = self.replicas.div_ceil(chunk);
        let per_worker = n_chunks.div_ceil(resolve_threads(self.threads).min(n_chunks));
        let workers = n_chunks.div_ceil(per_worker);
        // Fold a worker's run of consecutive chunks, `first` onwards, into
        // `slots` and the worker's histograms. A worker abandons its
        // remaining (higher-index) chunks after a replica error — those can
        // never beat the error it already holds.
        let run_chunks = |first: usize, slots: &mut [Option<Result<ChunkPartial, SompiError>>]| {
            let mut quantiles = Quantiles::default();
            for (c, slot) in (first..).zip(slots.iter_mut()) {
                let hi = ((c + 1) * chunk).min(self.replicas);
                let mut part = ChunkPartial::default();
                let folded = (c * chunk..hi).try_for_each(|i| {
                    part.push(&f(self.offset(i))?, &mut quantiles);
                    Ok(())
                });
                let failed = folded.is_err();
                *slot = Some(folded.map(|()| part));
                if failed {
                    break;
                }
            }
            quantiles
        };
        // One slot per chunk, filled by whichever worker ran it.
        let mut parts: Vec<Option<Result<ChunkPartial, SompiError>>> =
            (0..n_chunks).map(|_| None).collect();
        let quantiles = if workers <= 1 {
            run_chunks(0, &mut parts)
        } else {
            let share = WorkerShare::of(workers);
            let run_chunks = &run_chunks;
            crossbeam::thread::scope(|s| {
                let handles: Vec<_> = parts
                    .chunks_mut(per_worker)
                    .enumerate()
                    .map(|(w, slots)| {
                        s.spawn(move |_| share.run(|| run_chunks(w * per_worker, slots)))
                    })
                    .collect();
                let mut all = Quantiles::default();
                for h in handles {
                    all.merge(&h.join().expect("Monte-Carlo worker panicked"));
                }
                all
            })
            .expect("crossbeam scope failed")
        };
        // Deterministic merge: ascending chunk index. The first error in
        // chunk order is the lowest-replica-index error, because each
        // worker fills its slots in order and stops at its first failure.
        let mut merged = ChunkPartial::default();
        for part in parts {
            match part {
                Some(Ok(part)) => merged.merge(&part),
                Some(Err(e)) => return Err(e),
                None => unreachable!("unfilled chunk slot before the first error"),
            }
        }
        merged.finish(&quantiles)
    }

    /// Convenience: Monte-Carlo over a static plan via [`PlanRunner`].
    /// The context's fault injector and retry policy apply to every
    /// replica (the fault timeline is a property of the trace clock, so
    /// replicas starting at different offsets see different storm
    /// alignments — exactly like real correlated outages).
    ///
    /// Under [`ExecMode::Batched`] (the default) the plan's death-time
    /// tables are warmed once here — built on the market's shared cache or
    /// reused from it — and every replica on every worker thread replays
    /// against them; under [`ExecMode::Scalar`] (the `--no-batch-replay`
    /// ablation) each replica walks the trace queries as before. Results
    /// are bit-identical either way.
    pub fn run_plan(
        &self,
        market: &SpotMarket,
        plan: &Plan,
        deadline: Hours,
        ctx: &ExecContext<'_>,
    ) -> Result<McResult, SompiError> {
        let runner = PlanRunner::new(market, deadline);
        if ctx.mode == ExecMode::Batched {
            if ctx.batch.is_some() {
                // Caller-built tables (the tournament warms and announces
                // them itself so the trace stays single-threaded).
                return self.evaluate(|start| runner.run(plan, start, ctx));
            }
            let batch = BatchTables::for_plan(market, plan)?;
            emit(ctx.recorder, TraceLevel::Summary, || Event::ReplayBatched {
                groups: batch.len() as u32,
                replicas: self.replicas as u64,
                tables_built: batch.tables_built,
                tables_reused: batch.tables_reused,
            });
            let bctx = ctx.with_batch(&batch);
            self.evaluate(|start| runner.run(plan, start, &bctx))
        } else {
            self.evaluate(|start| runner.run(plan, start, ctx))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec2_market::instance::InstanceCatalog;
    use ec2_market::market::CircleGroupId;
    use ec2_market::tracegen::{MarketProfile, TraceGenerator};
    use ec2_market::zone::AvailabilityZone;
    use sompi_core::model::{CircleGroup, GroupDecision, OnDemandOption};

    fn market(seed: u64) -> SpotMarket {
        let cat = InstanceCatalog::paper_2014();
        let prof = MarketProfile::paper_2014(&cat);
        SpotMarket::generate(cat, &TraceGenerator::new(prof, seed), 300.0, 1.0 / 12.0)
    }

    fn simple_plan(market: &SpotMarket) -> Plan {
        let small = market.catalog().by_name("m1.small").unwrap();
        let cc2 = market.catalog().by_name("cc2.8xlarge").unwrap();
        let id = CircleGroupId::new(small, AvailabilityZone::UsEast1b);
        let group = CircleGroup {
            id,
            instances: 128,
            exec_hours: 1.5,
            ckpt_overhead_hours: 0.02,
            recovery_hours: 0.1,
        };
        Plan {
            groups: vec![(
                group,
                GroupDecision {
                    bid: 0.02,
                    ckpt_interval: 0.5,
                },
            )],
            on_demand: OnDemandOption {
                instance_type: cc2,
                instances: 4,
                exec_hours: 1.0,
                unit_price: 2.0,
                recovery_hours: 0.1,
            },
        }
    }

    fn run(mc: &MonteCarlo, m: &SpotMarket, plan: &Plan, deadline: Hours) -> McResult {
        mc.run_plan(m, plan, deadline, &ExecContext::new()).unwrap()
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let m = market(61);
        let plan = simple_plan(&m);
        let base = MonteCarlo {
            replicas: 64,
            seed: 5,
            offset_min: 48.0,
            offset_max: 250.0,
            threads: 1,
        };
        let seq = run(&base, &m, &plan, 3.0);
        let par = run(&MonteCarlo { threads: 4, ..base }, &m, &plan, 3.0);
        let all = run(&MonteCarlo { threads: 0, ..base }, &m, &plan, 3.0);
        assert_eq!(seq, par);
        assert_eq!(seq, all);
    }

    #[test]
    fn multi_chunk_streaming_is_deterministic_across_thread_counts() {
        // 200 replicas split into ceil(200/64) = 4 chunk partials, so this
        // exercises the fixed-order merge (unlike the 64-replica test,
        // which fits one chunk).
        let m = market(61);
        let plan = simple_plan(&m);
        let base = MonteCarlo {
            replicas: 200,
            seed: 11,
            offset_min: 48.0,
            offset_max: 250.0,
            threads: 1,
        };
        let seq = run(&base, &m, &plan, 3.0);
        let par = run(&MonteCarlo { threads: 3, ..base }, &m, &plan, 3.0);
        let all = run(&MonteCarlo { threads: 0, ..base }, &m, &plan, 3.0);
        assert_eq!(seq, par);
        assert_eq!(seq, all);
    }

    #[test]
    fn from_outcomes_matches_streaming_evaluate() {
        // Both paths fold through the same chunking, so the aggregates are
        // bit-identical for identical outcome sequences.
        let m = market(67);
        let plan = simple_plan(&m);
        let mc = MonteCarlo::builder()
            .replicas(150)
            .seed(4)
            .offsets(48.0, 250.0)
            .threads(1)
            .build();
        let runner = PlanRunner::new(&m, 3.0);
        let ctx = ExecContext::new();
        let collected = std::sync::Mutex::new(Vec::new());
        let streamed = mc
            .evaluate(|start| {
                let o = runner.run(&plan, start, &ctx)?;
                collected.lock().unwrap().push(o);
                Ok(o)
            })
            .unwrap();
        let outcomes = collected.into_inner().unwrap();
        assert_eq!(outcomes.len(), 150);
        assert_eq!(McResult::from_outcomes(&outcomes).unwrap(), streamed);
    }

    #[test]
    fn chunking_is_bounded_and_thread_independent() {
        assert_eq!(chunk_size(1), MIN_CHUNK);
        assert_eq!(chunk_size(64), MIN_CHUNK);
        let million = chunk_size(1_000_000);
        assert_eq!(million, 245);
        assert!(1_000_000usize.div_ceil(million) <= MAX_CHUNKS);
    }

    #[test]
    fn empty_outcomes_aggregate_to_error() {
        assert_eq!(McResult::from_outcomes(&[]), Err(SompiError::NoOutcomes));
        assert_eq!(
            ChunkPartial::default().finish(&Quantiles::default()),
            Err(SompiError::NoOutcomes)
        );
    }

    #[test]
    fn builder_defaults_to_all_cores() {
        let mc = MonteCarlo::builder().replicas(10).seed(1).build();
        assert_eq!(mc.threads, 0);
        assert_eq!(mc.replicas, 10);
    }

    #[test]
    fn different_seeds_sample_different_offsets() {
        let m = market(61);
        let plan = simple_plan(&m);
        let base = MonteCarlo::builder()
            .replicas(32)
            .offsets(48.0, 250.0)
            .threads(2)
            .build();
        let a = run(&MonteCarlo { seed: 1, ..base }, &m, &plan, 3.0);
        let b = run(&MonteCarlo { seed: 2, ..base }, &m, &plan, 3.0);
        // Statistically all-but-certain to differ on a volatile market.
        assert_ne!(a, b);
    }

    #[test]
    fn aggregates_are_consistent() {
        let m = market(67);
        let plan = simple_plan(&m);
        let mc = MonteCarlo::builder()
            .replicas(50)
            .seed(9)
            .offsets(48.0, 250.0)
            .threads(4)
            .build();
        let r = run(&mc, &m, &plan, 3.0);
        assert_eq!(r.cost.n, 50);
        assert!(r.cost.mean > 0.0);
        assert!(r.cost.min <= r.cost.mean && r.cost.mean <= r.cost.max);
        assert!((0.0..=1.0).contains(&r.deadline_rate));
        assert!((0.0..=1.0).contains(&r.spot_finish_rate));
    }

    #[test]
    fn cheap_stable_zone_usually_finishes_on_spot() {
        // us-east-1b m1.small is Calm: bidding ~2.3× base should almost
        // always ride through.
        let m = market(71);
        let plan = simple_plan(&m);
        let mc = MonteCarlo::builder()
            .replicas(40)
            .seed(3)
            .offsets(48.0, 250.0)
            .threads(4)
            .build();
        let r = run(&mc, &m, &plan, 3.0);
        assert!(r.spot_finish_rate > 0.7, "spot rate {}", r.spot_finish_rate);
    }

    #[test]
    fn zero_replicas_is_an_error() {
        let m = market(61);
        let plan = simple_plan(&m);
        let mc = MonteCarlo::builder().replicas(0).offsets(0.0, 1.0).build();
        assert!(matches!(
            mc.run_plan(&m, &plan, 1.0, &ExecContext::new()),
            Err(SompiError::InvalidConfig { .. })
        ));
    }

    /// A constant-time synthetic replica: cost and time spread over many
    /// octaves, with zeros and repeated values.
    fn synthetic(start: Hours) -> RunOutcome {
        let u = start.fract();
        let cost = match (start * 7.0) as u64 % 5 {
            0 => 0.0,
            1 => 12.5,
            _ => 10f64.powf(u * 8.0 - 3.0),
        };
        RunOutcome {
            total_cost: cost,
            spot_cost: cost,
            od_cost: 0.0,
            wall_hours: 1.0 + u * 100.0,
            finisher: if u < 0.7 {
                Finisher::Spot(CircleGroupId::new(
                    ec2_market::instance::InstanceTypeId(0),
                    AvailabilityZone::UsEast1a,
                ))
            } else {
                Finisher::OnDemand
            },
            groups_failed: (u * 3.0) as u32,
            met_deadline: u < 0.9,
        }
    }

    #[test]
    fn aggregate_is_pinned_across_threads_and_chunkings() {
        for replicas in [1, 63, 64, 65, 262_145] {
            let mc = |threads| {
                MonteCarlo::builder()
                    .replicas(replicas)
                    .seed(17)
                    .offsets(0.0, 50.0)
                    .threads(threads)
                    .build()
            };
            let outcomes: Vec<RunOutcome> =
                (0..replicas).map(|i| synthetic(mc(1).offset(i))).collect();
            let expected = McResult::from_outcomes(&outcomes).unwrap();
            for threads in [1, 2, 3, 0] {
                let got = mc(threads).evaluate(|s| Ok(synthetic(s))).unwrap();
                assert_eq!(got, expected, "replicas {replicas}, threads {threads}");
            }
            // The quantiles match the map-based histogram bit for bit.
            let oracle = |summary: &Summary, metric: fn(&RunOutcome) -> f64| {
                let mut h = crate::stats::oracle::MapHistogram::default();
                outcomes.iter().for_each(|o| h.push(metric(o)));
                let n = outcomes.len() as u64;
                for (q, got) in [(0.5, summary.median), (0.95, summary.p95)] {
                    let want = h.quantile(q, n, summary.min, summary.max);
                    assert_eq!(got.to_bits(), want.to_bits(), "replicas {replicas}, q {q}");
                }
            };
            oracle(&expected.cost, |o| o.total_cost);
            oracle(&expected.time, |o| o.wall_hours);
            // Pinned against the aggregation with per-chunk map
            // histograms that this one replaced (`{:?}` prints every f64
            // exactly).
            let pinned = match replicas {
                65 => Some(PINNED_65),
                262_145 => Some(PINNED_262_145),
                _ => None,
            };
            if let Some(pinned) = pinned {
                assert_eq!(format!("{expected:?}"), pinned);
            }
        }
    }

    const PINNED_65: &str = "McResult { cost: Summary { n: 65, mean: 3103.760901706843, \
        std_dev: 11302.207561653964, min: 0.0, max: 62467.277038383036, median: 1.666015625, \
        p95: 20214.399999999976 }, time: Summary { n: 65, mean: 49.73336610463766, \
        std_dev: 28.7175125601364, min: 2.4921312547850007, max: 98.44565719214613, \
        median: 44.4375, p95: 95.275 }, deadline_rate: 0.9076923076923077, \
        spot_finish_rate: 0.7076923076923077, mean_failures: 1.0461538461538462 }";

    const PINNED_262_145: &str = "McResult { cost: Summary { n: 262145, \
        mean: 3248.7960807903733, std_dev: 12322.879094156177, min: 0.0, \
        max: 99968.96128454774, median: 10.169719827586206, p95: 21415.845161290297 }, \
        time: Summary { n: 262145, mean: 51.01467820029605, std_dev: 28.836270817483665, \
        min: 1.0006210732728107, max: 100.99974977851167, median: 51.03134384384384, \
        p95: 96.02098145285936 }, deadline_rate: 0.900276564496748, \
        spot_finish_rate: 0.7009098018272331, mean_failures: 1.0004539472429381 }";

    #[test]
    fn first_error_in_replica_order_wins() {
        let mc = |threads| {
            MonteCarlo::builder()
                .replicas(20_000)
                .seed(3)
                .offsets(0.0, 50.0)
                .threads(threads)
                .build()
        };
        // Failing replicas in several chunks, listed out of order; the
        // error of the lowest replica index must win at any thread count.
        let failing: std::collections::BTreeMap<u64, usize> = [15_000, 4_321, 9_999, 4_400, 19_999]
            .into_iter()
            .map(|i| (mc(1).offset(i).to_bits(), i))
            .collect();
        for threads in [1, 2, 3, 0] {
            let r = mc(threads).evaluate(|s| match failing.get(&s.to_bits()) {
                Some(i) => Err(SompiError::InvalidConfig {
                    message: format!("replica {i}"),
                }),
                None => Ok(synthetic(s)),
            });
            assert_eq!(
                r,
                Err(SompiError::InvalidConfig {
                    message: "replica 4321".into()
                }),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn replica_errors_propagate() {
        let mc = MonteCarlo::builder()
            .replicas(8)
            .offsets(0.0, 1.0)
            .threads(2)
            .build();
        let r = mc.evaluate(|_| Err(SompiError::NoOutcomes));
        assert_eq!(r, Err(SompiError::NoOutcomes));
    }

    /// Only a run that spawns several workers gives them a share of the
    /// cores; a one-chunk or one-thread run leaves nested searches every
    /// core of the caller.
    #[test]
    fn only_spawned_workers_split_the_cores_for_nested_searches() {
        let resolved = |replicas: usize, threads: usize| {
            let seen = std::sync::Mutex::new(Vec::new());
            MonteCarlo::builder()
                .replicas(replicas)
                .offsets(0.0, 1.0)
                .threads(threads)
                .build()
                .evaluate(|_| {
                    seen.lock()
                        .unwrap()
                        .push((resolve_threads(0), resolve_threads(3)));
                    Ok(RunOutcome {
                        total_cost: 1.0,
                        spot_cost: 1.0,
                        od_cost: 0.0,
                        wall_hours: 1.0,
                        finisher: Finisher::OnDemand,
                        groups_failed: 0,
                        met_deadline: true,
                    })
                })
                .unwrap();
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen.len(), replicas);
            seen
        };
        let cores = resolve_threads(0);
        let unmarked = (cores, 3);
        // 16 replicas are one chunk: one worker, whatever the thread count.
        assert!(resolved(16, 2).iter().all(|&t| t == unmarked));
        assert!(resolved(200, 1).iter().all(|&t| t == unmarked));
        // 200 replicas are four chunks: two workers at threads = 2.
        let share = (cores / 2).max(1);
        assert!(resolved(200, 2).iter().all(|&t| t == (share, share.min(3))));
        assert_eq!(resolve_threads(3), 3, "the caller's thread is never marked");
    }
}
