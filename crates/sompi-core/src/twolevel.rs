//! The two-level optimization algorithm — Sections 4.2 and 4.4.
//!
//! Level 1 (dimension reduction): for every candidate bid price the
//! checkpoint interval is fixed to `φ(P)` ([`crate::phi`]), so the search
//! runs over bid vectors only (Theorem 1 preserves optimality).
//!
//! Level 2 (logarithmic search): each group's bid is drawn from the
//! `O(log₂ H)` grid of [`crate::logsearch`], shrinking the bid space from
//! `P^K` to `(log₂ H)^K`.
//!
//! On top, the implementation-level optimization of Section 4.4: only
//! `k ≤ κ` of the `K` candidate circle groups are actually used; all
//! `C(K, k)` subsets are tried and the cheapest feasible configuration
//! wins. The optimizer also always considers the pure on-demand plan, so
//! it degrades gracefully when no spot configuration meets the deadline.
//!
//! # Parallel search
//!
//! The `C(K, k)` subsets are fanned out across [`OptimizerConfig::threads`]
//! workers (crossbeam scoped threads, the same pattern as `replay`'s
//! Monte-Carlo): every worker runs the bid odometer over its contiguous
//! chunk of the subset list with worker-local state — an incumbent, an
//! evaluation counter, and reused scratch buffers — and the per-worker
//! winners are merged under a *total* candidate order: feasibility first,
//! then lower expected cost, then the lexicographic bid-vector tie-break
//! (higher bids win — see the private `beats` helper), then the unique
//! enumeration ordinal
//! `(subset index, odometer step)`. Because that order is total and
//! independent of how the subset list is chunked, the returned
//! [`OptimizedPlan`] — plan, evaluation, and `evaluations_performed` — is
//! identical at any thread count. With a persistent
//! [`SearchPool`](crate::pool::SearchPool) attached (`ctx.pool` on
//! [`TwoLevelOptimizer::optimize_with`]), the same chunk jobs run
//! on resident workers instead of freshly spawned threads; results come
//! back in submission order, so the merge — and the answer — is unchanged.
//! A search that runs inside a parallel Monte-Carlo worker uses at most
//! that worker's share of the cores, and runs inline when the workers
//! already fill them ([`crate::parallel`]): never one search thread per
//! core per worker.
//!
//! # Warm-started re-optimization
//!
//! [`TwoLevelOptimizer::optimize_with`] accepts [`WarmStart`] state
//! (`ctx.warm`) from a previous, similar search (the adaptive loop's
//! previous window): the per-`(group, bid)` failure tables behind `φ(P)`
//! and the assessments are reused while their history digest matches.
//! That only changes how fast the assessments build — never which
//! candidate wins — so the selected plan stays bit-identical to a cold
//! search (see `crate::warmstart`).

use crate::adaptive::PlanContext;
use crate::cost::{evaluate, evaluate_with_scratch, EvalScratch, Evaluation, GroupAssessment};
use crate::error::SompiError;
use crate::logsearch::BidGrid;
use crate::model::{GroupDecision, OnDemandOption, Plan};
use crate::ondemand::{select_on_demand, DEFAULT_SLACK};
use crate::parallel::resolve_threads;
use crate::phi::interval_from_table;
use crate::problem::Problem;
use crate::view::MarketView;
use crate::warmstart::{GroupTables, WarmStart};
use ec2_market::failure::FailureEstimator;
use ec2_market::market::CircleGroupId;
use serde::{Deserialize, Serialize};
use sompi_obs::{emit, Event, PhaseTimer, TraceLevel};
use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Which bid grid shape to search (logarithmic is the paper's; uniform
/// exists for the ablation bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum GridKind {
    /// `H / 2^l` — the paper's logarithmic search.
    #[default]
    Logarithmic,
    /// Equally spaced, same cardinality.
    Uniform,
}

/// Optimizer knobs, with the paper's defaults.
///
/// ```
/// use sompi_core::OptimizerConfig;
///
/// let cfg = OptimizerConfig::default();
/// assert_eq!(cfg.kappa, 4);        // §5.2: diminishing returns past 4
/// assert_eq!(cfg.bid_levels, 12);  // log₂ grid cap per group
/// assert_eq!(cfg.threads, 0);      // 0 = one worker per core
/// assert!(cfg.prune_dominance);    // exact pruning is on by default
/// assert!(cfg.prune_bound);
/// assert!(cfg.shared_incumbent);
///
/// // Struct-update syntax is the idiomatic way to tweak one knob:
/// let quick = OptimizerConfig { kappa: 2, bid_levels: 3, ..cfg };
/// assert_eq!(quick.slack, cfg.slack);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// κ: maximum number of circle groups used simultaneously (paper
    /// default 4, from the Section 5.2 study).
    pub kappa: usize,
    /// Cap on the bid grid size per group. The actual depth per group is
    /// the paper's `log₂ H` scaling — `⌈log₂(H_i / min_i)⌉ + 1` halvings
    /// span the observed price range — bounded by this cap, so calm
    /// groups stay cheap to search and spiky ones reach their plateau.
    pub bid_levels: u32,
    /// Slack reserved for checkpoint/recovery in on-demand selection
    /// (paper default 20%).
    pub slack: f64,
    /// Grid shape.
    pub grid: GridKind,
    /// Guard factor for an extra grid point above the historical maximum
    /// price (robustness against plateau drift beyond the training
    /// window); `None` keeps the paper's pure `H/2^l` grid.
    pub top_margin: Option<f64>,
    /// When set, ablate Theorem 1: instead of `F = φ(P)`, search this many
    /// checkpoint-interval values per group (multiplies the search space).
    pub interval_grid: Option<u32>,
    /// Extension beyond the paper: require, in addition to the expected-
    /// time constraint, that the probability of *some* circle group
    /// completing on spot is at least this (`p_all_fail ≤ 1 − q`). The
    /// paper's `E[Time] ≤ Deadline` admits plans that miss the deadline on
    /// a large fraction of runs; this knob trades expected cost for
    /// per-run deadline reliability. `None` reproduces the paper.
    pub min_spot_success: Option<f64>,
    /// Worker threads for the subset search: `0` = one per available
    /// core, `1` = sequential. The result is identical at any setting.
    /// A search nested in a parallel Monte-Carlo worker uses at most the
    /// worker's share of the cores ([`crate::parallel`]).
    pub threads: usize,
    /// Drop per-group options whose only difference from a surviving
    /// higher-bid option is the bid itself (DESIGN.md §8.1). Exact: the
    /// returned plan, evaluation, and tie-breaks are unchanged. Off
    /// reproduces the raw enumeration (the `evaluations_performed` count
    /// shrinks with the filter on, since dominated options are never
    /// enumerated).
    #[serde(default = "default_true")]
    pub prune_dominance: bool,
    /// Branch-and-bound inside the odometer walk: skip bid-vector
    /// suffixes whose admissible cost lower bound (DESIGN.md §8.2) cannot
    /// beat the incumbent. Exact and count-preserving —
    /// `evaluations_performed` still reports the full enumeration size.
    #[serde(default = "default_true")]
    pub prune_bound: bool,
    /// Share the incumbent cost bound across worker threads through a
    /// relaxed `AtomicU64` (DESIGN.md §8.3). Only strengthens
    /// `prune_bound`'s pruning; the deterministic total-order merge keeps
    /// the result identical at any thread count.
    #[serde(default = "default_true")]
    pub shared_incumbent: bool,
}

fn default_true() -> bool {
    true
}

impl OptimizerConfig {
    /// Start building a config from the defaults. Preferred over growing
    /// positional constructors as knobs accumulate:
    ///
    /// ```
    /// use sompi_core::OptimizerConfig;
    ///
    /// let cfg = OptimizerConfig::builder().kappa(2).bid_levels(3).build();
    /// assert_eq!(cfg.kappa, 2);
    /// assert_eq!(cfg.slack, OptimizerConfig::default().slack);
    /// ```
    pub fn builder() -> OptimizerConfigBuilder {
        OptimizerConfigBuilder {
            config: Self::default(),
        }
    }
}

/// Builder for [`OptimizerConfig`]; see [`OptimizerConfig::builder`].
#[derive(Debug, Clone)]
pub struct OptimizerConfigBuilder {
    config: OptimizerConfig,
}

impl OptimizerConfigBuilder {
    /// Set κ, the maximum simultaneous circle groups.
    pub fn kappa(mut self, kappa: usize) -> Self {
        self.config.kappa = kappa;
        self
    }

    /// Set the per-group bid grid cap.
    pub fn bid_levels(mut self, levels: u32) -> Self {
        self.config.bid_levels = levels;
        self
    }

    /// Set the on-demand selection slack.
    pub fn slack(mut self, slack: f64) -> Self {
        self.config.slack = slack;
        self
    }

    /// Set the bid grid shape.
    pub fn grid(mut self, grid: GridKind) -> Self {
        self.config.grid = grid;
        self
    }

    /// Set (or clear) the above-maximum guard grid point.
    pub fn top_margin(mut self, margin: Option<f64>) -> Self {
        self.config.top_margin = margin;
        self
    }

    /// Set (or clear) the Theorem-1 ablation interval grid.
    pub fn interval_grid(mut self, grid: Option<u32>) -> Self {
        self.config.interval_grid = grid;
        self
    }

    /// Set (or clear) the minimum spot-success probability constraint.
    pub fn min_spot_success(mut self, q: Option<f64>) -> Self {
        self.config.min_spot_success = q;
        self
    }

    /// Set the worker thread count (0 = one per core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Toggle the bid-collapse dominance filter.
    pub fn prune_dominance(mut self, on: bool) -> Self {
        self.config.prune_dominance = on;
        self
    }

    /// Toggle branch-and-bound pruning.
    pub fn prune_bound(mut self, on: bool) -> Self {
        self.config.prune_bound = on;
        self
    }

    /// Toggle the cross-worker shared incumbent bound.
    pub fn shared_incumbent(mut self, on: bool) -> Self {
        self.config.shared_incumbent = on;
        self
    }

    /// Finish building.
    pub fn build(self) -> OptimizerConfig {
        self.config
    }
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            kappa: 4,
            bid_levels: 12,
            slack: DEFAULT_SLACK,
            grid: GridKind::Logarithmic,
            top_margin: Some(1.25),
            interval_grid: None,
            min_spot_success: None,
            threads: 0,
            prune_dominance: true,
            prune_bound: true,
            shared_incumbent: true,
        }
    }
}

/// The optimizer's output: the chosen plan, its model evaluation, and how
/// many candidate configurations were evaluated (the search-space metric
/// of Section 4.2.2).
///
/// The count always includes the pure on-demand incumbent, so it is at
/// least 1 even when no spot option is viable:
///
/// ```
/// use sompi_core::{OptimizedPlan, Plan, OnDemandOption, evaluate};
/// use ec2_market::instance::InstanceTypeId;
///
/// let od = OnDemandOption {
///     instance_type: InstanceTypeId(0),
///     instances: 4,
///     exec_hours: 10.0,
///     unit_price: 0.25,
///     recovery_hours: 0.1,
/// };
/// let opt = OptimizedPlan {
///     plan: Plan::on_demand_only(od),
///     evaluation: evaluate(&[], &od),
///     evaluations_performed: 1,
/// };
/// assert!(opt.plan.groups.is_empty());
/// assert!(opt.evaluations_performed >= 1);
/// // 2014 hourly billing: 10 whole hours × $0.25 × 4 instances.
/// assert_eq!(opt.evaluation.expected_cost, 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizedPlan {
    /// The selected plan.
    pub plan: Plan,
    /// Model evaluation of the selected plan.
    pub evaluation: Evaluation,
    /// Number of full plan evaluations performed during the search.
    pub evaluations_performed: u64,
}

/// A worker's best candidate so far, carrying enough to compare under the
/// total candidate order and to rebuild the winning plan once at the end.
struct Candidate {
    feasible: bool,
    eval: Evaluation,
    /// Bid vector in subset order — the deterministic tie-breaker.
    bids: Vec<f64>,
    /// Indices into `problem.candidates` (the chosen subset).
    subset: Vec<usize>,
    /// Odometer position: per-slot index into each group's option list.
    idx: Vec<usize>,
    /// Unique enumeration ordinal `(global subset index, odometer step)`
    /// — the final tie-breaker that makes the candidate order total.
    ordinal: (usize, u64),
}

/// One worker's search result: its incumbent plus the plain `u64`
/// counters the hot loop maintains (evaluations, feasible hits, subsets
/// walked). These merge at join into the total evaluation count and, when
/// a recorder wants Detail, one `SubsetEvaluated` event per worker.
struct WorkerStats {
    evaluations: u64,
    feasible: u64,
    subsets: u64,
    /// Enumerated positions the branch-and-bound walk never evaluated
    /// (already counted inside `evaluations`, which reports the full
    /// enumeration size for count determinism).
    skipped: u64,
    /// Times this worker published a strictly better feasible cost to
    /// the incumbent bound (shared or local).
    tightenings: u64,
    /// Wall nanoseconds this worker spent inside the per-subset candidate
    /// loops (evaluation-dominated; timed per subset, not per evaluation,
    /// so the hot loop carries no timer calls).
    kernel_nanos: u64,
    best: Option<Candidate>,
}

/// `assess_options` output: the per-group option lists, the enumeration
/// counters, and — when a warm start with table reuse was attached — the
/// per-group bucket-table cache accounting.
pub(crate) struct AssessedOptions {
    pub(crate) options: Vec<Vec<GroupAssessment>>,
    pub(crate) considered: u64,
    pub(crate) pruned: u64,
    pub(crate) dominated: u64,
    /// Per-group `(id, digest, entries reused, entries rebuilt)`; empty
    /// when no tables are kept past the search.
    pub(crate) table_stats: Vec<(CircleGroupId, u64, u64, u64)>,
}

/// Lexicographic comparison of a candidate's bid vector (iterator form,
/// so the hot path compares without materializing a `Vec`) against an
/// incumbent's stored bids. Shorter vectors order before their extensions.
fn cmp_bids(current: impl Iterator<Item = f64>, incumbent: &[f64]) -> Ordering {
    let mut n = 0usize;
    for b in current {
        match incumbent.get(n) {
            None => return Ordering::Greater,
            Some(inc) => match b.total_cmp(inc) {
                Ordering::Equal => {}
                other => return other,
            },
        }
        n += 1;
    }
    if n < incumbent.len() {
        Ordering::Less
    } else {
        Ordering::Equal
    }
}

/// Whether a freshly evaluated candidate beats the incumbent under the
/// total order: feasible first, then lower expected cost, then the
/// lexicographically *greater* bid vector, then the earlier enumeration
/// ordinal.
///
/// Higher bids win cost ties deliberately: equal modeled cost means the
/// historical window never separates the two bids, and the higher one can
/// only be safer on prices beyond that window. (The bid grids are
/// highest-first, so this also matches the sequential first-seen rule.)
fn beats(
    feasible: bool,
    eval: &Evaluation,
    bids: impl Iterator<Item = f64>,
    ordinal: (usize, u64),
    incumbent: &Candidate,
) -> bool {
    match (feasible, incumbent.feasible) {
        (true, false) => return true,
        (false, true) => return false,
        _ => {}
    }
    match eval.expected_cost.total_cmp(&incumbent.eval.expected_cost) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => match cmp_bids(bids, &incumbent.bids) {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => ordinal < incumbent.ordinal,
        },
    }
}

/// SOMPI's offline optimizer over one problem + market view.
#[derive(Debug, Clone)]
pub struct TwoLevelOptimizer<'a> {
    problem: &'a Problem,
    view: &'a MarketView,
    config: OptimizerConfig,
}

impl<'a> TwoLevelOptimizer<'a> {
    /// Create an optimizer.
    pub fn new(problem: &'a Problem, view: &'a MarketView, config: OptimizerConfig) -> Self {
        Self {
            problem,
            view,
            config,
        }
    }

    /// Run the full search and return the cheapest feasible plan.
    ///
    /// Equivalent to [`TwoLevelOptimizer::optimize_with`] on an all-no-op
    /// [`PlanContext`]: no event is ever constructed, so the search is
    /// exactly as fast and allocation-free as before instrumentation
    /// existed (asserted by `tests/alloc_guard.rs` and the `opt_speed`
    /// bench). Errors when a candidate group is unknown to the market
    /// view, or with [`SompiError::InvalidConfig`] when the slack lies
    /// outside `[0, 1)`.
    pub fn optimize(&self) -> Result<OptimizedPlan, SompiError> {
        self.optimize_with(&mut PlanContext::new())
    }

    /// Run the full search with everything optional riding in `ctx` (the
    /// same [`PlanContext`] the adaptive planner and [`crate::policy`]
    /// use). Three context fields matter here; the rest are ignored:
    ///
    /// * `ctx.recorder` — emits one `PlanSearchStarted`, one
    ///   `SubsetEvaluated` per worker (Detail level, in worker-index
    ///   order, merged at join), and one `PlanSelected`. The hot
    ///   candidate loop only increments worker-local `u64` counters;
    ///   events are built outside it.
    /// * `ctx.warm` — warm-start state carried from a previous, similar
    ///   search (DESIGN.md §12): unchanged per-group failure tables are
    ///   reused. Exactness-preserving — the returned plan is
    ///   bit-identical to a cold search at any thread count. Emits one
    ///   `WarmStartApplied` (Summary) per call with warm state attached,
    ///   plus one `BucketTableReused` (Detail) per group whose table
    ///   cache was consulted.
    /// * `ctx.pool` — a persistent [`SearchPool`](crate::pool::SearchPool): when present and the
    ///   search is parallel, the chunk jobs run on the pool's resident
    ///   workers instead of spawning fresh threads (one `SearchPoolUsed`
    ///   event per dispatch). Chunking is still derived from
    ///   [`OptimizerConfig::threads`] and the merge still folds
    ///   per-chunk winners in submission order under the total candidate
    ///   order, so the result is bit-identical with or without the pool,
    ///   at any pool size.
    pub fn optimize_with(&self, ctx: &mut PlanContext<'_>) -> Result<OptimizedPlan, SompiError> {
        let recorder = ctx.recorder;
        let mut warm = ctx.warm.as_deref_mut();
        let pool = ctx.pool;
        if !(0.0..1.0).contains(&self.config.slack) {
            return Err(SompiError::InvalidConfig {
                message: format!("slack must be in [0, 1), got {}", self.config.slack),
            });
        }
        let od = select_on_demand(
            &self.problem.on_demand,
            self.problem.deadline,
            self.config.slack,
        );
        let assess_timer = PhaseTimer::start();
        let AssessedOptions {
            options,
            considered: options_considered,
            pruned: options_pruned,
            dominated: options_dominated,
            table_stats,
        } = self.assess_options(warm.as_deref_mut())?;
        let assess_secs = assess_timer.elapsed_secs();
        let (mut tables_reused, mut tables_rebuilt) = (0u64, 0u64);
        for &(group, digest, reused, rebuilt) in &table_stats {
            tables_reused += reused;
            tables_rebuilt += rebuilt;
            emit(recorder, TraceLevel::Detail, || Event::BucketTableReused {
                group: group.to_string(),
                digest,
                reused,
                rebuilt,
            });
        }

        // The pure on-demand plan is the incumbent the search must beat.
        let od_eval = evaluate(&[], &od);
        let od_feasible = od_eval.meets(self.problem.deadline);

        // Per-group minimum completion wall, the `w_min` input of the
        // admissible lower bound (DESIGN.md §8.2). Infinite for groups
        // with no viable options (such groups skip their subsets anyway).
        let min_wall: Vec<f64> = options
            .iter()
            .map(|opts| {
                opts.iter()
                    .map(|a| a.completion_wall())
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();

        // The incumbent cost bound candidates must beat, as IEEE bits
        // (non-negative floats order identically as u64 bits, so
        // `fetch_min` over bits is `fetch_min` over costs). Seeded with
        // the on-demand incumbent when it is feasible — the search only
        // keeps spot candidates that beat it anyway.
        let od_bound = if od_feasible {
            od_eval.expected_cost
        } else {
            f64::INFINITY
        };
        let shared_bound = AtomicU64::new(od_bound.to_bits());
        let use_shared = self.config.shared_incumbent && self.config.prune_bound;
        let shared = use_shared.then_some(&shared_bound);

        // Precollect the k-subsets (k ascending, lexicographic within k)
        // so they can be chunked across workers with stable global indices.
        let n = self.problem.candidates.len();
        let k_max = self.config.kappa.min(n);
        let mut subsets: Vec<Vec<usize>> = Vec::new();
        let mut acc = Vec::new();
        for k in 1..=k_max {
            enumerate_subsets(n, k, 0, &mut acc, &mut |s: &[usize]| {
                subsets.push(s.to_vec());
            });
        }

        let threads = resolve_threads(self.config.threads).min(subsets.len().max(1));
        emit(recorder, TraceLevel::Summary, || Event::PlanSearchStarted {
            candidates: n as u32,
            kappa: self.config.kappa as u32,
            bid_levels: self.config.bid_levels,
            threads: threads as u32,
            subsets: subsets.len() as u64,
            options_considered,
            options_pruned,
            deadline_hours: self.problem.deadline,
            options_dominated,
        });

        let search_timer = PhaseTimer::start();
        let chunk = |range: Range<usize>| {
            self.search_chunk(&options, &od, &subsets, range, &min_wall, shared, od_bound)
        };
        // One contiguous range of canonical subset indices per worker
        // (a single empty range when there are no subsets, so worker 0
        // still reports).
        let per_worker = subsets.len().div_ceil(threads).max(1);
        let ranges: Vec<Range<usize>> = (0..subsets.len().max(1))
            .step_by(per_worker)
            .map(|lo| lo..(lo + per_worker).min(subsets.len()))
            .collect();
        let results: Vec<WorkerStats> = if threads <= 1 {
            ranges.into_iter().map(chunk).collect()
        } else if let Some(pool) = pool {
            // Persistent dispatch: same chunking, same submission-order
            // merge — the resident workers only replace the spawn/join.
            let search_seq = pool.begin_search();
            let chunk = &chunk;
            let mut tasks: Vec<Box<dyn FnOnce() -> WorkerStats + Send + '_>> =
                Vec::with_capacity(ranges.len());
            for r in ranges {
                tasks.push(Box::new(move || chunk(r)));
            }
            let jobs = tasks.len() as u32;
            emit(recorder, TraceLevel::Summary, || Event::SearchPoolUsed {
                pool_id: pool.id(),
                search_seq,
                workers: pool.workers() as u32,
                jobs,
            });
            pool.run(tasks)
        } else {
            let chunk = &chunk;
            crossbeam::thread::scope(|s| {
                let handles: Vec<_> = ranges
                    .into_iter()
                    .map(|r| s.spawn(move |_| chunk(r)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("search worker panicked"))
                    .collect()
            })
            .expect("crossbeam scope failed")
        };

        let search_secs = search_timer.elapsed_secs();

        // Per-worker counters surface as Detail events in worker-index
        // order — the deterministic per-worker view of the search.
        for (worker, stats) in results.iter().enumerate() {
            emit(recorder, TraceLevel::Detail, || Event::SubsetEvaluated {
                worker: worker as u32,
                subsets: stats.subsets,
                evaluations: stats.evaluations,
                feasible: stats.feasible,
                best_cost: stats
                    .best
                    .as_ref()
                    .filter(|c| c.feasible)
                    .map(|c| c.eval.expected_cost),
                phi_intervals: stats
                    .best
                    .as_ref()
                    .map(|c| {
                        c.subset
                            .iter()
                            .zip(&c.idx)
                            .map(|(&g, &i)| options[g][i].decision.ckpt_interval)
                            .collect()
                    })
                    .unwrap_or_default(),
                skipped: stats.skipped,
            });
        }

        // Deterministic merge: worker-local winners fold under the same
        // total order the workers used, so chunking cannot change the
        // result, and the evaluation counters sum to the serial count.
        let mut evaluations: u64 = 1; // the on-demand incumbent
        let mut evals_skipped: u64 = 0;
        let mut bound_tightenings: u64 = 0;
        let mut kernel_nanos: u64 = 0;
        let mut best: Option<Candidate> = None;
        for stats in results {
            evaluations += stats.evaluations;
            evals_skipped += stats.skipped;
            bound_tightenings += stats.tightenings;
            kernel_nanos += stats.kernel_nanos;
            if let Some(c) = stats.best {
                let replace = match &best {
                    None => true,
                    Some(b) => beats(c.feasible, &c.eval, c.bids.iter().copied(), c.ordinal, b),
                };
                if replace {
                    best = Some(c);
                }
            }
        }

        // The winning spot candidate must still beat the on-demand
        // incumbent — strictly, as in the sequential algorithm, so ties
        // keep the simpler on-demand plan.
        let spot = best.filter(|c| match (c.feasible, od_feasible) {
            (true, false) => true,
            (false, true) => false,
            _ => c.eval.expected_cost < od_eval.expected_cost,
        });
        let (plan, evaluation, source) = match spot {
            Some(c) => {
                let plan = Plan {
                    groups: c
                        .subset
                        .iter()
                        .zip(&c.idx)
                        .map(|(&g, &i)| {
                            let a = &options[g][i];
                            (a.group, a.decision)
                        })
                        .collect(),
                    on_demand: od,
                };
                (plan, c.eval, "spot")
            }
            None => (Plan::on_demand_only(od), od_eval, "on-demand"),
        };

        if warm.is_some() {
            emit(recorder, TraceLevel::Summary, || Event::WarmStartApplied {
                tables_reused,
                tables_rebuilt,
            });
        }

        emit(recorder, TraceLevel::Summary, || Event::PlanSelected {
            source: source.to_string(),
            groups: plan.groups.len() as u32,
            expected_cost: evaluation.expected_cost,
            expected_time: evaluation.expected_time,
            p_all_fail: evaluation.p_all_fail,
            slack: self.config.slack,
            evaluations,
            assess_secs,
            search_secs,
            evals_skipped,
            bound_tightenings,
            evals_per_sec: if search_secs > 0.0 {
                evaluations as f64 / search_secs
            } else {
                0.0
            },
            kernel_nanos,
        });
        Ok(OptimizedPlan {
            plan,
            evaluation,
            evaluations_performed: evaluations,
        })
    }

    /// Assess every candidate (group, bid level, interval) option once, up
    /// front. Index: `options[g]` = list of viable assessments for group
    /// `g`.
    ///
    /// Options that cannot complete before the deadline even when they
    /// survive are dropped: the runtime switches to on-demand rather than
    /// ride a replica past the deadline, so crediting such a group as a
    /// completion winner would let rare deadline-missing patterns
    /// subsidize `E[Cost]`.
    ///
    /// Also returns `(considered, pruned, dominated)`: how many (group,
    /// bid, interval) options were assessed, how many the deadline prune
    /// discarded — the numerator/denominator of the report's prune rate —
    /// and how many survivors the exact bid-collapse dominance filter
    /// ([`crate::pareto::collapse_bid_dominated`]) removed afterwards.
    ///
    /// Each `(group, bid)` is assessed from one fused failure table
    /// ([`FailureEstimator::failure_table`]), which serves `φ(P)`, every
    /// checkpoint interval's assessment horizon and the launch delay
    /// exactly. With a [`WarmStart`] carrying table reuse the tables
    /// outlive the search, keyed by the group's history digest; without
    /// one they are built per search. Either way the assessments are
    /// bit-identical. Errors when a candidate group is unknown to the
    /// view.
    pub(crate) fn assess_options(
        &self,
        mut warm: Option<&mut WarmStart>,
    ) -> Result<AssessedOptions, SompiError> {
        let mut considered = 0u64;
        let mut pruned = 0u64;
        let mut dominated = 0u64;
        let mut table_stats: Vec<(CircleGroupId, u64, u64, u64)> = Vec::new();
        let mut options: Vec<Vec<GroupAssessment>> =
            Vec::with_capacity(self.problem.candidates.len());
        for group in &self.problem.candidates {
            let est = self.view.try_estimator(group.id)?;
            let Some(grid) = bid_grid(&self.config, est) else {
                options.push(Vec::new());
                continue;
            };
            // Kept tables for this group, when reuse is on. A drifted
            // digest drops every cached bid entry for the group —
            // per-entry invalidation, nothing else.
            let mut kept = match warm.as_deref_mut() {
                Some(w) if w.use_tables => {
                    let digest = est.digest();
                    let tables = w
                        .tables
                        .entry(group.id)
                        .or_insert_with(|| GroupTables::new(digest));
                    if tables.digest != digest {
                        tables.digest = digest;
                        tables.by_bid.clear();
                    }
                    Some(tables)
                }
                _ => None,
            };
            let (mut reused, mut rebuilt) = (0u64, 0u64);
            let mut opts = Vec::new();
            for &bid in grid.bids() {
                let built;
                let table = match kept.as_deref_mut() {
                    Some(tables) => match tables.by_bid.entry(bid.to_bits()) {
                        Entry::Occupied(e) => {
                            reused += 1;
                            &*e.into_mut()
                        }
                        Entry::Vacant(e) => {
                            rebuilt += 1;
                            &*e.insert(est.failure_table(bid))
                        }
                    },
                    None => {
                        built = est.failure_table(bid);
                        &built
                    }
                };
                let intervals: Vec<f64> = match self.config.interval_grid {
                    None => vec![interval_from_table(group, table)],
                    Some(n) => (1..=n)
                        .map(|j| group.exec_hours * j as f64 / n as f64)
                        .collect(),
                };
                for interval in intervals {
                    let decision = GroupDecision {
                        bid,
                        ckpt_interval: interval,
                    };
                    considered += 1;
                    if let Some(a) = GroupAssessment::from_table(
                        *group,
                        decision,
                        est.expected_spot_price(),
                        table,
                    ) {
                        if a.completion_wall() <= self.problem.deadline {
                            opts.push(a);
                        } else {
                            pruned += 1;
                        }
                    }
                }
            }
            if let Some(tables) = kept {
                table_stats.push((group.id, tables.digest, reused, rebuilt));
            }
            if self.config.prune_dominance {
                // Exact: grids enumerate bids highest-first, which is the
                // descending order the collapse requires, and a dropped
                // option's higher-bid twin wins every tie it could have
                // won (DESIGN.md §8.1).
                dominated += crate::pareto::collapse_bid_dominated(&mut opts);
            }
            options.push(opts);
        }
        Ok(AssessedOptions {
            options,
            considered,
            pruned,
            dominated,
            table_stats,
        })
    }

    /// Search one contiguous range of `subsets` with worker-local state:
    /// a reused borrow buffer, a reused odometer, an [`EvalScratch`], a
    /// local incumbent, and a local evaluation counter. A subset's index
    /// into `subsets` is what enters the enumeration ordinal, so ordinals
    /// are globally unique and chunk-invariant.
    ///
    /// With [`OptimizerConfig::prune_bound`] on, each subset runs a
    /// branch-and-bound walk (DESIGN.md §8.2): the slots' options are
    /// rank-sorted by the admissible per-group lower bound
    /// [`GroupAssessment::cost_lower_bound`], and whole rank suffixes
    /// whose summed lower bound exceeds the incumbent cost are skipped
    /// without evaluation. `shared_bound` (cost as IEEE bits) is the
    /// cross-worker incumbent when [`OptimizerConfig::shared_incumbent`]
    /// is on; otherwise the worker prunes against a local bound seeded
    /// from `od_bound`. Pruning never removes a candidate that could
    /// win under the total order, so the returned incumbent — and with it
    /// the merged [`OptimizedPlan`] — is bit-identical to the exhaustive
    /// walk. The reported `evaluations` counter always carries the full
    /// enumeration size; actually-skipped positions are tallied in
    /// `skipped` for observability only.
    #[allow(clippy::too_many_arguments)]
    fn search_chunk(
        &self,
        options: &[Vec<GroupAssessment>],
        od: &OnDemandOption,
        subsets: &[Vec<usize>],
        range: Range<usize>,
        min_wall: &[f64],
        shared_bound: Option<&AtomicU64>,
        od_bound: f64,
    ) -> WorkerStats {
        let mut evaluations = 0u64;
        let mut feasible_hits = 0u64;
        let mut subsets_walked = 0u64;
        let mut skipped = 0u64;
        let mut tightenings = 0u64;
        let mut kernel_nanos = 0u64;
        let mut best: Option<Candidate> = None;
        let mut refs: Vec<&GroupAssessment> = Vec::new();
        let mut idx: Vec<usize> = Vec::new();
        let mut scratch = EvalScratch::new();
        // Branch-and-bound scratch, reused across subsets: per-slot
        // `(lower bound, original option index)` pairs rank-sorted
        // ascending, slot cardinalities, mixed-radix step weights, and
        // prefix sums of the per-slot minimum bounds.
        let mut lb_sorted: Vec<Vec<(f64, usize)>> = Vec::new();
        let mut lens: Vec<usize> = Vec::new();
        let mut weights: Vec<u64> = Vec::new();
        let mut head_min: Vec<f64> = Vec::new();
        // Worker-local incumbent bound, used when no shared bound is
        // installed. Either way the bound only ever holds feasible
        // candidate costs (or the on-demand incumbent), so strict pruning
        // against it is exact (DESIGN.md §8.3).
        let mut local_bound = od_bound;

        for subset_ordinal in range {
            let chosen = &subsets[subset_ordinal];
            if chosen.iter().any(|&g| options[g].is_empty()) {
                continue;
            }
            subsets_walked += 1;
            let product: u64 = chosen
                .iter()
                .map(|&g| options[g].len() as u64)
                .fold(1, u64::saturating_mul);
            // Count the full enumeration up front: the published
            // `evaluations_performed` stays the paper's search-space
            // metric, identical at any thread count and unchanged by how
            // many positions branch-and-bound manages to skip.
            evaluations += product;
            let subset_timer = std::time::Instant::now();

            if !self.config.prune_bound {
                // Exhaustive odometer walk — the pre-pruning algorithm,
                // kept verbatim as the ablation baseline.
                idx.clear();
                idx.resize(chosen.len(), 0);
                let mut step = 0u64;
                let mut exhausted = false;
                while !exhausted {
                    refs.clear();
                    refs.extend(chosen.iter().zip(&idx).map(|(&g, &i)| &options[g][i]));
                    let eval = evaluate_with_scratch(&refs, od, &mut scratch);
                    let feasible = eval.meets(self.problem.deadline)
                        && self
                            .config
                            .min_spot_success
                            .map(|q| eval.p_all_fail <= 1.0 - q)
                            .unwrap_or(true);
                    feasible_hits += feasible as u64;
                    let ordinal = (subset_ordinal, step);
                    let replace = match &best {
                        None => true,
                        Some(b) => beats(
                            feasible,
                            &eval,
                            refs.iter().map(|a| a.decision.bid),
                            ordinal,
                            b,
                        ),
                    };
                    if replace {
                        best = Some(Candidate {
                            feasible,
                            eval,
                            bids: refs.iter().map(|a| a.decision.bid).collect(),
                            subset: chosen.clone(),
                            idx: idx.clone(),
                            ordinal,
                        });
                    }
                    step += 1;
                    // Advance odometer.
                    let mut pos = 0;
                    loop {
                        if pos == idx.len() {
                            exhausted = true;
                            break;
                        }
                        idx[pos] += 1;
                        if idx[pos] < options[chosen[pos]].len() {
                            break;
                        }
                        idx[pos] = 0;
                        pos += 1;
                    }
                }
                kernel_nanos += subset_timer.elapsed().as_nanos() as u64;
                continue;
            }

            // Branch-and-bound walk over the same combinations.
            let m = chosen.len();
            let w_min = chosen
                .iter()
                .map(|&g| min_wall[g])
                .fold(f64::INFINITY, f64::min);
            while lb_sorted.len() < m {
                lb_sorted.push(Vec::new());
            }
            lens.clear();
            weights.clear();
            head_min.clear();
            let mut weight = 1u64;
            let mut head = 0.0f64;
            for (slot, &g) in chosen.iter().enumerate() {
                let opts = &options[g];
                let lb = &mut lb_sorted[slot];
                lb.clear();
                lb.extend(
                    opts.iter()
                        .enumerate()
                        .map(|(i, a)| (a.cost_lower_bound(w_min), i)),
                );
                // Unstable sort is deterministic here: the (bound, index)
                // keys are unique by index.
                lb.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                lens.push(opts.len());
                weights.push(weight);
                weight = weight.saturating_mul(opts.len() as u64);
                head_min.push(head);
                head += lb[0].0;
            }
            head_min.push(head); // head_min[m] = Σ per-slot minima

            // `idx` now holds per-slot *ranks* into `lb_sorted`, not
            // original option indices; ordinals and the stored candidate
            // are translated back through `lb_sorted[slot][rank].1`.
            idx.clear();
            idx.resize(m, 0);
            let mut evaluated_here = 0u64;
            let mut exhausted = false;
            while !exhausted {
                let bound = match shared_bound {
                    Some(s) => f64::from_bits(s.load(AtomicOrdering::Relaxed)),
                    None => local_bound,
                };
                let lb_total: f64 = (0..m).map(|s| lb_sorted[s][idx[s]].0).sum();
                if lb_total > bound {
                    // Prune. Advance at the highest slot `h` whose fixed
                    // tail is already hopeless: every combination keeping
                    // ranks `h..` has lower bound ≥ head_min[h] +
                    // suffix(h), so all of them can be skipped at once.
                    // The condition is not monotone in the slot (the
                    // suffix shrinks while the head grows), so scan all
                    // slots; `h = 0` degenerates to skipping just the
                    // current combination.
                    let mut h = 0usize;
                    let mut suffix = lb_total;
                    for s in 1..=m {
                        suffix -= lb_sorted[s - 1][idx[s - 1]].0;
                        if head_min[s] + suffix > bound {
                            h = s;
                        }
                    }
                    if h == m {
                        // Even the all-minima combination is over bound:
                        // the rest of this subset is hopeless.
                        exhausted = true;
                    } else {
                        for r in idx.iter_mut().take(h) {
                            *r = 0;
                        }
                        let mut pos = h;
                        loop {
                            if pos == m {
                                exhausted = true;
                                break;
                            }
                            idx[pos] += 1;
                            if idx[pos] < lens[pos] {
                                break;
                            }
                            idx[pos] = 0;
                            pos += 1;
                        }
                    }
                    continue;
                }
                refs.clear();
                refs.extend(
                    chosen
                        .iter()
                        .enumerate()
                        .map(|(slot, &g)| &options[g][lb_sorted[slot][idx[slot]].1]),
                );
                let eval = evaluate_with_scratch(&refs, od, &mut scratch);
                evaluated_here += 1;
                let feasible = eval.meets(self.problem.deadline)
                    && self
                        .config
                        .min_spot_success
                        .map(|q| eval.p_all_fail <= 1.0 - q)
                        .unwrap_or(true);
                feasible_hits += feasible as u64;
                if feasible {
                    // Publish the cost to the incumbent bound. Only
                    // feasible costs enter it, so pruning can never drop
                    // a candidate that would beat a feasible incumbent.
                    let bits = eval.expected_cost.to_bits();
                    match shared_bound {
                        Some(s) => {
                            let prev = s.fetch_min(bits, AtomicOrdering::Relaxed);
                            if bits < prev {
                                tightenings += 1;
                            }
                        }
                        None => {
                            if eval.expected_cost < local_bound {
                                local_bound = eval.expected_cost;
                                tightenings += 1;
                            }
                        }
                    }
                }
                // The enumeration step the unsorted odometer would have
                // assigned this combination — ordinals must not depend
                // on the lower-bound sort.
                let step = (0..m).fold(0u64, |acc, slot| {
                    acc.saturating_add(
                        weights[slot].saturating_mul(lb_sorted[slot][idx[slot]].1 as u64),
                    )
                });
                let ordinal = (subset_ordinal, step);
                let replace = match &best {
                    None => true,
                    Some(b) => beats(
                        feasible,
                        &eval,
                        refs.iter().map(|a| a.decision.bid),
                        ordinal,
                        b,
                    ),
                };
                if replace {
                    best = Some(Candidate {
                        feasible,
                        eval,
                        bids: refs.iter().map(|a| a.decision.bid).collect(),
                        subset: chosen.clone(),
                        idx: (0..m).map(|slot| lb_sorted[slot][idx[slot]].1).collect(),
                        ordinal,
                    });
                }
                // Advance the rank odometer (rank 0 fastest).
                let mut pos = 0;
                loop {
                    if pos == m {
                        exhausted = true;
                        break;
                    }
                    idx[pos] += 1;
                    if idx[pos] < lens[pos] {
                        break;
                    }
                    idx[pos] = 0;
                    pos += 1;
                }
            }
            skipped += product.saturating_sub(evaluated_here);
            kernel_nanos += subset_timer.elapsed().as_nanos() as u64;
        }
        WorkerStats {
            evaluations,
            feasible: feasible_hits,
            subsets: subsets_walked,
            skipped,
            tightenings,
            kernel_nanos,
            best,
        }
    }
}

/// The bid grid `config` searches for a group with history `est`: at most
/// `bid_levels` points, and no more than the log₂ span between the lowest
/// and highest observed price warrants. `None` when the group cannot
/// launch at any bid (non-finite or non-positive maximum price).
pub(crate) fn bid_grid(config: &OptimizerConfig, est: &FailureEstimator) -> Option<BidGrid> {
    let max_bid = est.max_price();
    if !(max_bid.is_finite() && max_bid > 0.0) {
        return None;
    }
    let min_price = est.expected_spot_price().min_price().max(1e-6);
    let span_levels = ((max_bid / min_price).log2().ceil() as u32 + 1).max(2);
    let levels = span_levels.min(config.bid_levels.max(2));
    let grid = match config.grid {
        GridKind::Logarithmic => BidGrid::logarithmic(max_bid, levels),
        GridKind::Uniform => BidGrid::uniform(max_bid, levels),
    };
    Some(match config.top_margin {
        Some(m) => grid.with_top_margin(m),
        None => grid,
    })
}

/// Visit every `k`-subset of `0..n` (lexicographic), calling `f` with each.
/// Visits nothing when `k > n` (instead of underflowing the loop bound).
fn enumerate_subsets(
    n: usize,
    k: usize,
    start: usize,
    acc: &mut Vec<usize>,
    f: &mut impl FnMut(&[usize]),
) {
    if acc.len() == k {
        f(acc);
        return;
    }
    let remaining = k - acc.len();
    if remaining > n.saturating_sub(start) {
        return; // not enough elements left — covers k > n
    }
    for i in start..=(n - remaining) {
        acc.push(i);
        enumerate_subsets(n, k, i + 1, acc, f);
        acc.pop();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
    use ec2_market::market::SpotMarket;
    use ec2_market::tracegen::{MarketProfile, TraceGenerator};
    use mpi_sim::npb::{NpbClass, NpbKernel};
    use mpi_sim::storage::S3Store;

    pub(crate) fn setup() -> (SpotMarket, Problem, MarketView) {
        let cat = InstanceCatalog::paper_2014();
        let prof = MarketProfile::paper_2014(&cat);
        let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 13), 200.0, 1.0 / 12.0);
        let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
        let types: Vec<InstanceTypeId> = ["m1.small", "m1.medium", "c3.xlarge", "cc2.8xlarge"]
            .iter()
            .map(|n| market.catalog().by_name(n).unwrap())
            .collect();
        let problem = Problem::build(
            &market,
            &profile,
            3.0, // loose-ish deadline vs ~1h baseline
            Some(&types),
            S3Store::paper_2014(),
        );
        let view = MarketView::from_market(&market, 0.0, 48.0);
        (market, problem, view)
    }

    fn small_config() -> OptimizerConfig {
        OptimizerConfig {
            kappa: 2,
            bid_levels: 3,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn finds_a_feasible_plan_cheaper_than_on_demand() {
        let (_, problem, view) = setup();
        let opt = TwoLevelOptimizer::new(&problem, &view, small_config())
            .optimize()
            .unwrap();
        assert!(opt.evaluation.meets(problem.deadline));
        assert!(!opt.plan.groups.is_empty(), "expected a spot plan");
        let od_cost = select_on_demand(&problem.on_demand, problem.deadline, 0.2).full_cost();
        assert!(
            opt.evaluation.expected_cost < od_cost,
            "spot plan {} vs on-demand {}",
            opt.evaluation.expected_cost,
            od_cost
        );
    }

    #[test]
    fn out_of_domain_slack_is_invalid_config() {
        let (_, problem, view) = setup();
        for slack in [1.0, 1.5, -0.1, f64::NAN] {
            let cfg = OptimizerConfig {
                slack,
                ..small_config()
            };
            let err = TwoLevelOptimizer::new(&problem, &view, cfg)
                .optimize()
                .unwrap_err();
            assert!(
                matches!(err, SompiError::InvalidConfig { .. }),
                "slack {slack}: {err}"
            );
        }
    }

    #[test]
    fn respects_kappa() {
        let (_, problem, view) = setup();
        for kappa in 1..=3 {
            let cfg = OptimizerConfig {
                kappa,
                bid_levels: 2,
                ..OptimizerConfig::default()
            };
            let opt = TwoLevelOptimizer::new(&problem, &view, cfg)
                .optimize()
                .unwrap();
            assert!(opt.plan.replication_degree() <= kappa);
        }
    }

    #[test]
    fn more_bid_levels_never_hurt() {
        let (_, problem, view) = setup();
        let cheap = TwoLevelOptimizer::new(
            &problem,
            &view,
            OptimizerConfig {
                kappa: 2,
                bid_levels: 2,
                // Dominance collapse can shrink a richer grid back down to
                // the same option count; this test pins the *raw* space.
                prune_dominance: false,
                ..OptimizerConfig::default()
            },
        )
        .optimize()
        .unwrap();
        let rich = TwoLevelOptimizer::new(
            &problem,
            &view,
            OptimizerConfig {
                kappa: 2,
                bid_levels: 5,
                prune_dominance: false,
                ..OptimizerConfig::default()
            },
        )
        .optimize()
        .unwrap();
        // The 5-level grid contains the 2-level grid, so the optimum can
        // only improve.
        assert!(rich.evaluation.expected_cost <= cheap.evaluation.expected_cost + 1e-9);
        assert!(rich.evaluations_performed > cheap.evaluations_performed);
    }

    #[test]
    fn impossible_deadline_falls_back_to_fastest_on_demand() {
        let (_, mut problem, view) = setup();
        problem.deadline = 0.01;
        let opt = TwoLevelOptimizer::new(&problem, &view, small_config())
            .optimize()
            .unwrap();
        // Nothing is feasible; the incumbent comparison still returns the
        // cheapest-in-expectation configuration, and the plan must carry
        // the fastest on-demand fallback.
        let fastest = problem.baseline();
        assert_eq!(opt.plan.on_demand.instance_type, fastest.instance_type);
    }

    #[test]
    fn search_space_matches_formula() {
        // evaluations ≈ 1 (OD) + Σ_k C(K,k)·L^k for the chosen κ and L.
        // Loose deadline so no option is pruned for deadline viability and
        // the count reflects the raw search space.
        let (_, mut problem, view) = setup();
        problem.deadline = 100.0;
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 2,
            top_margin: None,
            ..OptimizerConfig::default()
        };
        let opt = TwoLevelOptimizer::new(&problem, &view, cfg)
            .optimize()
            .unwrap();
        let k_total = problem.candidates.len() as u64; // 12
        let l = 2u64;
        let expected = 1 + k_total * l + k_total * (k_total - 1) / 2 * l * l;
        // Unlaunchable bids can reduce the count slightly.
        assert!(
            opt.evaluations_performed <= expected && opt.evaluations_performed > expected / 2,
            "evals {} vs expected {expected}",
            opt.evaluations_performed
        );
    }

    #[test]
    fn interval_ablation_multiplies_search() {
        let (_, problem, view) = setup();
        let phi = TwoLevelOptimizer::new(
            &problem,
            &view,
            OptimizerConfig {
                kappa: 1,
                bid_levels: 3,
                ..OptimizerConfig::default()
            },
        )
        .optimize()
        .unwrap();
        let grid = TwoLevelOptimizer::new(
            &problem,
            &view,
            OptimizerConfig {
                kappa: 1,
                bid_levels: 3,
                interval_grid: Some(5),
                ..OptimizerConfig::default()
            },
        )
        .optimize()
        .unwrap();
        assert!(grid.evaluations_performed > 3 * phi.evaluations_performed);
        // Exhaustive-interval search can be at most marginally better than
        // φ(P) (Theorem 1's premise) — allow it to win, but not by much
        // relative to the on-demand scale.
        assert!(
            grid.evaluation.expected_cost
                <= phi.evaluation.expected_cost + 0.05 * problem.baseline_cost()
        );
    }

    #[test]
    fn subset_enumeration_counts() {
        let mut count = 0usize;
        let mut acc = Vec::new();
        enumerate_subsets(5, 3, 0, &mut acc, &mut |s| {
            assert_eq!(s.len(), 3);
            count += 1;
        });
        assert_eq!(count, 10); // C(5,3)
    }

    #[test]
    fn subset_enumeration_handles_k_larger_than_n() {
        // Regression: `k > n` used to underflow `n - remaining` (usize)
        // and panic; it must simply visit nothing.
        let mut count = 0usize;
        let mut acc = Vec::new();
        enumerate_subsets(3, 5, 0, &mut acc, &mut |_| count += 1);
        assert_eq!(count, 0);
        assert!(acc.is_empty());
        // And n = 0 with k > 0 likewise.
        enumerate_subsets(0, 1, 0, &mut acc, &mut |_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let (_, problem, view) = setup();
        let base = OptimizerConfig {
            kappa: 2,
            bid_levels: 3,
            ..OptimizerConfig::default()
        };
        let serial =
            TwoLevelOptimizer::new(&problem, &view, OptimizerConfig { threads: 1, ..base })
                .optimize()
                .unwrap();
        for threads in [2usize, 8] {
            let parallel =
                TwoLevelOptimizer::new(&problem, &view, OptimizerConfig { threads, ..base })
                    .optimize()
                    .unwrap();
            assert_eq!(serial, parallel, "threads={threads} diverged from serial");
        }
    }

    #[test]
    fn search_inside_a_parallel_worker_runs_inline_with_the_same_plan() {
        let (_, problem, view) = setup();
        let cfg = OptimizerConfig {
            threads: 4,
            ..small_config()
        };
        let opt = TwoLevelOptimizer::new(&problem, &view, cfg);
        let parallel = opt.optimize().unwrap();
        let pool = crate::pool::SearchPool::new(4);
        let ring = sompi_obs::RingRecorder::new(TraceLevel::Summary, 256);
        // Workers that fill the cores leave each a share of one thread.
        let share = crate::parallel::WorkerShare::of(resolve_threads(0));
        let nested = share.run(|| {
            opt.optimize_with(&mut PlanContext::new().with_recorder(&ring).with_pool(&pool))
                .unwrap()
        });
        assert_eq!(parallel, nested);
        let events = ring.take();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::PlanSearchStarted { threads: 1, .. })));
        assert!(events.iter().all(|e| e.kind() != "SearchPoolUsed"));
        assert_eq!(
            pool.searches_served(),
            0,
            "an inline search never dispatches"
        );
    }

    #[test]
    fn bid_vector_tiebreak_is_a_total_order() {
        assert_eq!(
            cmp_bids([0.5, 0.25].into_iter(), &[0.5, 0.25]),
            Ordering::Equal
        );
        assert_eq!(
            cmp_bids([0.5, 0.2].into_iter(), &[0.5, 0.25]),
            Ordering::Less
        );
        assert_eq!(
            cmp_bids([0.5, 0.3].into_iter(), &[0.5, 0.25]),
            Ordering::Greater
        );
        // A prefix orders before its extensions.
        assert_eq!(cmp_bids([0.5].into_iter(), &[0.5, 0.25]), Ordering::Less);
        assert_eq!(cmp_bids([0.5, 0.25].into_iter(), &[0.5]), Ordering::Greater);
    }

    #[test]
    fn warm_start_never_changes_the_selected_plan() {
        let (_, problem, view) = setup();
        let opt = TwoLevelOptimizer::new(&problem, &view, small_config());
        let cold = opt.optimize().unwrap();
        // The first warm pass fills the table cache; later ones reuse it.
        // The reuse-off arm also matches bit-for-bit.
        for tables_on in [true, false] {
            let mut warm = WarmStart::new().with_table_reuse(tables_on);
            for pass in 0..3 {
                let got = opt
                    .optimize_with(&mut PlanContext::new().with_warm(&mut warm))
                    .unwrap();
                assert_eq!(cold, got, "tables={tables_on} pass {pass} diverged");
            }
            assert_eq!(warm.cached_groups() > 0, tables_on);
        }
    }

    #[test]
    fn warm_start_matches_across_thread_counts() {
        let (_, problem, view) = setup();
        let base = small_config();
        let run = |threads: usize| {
            let cfg = OptimizerConfig { threads, ..base };
            let opt = TwoLevelOptimizer::new(&problem, &view, cfg);
            let mut warm = WarmStart::new();
            let first = opt
                .optimize_with(&mut PlanContext::new().with_warm(&mut warm))
                .unwrap();
            let second = opt
                .optimize_with(&mut PlanContext::new().with_warm(&mut warm))
                .unwrap();
            (first, second)
        };
        let serial = run(1);
        for threads in [2usize, 8] {
            assert_eq!(serial, run(threads), "threads={threads} diverged");
        }
    }
}

#[cfg(test)]
mod chance_constraint_tests {
    use super::*;
    use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
    use ec2_market::market::SpotMarket;
    use ec2_market::tracegen::{MarketProfile, TraceGenerator};
    use mpi_sim::npb::{NpbClass, NpbKernel};
    use mpi_sim::storage::S3Store;

    #[test]
    fn min_spot_success_tightens_plans() {
        let cat = InstanceCatalog::paper_2014();
        let prof = MarketProfile::paper_2014(&cat);
        let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 97), 200.0, 1.0 / 12.0);
        let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
        let types: Vec<InstanceTypeId> = ["m1.small", "m1.medium", "c3.xlarge", "cc2.8xlarge"]
            .iter()
            .map(|n| market.catalog().by_name(n).unwrap())
            .collect();
        let mut problem = crate::problem::Problem::build(
            &market,
            &profile,
            f64::MAX,
            Some(&types),
            S3Store::paper_2014(),
        );
        problem.deadline = problem.baseline_time() * 1.5;
        let view = crate::view::MarketView::from_market(&market, 0.0, 48.0);

        let base = OptimizerConfig {
            kappa: 2,
            bid_levels: 6,
            ..Default::default()
        };
        let strict = OptimizerConfig {
            min_spot_success: Some(0.999),
            ..base
        };
        let free = TwoLevelOptimizer::new(&problem, &view, base)
            .optimize()
            .unwrap();
        let safe = TwoLevelOptimizer::new(&problem, &view, strict)
            .optimize()
            .unwrap();
        // The chance constraint can only restrict the feasible set: cost
        // may not improve, and the chosen plan must satisfy it.
        assert!(safe.evaluation.expected_cost >= free.evaluation.expected_cost - 1e-9);
        assert!(safe.evaluation.p_all_fail <= 0.001 + 1e-9);
    }
}

#[cfg(test)]
mod assess_options_tests {
    use super::tests::setup;
    use super::*;
    use ec2_market::market::CircleGroupId;

    /// Grid size `assess_options` should enumerate for one group,
    /// mirroring its span/levels/margin arithmetic.
    fn expected_grid_len(view: &MarketView, cfg: &OptimizerConfig, id: CircleGroupId) -> u64 {
        let max_bid = view.max_bid(id).unwrap();
        assert!(max_bid > 0.0, "fixture group must be launchable");
        let min_price = view.min_price(id).unwrap().max(1e-6);
        let span_levels = ((max_bid / min_price).log2().ceil() as u32 + 1).max(2);
        let levels = span_levels.min(cfg.bid_levels.max(2));
        // `with_top_margin` prepends one guard point above `H_i`.
        levels as u64 + cfg.top_margin.map_or(0, |_| 1)
    }

    #[test]
    fn assess_options_pins_considered_and_pruned_counters() {
        let (_, problem, view) = setup();
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 4,
            prune_dominance: false,
            ..OptimizerConfig::default()
        };
        let opt = TwoLevelOptimizer::new(&problem, &view, cfg);
        let a = opt.assess_options(None).unwrap();
        let (options, considered, pruned, dominated) =
            (a.options, a.considered, a.pruned, a.dominated);

        // One candidate decision per grid point (φ fixes the interval, so
        // the interval dimension contributes a factor of exactly 1).
        let expected: u64 = problem
            .candidates
            .iter()
            .map(|g| expected_grid_len(&view, &cfg, g.id))
            .sum();
        assert_eq!(considered, expected);
        assert_eq!(dominated, 0, "collapse disabled, nothing may be dropped");
        let kept: u64 = options.iter().map(|o| o.len() as u64).sum();
        assert!(kept > 0, "loose deadline must keep some options");
        // Every considered decision is kept, deadline-pruned, or was
        // unassessable (no launch at that bid) — never double-counted.
        assert!(kept + pruned <= considered);

        // A margin-free grid loses exactly the guard point per group.
        let no_margin = OptimizerConfig {
            top_margin: None,
            ..cfg
        };
        let considered_nm = TwoLevelOptimizer::new(&problem, &view, no_margin)
            .assess_options(None)
            .unwrap()
            .considered;
        assert_eq!(considered_nm, considered - problem.candidates.len() as u64);
    }

    #[test]
    fn assess_options_deadline_pruning_shows_in_counter() {
        let (_, mut problem, view) = setup();
        // A deadline just above the fastest group's wall forces the slower
        // end of every grid out, without emptying the space.
        problem.deadline = 1.2;
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 4,
            prune_dominance: false,
            ..OptimizerConfig::default()
        };
        let a = TwoLevelOptimizer::new(&problem, &view, cfg)
            .assess_options(None)
            .unwrap();
        let (options, considered, pruned) = (a.options, a.considered, a.pruned);
        let kept: u64 = options.iter().map(|o| o.len() as u64).sum();
        assert!(pruned > 0, "tight deadline must prune something");
        assert!(kept + pruned <= considered);
    }

    #[test]
    fn assess_options_dominated_counter_matches_kept_delta() {
        let (_, problem, view) = setup();
        let base = OptimizerConfig {
            kappa: 2,
            bid_levels: 6,
            ..OptimizerConfig::default()
        };
        let raw = OptimizerConfig {
            prune_dominance: false,
            ..base
        };
        let a_raw = TwoLevelOptimizer::new(&problem, &view, raw)
            .assess_options(None)
            .unwrap();
        let (opts_raw, considered_raw, pruned_raw, dominated_raw) = (
            a_raw.options,
            a_raw.considered,
            a_raw.pruned,
            a_raw.dominated,
        );
        let a_dom = TwoLevelOptimizer::new(&problem, &view, base)
            .assess_options(None)
            .unwrap();
        let (opts_dom, considered_dom, pruned_dom, dominated_dom) = (
            a_dom.options,
            a_dom.considered,
            a_dom.pruned,
            a_dom.dominated,
        );
        // The collapse runs after assessment: considered/pruned are
        // untouched, and `dominated` accounts exactly for the kept delta.
        assert_eq!(considered_raw, considered_dom);
        assert_eq!(pruned_raw, pruned_dom);
        assert_eq!(dominated_raw, 0);
        let kept_raw: u64 = opts_raw.iter().map(|o| o.len() as u64).sum();
        let kept_dom: u64 = opts_dom.iter().map(|o| o.len() as u64).sum();
        assert_eq!(kept_raw - kept_dom, dominated_dom);
    }

    #[test]
    fn assess_options_skips_unlaunchable_groups() {
        use ec2_market::failure::FailureEstimator;
        use ec2_market::trace::SpotTrace;
        use std::collections::BTreeMap;

        let (market, problem, _) = setup();
        // Rebuild the view, zeroing out one candidate's price history: a
        // group whose observed max price is 0 has no bid range at all.
        let dead = problem.candidates[0].id;
        let zero_trace = SpotTrace::new(1.0 / 12.0, vec![0.0; 12 * 48]);
        let estimators: BTreeMap<_, _> = market
            .groups()
            .map(|id| {
                let est = if id == dead {
                    FailureEstimator::from_window(zero_trace.window(0.0, 48.0))
                } else {
                    market.try_estimator(id, 0.0, 48.0).unwrap()
                };
                (id, est)
            })
            .collect();
        let view = MarketView::from_estimators(estimators);

        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 4,
            ..OptimizerConfig::default()
        };
        let opt = TwoLevelOptimizer::new(&problem, &view, cfg);
        let a = opt.assess_options(None).unwrap();
        let (options, considered) = (a.options, a.considered);
        assert!(options[0].is_empty(), "dead group must offer no options");
        // The dead group contributes nothing to `considered` either.
        let expected: u64 = problem.candidates[1..]
            .iter()
            .map(|g| expected_grid_len(&view, &cfg, g.id))
            .sum();
        assert_eq!(considered, expected);
        // The optimizer still produces a plan from the remaining groups.
        let out = opt.optimize().unwrap();
        assert!(out.plan.groups.iter().all(|(g, _)| g.id != dead));
    }
}
