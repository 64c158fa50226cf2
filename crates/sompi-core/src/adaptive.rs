//! The adaptive update-maintenance algorithm — Section 4.3, Algorithm 1.
//!
//! Spot price distributions drift, so a plan computed once from stale
//! history degrades (the paper's w/o-MT ablation). Algorithm 1 splits the
//! execution into optimization windows of size `T_m`: at each window
//! boundary it re-estimates the failure-rate functions from the *previous*
//! window's prices, re-solves the two-level optimization for the residual
//! application, and — when the deadline can no longer be met — abandons
//! spot and finishes on demand.
//!
//! This module holds the planning half (what to do at a window boundary);
//! the execution half (tracking realized progress against real traces)
//! lives in the `replay` crate, which feeds realized progress back in as
//! `remaining_fraction`.

use crate::baselines::Sompi;
use crate::cost::evaluate_plan;
use crate::error::SompiError;
use crate::model::Plan;
use crate::policy::Policy;
use crate::pool::SearchPool;
use crate::problem::Problem;
use crate::twolevel::OptimizerConfig;
use crate::view::MarketView;
use crate::warmstart::WarmStart;
use crate::Hours;
use ec2_market::fault::FaultInjector;
use ec2_market::market::CircleGroupId;
use serde::{Deserialize, Serialize};
use sompi_obs::{emit, Event, NullRecorder, Recorder, TraceLevel};

/// Adaptive algorithm knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// `T_m`: optimization window size, hours (paper default ≈ 15).
    pub window_hours: Hours,
    /// History length used for each re-estimation, hours (the paper uses
    /// "the previous two days" offline and the previous window online).
    pub history_hours: Hours,
    /// The inner optimizer's configuration.
    pub optimizer: OptimizerConfig,
    /// Ignored. It switched the previous-window plan carry-over, which is
    /// gone (DESIGN.md §12); the field stays so existing configs and
    /// callers keep compiling and loading.
    #[serde(default = "default_true")]
    pub warmstart: bool,
    /// Reuse per-`(group, bid)` failure-count tables across windows,
    /// keyed by a digest of each group's price history. `false` is the
    /// `--no-bucket-reuse` ablation.
    #[serde(default = "default_true")]
    pub bucket_reuse: bool,
}

fn default_true() -> bool {
    true
}

impl AdaptiveConfig {
    /// Start building a config from the defaults. Preferred over growing
    /// positional constructors as knobs accumulate:
    ///
    /// ```
    /// use sompi_core::AdaptiveConfig;
    ///
    /// let cfg = AdaptiveConfig::builder().window_hours(10.0).build();
    /// assert_eq!(cfg.window_hours, 10.0);
    /// assert_eq!(cfg.history_hours, AdaptiveConfig::default().history_hours);
    /// ```
    pub fn builder() -> AdaptiveConfigBuilder {
        AdaptiveConfigBuilder {
            config: Self::default(),
        }
    }
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            window_hours: 15.0,
            history_hours: 48.0,
            optimizer: OptimizerConfig::default(),
            warmstart: true,
            bucket_reuse: true,
        }
    }
}

/// Builder for [`AdaptiveConfig`]; see [`AdaptiveConfig::builder`].
#[derive(Debug, Clone)]
pub struct AdaptiveConfigBuilder {
    config: AdaptiveConfig,
}

impl AdaptiveConfigBuilder {
    /// Set `T_m`, the optimization window size in hours.
    pub fn window_hours(mut self, hours: Hours) -> Self {
        self.config.window_hours = hours;
        self
    }

    /// Set the history length used for each re-estimation, hours.
    pub fn history_hours(mut self, hours: Hours) -> Self {
        self.config.history_hours = hours;
        self
    }

    /// Set the inner optimizer configuration.
    pub fn optimizer(mut self, optimizer: OptimizerConfig) -> Self {
        self.config.optimizer = optimizer;
        self
    }

    /// Enable/disable cross-window bucket-table reuse.
    pub fn bucket_reuse(mut self, on: bool) -> Self {
        self.config.bucket_reuse = on;
        self
    }

    /// Finish building.
    pub fn build(self) -> AdaptiveConfig {
        self.config
    }
}

/// Everything a window-planning call may consult besides the problem and
/// the market view: the trace recorder, an optional plan-reuse cache, an
/// optional fault injector (for market-feed gaps), and the window index
/// for event labeling. [`PlanContext::default`] is all no-ops, so the
/// simplest call is `planner.plan_window(&p, 1.0, 0.0, &view, &mut
/// PlanContext::default())`.
pub struct PlanContext<'a> {
    /// Trace event sink.
    pub recorder: &'a dyn Recorder,
    /// Plan-reuse cache consulted (and refreshed) when present.
    pub cache: Option<&'a mut PlanCache>,
    /// Fault injector; the planner consults it for market-feed gaps at
    /// this window and prefers the cached plan over a fresh search when
    /// the feed is gapped.
    pub faults: Option<&'a FaultInjector>,
    /// Warm-start state carried across windows; when present, each real
    /// re-optimization reuses unchanged bucket tables
    /// (exactness-preserving — see [`WarmStart`]). The
    /// [`AdaptiveConfig::bucket_reuse`] toggle is re-applied to the state
    /// on every planning call, so the ablation flag wins over however the
    /// state was constructed.
    pub warm: Option<&'a mut WarmStart>,
    /// 0-based index of the window being planned (labels events and keys
    /// feed-gap injection).
    pub window: u32,
    /// Persistent worker pool for the parallel subset search. When
    /// present (and the resolved thread count is > 1), each real
    /// re-optimization dispatches its chunk jobs onto these resident
    /// threads instead of spawning a fresh scoped-thread team — results
    /// are bit-identical either way (see [`SearchPool`]); only the
    /// per-window spawn/join tax disappears.
    pub pool: Option<&'a SearchPool>,
}

impl Default for PlanContext<'_> {
    fn default() -> Self {
        Self {
            recorder: &NullRecorder,
            cache: None,
            faults: None,
            warm: None,
            window: 0,
            pool: None,
        }
    }
}

impl<'a> PlanContext<'a> {
    /// All-no-op context (same as [`PlanContext::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record trace events into `recorder`.
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Consult and refresh `cache`.
    pub fn with_cache(mut self, cache: &'a mut PlanCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Consult `faults` for market-feed gaps.
    pub fn with_faults(mut self, faults: &'a FaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Thread warm-start state `warm` through this window's search.
    pub fn with_warm(mut self, warm: &'a mut WarmStart) -> Self {
        self.warm = Some(warm);
        self
    }

    /// Label events (and key feed-gap injection) with window index `w`.
    pub fn with_window(mut self, window: u32) -> Self {
        self.window = window;
        self
    }

    /// Run each window's parallel search on the resident `pool` instead
    /// of spawning scoped threads per re-optimization.
    pub fn with_pool(mut self, pool: &'a SearchPool) -> Self {
        self.pool = Some(pool);
        self
    }
}

/// What [`AdaptivePlanner::plan_window`] produced and how it got there.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedWindow {
    /// The window's decision.
    pub decision: WindowDecision,
    /// True when the decision came from the plan cache instead of a fresh
    /// search (fingerprint hit, or feed-gap fallback to the last plan).
    pub reused_from_cache: bool,
    /// True when the reuse was justified by a matching market
    /// fingerprint (false for feed-gap fallbacks).
    pub fingerprint_hit: bool,
}

/// What Algorithm 1 decides at a window boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WindowDecision {
    /// Keep executing on spot with this plan for the next window.
    Hybrid(Plan),
    /// The deadline is at risk: finish the residual work on demand
    /// (Algorithm 1 lines 7–9).
    FinishOnDemand(Plan),
}

impl WindowDecision {
    /// The plan to execute either way.
    pub fn plan(&self) -> &Plan {
        match self {
            WindowDecision::Hybrid(p) | WindowDecision::FinishOnDemand(p) => p,
        }
    }
}

/// Stateless planner for Algorithm 1's per-window decision.
#[derive(Debug, Clone, Copy)]
pub struct AdaptivePlanner {
    /// Configuration.
    pub config: AdaptiveConfig,
}

impl AdaptivePlanner {
    /// Create a planner.
    pub fn new(config: AdaptiveConfig) -> Self {
        Self { config }
    }

    /// Decide the next window's plan — the single planning entry point.
    ///
    /// * `base` — the original problem (full application),
    /// * `remaining_fraction` — residual work in `(0, 1]`,
    /// * `elapsed` — wall hours consumed so far,
    /// * `view` — estimators over the *latest* history window,
    /// * `ctx` — recorder / plan cache / fault injector / window index,
    ///   all optional (see [`PlanContext`]).
    ///
    /// With a cache in the context: when the view's [`ViewFingerprint`]
    /// matches the cached one within tolerance, the Algorithm-1 line-7
    /// guard passes, and the cached plan — rescaled to the current
    /// residual — is still feasible under the *fresh* estimators, the
    /// re-optimization is skipped and the window emits `WindowReplanned
    /// { reused: true, fingerprint_hit: true }`. With a fault injector
    /// reporting a market-feed gap at this window, the planner degrades
    /// gracefully instead of trusting a stale view: it falls back to the
    /// cached plan *without* requiring a fingerprint match (emitting
    /// `DegradedMode { mode: "stale-plan" }`), still subject to the
    /// deadline guard and feasibility re-check.
    ///
    /// Errors with [`SompiError::InvalidFraction`] when
    /// `remaining_fraction` is outside `(0, 1]` and
    /// [`SompiError::NoOnDemandOption`] when the problem offers no
    /// on-demand option to guard the deadline with.
    pub fn plan_window(
        &self,
        base: &Problem,
        remaining_fraction: f64,
        elapsed: Hours,
        view: &MarketView,
        ctx: &mut PlanContext<'_>,
    ) -> Result<PlannedWindow, SompiError> {
        let policy = Sompi {
            config: self.config.optimizer,
        };
        self.plan_window_with(&policy, base, remaining_fraction, elapsed, view, ctx)
    }

    /// [`AdaptivePlanner::plan_window`] with the re-optimization routed
    /// through an arbitrary [`Policy`] instead of the SOMPI optimizer.
    /// The cache-recall, feed-gap, and Algorithm-1 deadline-guard
    /// machinery is policy-agnostic and identical; only the "re-optimize
    /// the residual" step calls `policy.plan(&residual, view, …)`. With
    /// `policy = Sompi { config }` this is [`AdaptivePlanner::plan_window`]
    /// bit-for-bit.
    #[allow(clippy::too_many_arguments)]
    pub fn plan_window_with(
        &self,
        policy: &dyn Policy,
        base: &Problem,
        remaining_fraction: f64,
        elapsed: Hours,
        view: &MarketView,
        ctx: &mut PlanContext<'_>,
    ) -> Result<PlannedWindow, SompiError> {
        if !(remaining_fraction > 0.0 && remaining_fraction <= 1.0) {
            return Err(SompiError::InvalidFraction {
                fraction: remaining_fraction,
            });
        }
        let leftover = base.deadline - elapsed;
        let gap = ctx
            .faults
            .map(|f| f.feed_gap_at(ctx.window))
            .unwrap_or(false);

        if let Some(cache) = ctx.cache.as_deref_mut() {
            // On a feed gap the fresh view is suspect, so the last valid
            // plan is preferred over re-optimizing against stale data; on
            // a healthy feed only an unchanged market fingerprint
            // justifies reuse.
            let recalled = if gap {
                cache.recall_latest(remaining_fraction)
            } else {
                cache.recall(&ViewFingerprint::digest(view), remaining_fraction)
            };
            if let Some(plan) = recalled {
                // Reuse only if the decision would still be Hybrid: the
                // fastest on-demand bail-out check passes and the rescaled
                // incumbent remains feasible when re-evaluated against the
                // latest estimators.
                let residual = base.try_residual(remaining_fraction, leftover.max(0.0))?;
                let fastest = residual.try_baseline()?;
                if fastest.exec_hours + fastest.recovery_hours <= leftover {
                    if let Some(eval) = evaluate_plan(&plan, view)? {
                        let feasible = eval.meets(leftover)
                            && self
                                .config
                                .optimizer
                                .min_spot_success
                                .map(|q| eval.p_all_fail <= 1.0 - q)
                                .unwrap_or(true);
                        if feasible {
                            let window = ctx.window;
                            if gap {
                                emit(ctx.recorder, TraceLevel::Summary, || Event::DegradedMode {
                                    mode: "stale-plan".to_string(),
                                    group: None,
                                    at_hours: elapsed,
                                    reason: "feed-gap".to_string(),
                                });
                            }
                            emit(ctx.recorder, TraceLevel::Summary, || {
                                Event::WindowReplanned {
                                    window,
                                    elapsed_hours: elapsed,
                                    remaining_fraction,
                                    reused: true,
                                    decision: "hybrid".to_string(),
                                    groups: plan.groups.len() as u32,
                                    fingerprint_hit: !gap,
                                }
                            });
                            return Ok(PlannedWindow {
                                decision: WindowDecision::Hybrid(plan),
                                reused_from_cache: true,
                                fingerprint_hit: !gap,
                            });
                        }
                    }
                }
            }
        }

        let decision = self.decide(
            policy,
            base,
            remaining_fraction,
            elapsed,
            view,
            ctx.recorder,
            ctx.warm.as_deref_mut(),
            ctx.pool,
        )?;
        let window = ctx.window;
        emit(ctx.recorder, TraceLevel::Summary, || {
            Event::WindowReplanned {
                window,
                elapsed_hours: elapsed,
                remaining_fraction,
                reused: false,
                decision: match &decision {
                    WindowDecision::Hybrid(_) => "hybrid".to_string(),
                    WindowDecision::FinishOnDemand(_) => "finish-on-demand".to_string(),
                },
                groups: decision.plan().groups.len() as u32,
                fingerprint_hit: false,
            }
        });
        if let Some(cache) = ctx.cache.as_deref_mut() {
            cache.store(ViewFingerprint::digest(view), &decision, remaining_fraction);
        }
        Ok(PlannedWindow {
            decision,
            reused_from_cache: false,
            fingerprint_hit: false,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn decide(
        &self,
        policy: &dyn Policy,
        base: &Problem,
        remaining_fraction: f64,
        elapsed: Hours,
        view: &MarketView,
        recorder: &dyn Recorder,
        warm: Option<&mut WarmStart>,
        pool: Option<&SearchPool>,
    ) -> Result<WindowDecision, SompiError> {
        let leftover = base.deadline - elapsed;
        let residual = base.try_residual(remaining_fraction, leftover.max(0.0))?;

        // Algorithm 1 line 7: if even the fastest on-demand execution of
        // the residual cannot meet the leftover deadline budget, bail out
        // to on-demand immediately (nothing better exists).
        let fastest = residual.try_baseline()?;
        if fastest.exec_hours + fastest.recovery_hours > leftover {
            return Ok(WindowDecision::FinishOnDemand(Plan::on_demand_only(
                *fastest,
            )));
        }

        // The config's ablation toggle is authoritative: re-apply it to
        // the carried state so `--no-bucket-reuse` bites even when the
        // caller handed over a default WarmStart.
        let mut warm = warm;
        if let Some(w) = warm.as_deref_mut() {
            w.use_tables = self.config.bucket_reuse;
            if !w.use_tables {
                w.tables.clear();
            }
        }

        // Otherwise re-plan the residual against the fresh view through
        // the policy. For the default SOMPI policy the optimizer's own
        // `E[Time] ≤ leftover` constraint (with graceful on-demand
        // fallback when nothing feasible exists) is the paper's deadline
        // control; any policy returning a pure on-demand plan is treated
        // as the Algorithm-1 bail-out.
        let mut inner = PlanContext::new().with_recorder(recorder);
        if let Some(w) = warm {
            inner = inner.with_warm(w);
        }
        if let Some(p) = pool {
            inner = inner.with_pool(p);
        }
        let plan = policy.plan(&residual, view, &mut inner)?;
        if plan.groups.is_empty() {
            return Ok(WindowDecision::FinishOnDemand(plan));
        }
        Ok(WindowDecision::Hybrid(plan))
    }
}

/// Hour horizon of the fingerprint's failure-rate probe. Fixed so two
/// views are digested identically regardless of the residual problem.
const FINGERPRINT_PROBE_HORIZON: usize = 24;

/// Compact digest of the market state a [`MarketView`] exposes: per
/// candidate circle group, the price-range statistics and a failure-rate
/// probe that the two-level optimizer's inputs are derived from. Two
/// views with matching fingerprints (within a relative tolerance) lead
/// the optimizer to near-identical assessments, which is what makes
/// skipping a window's re-optimization safe in practice — the reuse path
/// additionally re-checks the cached plan's feasibility against the
/// fresh view before committing (see
/// [`AdaptivePlanner::plan_window`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ViewFingerprint {
    /// Per group: `[min price, mean price, max bid, launch delay at the
    /// probe bid, survival at the probe bid]`. Groups a view cannot
    /// launch (non-finite or non-positive max bid) digest as zeros.
    entries: Vec<(CircleGroupId, [f64; 5])>,
}

impl ViewFingerprint {
    /// Digest a view. Cost: one fused failure table per group (at a
    /// single probe bid), versus `bid_levels` of them per group for a
    /// full re-optimization. Walks the view's own estimators, so it never
    /// hits an unknown-group lookup.
    pub fn digest(view: &MarketView) -> Self {
        let entries = view
            .estimators()
            .map(|(id, est)| {
                let max_bid = est.max_price();
                if !(max_bid.is_finite() && max_bid > 0.0) {
                    return (id, [0.0; 5]);
                }
                // Probe at half the historical maximum: the middle of the
                // log₂ grid, where failure rates move fastest when the
                // price distribution drifts.
                let probe = max_bid * 0.5;
                let table = est.failure_table(probe);
                let prices = est.expected_spot_price();
                (
                    id,
                    [
                        prices.min_price(),
                        prices.mean_below(f64::INFINITY).unwrap_or(0.0),
                        max_bid,
                        table.launch_delay(),
                        table.to_fn(FINGERPRINT_PROBE_HORIZON).survival(),
                    ],
                )
            })
            .collect();
        Self { entries }
    }

    /// Stable 64-bit digest of the fingerprint (FNV-1a over group ids
    /// and the raw bits of every component). Two views built from the
    /// same market coordinates digest identically, which is what lets a
    /// multi-tenant cache key exact-duplicate requests without holding
    /// the full fingerprint; it deliberately ignores the tolerance used
    /// by [`ViewFingerprint::matches`] — near-identical views get
    /// different keys and simply miss.
    pub fn digest_u64(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for (id, components) in &self.entries {
            eat(id.to_string().as_bytes());
            for c in components {
                eat(&c.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// Whether every component matches within the relative tolerance
    /// `|a − b| ≤ tol · max(|a|, |b|, 1e-9)`. Group sets must be
    /// identical.
    pub fn matches(&self, other: &Self, tolerance: f64) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|((ia, a), (ib, b))| {
                    ia == ib
                        && a.iter().zip(b).all(|(x, y)| {
                            (x - y).abs() <= tolerance * x.abs().max(y.abs()).max(1e-9)
                        })
                })
    }
}

/// One-entry cache for [`AdaptivePlanner::plan_window`]: the last
/// *hybrid* window decision, keyed by the [`ViewFingerprint`] it was
/// planned under and the residual fraction it was planned for. The cached
/// plan is rescaled from its original fraction on every recall, so
/// repeated reuse does not compound scaling drift.
#[derive(Debug, Clone)]
pub struct PlanCache {
    tolerance: f64,
    entry: Option<CacheEntry>,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    fingerprint: ViewFingerprint,
    plan: Plan,
    /// Residual work fraction the cached plan was optimized for.
    made_for: f64,
}

impl PlanCache {
    /// Relative fingerprint tolerance used by the adaptive runner: 2%
    /// drift in any digest component forces a real re-optimization.
    pub const DEFAULT_TOLERANCE: f64 = 0.02;

    /// Create an empty cache with the given relative tolerance.
    pub fn new(tolerance: f64) -> Self {
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        Self {
            tolerance,
            entry: None,
        }
    }

    /// The cached plan rescaled to `remaining_fraction`, if the
    /// fingerprint matches within tolerance. Feasibility is the caller's
    /// check — the cache only answers "has the market moved?".
    fn recall(&self, fingerprint: &ViewFingerprint, remaining_fraction: f64) -> Option<Plan> {
        let e = self.entry.as_ref()?;
        if !e.fingerprint.matches(fingerprint, self.tolerance) {
            return None;
        }
        self.recall_latest(remaining_fraction)
    }

    /// The cached plan rescaled to `remaining_fraction` regardless of
    /// fingerprint — the feed-gap degradation path, where no trustworthy
    /// fresh fingerprint exists (see [`AdaptivePlanner::plan_window`]).
    ///
    /// Degenerate ratios answer `None` instead of producing a zero- or
    /// NaN-scaled plan: both fractions must be finite and positive.
    /// (`made_for = +∞` used to slip through a bare `> 0.0` check and
    /// rescale the plan by 0, which `Plan::scaled` rejects by panicking.)
    fn recall_latest(&self, remaining_fraction: f64) -> Option<Plan> {
        let e = self.entry.as_ref()?;
        if !(remaining_fraction.is_finite()
            && remaining_fraction > 0.0
            && e.made_for.is_finite()
            && e.made_for > 0.0)
        {
            return None;
        }
        let ratio = (remaining_fraction / e.made_for).min(1.0);
        Some(e.plan.scaled(ratio))
    }

    /// Remember a freshly planned decision. Only hybrid plans are worth
    /// caching; a finish-on-demand decision clears the cache (subsequent
    /// windows run on demand and never consult it). A non-finite or
    /// non-positive `made_for` cannot be rescaled from later, so the
    /// entry is dropped rather than stored poisoned.
    fn store(&mut self, fingerprint: ViewFingerprint, decision: &WindowDecision, made_for: f64) {
        if !(made_for.is_finite() && made_for > 0.0) {
            self.entry = None;
            return;
        }
        match decision {
            WindowDecision::Hybrid(plan) => {
                self.entry = Some(CacheEntry {
                    fingerprint,
                    plan: plan.clone(),
                    made_for,
                });
            }
            WindowDecision::FinishOnDemand(_) => self.entry = None,
        }
    }

    /// Drop the cached entry (e.g. after realized progress diverges from
    /// the plan — a group failure invalidates the incumbent regardless of
    /// what prices did).
    pub fn clear(&mut self) {
        self.entry = None;
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_TOLERANCE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
    use ec2_market::market::SpotMarket;
    use ec2_market::tracegen::{MarketProfile, TraceGenerator};
    use mpi_sim::npb::{NpbClass, NpbKernel};
    use mpi_sim::storage::S3Store;

    fn setup() -> (SpotMarket, Problem) {
        let cat = InstanceCatalog::paper_2014();
        let prof = MarketProfile::paper_2014(&cat);
        let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 31), 300.0, 1.0 / 12.0);
        let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
        let types: Vec<InstanceTypeId> = ["m1.small", "m1.medium", "c3.xlarge", "cc2.8xlarge"]
            .iter()
            .map(|n| market.catalog().by_name(n).unwrap())
            .collect();
        let problem = Problem::build(&market, &profile, 4.0, Some(&types), S3Store::paper_2014());
        (market, problem)
    }

    fn planner() -> AdaptivePlanner {
        AdaptivePlanner::new(AdaptiveConfig {
            window_hours: 1.0,
            history_hours: 48.0,
            optimizer: OptimizerConfig {
                kappa: 2,
                bid_levels: 3,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    /// Plan with an all-no-op context.
    fn plan(
        p: &AdaptivePlanner,
        problem: &Problem,
        frac: f64,
        t: f64,
        v: &MarketView,
    ) -> WindowDecision {
        p.plan_window(problem, frac, t, v, &mut PlanContext::new())
            .unwrap()
            .decision
    }

    #[test]
    fn plenty_of_time_stays_hybrid() {
        let (market, problem) = setup();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        let d = plan(&planner(), &problem, 1.0, 0.0, &view);
        assert!(matches!(d, WindowDecision::Hybrid(_)));
        assert!(!d.plan().groups.is_empty());
    }

    #[test]
    fn exhausted_deadline_finishes_on_demand() {
        let (market, problem) = setup();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        // 95% of the deadline gone, whole app remaining.
        let d = plan(&planner(), &problem, 1.0, problem.deadline * 0.95, &view);
        assert!(matches!(d, WindowDecision::FinishOnDemand(_)));
        assert!(d.plan().groups.is_empty());
    }

    #[test]
    fn residual_shrinks_with_progress() {
        let (market, problem) = setup();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        let d = plan(&planner(), &problem, 0.25, 0.5, &view);
        // With 25% of the work left, the chosen groups' exec times must be
        // a quarter of the originals.
        if let WindowDecision::Hybrid(plan) = d {
            for (g, _) in &plan.groups {
                let orig = problem.candidate(g.id).unwrap();
                assert!((g.exec_hours - orig.exec_hours * 0.25).abs() < 1e-9);
            }
        } else {
            panic!("expected hybrid decision");
        }
    }

    #[test]
    fn fingerprint_matches_itself_and_tracks_market_drift() {
        let (market, _) = setup();
        let early = MarketView::from_market(&market, 0.0, 48.0);
        let late = MarketView::from_market(&market, 200.0, 48.0);
        let fp_early = ViewFingerprint::digest(&early);
        let fp_early_again = ViewFingerprint::digest(&early);
        assert!(fp_early.matches(&fp_early_again, 0.0), "digest not stable");
        // 200 h apart on a generated market, at least one group's price
        // statistics must have moved beyond 2%.
        let fp_late = ViewFingerprint::digest(&late);
        assert!(
            !fp_early.matches(&fp_late, PlanCache::DEFAULT_TOLERANCE),
            "distant windows should not fingerprint-match"
        );
    }

    #[test]
    fn fingerprint_digest_is_stable_and_view_sensitive() {
        let (market, _) = setup();
        let early = MarketView::from_market(&market, 0.0, 48.0);
        let late = MarketView::from_market(&market, 200.0, 48.0);
        let a = ViewFingerprint::digest(&early).digest_u64();
        let b = ViewFingerprint::digest(&early).digest_u64();
        let c = ViewFingerprint::digest(&late).digest_u64();
        assert_eq!(a, b, "same view must digest to the same key");
        assert_ne!(a, c, "distant views must not collide on the key");
    }

    #[test]
    fn cached_window_reuses_only_when_view_is_static() {
        let (market, problem) = setup();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        let p = planner();
        let mut cache = PlanCache::default();
        let w1 = p
            .plan_window(
                &problem,
                1.0,
                0.0,
                &view,
                &mut PlanContext::new().with_cache(&mut cache),
            )
            .unwrap();
        assert!(!w1.fingerprint_hit, "cold cache cannot hit");
        assert!(matches!(w1.decision, WindowDecision::Hybrid(_)));

        // Same view, slightly less work left: must hit, and the reused
        // plan must be the incumbent rescaled — not a fresh search.
        let w2 = p
            .plan_window(
                &problem,
                0.8,
                0.1,
                &view,
                &mut PlanContext::new().with_cache(&mut cache).with_window(1),
            )
            .unwrap();
        assert!(w2.fingerprint_hit, "static view should fingerprint-hit");
        assert!(w2.reused_from_cache);
        let (p1, p2) = (w1.decision.plan(), w2.decision.plan());
        assert_eq!(p1.groups.len(), p2.groups.len());
        for ((g1, dec1), (g2, dec2)) in p1.groups.iter().zip(&p2.groups) {
            assert_eq!(g1.id, g2.id);
            assert_eq!(dec1.bid, dec2.bid);
            assert!((g2.exec_hours - g1.exec_hours * 0.8).abs() < 1e-9);
        }

        // A distant history window must miss and re-plan.
        let late = MarketView::from_market(&market, 200.0, 48.0);
        let w3 = p
            .plan_window(
                &problem,
                0.6,
                0.2,
                &late,
                &mut PlanContext::new().with_cache(&mut cache).with_window(2),
            )
            .unwrap();
        assert!(
            !w3.fingerprint_hit,
            "shifted market must force a re-optimization"
        );
    }

    #[test]
    fn cached_window_still_bails_out_on_hopeless_deadlines() {
        // A fingerprint hit must not override Algorithm 1 line 7: with
        // the deadline nearly exhausted the decision has to flip to
        // finish-on-demand even though the market never moved.
        let (market, problem) = setup();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        let p = planner();
        let mut cache = PlanCache::default();
        let w1 = p
            .plan_window(
                &problem,
                1.0,
                0.0,
                &view,
                &mut PlanContext::new().with_cache(&mut cache),
            )
            .unwrap();
        assert!(!w1.fingerprint_hit);
        let w = p
            .plan_window(
                &problem,
                1.0,
                problem.deadline * 0.95,
                &view,
                &mut PlanContext::new().with_cache(&mut cache).with_window(1),
            )
            .unwrap();
        assert!(!w.fingerprint_hit, "hopeless deadline must not reuse");
        assert!(matches!(w.decision, WindowDecision::FinishOnDemand(_)));
    }

    #[test]
    fn later_views_change_plans_when_market_shifts() {
        // Re-planning with a different history window is the whole point of
        // update maintenance; verify the planner actually consumes the view.
        let (market, problem) = setup();
        let early = MarketView::from_market(&market, 0.0, 48.0);
        let late = MarketView::from_market(&market, 200.0, 48.0);
        let p = planner();
        let d1 = plan(&p, &problem, 1.0, 0.0, &early);
        let d2 = plan(&p, &problem, 1.0, 0.0, &late);
        // Plans may coincide on calm markets; at minimum both must be
        // valid hybrid decisions with launchable bids.
        for d in [&d1, &d2] {
            for (g, dec) in &d.plan().groups {
                assert!(dec.bid > 0.0, "group {} has nonpositive bid", g.id);
            }
        }
    }

    #[test]
    fn invalid_fraction_is_an_error_not_a_panic() {
        let (market, problem) = setup();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        let err = planner()
            .plan_window(&problem, 0.0, 0.0, &view, &mut PlanContext::new())
            .unwrap_err();
        assert!(matches!(err, SompiError::InvalidFraction { .. }));
        let err = planner()
            .plan_window(&problem, 1.5, 0.0, &view, &mut PlanContext::new())
            .unwrap_err();
        assert!(matches!(err, SompiError::InvalidFraction { .. }));
    }

    #[test]
    fn feed_gap_falls_back_to_cached_plan_without_fingerprint() {
        use ec2_market::fault::FaultPlan;
        let (market, problem) = setup();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        // The market moved enough that a fingerprint would miss...
        let late = MarketView::from_market(&market, 200.0, 48.0);
        let p = planner();
        let injector = FaultInjector::new(
            FaultPlan {
                seed: 5,
                feed_gap_prob: 1.0,
                ..FaultPlan::quiet()
            },
            market.horizon(),
        );
        let mut cache = PlanCache::default();
        let w1 = p
            .plan_window(
                &problem,
                1.0,
                0.0,
                &view,
                &mut PlanContext::new().with_cache(&mut cache),
            )
            .unwrap();
        assert!(matches!(w1.decision, WindowDecision::Hybrid(_)));
        // ...yet with the feed gapped the planner reuses the last valid
        // plan instead of re-optimizing against suspect data.
        let w2 = p
            .plan_window(
                &problem,
                0.8,
                0.2,
                &late,
                &mut PlanContext::new()
                    .with_cache(&mut cache)
                    .with_faults(&injector)
                    .with_window(1),
            )
            .unwrap();
        assert!(w2.reused_from_cache, "feed gap should reuse the last plan");
        assert!(!w2.fingerprint_hit, "gap reuse is not a fingerprint hit");
        for ((g1, d1), (g2, d2)) in w1
            .decision
            .plan()
            .groups
            .iter()
            .zip(&w2.decision.plan().groups)
        {
            assert_eq!(g1.id, g2.id);
            assert_eq!(d1.bid, d2.bid);
        }
        // Without a cached plan a gapped window still plans best-effort
        // from the (possibly stale) view — never a panic.
        let mut cold = PlanCache::default();
        let w3 = p
            .plan_window(
                &problem,
                1.0,
                0.0,
                &late,
                &mut PlanContext::new()
                    .with_cache(&mut cold)
                    .with_faults(&injector),
            )
            .unwrap();
        assert!(!w3.reused_from_cache);
    }

    #[test]
    fn builder_overrides_only_what_is_asked() {
        let cfg = AdaptiveConfig::builder()
            .window_hours(5.0)
            .optimizer(OptimizerConfig {
                kappa: 3,
                ..Default::default()
            })
            .build();
        assert_eq!(cfg.window_hours, 5.0);
        assert_eq!(cfg.history_hours, AdaptiveConfig::default().history_hours);
        assert_eq!(cfg.optimizer.kappa, 3);
        assert!(cfg.bucket_reuse, "table reuse defaults on");
        let cfg = AdaptiveConfig::builder().bucket_reuse(false).build();
        assert!(!cfg.bucket_reuse);
    }

    #[test]
    fn adaptive_config_deserializes_without_warm_fields() {
        // Configs serialized before the warm-start layers existed must
        // keep loading, with both layers defaulting on.
        let optimizer = serde_json::to_string(&OptimizerConfig::default()).unwrap();
        let json =
            format!(r#"{{"window_hours": 10.0, "history_hours": 24.0, "optimizer": {optimizer}}}"#);
        let cfg: AdaptiveConfig =
            serde_json::from_str(&json).expect("pre-warmstart config should deserialize");
        assert_eq!(cfg.window_hours, 10.0);
        assert!(cfg.warmstart && cfg.bucket_reuse);
    }

    #[test]
    fn cache_refuses_degenerate_rescale_ratios() {
        // Regression: a cached `made_for = +∞` passed the old bare
        // `> 0.0` guard and rescaled the plan by 0, which panics inside
        // `Plan::scaled`; NaN and non-positive fractions were similarly
        // unguarded on the recall side.
        let (market, problem) = setup();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        let fp = ViewFingerprint::digest(&view);
        let decision = plan(&planner(), &problem, 1.0, 0.0, &view);
        assert!(matches!(decision, WindowDecision::Hybrid(_)));

        for bad in [f64::INFINITY, f64::NAN, 0.0, -0.5] {
            let mut cache = PlanCache::default();
            cache.store(fp.clone(), &decision, bad);
            assert!(
                cache.recall_latest(0.5).is_none(),
                "made_for = {bad} must not be stored as recallable"
            );
        }

        let mut cache = PlanCache::default();
        cache.store(fp.clone(), &decision, 0.8);
        for bad in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            assert!(
                cache.recall_latest(bad).is_none(),
                "remaining_fraction = {bad} must not rescale"
            );
        }
        // Sane ratios still recall, clamped to the stored plan's size.
        let recalled = cache.recall_latest(0.4).expect("healthy ratio recalls");
        assert!(!recalled.groups.is_empty());
        assert!(cache.recall_latest(0.9).is_some(), "ratio clamps at 1.0");
    }

    #[test]
    fn warm_context_does_not_change_window_decisions() {
        // The warm-start layers are exactness-preserving: a window planned
        // with carried state must produce the same decision as a cold one.
        let (market, problem) = setup();
        let p = planner();
        let mut warm = WarmStart::new();
        for (window, (frac, elapsed, start)) in
            [(1.0, 0.0, 0.0), (0.7, 0.8, 15.0), (0.4, 1.6, 30.0)]
                .into_iter()
                .enumerate()
        {
            let view = MarketView::from_market(&market, start, 48.0);
            let cold = p
                .plan_window(&problem, frac, elapsed, &view, &mut PlanContext::new())
                .unwrap();
            let warmed = p
                .plan_window(
                    &problem,
                    frac,
                    elapsed,
                    &view,
                    &mut PlanContext::new()
                        .with_warm(&mut warm)
                        .with_window(window as u32),
                )
                .unwrap();
            assert_eq!(
                cold.decision, warmed.decision,
                "window {window}: warm context changed the decision"
            );
        }
        assert!(warm.cached_groups() > 0, "bucket tables should be cached");
    }

    #[test]
    fn config_toggles_override_the_carried_state() {
        // `--no-bucket-reuse` must win even when the caller supplies a
        // fully enabled WarmStart.
        let (market, problem) = setup();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        let mut cfg = planner().config;
        cfg.bucket_reuse = false;
        let p = AdaptivePlanner::new(cfg);
        let mut warm = WarmStart::new();
        let planned = p
            .plan_window(
                &problem,
                1.0,
                0.0,
                &view,
                &mut PlanContext::new().with_warm(&mut warm),
            )
            .unwrap();
        assert!(matches!(planned.decision, WindowDecision::Hybrid(_)));
        assert!(!warm.table_reuse());
        assert_eq!(warm.cached_groups(), 0, "disabled reuse must not cache");
    }
}
