//! The policy arena: one [`Policy`] trait over planning *and* per-window
//! execution decisions, plus rival strategies from the wider
//! spot-market-HPC literature.
//!
//! The paper evaluates SOMPI against a fixed set of baselines that only
//! map `(problem, view) → plan`. Real rivals differ in *both* halves of
//! the loop: what they plan, and how they react at window boundaries and
//! out-of-bid kills. [`Policy`] owns both:
//!
//! * [`Policy::plan`] — the single context-taking planning entry point
//!   (the recorder / warm-start / search-pool plumbing rides in the
//!   [`PlanContext`], exactly like `AdaptivePlanner::plan_window`);
//! * [`Policy::on_window`] / [`Policy::on_kill`] — the adaptive loop's
//!   per-window hooks, with defaults that reproduce `AdaptiveRunner`'s
//!   historical behavior bit-for-bit.
//!
//! Rival policies implemented here (sources in PAPERS.md):
//!
//! | Name             | Source | Idea |
//! |------------------|--------|------|
//! | [`NoFt`]         | Alourani & Kshemkalyani | no fault-tolerance provisioning at all |
//! | [`CheckpointOnly`] | Spot-on style | single group + Young/Daly checkpoints, no replication |
//! | [`AppCentric`]   | Khatua & Mukherjee | lowest bid whose survival meets an availability target |
//! | [`DeadlineHedge`] | Teylo et al. | full optimizer against a tightened deadline |
//!
//! The evaluation baselines (`On-demand`, `Marathe`, `Spot-Inf`, …) live
//! in [`crate::baselines`] and implement the same trait. See
//! `docs/POLICIES.md` for the trait contract and how to add a policy.

use crate::adaptive::PlanContext;
use crate::cost::{evaluate_plan, Evaluation};
use crate::error::SompiError;
use crate::logsearch::BidGrid;
use crate::model::{CircleGroup, GroupDecision, Plan};
use crate::ondemand::{select_on_demand, DEFAULT_SLACK};
use crate::phi::{interval_from_table, optimal_interval, phi_horizon};
use crate::problem::Problem;
use crate::twolevel::{OptimizerConfig, TwoLevelOptimizer};
use crate::view::MarketView;
use crate::{Hours, Usd};

/// What the adaptive loop observed over one executed window; input to
/// [`Policy::on_window`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowObservation {
    /// 0-based index of the window that just executed.
    pub window: u32,
    /// Wall hours consumed when the window started.
    pub elapsed_hours: Hours,
    /// Residual work fraction *before* the window ran, in `(0, 1]`.
    pub remaining_fraction: f64,
    /// Spot groups killed out-of-bid during the window.
    pub groups_failed: u32,
    /// Fraction of the residual plan durably saved (checkpointed) by the
    /// window; `<= 0` means no progress survived.
    pub saved_fraction: f64,
}

/// What a policy wants the adaptive loop to do after a window; output of
/// [`Policy::on_window`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowReaction {
    /// Re-optimize at the next window boundary instead of carrying the
    /// current plan forward (plan continuity).
    pub replan: bool,
}

/// An out-of-bid kill the adaptive loop observed; input to
/// [`Policy::on_kill`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KillObservation {
    /// 0-based index of the window in which the kill happened.
    pub window: u32,
    /// Trace hours at the start of the killing window.
    pub at_hours: Hours,
    /// Spot groups killed during the window (≥ 1).
    pub groups_failed: u32,
}

/// How a policy reacts to an out-of-bid kill; output of
/// [`Policy::on_kill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillReaction {
    /// Drop the fingerprint plan cache: the realized market just diverged
    /// from what the fingerprint digested.
    pub clear_plan_cache: bool,
}

/// A planning-and-execution policy: the one strategy abstraction behind
/// the baselines, the rival policies, the service layer, and the
/// tournament harness.
///
/// Implementors provide [`Policy::plan`]; the hooks and the evaluation
/// convenience have defaults that reproduce the historical
/// `AdaptiveRunner` behavior bit-for-bit, so a plain planning strategy
/// stays a one-method impl.
pub trait Policy: Send + Sync {
    /// Display name used in experiment tables and reports.
    fn name(&self) -> &'static str;

    /// Produce the plan this policy would execute for `problem` against
    /// the market history exposed by `view`.
    ///
    /// Everything optional rides in `ctx` (see [`PlanContext`]): the
    /// trace recorder, warm-start state carried across adaptive windows,
    /// and the persistent search pool. Policies without a search simply
    /// ignore what they do not use; `&mut PlanContext::new()` is the
    /// all-no-op context. Plans must be deterministic functions of
    /// `(problem, view)` — the context only changes *how* the search
    /// runs, never its result.
    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError>;

    /// Decide whether the adaptive loop should re-optimize after an
    /// executed window. The default reproduces `AdaptiveRunner`'s
    /// historical rule exactly: re-plan when the window went badly —
    /// someone was killed out-of-bid, or no durable progress was made.
    fn on_window(&self, obs: &WindowObservation) -> WindowReaction {
        WindowReaction {
            replan: obs.groups_failed > 0 || obs.saved_fraction <= 1e-9,
        }
    }

    /// React to an out-of-bid kill. The default reproduces
    /// `AdaptiveRunner`'s historical rule exactly: invalidate the
    /// fingerprint plan cache.
    fn on_kill(&self, _obs: &KillObservation) -> KillReaction {
        KillReaction {
            clear_plan_cache: true,
        }
    }

    /// Convenience: plan with an all-no-op context and evaluate under
    /// the cost model. Errors instead of panicking when the problem has
    /// no on-demand option ([`SompiError::NoOnDemandOption`]) or the
    /// plan cannot launch under the view
    /// ([`SompiError::UnlaunchablePlan`]).
    fn plan_and_evaluate(
        &self,
        problem: &Problem,
        view: &MarketView,
    ) -> Result<(Plan, Evaluation), SompiError> {
        let plan = self.plan(problem, view, &mut PlanContext::new())?;
        let eval = evaluate_plan(&plan, view)?.ok_or(SompiError::UnlaunchablePlan)?;
        Ok((plan, eval))
    }
}

/// The canonical policy names [`policy_by_name`] accepts, in report
/// order: the paper's baselines and ablations first, then the rival
/// policies from the literature.
pub const POLICY_NAMES: &[&str] = &[
    "sompi",
    "on-demand",
    "marathe",
    "marathe-opt",
    "spot-inf",
    "spot-avg",
    "no-rp",
    "no-ck",
    "all-unable",
    "no-ft",
    "ckpt-only",
    "app-centric",
    "deadline-hedge",
];

/// Look a policy up by its CLI/wire name (case-insensitive; `ondemand`
/// is accepted as an alias of `on-demand`). `config` parameterizes the
/// optimizer-backed policies and is ignored by the closed-form ones.
/// Errors with [`SompiError::InvalidConfig`] naming the known policies
/// on an unknown name.
pub fn policy_by_name(name: &str, config: OptimizerConfig) -> Result<Box<dyn Policy>, SompiError> {
    use crate::baselines::{
        AllUnable, Marathe, MaratheOpt, OnDemandOnly, Sompi, SompiNoCheckpoint, SompiNoReplication,
        SpotAvg, SpotInf,
    };
    Ok(match name.to_lowercase().as_str() {
        "sompi" => Box::new(Sompi { config }),
        "on-demand" | "ondemand" => Box::new(OnDemandOnly),
        "marathe" => Box::new(Marathe),
        "marathe-opt" => Box::new(MaratheOpt),
        "spot-inf" => Box::new(SpotInf),
        "spot-avg" => Box::new(SpotAvg),
        "no-rp" => Box::new(SompiNoReplication { config }),
        "no-ck" => Box::new(SompiNoCheckpoint { config }),
        "all-unable" => Box::new(AllUnable { config }),
        "no-ft" | "noft" => Box::new(NoFt),
        "ckpt-only" | "checkpoint-only" => Box::new(CheckpointOnly),
        "app-centric" | "appcentric" => Box::new(AppCentric::default()),
        "deadline-hedge" => Box::new(DeadlineHedge {
            config,
            ..DeadlineHedge::default()
        }),
        other => {
            return Err(SompiError::InvalidConfig {
                message: format!(
                    "unknown strategy {other:?} (one of: {})",
                    POLICY_NAMES.join(", ")
                ),
            })
        }
    })
}

/// The on-demand unit price of a candidate group's instance type, when
/// the problem offers that type on demand.
fn on_demand_price_of(problem: &Problem, group: &CircleGroup) -> Option<Usd> {
    problem
        .on_demand
        .iter()
        .find(|o| o.instance_type == group.id.instance_type)
        .map(|o| o.unit_price)
}

/// Shared single-group selector for the rival policies: offer each
/// candidate group one `GroupDecision` (or skip it), evaluate the
/// one-group plan under the cost model, and keep the cheapest —
/// deadline-feasible plans strictly preferred. Falls back to the pure
/// on-demand plan when no group yields a launchable option.
fn best_single_group<F>(
    problem: &Problem,
    view: &MarketView,
    mut option_for: F,
) -> Result<Plan, SompiError>
where
    F: FnMut(&CircleGroup) -> Result<Option<GroupDecision>, SompiError>,
{
    problem.try_baseline()?;
    let od = select_on_demand(&problem.on_demand, problem.deadline, DEFAULT_SLACK);
    let mut best: Option<(Plan, Evaluation)> = None;
    for c in &problem.candidates {
        let Some(decision) = option_for(c)? else {
            continue;
        };
        let plan = Plan {
            groups: vec![(*c, decision)],
            on_demand: od,
        };
        let Some(eval) = evaluate_plan(&plan, view)? else {
            continue;
        };
        let feasible = eval.meets(problem.deadline);
        let better = match &best {
            None => true,
            Some((_, b)) => {
                let b_feasible = b.meets(problem.deadline);
                match (feasible, b_feasible) {
                    (true, false) => true,
                    (false, true) => false,
                    _ => eval.expected_cost < b.expected_cost,
                }
            }
        };
        if better {
            best = Some((plan, eval));
        }
    }
    Ok(best
        .map(|(p, _)| p)
        .unwrap_or_else(|| Plan::on_demand_only(od)))
}

/// No fault-tolerance provisioning (Alourani & Kshemkalyani): one spot
/// group, bid at its type's on-demand price, **no checkpointing and no
/// replication** — a kill means restarting from scratch. The execution
/// hooks match: the loop never re-plans and never invalidates carried
/// state, because the policy has no adaptation story at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFt;

impl Policy for NoFt {
    fn name(&self) -> &'static str {
        "No-FT"
    }

    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        _ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError> {
        best_single_group(problem, view, |c| {
            Ok(on_demand_price_of(problem, c).map(|bid| GroupDecision {
                bid,
                // F = T_i disables checkpointing by convention.
                ckpt_interval: c.exec_hours,
            }))
        })
    }

    fn on_window(&self, _obs: &WindowObservation) -> WindowReaction {
        WindowReaction { replan: false }
    }

    fn on_kill(&self, _obs: &KillObservation) -> KillReaction {
        KillReaction {
            clear_plan_cache: false,
        }
    }
}

/// Checkpointing framework without replication (Spot-on style): one spot
/// group, bid at its type's on-demand price, Young/Daly checkpoint
/// interval from the group's failure behavior at that bid. Default
/// execution hooks (re-plan on kills and stalls).
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointOnly;

impl Policy for CheckpointOnly {
    fn name(&self) -> &'static str {
        "Ckpt-Only"
    }

    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        _ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError> {
        best_single_group(problem, view, |c| {
            let Some(bid) = on_demand_price_of(problem, c) else {
                return Ok(None);
            };
            Ok(Some(GroupDecision {
                bid,
                ckpt_interval: optimal_interval(c, bid, view)?,
            }))
        })
    }
}

/// Application-centric bidding (Khatua & Mukherjee): per group, take the
/// *lowest* bid on the logarithmic grid whose survival probability over
/// the application's own duration meets the availability target, then
/// keep the cheapest feasible group. Checkpoints at the Young/Daly
/// interval for the chosen bid.
#[derive(Debug, Clone, Copy)]
pub struct AppCentric {
    /// Required probability of surviving the application's duration at
    /// the chosen bid (the paper's availability SLO; 0.9 by default).
    pub availability: f64,
    /// Bid-grid resolution used for the per-group bid scan.
    pub bid_levels: u32,
}

impl Default for AppCentric {
    fn default() -> Self {
        Self {
            availability: 0.9,
            bid_levels: 12,
        }
    }
}

impl Policy for AppCentric {
    fn name(&self) -> &'static str {
        "App-Centric"
    }

    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        _ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError> {
        best_single_group(problem, view, |c| {
            let est = view.try_estimator(c.id)?;
            let max_bid = est.max_price();
            if !(max_bid.is_finite() && max_bid > 0.0) {
                return Ok(None);
            }
            let grid = BidGrid::logarithmic(max_bid, self.bid_levels);
            let horizon = phi_horizon(c);
            // Grid bids are highest-first; scan from the lowest up and
            // take the first meeting the availability target. Its table
            // also gives the checkpoint interval.
            let table = grid
                .bids()
                .iter()
                .rev()
                .map(|&bid| est.failure_table(bid))
                .find(|t| t.to_fn(horizon).survival() >= self.availability);
            Ok(table.map(|t| GroupDecision {
                bid: t.bid(),
                ckpt_interval: interval_from_table(c, &t),
            }))
        })
    }
}

/// Deadline-aware hedging (Teylo et al.): run the full SOMPI optimizer,
/// but against a deadline tightened by `margin` — the plan keeps a
/// reserve against estimation error and spot volatility. The execution
/// hook re-plans at *every* window boundary, trading re-optimization
/// cost for the freshest market knowledge.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineHedge {
    /// Fraction of the deadline held back as reserve (0.1 = plan as if
    /// the deadline were 10% earlier). Must lie in `[0, 1)`.
    pub margin: f64,
    /// Inner optimizer knobs.
    pub config: OptimizerConfig,
}

impl Default for DeadlineHedge {
    fn default() -> Self {
        Self {
            margin: 0.1,
            config: OptimizerConfig::default(),
        }
    }
}

impl Policy for DeadlineHedge {
    fn name(&self) -> &'static str {
        "Deadline-Hedge"
    }

    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError> {
        if !(0.0..1.0).contains(&self.margin) {
            return Err(SompiError::InvalidConfig {
                message: format!("deadline-hedge margin {} outside [0, 1)", self.margin),
            });
        }
        let mut hedged = problem.clone();
        hedged.deadline = problem.deadline * (1.0 - self.margin);
        Ok(TwoLevelOptimizer::new(&hedged, view, self.config)
            .optimize_with(ctx)?
            .plan)
    }

    fn on_window(&self, _obs: &WindowObservation) -> WindowReaction {
        WindowReaction { replan: true }
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

    fn setup() -> (SpotMarket, Problem, MarketView) {
        let cat = InstanceCatalog::paper_2014();
        let prof = MarketProfile::paper_2014(&cat);
        let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 21), 200.0, 1.0 / 12.0);
        let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
        let types: Vec<InstanceTypeId> = ["m1.small", "m1.medium", "c3.xlarge", "cc2.8xlarge"]
            .iter()
            .map(|n| market.catalog().by_name(n).unwrap())
            .collect();
        let problem = Problem::build(&market, &profile, 3.0, Some(&types), S3Store::paper_2014());
        let view = MarketView::from_market(&market, 0.0, 48.0);
        (market, problem, view)
    }

    #[test]
    fn registry_resolves_every_canonical_name() {
        for name in POLICY_NAMES {
            let p = policy_by_name(name, OptimizerConfig::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!p.name().is_empty());
        }
        // Aliases and case-insensitivity.
        assert_eq!(
            policy_by_name("ondemand", OptimizerConfig::default())
                .unwrap()
                .name(),
            "On-demand"
        );
        assert_eq!(
            policy_by_name("SOMPI", OptimizerConfig::default())
                .unwrap()
                .name(),
            "SOMPI"
        );
    }

    #[test]
    fn unknown_policy_is_an_error_naming_the_roster() {
        let Err(err) = policy_by_name("magic", OptimizerConfig::default()) else {
            panic!("unknown name must not resolve");
        };
        let msg = err.to_string();
        assert!(msg.contains("unknown strategy"), "{msg}");
        assert!(msg.contains("deadline-hedge"), "{msg}");
    }

    #[test]
    fn no_ft_has_no_fault_tolerance_and_never_adapts() {
        let (_, p, v) = setup();
        let plan = NoFt.plan(&p, &v, &mut PlanContext::new()).unwrap();
        assert_eq!(plan.replication_degree(), 1, "single group only");
        for (g, d) in &plan.groups {
            assert!(d.ckpt_interval >= g.exec_hours, "checkpointing must be off");
            let od = on_demand_price_of(&p, g).unwrap();
            assert!((d.bid - od).abs() < 1e-12, "bids at the on-demand price");
        }
        // A healthy window, a stalled window, and a kill: never re-plan,
        // never invalidate carried state.
        for (failed, saved) in [(0, 0.5), (0, 0.0), (2, 0.0)] {
            let r = NoFt.on_window(&WindowObservation {
                window: 0,
                elapsed_hours: 0.0,
                remaining_fraction: 1.0,
                groups_failed: failed,
                saved_fraction: saved,
            });
            assert!(!r.replan);
        }
        let k = NoFt.on_kill(&KillObservation {
            window: 1,
            at_hours: 10.0,
            groups_failed: 1,
        });
        assert!(!k.clear_plan_cache);
    }

    #[test]
    fn ckpt_only_checkpoints_one_group_at_the_young_daly_interval() {
        let (_, p, v) = setup();
        let plan = CheckpointOnly
            .plan(&p, &v, &mut PlanContext::new())
            .unwrap();
        assert_eq!(plan.replication_degree(), 1);
        let (g, d) = &plan.groups[0];
        let od = on_demand_price_of(&p, g).unwrap();
        assert!((d.bid - od).abs() < 1e-12);
        assert_eq!(d.ckpt_interval, optimal_interval(g, d.bid, &v).unwrap());
        // Default hooks: a killed window demands a re-plan.
        let r = CheckpointOnly.on_window(&WindowObservation {
            window: 0,
            elapsed_hours: 1.0,
            remaining_fraction: 0.8,
            groups_failed: 1,
            saved_fraction: 0.2,
        });
        assert!(r.replan);
    }

    #[test]
    fn app_centric_takes_the_lowest_bid_meeting_the_availability_target() {
        let (_, p, v) = setup();
        let pol = AppCentric::default();
        let plan = pol.plan(&p, &v, &mut PlanContext::new()).unwrap();
        assert_eq!(plan.replication_degree(), 1);
        let (g, d) = &plan.groups[0];
        let est = v.try_estimator(g.id).unwrap();
        let horizon = phi_horizon(g);
        let survival = est.failure_rate_exact(d.bid, horizon).survival();
        assert!(
            survival >= pol.availability,
            "chosen bid survival {survival} misses the target"
        );
        // No strictly lower grid bid may meet the target.
        let grid = BidGrid::logarithmic(est.max_price(), pol.bid_levels);
        for &bid in grid.bids() {
            if bid < d.bid - 1e-12 {
                assert!(
                    est.failure_rate_exact(bid, horizon).survival() < pol.availability,
                    "bid {bid} also meets the target but is lower than {}",
                    d.bid
                );
            }
        }
    }

    #[test]
    fn deadline_hedge_plans_against_the_tightened_deadline() {
        let (_, p, v) = setup();
        let pol = DeadlineHedge::default();
        let (plan, eval) = pol.plan_and_evaluate(&p, &v).unwrap();
        assert!(!plan.groups.is_empty());
        // The hedged plan must meet the *tightened* deadline in
        // expectation whenever the optimizer found a feasible spot plan.
        assert!(
            eval.expected_time <= p.deadline * (1.0 - pol.margin) + 1e-9,
            "expected time {} exceeds the hedged deadline",
            eval.expected_time
        );
        // Hedging always re-plans.
        let r = pol.on_window(&WindowObservation {
            window: 3,
            elapsed_hours: 2.0,
            remaining_fraction: 0.5,
            groups_failed: 0,
            saved_fraction: 0.4,
        });
        assert!(r.replan);
        let bad = DeadlineHedge {
            margin: 1.5,
            ..DeadlineHedge::default()
        };
        assert!(matches!(
            bad.plan(&p, &v, &mut PlanContext::new()),
            Err(SompiError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn plan_and_evaluate_reports_errors_instead_of_panicking() {
        let (_, p, v) = setup();
        // A problem stripped of on-demand options must error, not abort.
        let mut restricted = p.clone();
        restricted.on_demand.clear();
        assert_eq!(
            NoFt.plan_and_evaluate(&restricted, &v).unwrap_err(),
            SompiError::NoOnDemandOption
        );
    }
}
