//! Windowed Algorithm-1 execution against realized traces.
//!
//! [`AdaptiveRunner`] drives the paper's adaptive loop: at every window
//! boundary that re-plans it rebuilds the market view from the most
//! recent `history_hours` of prices *ending at the current trace time*,
//! asks [`AdaptivePlanner`] for the residual plan, and replays at most
//! `T_m` hours of it. A window that keeps the current plan builds no
//! view. Durable progress (the best checkpoint across circle
//! groups, stored on S3) carries across windows. Setting
//! `update_maintenance = false` reproduces the w/o-MT ablation: the plan
//! computed in the first window is reused verbatim forever.

use crate::exec::{ExecContext, Finisher, PlanRunner, RunOutcome};
use crate::Hours;
use ec2_market::market::SpotMarket;
use serde::{Deserialize, Serialize};
use sompi_core::adaptive::{
    AdaptiveConfig, AdaptivePlanner, PlanCache, PlanContext, WindowDecision,
};
use sompi_core::baselines::Sompi;
use sompi_core::error::SompiError;
use sompi_core::policy::{KillObservation, Policy, WindowObservation};
use sompi_core::problem::Problem;
use sompi_core::view::MarketView;
use sompi_core::warmstart::WarmStart;
use sompi_obs::{emit, Event, Recorder, TraceLevel};
use std::fmt;

/// Outcome of one adaptive execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveOutcome {
    /// The completed-run outcome (cost, wall time, deadline flag).
    pub run: RunOutcome,
    /// Number of optimization windows executed.
    pub windows: u32,
    /// Number of times the plan changed between consecutive windows.
    pub plan_changes: u32,
}

/// Emit the `RunCompleted` event for a finished adaptive run.
fn emit_run_completed(recorder: &dyn Recorder, out: &RunOutcome, windows: u32, plan_changes: u32) {
    emit(recorder, TraceLevel::Summary, || Event::RunCompleted {
        finisher: match out.finisher {
            Finisher::Spot(id) => format!("spot:{id}"),
            Finisher::OnDemand => "on-demand".to_string(),
        },
        total_cost: out.total_cost,
        spot_cost: out.spot_cost,
        od_cost: out.od_cost,
        wall_hours: out.wall_hours,
        met_deadline: out.met_deadline,
        groups_failed: out.groups_failed,
        windows: Some(windows),
        plan_changes: Some(plan_changes),
    });
}

/// Replays the adaptive algorithm against a market.
#[derive(Clone)]
pub struct AdaptiveRunner<'a> {
    market: &'a SpotMarket,
    planner: AdaptivePlanner,
    /// Re-plan each window (true = SOMPI, false = the w/o-MT ablation).
    pub update_maintenance: bool,
    /// The policy driving re-planning and kill/window reactions. `None`
    /// means `Sompi { config: planner.config.optimizer }` — the
    /// historical behavior, bit-for-bit.
    policy: Option<&'a dyn Policy>,
}

impl fmt::Debug for AdaptiveRunner<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdaptiveRunner")
            .field("planner", &self.planner)
            .field("update_maintenance", &self.update_maintenance)
            .field(
                "policy",
                &self.policy.map(|p| p.name()).unwrap_or("<default: SOMPI>"),
            )
            .finish_non_exhaustive()
    }
}

impl<'a> AdaptiveRunner<'a> {
    /// Create a runner.
    pub fn new(market: &'a SpotMarket, config: AdaptiveConfig) -> Self {
        Self {
            market,
            planner: AdaptivePlanner::new(config),
            update_maintenance: true,
            policy: None,
        }
    }

    /// Disable update maintenance (the w/o-MT ablation).
    pub fn without_maintenance(mut self) -> Self {
        self.update_maintenance = false;
        self
    }

    /// Drive the loop with `policy` instead of the default SOMPI
    /// optimizer: its [`Policy::plan`] re-plans each window's residual,
    /// and its [`Policy::on_window`]/[`Policy::on_kill`] hooks decide
    /// when to re-plan and what carried state a kill invalidates. With
    /// `Sompi { config }` this is exactly [`AdaptiveRunner::new`]'s
    /// behavior.
    pub fn with_policy(mut self, policy: &'a dyn Policy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Execute `problem` starting at trace offset `start` (the planner
    /// sees only prices before `start` at the first window), narrating
    /// the windowed loop to the context's recorder: a `WindowReplanned`
    /// per window boundary (with the inner optimizer's search events on
    /// real re-plans, or `reused: true` under plan continuity / w/o-MT),
    /// the replay's `GroupFailed`/`CheckpointTaken` timeline, an
    /// `OnDemandFallback` when the loop abandons spot, and a final
    /// `RunCompleted` carrying the window/plan-change tallies.
    ///
    /// Under a fault injector, market-feed gaps degrade gracefully: a
    /// gapped window re-plans against the last valid market view (the
    /// one from the most recent un-gapped window) instead of fresh
    /// prices, emitting `FaultInjected`/`DegradedMode` — and the planner
    /// itself prefers the cached plan over re-searching a stale view.
    ///
    /// Errors with [`SompiError::InvalidConfig`] when `window_hours` is
    /// not finite and positive: such a window never advances the clock.
    pub fn run(
        &self,
        problem: &Problem,
        start: Hours,
        ctx: &ExecContext<'_>,
    ) -> Result<AdaptiveOutcome, SompiError> {
        let recorder = ctx.recorder;
        let cfg = self.planner.config;
        if !(cfg.window_hours.is_finite() && cfg.window_hours > 0.0) {
            return Err(SompiError::InvalidConfig {
                message: format!(
                    "window hours must be finite and positive, got {}",
                    cfg.window_hours
                ),
            });
        }
        let default_policy = Sompi {
            config: cfg.optimizer,
        };
        let policy: &dyn Policy = self.policy.unwrap_or(&default_policy);
        let runner = PlanRunner::new(self.market, problem.deadline);

        let mut elapsed: Hours = 0.0;
        let mut done_fraction: f64 = 0.0;
        let mut spot_cost = 0.0;
        let mut windows = 0u32;
        let mut plan_changes = 0u32;
        let mut current_plan: Option<sompi_core::model::Plan> = None;
        // Last computed plan together with the residual fraction it was
        // sized for — reused (rescaled) by plan continuity and by the
        // w/o-MT ablation.
        let mut frozen_full: Option<(sompi_core::model::Plan, f64)> = None;
        // Fraction the current full-scale plan was made for (continuity
        // rescaling) and whether the last window demands a re-plan.
        let mut replan_needed = true;
        let mut groups_failed = 0u32;
        // Fingerprint cache for adaptive-window plan reuse: when the
        // market view is (within tolerance) the one a previous window
        // planned against, the planner skips the two-level search and
        // rescales the cached plan instead.
        let mut cache = PlanCache::default();
        // Warm-start state threaded through every real re-optimization:
        // per-(group, bid) bucket tables are reused while a group's
        // history digest is unchanged. Exactness-preserving, so replayed
        // outcomes are bit-identical with it on or off; the config's
        // `bucket_reuse` toggle ablates it.
        let mut warm = WarmStart::new();
        // Coordinates (history start, length) of the last market view
        // built from a healthy feed — what a gapped window falls back to.
        let mut last_view: Option<(Hours, Hours)> = None;

        loop {
            let remaining = 1.0 - done_fraction;
            if remaining <= 1e-9 {
                // Finished on spot.
                let run = RunOutcome {
                    total_cost: spot_cost,
                    spot_cost,
                    od_cost: 0.0,
                    wall_hours: elapsed,
                    finisher: Finisher::Spot(
                        current_plan
                            .as_ref()
                            .and_then(|p| p.groups.first().map(|(g, _)| g.id))
                            .expect("completed on spot implies a spot plan"),
                    ),
                    groups_failed,
                    met_deadline: elapsed <= problem.deadline,
                };
                emit_run_completed(recorder, &run, windows, plan_changes);
                return Ok(AdaptiveOutcome {
                    run,
                    windows,
                    plan_changes,
                });
            }

            let now = start + elapsed;
            let history_start = (now - cfg.history_hours).max(0.0);
            let fresh = (
                history_start,
                (now - history_start).max(cfg.window_hours.min(1.0)),
            );
            // Feed gap: the price feed for this window is missing or
            // stale. Re-plan against the last valid view instead of the
            // gapped one; on the very first window there is nothing older
            // to fall back to and the gapped view is used best-effort.
            // Only the coordinates are chosen here: the view itself is
            // built below, and only if this window re-plans.
            let gap = ctx.faults.is_some_and(|f| f.feed_gap_at(windows));
            let view_coords = if gap {
                emit(recorder, TraceLevel::Summary, || Event::FaultInjected {
                    class: "feed-gap".to_string(),
                    group: None,
                    at_hours: now,
                    detail: windows as f64,
                });
                if let Some(prev) = last_view {
                    emit(recorder, TraceLevel::Summary, || Event::DegradedMode {
                        mode: "stale-market-view".to_string(),
                        group: None,
                        at_hours: now,
                        reason: "feed-gap".to_string(),
                    });
                    prev
                } else {
                    fresh
                }
            } else {
                last_view = Some(fresh);
                fresh
            };

            // Deadline guard (Algorithm 1 line 7, applied on every path
            // including the frozen w/o-MT one — it is deadline
            // enforcement, not update maintenance): switch to on-demand
            // when the deadline "could not be satisfied" any other way —
            // i.e. when even the fastest *spot* completion of the residual
            // no longer fits, and on-demand still (barely) does. While a
            // spot plan can still make the deadline, keep gambling: that
            // is the whole premise of the hybrid execution.
            let leftover = problem.deadline - elapsed;
            let fastest = problem.try_baseline()?;
            let od_needed = fastest.exec_hours * remaining + fastest.recovery_hours;
            let spot_needed = problem
                .candidates
                .iter()
                .map(|c| c.exec_hours * remaining)
                .fold(f64::INFINITY, f64::min);
            if od_needed >= leftover && spot_needed >= leftover {
                let mut od = *fastest;
                od.exec_hours *= remaining;
                let mut hours = od.exec_hours;
                if done_fraction > 0.0 {
                    hours += od.recovery_hours;
                }
                let od_cost = runner
                    .billing()
                    .on_demand_cost(od.unit_price, hours, od.instances);
                emit(recorder, TraceLevel::Summary, || Event::OnDemandFallback {
                    at_hours: start + elapsed,
                    remaining_fraction: remaining,
                    od_hours: hours,
                    od_cost,
                    reason: "deadline-guard".to_string(),
                });
                let wall = elapsed + hours;
                let run = RunOutcome {
                    total_cost: spot_cost + od_cost,
                    spot_cost,
                    od_cost,
                    wall_hours: wall,
                    finisher: Finisher::OnDemand,
                    groups_failed,
                    met_deadline: wall <= problem.deadline,
                };
                emit_run_completed(recorder, &run, windows, plan_changes);
                return Ok(AdaptiveOutcome {
                    run,
                    windows,
                    plan_changes,
                });
            }

            // Plan continuity: a healthy plan (progress made, nobody killed
            // out-of-bid) is kept across window boundaries — re-launching
            // different instances every `T_m` pays launch waits and
            // partial-hour billing for nothing. Update maintenance
            // re-plans at the events where fresh market knowledge matters:
            // failures, stalls, and the initial launch. w/o-MT never
            // re-plans at all.
            let reuse = frozen_full.is_some() && (!self.update_maintenance || !replan_needed);
            let mut fingerprint_hit = false;
            let decision = if reuse {
                let (frozen, made_for) = frozen_full.as_ref().expect("checked");
                let d = WindowDecision::Hybrid(frozen.scaled((remaining / made_for).min(1.0)));
                emit(recorder, TraceLevel::Summary, || Event::WindowReplanned {
                    window: windows,
                    elapsed_hours: elapsed,
                    remaining_fraction: remaining,
                    reused: true,
                    decision: "hybrid".to_string(),
                    groups: d.plan().groups.len() as u32,
                    fingerprint_hit: false,
                });
                d
            } else {
                let (vh, vl) = view_coords;
                let view = MarketView::from_market(self.market, vh, vl);
                let planned = {
                    let mut pctx = PlanContext::new()
                        .with_recorder(recorder)
                        .with_cache(&mut cache)
                        .with_warm(&mut warm)
                        .with_window(windows);
                    if let Some(f) = ctx.faults {
                        pctx = pctx.with_faults(f);
                    }
                    self.planner
                        .plan_window_with(policy, problem, remaining, elapsed, &view, &mut pctx)?
                };
                fingerprint_hit = planned.fingerprint_hit;
                planned.decision
            };

            match decision {
                WindowDecision::FinishOnDemand(plan) => {
                    // Run the residual on demand and stop.
                    let od = &plan.on_demand;
                    let mut hours = od.exec_hours; // already residual-scaled
                    if done_fraction > 0.0 {
                        hours += od.recovery_hours;
                    }
                    let od_cost =
                        runner
                            .billing()
                            .on_demand_cost(od.unit_price, hours, od.instances);
                    emit(recorder, TraceLevel::Summary, || Event::OnDemandFallback {
                        at_hours: start + elapsed,
                        remaining_fraction: remaining,
                        od_hours: hours,
                        od_cost,
                        reason: "replan".to_string(),
                    });
                    let wall = elapsed + hours;
                    let run = RunOutcome {
                        total_cost: spot_cost + od_cost,
                        spot_cost,
                        od_cost,
                        wall_hours: wall,
                        finisher: Finisher::OnDemand,
                        groups_failed,
                        met_deadline: wall <= problem.deadline,
                    };
                    emit_run_completed(recorder, &run, windows, plan_changes);
                    return Ok(AdaptiveOutcome {
                        run,
                        windows,
                        plan_changes,
                    });
                }
                WindowDecision::Hybrid(plan) => {
                    if !reuse {
                        // A fingerprint hit re-issues the cached plan
                        // (rescaled), so it is not a plan *change* even
                        // though the residual hours differ.
                        if self.update_maintenance && !fingerprint_hit {
                            if let Some(prev) = &current_plan {
                                if *prev != plan {
                                    plan_changes += 1;
                                }
                            }
                        }
                        // Remember this plan and what residual it was
                        // sized for, for later continuity rescaling.
                        frozen_full = Some((plan.clone(), remaining));
                    }
                    // Execute one window of the (residual) plan. The plan's
                    // groups carry residual exec_hours already; replay them
                    // fully (fraction 1.0 of the residual problem). The
                    // window never overruns the deadline budget: Algorithm 1
                    // re-evaluates at the deadline at the latest.
                    let win = cfg.window_hours.min((problem.deadline - elapsed).max(0.25));
                    // `reuse` means the same healthy instances keep
                    // running across the boundary: no fresh launch wait.
                    let w = runner.run_window(&plan, now, 1.0, Some(win), reuse, ctx)?;
                    spot_cost += w.spot_cost;
                    groups_failed += w.groups_failed;
                    // An out-of-bid kill is surfaced to the policy; the
                    // default reaction invalidates the cached plan (the
                    // realized market just diverged from what the
                    // fingerprint digested, even if the digest still
                    // matches within tolerance). The bucket tables stay:
                    // they digest the view, not the plan.
                    if w.groups_failed > 0 {
                        let kill = policy.on_kill(&KillObservation {
                            window: windows,
                            at_hours: now,
                            groups_failed: w.groups_failed,
                        });
                        if kill.clear_plan_cache {
                            cache.clear();
                        }
                    }
                    // The policy decides whether to re-plan; the default
                    // re-plans when the window went badly — someone was
                    // killed out-of-bid, or no durable progress was made.
                    replan_needed = policy
                        .on_window(&WindowObservation {
                            window: windows,
                            elapsed_hours: elapsed,
                            remaining_fraction: remaining,
                            groups_failed: w.groups_failed,
                            saved_fraction: w.saved_fraction,
                        })
                        .replan;
                    // saved_fraction is relative to the residual plan.
                    done_fraction += remaining * (w.saved_fraction / 1.0).min(1.0);
                    if w.completed_by.is_some() {
                        done_fraction = 1.0;
                    }
                    // Advance at least a little to guarantee progress even
                    // if nothing launched.
                    elapsed += w.elapsed.max(cfg.window_hours.min(0.25));
                    windows += 1;
                    current_plan = Some(plan);
                }
            }

            // Safety valve: never loop past the trace horizon.
            if start + elapsed >= self.market.horizon() {
                let view_plan = current_plan.clone().expect("looped at least once");
                let residual = (1.0 - done_fraction).max(0.0);
                let od = &view_plan.on_demand;
                let hours = od.exec_hours * residual + od.recovery_hours;
                let od_cost = runner
                    .billing()
                    .on_demand_cost(od.unit_price, hours, od.instances);
                emit(recorder, TraceLevel::Summary, || Event::OnDemandFallback {
                    at_hours: start + elapsed,
                    remaining_fraction: residual,
                    od_hours: hours,
                    od_cost,
                    reason: "trace-horizon".to_string(),
                });
                let wall = elapsed + hours;
                let run = RunOutcome {
                    total_cost: spot_cost + od_cost,
                    spot_cost,
                    od_cost,
                    wall_hours: wall,
                    finisher: Finisher::OnDemand,
                    groups_failed,
                    met_deadline: wall <= problem.deadline,
                };
                emit_run_completed(recorder, &run, windows, plan_changes);
                return Ok(AdaptiveOutcome {
                    run,
                    windows,
                    plan_changes,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
    use ec2_market::tracegen::{MarketProfile, TraceGenerator};
    use mpi_sim::npb::{NpbClass, NpbKernel};
    use mpi_sim::storage::S3Store;
    use sompi_core::twolevel::OptimizerConfig;

    fn setup(seed: u64) -> (SpotMarket, Problem) {
        let cat = InstanceCatalog::paper_2014();
        let prof = MarketProfile::paper_2014(&cat);
        let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, seed), 400.0, 1.0 / 12.0);
        let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
        let types: Vec<InstanceTypeId> = ["m1.small", "m1.medium", "c3.xlarge", "cc2.8xlarge"]
            .iter()
            .map(|n| market.catalog().by_name(n).unwrap())
            .collect();
        let problem = Problem::build(&market, &profile, 3.0, Some(&types), S3Store::paper_2014());
        (market, problem)
    }

    fn config() -> AdaptiveConfig {
        AdaptiveConfig {
            window_hours: 1.0,
            history_hours: 48.0,
            optimizer: OptimizerConfig {
                kappa: 2,
                bid_levels: 3,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn run(r: &AdaptiveRunner<'_>, problem: &Problem, start: Hours) -> AdaptiveOutcome {
        r.run(problem, start, &ExecContext::new()).unwrap()
    }

    #[test]
    fn completes_and_reports_cost() {
        let (market, problem) = setup(41);
        let out = run(&AdaptiveRunner::new(&market, config()), &problem, 60.0);
        assert!(out.run.total_cost > 0.0);
        assert!(out.run.wall_hours > 0.0);
        assert!(out.windows >= 1);
    }

    #[test]
    fn without_maintenance_never_replans() {
        let (market, problem) = setup(43);
        let r = AdaptiveRunner::new(&market, config()).without_maintenance();
        let out = run(&r, &problem, 60.0);
        assert_eq!(out.plan_changes, 0);
    }

    #[test]
    fn deterministic_given_offset() {
        let (market, problem) = setup(47);
        let r = AdaptiveRunner::new(&market, config());
        let a = run(&r, &problem, 72.0);
        let b = run(&r, &problem, 72.0);
        assert_eq!(a, b);
    }

    #[test]
    fn meets_loose_deadline_on_calm_markets() {
        let (market, problem) = setup(53);
        // Sample several offsets; the adaptive runner should usually meet
        // the loose deadline (3 h vs ~1.1 h baseline).
        let r = AdaptiveRunner::new(&market, config());
        let met = (0..5)
            .map(|i| run(&r, &problem, 60.0 + 40.0 * i as f64))
            .filter(|o| o.run.met_deadline)
            .count();
        assert!(met >= 3, "only {met}/5 met the deadline");
    }

    #[test]
    fn non_positive_or_nan_window_is_invalid_config() {
        let (market, problem) = setup(41);
        for window_hours in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let cfg = AdaptiveConfig {
                window_hours,
                ..config()
            };
            let err = AdaptiveRunner::new(&market, cfg)
                .run(&problem, 60.0, &ExecContext::new())
                .unwrap_err();
            assert!(
                matches!(err, SompiError::InvalidConfig { .. }),
                "window {window_hours}: {err}"
            );
        }
    }

    #[test]
    fn warm_start_does_not_change_the_replayed_outcome() {
        // The runner threads warm-start state through every window; the
        // layers are exactness-preserving, so the full replayed outcome
        // (cost, wall hours, window count, plan changes) must be
        // bit-identical to the runner with table reuse ablated off.
        let (market, problem) = setup(47);
        let mut cold_cfg = config();
        cold_cfg.bucket_reuse = false;
        let warm_runner = AdaptiveRunner::new(&market, config());
        let cold_runner = AdaptiveRunner::new(&market, cold_cfg);
        for start in [60.0, 120.0, 200.0] {
            let warm = run(&warm_runner, &problem, start);
            let cold = run(&cold_runner, &problem, start);
            assert_eq!(warm, cold, "offset {start}: warm start changed the run");
        }
    }

    #[test]
    fn permanent_feed_gap_still_completes() {
        use ec2_market::fault::{FaultInjector, FaultPlan};
        let (market, problem) = setup(41);
        let inj = FaultInjector::new(
            FaultPlan {
                seed: 11,
                feed_gap_prob: 1.0,
                ..FaultPlan::quiet()
            },
            market.horizon(),
        );
        let r = AdaptiveRunner::new(&market, config());
        let out = r
            .run(&problem, 60.0, &ExecContext::new().with_faults(&inj))
            .unwrap();
        // Every window gapped: the first plans best-effort on the gapped
        // view, later windows reuse it — the run still finishes and the
        // accounting stays coherent.
        assert!(out.run.total_cost > 0.0);
        assert!(out.run.wall_hours > 0.0);
    }
}
