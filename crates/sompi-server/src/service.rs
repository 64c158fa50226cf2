//! Request execution: the *one* implementation of "plan" and "replay"
//! shared by the CLI subcommands and the server workers.
//!
//! Both front ends translate their inputs (flags or wire messages) into
//! the same [`PlanRequest`] / [`ReplayRequest`] structs and call
//! [`plan`] / [`replay()`] here, so a plan served over the socket is
//! bit-identical to one printed by `sompi plan` against the same
//! market. That exactness invariant is what makes the cross-tenant
//! plan cache sound — and it is enforced by the server test suite.

use crate::proto::{errkind, PlanRequest, ReplayRequest};
use ec2_market::fault::{FaultInjector, FaultPlan, RetryPolicy};
use ec2_market::market::SpotMarket;
use mpi_sim::lammps::Lammps;
use mpi_sim::npb::{NpbClass, NpbKernel};
use mpi_sim::profile::AppProfile;
use mpi_sim::storage::S3Store;
use replay::adaptive_exec::AdaptiveRunner;
use replay::exec::{ExecContext, ExecMode};
use replay::montecarlo::MonteCarlo;
use replay::stats::Summary;
use serde::{Deserialize, Serialize};
use sompi_core::adaptive::{AdaptiveConfig, PlanContext};
use sompi_core::cost::evaluate_plan;
use sompi_core::model::Plan;
use sompi_core::policy::{policy_by_name, Policy};
use sompi_core::pool::SearchPool;
use sompi_core::problem::Problem;
use sompi_core::twolevel::OptimizerConfig;
use sompi_core::view::MarketView;
use sompi_obs::Recorder;

/// Request-level failure. [`ServiceError::kind`] maps each variant to
/// the wire-protocol error vocabulary in [`errkind`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// A request field failed validation (unknown app, zero procs, …).
    InvalidArgument(String),
    /// The optimizer or replay engine reported a domain error.
    Plan(String),
}

impl ServiceError {
    /// The machine-readable error category for [`crate::proto::Response::Error`].
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceError::InvalidArgument(_) => errkind::INVALID_ARGUMENT,
            ServiceError::Plan(_) => errkind::PLAN_FAILED,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::InvalidArgument(m) | ServiceError::Plan(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Build the application profile from request fields (the CLI's
/// `--app`/`--class`/`--procs`/`--repeats`).
pub fn app_profile(
    app: &str,
    class: &str,
    procs: u32,
    repeats: u32,
) -> Result<AppProfile, ServiceError> {
    let app = app.to_uppercase();
    if procs == 0 {
        return Err(ServiceError::InvalidArgument(
            "procs must be positive".into(),
        ));
    }
    if app == "LAMMPS" {
        return Ok(Lammps::paper().profile(procs).repeated(repeats.max(1)));
    }
    let class = match class.to_uppercase().as_str() {
        "S" => NpbClass::S,
        "W" => NpbClass::W,
        "A" => NpbClass::A,
        "B" => NpbClass::B,
        "C" => NpbClass::C,
        other => {
            return Err(ServiceError::InvalidArgument(format!(
                "unknown NPB class {other:?}"
            )))
        }
    };
    let kernel = NpbKernel::FULL_SUITE
        .into_iter()
        .find(|k| k.to_string() == app)
        .ok_or_else(|| {
            ServiceError::InvalidArgument(format!(
                "unknown app {app:?} (expected one of BT SP LU FT IS BTIO CG MG EP LAMMPS)"
            ))
        })?;
    Ok(kernel.profile(class, procs).repeated(repeats.max(1)))
}

/// Reject planning fields outside their domain — the one check both the
/// CLI and the server workers go through before any search starts:
/// `slack` in `[0, 1)`, `deadline_factor` and `history_hours` finite and
/// positive, `view_start_hours` finite and non-negative. NaN fails every
/// check.
pub(crate) fn validate_plan_request(req: &PlanRequest) -> Result<(), ServiceError> {
    if !(0.0..1.0).contains(&req.slack) {
        return Err(ServiceError::InvalidArgument(format!(
            "slack must be in [0, 1), got {}",
            req.slack
        )));
    }
    finite_positive("deadline factor", req.deadline_factor)?;
    finite_positive("history hours", req.history_hours)?;
    if !(req.view_start_hours.is_finite() && req.view_start_hours >= 0.0) {
        return Err(ServiceError::InvalidArgument(format!(
            "view start hours must be finite and non-negative, got {}",
            req.view_start_hours
        )));
    }
    Ok(())
}

/// Reject a size or duration `v` (named `what` in the message) that is
/// not finite and positive. NaN fails.
pub(crate) fn finite_positive(what: &str, v: f64) -> Result<(), ServiceError> {
    if v.is_finite() && v > 0.0 {
        Ok(())
    } else {
        Err(ServiceError::InvalidArgument(format!(
            "{what} must be finite and positive, got {v}"
        )))
    }
}

/// Validate `req` ([`validate_plan_request`]) and build its problem.
fn problem_for(market: &SpotMarket, req: &PlanRequest) -> Result<Problem, ServiceError> {
    validate_plan_request(req)?;
    let app = app_profile(&req.app, &req.class, req.procs, req.repeats)?;
    build_problem(market, &app, req.deadline_factor)
}

/// Build the problem: market + app + deadline factor (a multiple of
/// Baseline Time).
pub fn build_problem(
    market: &SpotMarket,
    app: &AppProfile,
    deadline_factor: f64,
) -> Result<Problem, ServiceError> {
    if deadline_factor <= 0.0 {
        return Err(ServiceError::InvalidArgument(
            "deadline factor must be positive".into(),
        ));
    }
    let mut p = Problem::build(market, app, f64::MAX, None, S3Store::paper_2014());
    p.deadline = p.baseline_time() * deadline_factor;
    Ok(p)
}

/// The inner optimizer's configuration from request knobs.
pub fn optimizer_config(req: &PlanRequest) -> OptimizerConfig {
    OptimizerConfig {
        kappa: req.kappa as usize,
        bid_levels: req.bid_levels,
        slack: req.slack,
        threads: req.threads as usize,
        ..Default::default()
    }
}

/// Pick the planning policy by name. Thin wrapper over the one policy
/// registry in [`sompi_core::policy::policy_by_name`], so the server
/// roster and the CLI/tournament roster can never drift apart.
pub fn strategy_from(name: &str, config: OptimizerConfig) -> Result<Box<dyn Policy>, ServiceError> {
    policy_by_name(name, config).map_err(|e| ServiceError::InvalidArgument(e.to_string()))
}

/// The market view a request plans against.
pub fn view_for(market: &SpotMarket, req: &PlanRequest) -> MarketView {
    MarketView::from_market(market, req.view_start_hours, req.history_hours)
}

/// Cross-tenant plan-cache key: an FNV-1a digest of the request's
/// planning-relevant fields and of its view's coordinates on `market`.
/// Two requests share a key iff they would run the *same search over
/// the same view* — the `tenant` label is cleared before hashing, so
/// identical problems from different tenants coalesce onto one
/// optimization. A valid request's view is fixed by the sample range its
/// window covers in each trace of the one market a server holds, so those
/// ranges stand in for the view's hours: windows that differ by less than
/// a sample share a key, and no view is built to compute it.
pub fn plan_request_key(market: &SpotMarket, req: &PlanRequest) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    let mut canon = req.clone();
    canon.tenant = String::new();
    if validate_plan_request(req).is_ok() {
        canon.view_start_hours = 0.0;
        canon.history_hours = 0.0;
        for trace in market.groups().filter_map(|id| market.trace(id)) {
            let range = trace.window_range(req.view_start_hours, req.history_hours);
            eat(&(range.start as u64).to_le_bytes());
            eat(&(range.end as u64).to_le_bytes());
        }
    }
    eat(serde_json::to_string(&canon)
        .expect("request is serializable")
        .as_bytes());
    h
}

/// The answer to a [`PlanRequest`]: the optimized plan plus its model
/// evaluation, with the problem framing needed to interpret it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanReport {
    /// Application name (e.g. `BT.Bx200`).
    pub app: String,
    /// Absolute deadline, hours.
    pub deadline_hours: f64,
    /// Baseline Time (on-demand, no checkpoints), hours.
    pub baseline_hours: f64,
    /// Baseline cost with hourly billing, USD.
    pub baseline_cost_billed: f64,
    /// Strategy that produced the plan.
    pub strategy: String,
    /// The optimized plan.
    pub plan: Plan,
    /// Model-expected cost, USD.
    pub expected_cost: f64,
    /// Model-expected completion time, hours.
    pub expected_time: f64,
    /// Probability that every replica fails before the deadline.
    pub p_all_fail: f64,
}

/// Optimize one plan. This is the exact code path behind `sompi plan`:
/// same view construction, same policy dispatch, same model
/// evaluation — so server-served plans are bit-identical to CLI plans.
/// Pass a resident [`SearchPool`] to dispatch any parallel search onto
/// long-lived workers (the server threads one pool through every
/// worker); `None` spawns per-search threads. Plans are bit-identical
/// either way.
pub fn plan(
    market: &SpotMarket,
    req: &PlanRequest,
    recorder: &dyn Recorder,
    pool: Option<&SearchPool>,
) -> Result<PlanReport, ServiceError> {
    let problem = problem_for(market, req)?;
    let view = view_for(market, req);
    let strategy = strategy_from(&req.strategy, optimizer_config(req))?;
    let mut ctx = PlanContext::new().with_recorder(recorder);
    if let Some(pool) = pool {
        ctx = ctx.with_pool(pool);
    }
    let plan = strategy
        .plan(&problem, &view, &mut ctx)
        .map_err(|e| ServiceError::Plan(e.to_string()))?;
    let eval = evaluate_plan(&plan, &view)
        .map_err(|e| ServiceError::Plan(e.to_string()))?
        .ok_or_else(|| ServiceError::Plan("plan has an unlaunchable bid".into()))?;
    Ok(PlanReport {
        app: problem.app.clone(),
        deadline_hours: problem.deadline,
        baseline_hours: problem.baseline_time(),
        baseline_cost_billed: problem.baseline_cost_billed(),
        strategy: strategy.name().to_string(),
        plan,
        expected_cost: eval.expected_cost,
        expected_time: eval.expected_time,
        p_all_fail: eval.p_all_fail,
    })
}

/// The answer to a [`ReplayRequest`]: Monte-Carlo statistics plus the
/// plan (fixed-plan replays only; adaptive runs re-plan per window).
/// The `window_hours`/`warmstart`/`bucket_reuse`/`mean_windows`/
/// `mean_plan_changes` fields are `Some` only for adaptive replays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Application name.
    pub app: String,
    /// Strategy (`sompi-adaptive` for adaptive replays).
    pub strategy: String,
    /// Monte-Carlo replica count.
    pub replicas: u32,
    /// Absolute deadline, hours.
    pub deadline_hours: f64,
    /// Baseline cost with hourly billing, USD.
    pub baseline_cost_billed: f64,
    /// Total cost across replicas, USD.
    pub cost: Summary,
    /// Wall-clock time across replicas, hours.
    pub time: Summary,
    /// Fraction of replicas meeting the deadline.
    pub deadline_rate: f64,
    /// Fraction of replicas finished on spot.
    pub spot_finish_rate: f64,
    /// Mean out-of-bid terminations per replica.
    pub mean_failures: f64,
    /// Mean cost as a multiple of the billed baseline.
    pub normalized_cost: f64,
    /// The replayed plan (`None` for adaptive replays).
    pub plan: Option<Plan>,
    /// Re-planning period T_m, hours (adaptive only).
    pub window_hours: Option<f64>,
    /// Echo of the request's `warmstart` key (adaptive only). The key is
    /// ignored: the plan carry-over it switched is gone.
    pub warmstart: Option<bool>,
    /// Whether bucket-table reuse was enabled (adaptive only).
    pub bucket_reuse: Option<bool>,
    /// Mean windows per run (adaptive only).
    pub mean_windows: Option<f64>,
    /// Mean plan changes per run (adaptive only).
    pub mean_plan_changes: Option<f64>,
}

fn injector_from(
    market: &SpotMarket,
    req: &ReplayRequest,
) -> Result<Option<FaultInjector>, ServiceError> {
    let Some(spec) = &req.faults else {
        return Ok(None);
    };
    // FaultPlan::parse errors already name the offending `--faults` term.
    let plan = FaultPlan::parse(spec, req.fault_seed).map_err(ServiceError::InvalidArgument)?;
    Ok(Some(FaultInjector::new(plan, market.horizon())))
}

/// The adaptive runner's configuration from an adaptive request. Rejects
/// a `window_hours` that is not finite and positive: such a window never
/// advances the runner's clock. `warmstart` is passed through unread.
fn adaptive_config(req: &ReplayRequest) -> Result<AdaptiveConfig, ServiceError> {
    finite_positive("window hours", req.window_hours)?;
    Ok(AdaptiveConfig {
        window_hours: req.window_hours,
        history_hours: req.plan.history_hours,
        optimizer: optimizer_config(&req.plan),
        warmstart: req.warmstart,
        bucket_reuse: req.bucket_reuse,
    })
}

fn monte_carlo(market: &SpotMarket, problem: &Problem, req: &ReplayRequest) -> MonteCarlo {
    let history = req.plan.history_hours;
    // Keep replica start offsets far enough from the trace end that a
    // badly delayed run still fits inside the recorded horizon.
    let margin = problem.baseline_time() * 4.0 + 4.0;
    let max = (market.horizon() - margin).max(history + 1.0);
    MonteCarlo::builder()
        .replicas(req.replicas as usize)
        .seed(req.mc_seed)
        .offsets(history, max)
        .build()
}

/// Plan, then Monte-Carlo replay over the market — the exact code path
/// behind `sompi replay` (and `--adaptive`). The recorder receives the
/// planning narration only; use [`traced_replay`] to additionally
/// record one deterministic execution timeline.
pub fn replay(
    market: &SpotMarket,
    req: &ReplayRequest,
    recorder: &dyn Recorder,
) -> Result<ReplayReport, ServiceError> {
    let p = &req.plan;
    let problem = problem_for(market, p)?;
    let injector = injector_from(market, req)?;
    // The batched scenario-major executor only accelerates fixed-plan
    // replays: `MonteCarlo::run_plan` checks the mode. The adaptive
    // runner below drives `run_window` directly and stays scalar.
    let mut ctx = ExecContext::new().with_mode(if req.batch_replay {
        ExecMode::Batched
    } else {
        ExecMode::Scalar
    });
    if let Some(inj) = &injector {
        // Faulted checkpoint I/O retries under the standard policy.
        ctx = ctx.with_faults(inj).with_retry(RetryPolicy::default_io());
    }
    let mc = monte_carlo(market, &problem, req);
    let replicas = req.replicas as usize;

    if req.adaptive {
        let cfg = adaptive_config(req)?;
        let runner = AdaptiveRunner::new(market, cfg);
        let windows = std::sync::atomic::AtomicU64::new(0);
        let changes = std::sync::atomic::AtomicU64::new(0);
        let result = mc
            .evaluate(|start| {
                let o = runner.run(&problem, start, &ctx)?;
                windows.fetch_add(o.windows as u64, std::sync::atomic::Ordering::Relaxed);
                changes.fetch_add(o.plan_changes as u64, std::sync::atomic::Ordering::Relaxed);
                Ok(o.run)
            })
            .map_err(|e| ServiceError::Plan(e.to_string()))?;
        let normalized = result.cost.mean / problem.baseline_cost_billed();
        return Ok(ReplayReport {
            app: problem.app.clone(),
            strategy: "sompi-adaptive".into(),
            replicas: req.replicas,
            deadline_hours: problem.deadline,
            baseline_cost_billed: problem.baseline_cost_billed(),
            cost: result.cost,
            time: result.time,
            deadline_rate: result.deadline_rate,
            spot_finish_rate: result.spot_finish_rate,
            mean_failures: result.mean_failures,
            normalized_cost: normalized,
            plan: None,
            window_hours: Some(req.window_hours),
            warmstart: Some(req.warmstart),
            bucket_reuse: Some(req.bucket_reuse),
            mean_windows: Some(windows.into_inner() as f64 / replicas as f64),
            mean_plan_changes: Some(changes.into_inner() as f64 / replicas as f64),
        });
    }

    let view = view_for(market, p);
    let strategy = strategy_from(&p.strategy, optimizer_config(p))?;
    let plan = strategy
        .plan(
            &problem,
            &view,
            &mut PlanContext::new().with_recorder(recorder),
        )
        .map_err(|e| ServiceError::Plan(e.to_string()))?;
    let result = mc
        .run_plan(market, &plan, problem.deadline, &ctx)
        .map_err(|e| ServiceError::Plan(e.to_string()))?;
    let normalized = result.cost.mean / problem.baseline_cost_billed();
    Ok(ReplayReport {
        app: problem.app.clone(),
        strategy: strategy.name().to_string(),
        replicas: req.replicas,
        deadline_hours: problem.deadline,
        baseline_cost_billed: problem.baseline_cost_billed(),
        cost: result.cost,
        time: result.time,
        deadline_rate: result.deadline_rate,
        spot_finish_rate: result.spot_finish_rate,
        mean_failures: result.mean_failures,
        normalized_cost: normalized,
        plan: Some(plan),
        window_hours: None,
        warmstart: None,
        bucket_reuse: None,
        mean_windows: None,
        mean_plan_changes: None,
    })
}

/// Record one deterministic replay of `req` into `recorder` (the
/// Monte-Carlo sweep would interleave replica timelines into an
/// unreadable stream). Starts at `history + 1` hours, like the CLI's
/// `--trace-out` path. Pass the plan from a prior [`replay()`] call as
/// `plan_hint` to skip re-running the search (fixed-plan replays only;
/// adaptive replays re-plan per window regardless).
pub fn traced_replay(
    market: &SpotMarket,
    req: &ReplayRequest,
    plan_hint: Option<&Plan>,
    recorder: &dyn Recorder,
) -> Result<(), ServiceError> {
    let p = &req.plan;
    let problem = problem_for(market, p)?;
    let injector = injector_from(market, req)?;
    let mut ctx = ExecContext::new();
    if let Some(inj) = &injector {
        ctx = ctx.with_faults(inj).with_retry(RetryPolicy::default_io());
    }
    let ctx = ctx.with_recorder(recorder);
    let start = p.history_hours + 1.0;
    if req.adaptive {
        let cfg = adaptive_config(req)?;
        AdaptiveRunner::new(market, cfg)
            .run(&problem, start, &ctx)
            .map_err(|e| ServiceError::Plan(e.to_string()))?;
        return Ok(());
    }
    let plan = match plan_hint {
        Some(plan) => plan.clone(),
        None => {
            let view = view_for(market, p);
            let strategy = strategy_from(&p.strategy, optimizer_config(p))?;
            strategy
                .plan(&problem, &view, &mut PlanContext::new())
                .map_err(|e| ServiceError::Plan(e.to_string()))?
        }
    };
    let runner = replay::PlanRunner::new(market, problem.deadline);
    if req.batch_replay {
        let batch = replay::BatchTables::for_plan(market, &plan)
            .map_err(|e| ServiceError::Plan(e.to_string()))?;
        let ctx = ctx.with_mode(ExecMode::Batched).with_batch(&batch);
        runner
            .run(&plan, start, &ctx)
            .map_err(|e| ServiceError::Plan(e.to_string()))?;
    } else {
        runner
            .run(&plan, start, &ctx)
            .map_err(|e| ServiceError::Plan(e.to_string()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec2_market::instance::InstanceCatalog;
    use ec2_market::tracegen::{MarketProfile, TraceGenerator};
    use sompi_obs::NullRecorder;

    fn market(hours: f64) -> SpotMarket {
        let catalog = InstanceCatalog::paper_2014();
        let profile = MarketProfile::paper_2014(&catalog);
        SpotMarket::generate(
            catalog,
            &TraceGenerator::new(profile, 42),
            hours,
            1.0 / 12.0,
        )
    }

    fn small_request() -> PlanRequest {
        PlanRequest {
            repeats: 50,
            kappa: 1,
            bid_levels: 2,
            ..Default::default()
        }
    }

    #[test]
    fn app_profile_matches_cli_parsing() {
        let a = app_profile("ft", "A", 64, 200).unwrap();
        assert_eq!(a.name, "FT.Ax200");
        assert_eq!(a.processes, 64);
        let l = app_profile("LAMMPS", "B", 32, 1).unwrap();
        assert!(l.name.starts_with("LAMMPS-32p"));
        assert!(app_profile("NOPE", "B", 128, 200).is_err());
        assert!(app_profile("BT", "B", 0, 200).is_err());
        assert!(app_profile("BT", "Z", 128, 200).is_err());
    }

    #[test]
    fn unknown_strategy_is_invalid_argument() {
        let Err(err) = strategy_from("magic", OptimizerConfig::default()) else {
            panic!("expected an error")
        };
        assert_eq!(err.kind(), errkind::INVALID_ARGUMENT);
        assert!(err.to_string().contains("unknown strategy"));
    }

    /// `plan` must answer every request built by `bad` from the values
    /// `vals` with a typed `InvalidArgument` naming `field`.
    fn assert_rejected(field: &str, vals: &[f64], bad: impl Fn(f64) -> PlanRequest) {
        let market = market(100.0);
        for &v in vals {
            let err = plan(&market, &bad(v), &NullRecorder, None).unwrap_err();
            assert_eq!(err.kind(), errkind::INVALID_ARGUMENT, "{field} {v}: {err}");
            assert!(err.to_string().contains(field), "{field} {v}: {err}");
        }
    }

    #[test]
    fn out_of_domain_slack_is_invalid_argument() {
        assert_rejected("slack", &[1.0, 1.5, -0.1, f64::NAN], |slack| PlanRequest {
            slack,
            ..small_request()
        });
    }

    #[test]
    fn out_of_domain_deadline_factor_is_invalid_argument() {
        let vals = [0.0, -1.0, f64::NAN, f64::INFINITY];
        assert_rejected("deadline factor", &vals, |deadline_factor| PlanRequest {
            deadline_factor,
            ..small_request()
        });
    }

    #[test]
    fn out_of_domain_history_hours_is_invalid_argument() {
        let vals = [0.0, -5.0, f64::NAN, f64::INFINITY];
        assert_rejected("history hours", &vals, |history_hours| PlanRequest {
            history_hours,
            ..small_request()
        });
    }

    #[test]
    fn out_of_domain_view_start_is_invalid_argument() {
        let vals = [-1.0, f64::NAN, f64::INFINITY];
        assert_rejected("view start hours", &vals, |view_start_hours| PlanRequest {
            view_start_hours,
            ..small_request()
        });
    }

    #[test]
    fn plan_matches_direct_strategy_call_bit_for_bit() {
        let market = market(100.0);
        let req = small_request();
        let report = plan(&market, &req, &NullRecorder, None).unwrap();

        // The long way round: build everything by hand, as `sompi plan`
        // used to, and require an identical plan and evaluation.
        let app = app_profile(&req.app, &req.class, req.procs, req.repeats).unwrap();
        let problem = build_problem(&market, &app, req.deadline_factor).unwrap();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        let strategy = strategy_from("sompi", optimizer_config(&req)).unwrap();
        let direct = strategy
            .plan(&problem, &view, &mut PlanContext::new())
            .unwrap();
        assert_eq!(report.plan, direct);
        let eval = evaluate_plan(&direct, &view).unwrap().unwrap();
        assert_eq!(report.expected_cost, eval.expected_cost);
        assert_eq!(report.expected_time, eval.expected_time);
    }

    #[test]
    fn every_npb_app_plans_at_one_repeat() {
        // At one repeat a group's checkpoint overhead can exceed its run
        // time; `plan` used to abort in the φ interval's `clamp`.
        let market = market(100.0);
        for kernel in NpbKernel::FULL_SUITE {
            let req = PlanRequest {
                app: kernel.to_string(),
                repeats: 1,
                ..small_request()
            };
            let report = plan(&market, &req, &NullRecorder, None)
                .unwrap_or_else(|e| panic!("{kernel}: {e}"));
            assert!(report.expected_cost > 0.0, "{kernel}");
        }
    }

    #[test]
    fn plan_request_key_ignores_tenant_but_not_problem_shape() {
        let market = market(100.0);
        let a = small_request();
        let mut b = a.clone();
        b.tenant = "another-team".into();
        assert_eq!(plan_request_key(&market, &a), plan_request_key(&market, &b));

        let mut c = a.clone();
        c.deadline_factor = 2.0;
        assert_ne!(plan_request_key(&market, &a), plan_request_key(&market, &c));

        let mut d = a.clone();
        d.history_hours = 24.0; // different market view → different key
        assert_ne!(plan_request_key(&market, &a), plan_request_key(&market, &d));
    }

    #[test]
    fn plan_request_key_is_equal_for_equal_view_coordinates() {
        // 5-minute samples: a view starting 0.01 h in, or 0.01 h longer,
        // covers the same samples as the request's own view, and plans
        // the same.
        let market = market(100.0);
        let a = small_request();
        for (start, history) in [(0.01, a.history_hours), (0.0, a.history_hours - 0.01)] {
            let b = PlanRequest {
                view_start_hours: start,
                history_hours: history,
                ..a.clone()
            };
            assert_eq!(plan_request_key(&market, &a), plan_request_key(&market, &b));
            assert_eq!(
                plan(&market, &a, &NullRecorder, None).unwrap(),
                plan(&market, &b, &NullRecorder, None).unwrap()
            );
        }
        // One sample further along is a different view.
        let c = PlanRequest {
            view_start_hours: 1.0 / 12.0,
            ..a.clone()
        };
        assert_ne!(plan_request_key(&market, &a), plan_request_key(&market, &c));
        // An invalid request never shares a valid one's key.
        let bad = PlanRequest {
            history_hours: f64::NAN,
            ..a.clone()
        };
        assert_ne!(
            plan_request_key(&market, &a),
            plan_request_key(&market, &bad)
        );
    }

    #[test]
    fn replay_is_deterministic_and_normalized() {
        let market = market(200.0);
        let req = ReplayRequest {
            plan: small_request(),
            replicas: 4,
            ..Default::default()
        };
        let a = replay(&market, &req, &NullRecorder).unwrap();
        let b = replay(&market, &req, &NullRecorder).unwrap();
        assert_eq!(a, b);
        assert!(a.normalized_cost > 0.0);
        assert!(a.plan.is_some());
        assert!(a.mean_windows.is_none());
    }

    #[test]
    fn adaptive_replay_reports_window_stats() {
        let market = market(200.0);
        let req = ReplayRequest {
            plan: small_request(),
            replicas: 2,
            adaptive: true,
            window_hours: 2.0,
            ..Default::default()
        };
        let r = replay(&market, &req, &NullRecorder).unwrap();
        assert_eq!(r.strategy, "sompi-adaptive");
        assert!(r.plan.is_none());
        assert!(r.mean_windows.unwrap() >= 1.0);
        assert_eq!(r.warmstart, Some(true));
    }

    #[test]
    fn non_positive_or_nan_adaptive_window_is_invalid_argument() {
        let market = market(200.0);
        for window_hours in [0.0, -2.0, f64::NAN] {
            let req = ReplayRequest {
                plan: small_request(),
                replicas: 2,
                adaptive: true,
                window_hours,
                ..Default::default()
            };
            let err = replay(&market, &req, &NullRecorder).unwrap_err();
            assert_eq!(err.kind(), errkind::INVALID_ARGUMENT, "{window_hours}");
            assert!(err.to_string().contains("window hours"), "{err}");
            let err = traced_replay(&market, &req, None, &NullRecorder).unwrap_err();
            assert_eq!(err.kind(), errkind::INVALID_ARGUMENT, "{window_hours}");
        }
        // A fixed-plan replay never reads the window.
        let req = ReplayRequest {
            plan: small_request(),
            replicas: 2,
            window_hours: 0.0,
            ..Default::default()
        };
        assert!(replay(&market, &req, &NullRecorder).is_ok());
    }

    #[test]
    fn bad_fault_spec_is_invalid_argument() {
        let market = market(100.0);
        let req = ReplayRequest {
            plan: small_request(),
            replicas: 2,
            faults: Some("gremlins=1.0".into()),
            ..Default::default()
        };
        let err = replay(&market, &req, &NullRecorder).unwrap_err();
        assert_eq!(err.kind(), errkind::INVALID_ARGUMENT);
    }
}
