//! What every workload shares: the market builder, repeated set-up, and
//! the result a workload hands back to `main`.

use ec2_market::instance::InstanceCatalog;
use ec2_market::market::SpotMarket;
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use replay::montecarlo::MonteCarlo;
use serde::Serialize;
use serde_json::Value;
use sompi_core::problem::Problem;
use sompi_obs::NullRecorder;
use sompi_server::proto::{PlanRequest, ReplayRequest};
use sompi_server::service::{self, ReplayReport};
use std::collections::BTreeMap;
use std::time::Instant;

/// Trace sampling step of every synthesized market, hours (the CLI default).
pub const STEP_HOURS: f64 = 1.0 / 12.0;

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Synthesize a paper-2014 spot market from a trace-generator seed.
pub fn market(seed: u64, hours: f64) -> SpotMarket {
    let catalog = InstanceCatalog::paper_2014();
    let profile = MarketProfile::paper_2014(&catalog);
    SpotMarket::generate(
        catalog,
        &TraceGenerator::new(profile, seed),
        hours,
        STEP_HOURS,
    )
}

/// Market synthesis and index build, each timed.
pub struct TimedMarket {
    pub market: SpotMarket,
    pub generate_s: f64,
    pub build_indexes_s: f64,
}

/// [`market`] followed by [`SpotMarket::build_indexes`], timed apart.
pub fn timed_market(seed: u64, hours: f64) -> TimedMarket {
    let t = Instant::now();
    let market = market(seed, hours);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    market.build_indexes();
    TimedMarket {
        market,
        generate_s,
        build_indexes_s: t.elapsed().as_secs_f64(),
    }
}

/// The problem a request plans: `service::app_profile` then
/// `service::build_problem`, as `service::plan` and `service::replay` do.
pub fn problem(market: &SpotMarket, req: &PlanRequest) -> Result<Problem, String> {
    service::app_profile(&req.app, &req.class, req.procs, req.repeats)
        .and_then(|app| service::build_problem(market, &app, req.deadline_factor))
        .map_err(|e| e.to_string())
}

/// The `MonteCarlo` that `service::replay` builds for a request: replica
/// offsets from the history window to far enough before the trace end.
pub fn monte_carlo(market: &SpotMarket, problem: &Problem, req: &ReplayRequest) -> MonteCarlo {
    let history = req.plan.history_hours;
    let margin = problem.baseline_time() * 4.0 + 4.0;
    let max = (market.horizon() - margin).max(history + 1.0);
    MonteCarlo::builder()
        .replicas(req.replicas as usize)
        .seed(req.mc_seed)
        .offsets(history, max)
        .build()
}

/// Run `op` on `inputs` in order until `seconds` have passed and at least
/// `min` inputs are done; returns each result with its wall seconds.
pub fn run_for<I, T>(
    inputs: &[I],
    seconds: f64,
    min: usize,
    mut op: impl FnMut(&I) -> Result<T, String>,
) -> Vec<(Result<T, String>, f64)> {
    let start = Instant::now();
    let mut done = Vec::new();
    for input in inputs {
        if done.len() >= min && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let t = Instant::now();
        let r = op(input);
        done.push((r, t.elapsed().as_secs_f64()));
    }
    done
}

/// [`run_for`] over `service::replay` requests, tracing off.
pub fn replays(
    market: &SpotMarket,
    reqs: &[ReplayRequest],
    seconds: f64,
    min: usize,
) -> Vec<(Result<ReplayReport, String>, f64)> {
    run_for(reqs, seconds, min, |r| {
        service::replay(market, r, &NullRecorder).map_err(|e| e.to_string())
    })
}

/// The median of a set-up step over [`SETUP_REPS`] runs.
pub struct Setup<T> {
    /// The state built by the last run (earlier ones are dropped).
    pub state: T,
    /// Median wall seconds of one set-up.
    pub seconds: f64,
}

/// Run `build` [`SETUP_REPS`] times, keep the last state, report the
/// median time. `build` gets the repetition index so each run can use
/// its own warm-up inputs.
pub fn repeat_setup<T, E>(mut build: impl FnMut(usize) -> Result<T, E>) -> Result<Setup<T>, E> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let s = build(rep)?;
        times.push(t.elapsed().as_secs_f64());
        // Drop the previous state (stopping a server, freeing a market)
        // outside the timed region.
        state = Some(s);
    }
    Ok(Setup {
        state: state.expect("SETUP_REPS > 0"),
        seconds: crate::stats::median(&times),
    })
}

/// What one workload run reports back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured (or traced) phase.
    pub attempted: u64,
    /// Of those, operations that errored, were shed, or failed a check.
    pub failed: u64,
    /// Contract metrics by name: the end-to-end set untraced, the
    /// per-layer set traced. Units come from the tables in `main`.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload's own metrics under the names a user of this
    /// workload knows them by, with units (printed, not gated).
    pub details: Vec<(&'static str, f64, &'static str)>,
    /// Run facts: sample counts behind each percentile, sender counts.
    pub info: Vec<(&'static str, Value)>,
}

impl Outcome {
    /// Record a contract metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a workload-named metric.
    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.details.push((name, value, unit));
    }

    /// Record a run fact.
    pub fn info(&mut self, name: &'static str, value: impl Serialize) {
        self.info.push((name, value.to_value()));
    }

    /// Count an operation, failed or not.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Print a mismatch found by an output check to stderr; the caller
/// counts it as a failed operation.
pub fn report_mismatch(what: &str, detail: impl std::fmt::Display) {
    eprintln!("check failed: {what}: {detail}");
}
