//! `adaptive-long`: `service::replay` with `adaptive = true` on a long
//! job — Algorithm 1, re-planning every window inside every Monte-Carlo
//! replica.
//!
//! Why: a search runs nested inside every Monte-Carlo worker, which is
//! where the plan cache, warm start and bucket-table reuse do their work
//! and where nested parallelism can oversubscribe the cores. It runs the
//! scalar `run_window` executor.

use crate::common::{self, Outcome};
use crate::layers::{self, cpu_seconds, ratio, timed, SearchStats, TimedPolicy};
use crate::stats::{self, Rng};
use ec2_market::market::SpotMarket;
use replay::adaptive_exec::AdaptiveRunner;
use replay::exec::ExecContext;
use replay::montecarlo::McResult;
use sompi_core::adaptive::AdaptiveConfig;
use sompi_core::baselines::Sompi;
use sompi_obs::{NullRecorder, RingRecorder};
use sompi_server::proto::{PlanRequest, ReplayRequest};
use sompi_server::service::{self, ReplayReport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A paper-2014 market long enough for a multi-day job.
const MARKET_SEED: u64 = 2014;
const MARKET_HOURS: f64 = 800.0;
/// The job: BT repeated 4000 times under a 5 h re-planning window, about
/// six windows per replica.
const APP: &str = "BT";
const REPEATS: u32 = 4000;
const WINDOW_HOURS: f64 = 5.0;
const DEADLINE: f64 = 1.5;
/// Replicas per measured job.
const REPLICAS: u32 = 250;
/// Replicas per oracle comparison (default threads vs `threads = 1`).
const CHECK_REPLICAS: u32 = 24;
/// Replicas of a warm-up job.
const WARMUP_REPLICAS: u32 = 60;
/// The first jobs of a run form the quality set behind `cost_norm` and
/// `deadline_met_frac`.
const QUALITY_JOBS: usize = 4;
/// Jobs re-run at default and at one search thread for the
/// nested-parallelism finding.
const FINDING_JOBS: usize = 6;

/// Job `i` of a run: its own Monte-Carlo seed and a deadline nudged by up
/// to 0.04; warm-up jobs sit 0.005 off that grid.
fn job(rng: &mut Rng, warm_up: bool, replicas: u32) -> ReplayRequest {
    let nudge = 0.01 * rng.below(5) as f64 + if warm_up { 0.005 } else { 0.0 };
    ReplayRequest {
        plan: PlanRequest {
            tenant: "bench".into(),
            app: APP.into(),
            repeats: REPEATS,
            deadline_factor: DEADLINE + nudge,
            ..PlanRequest::default()
        },
        replicas,
        mc_seed: rng.next_u64() >> 16,
        adaptive: true,
        window_hours: WINDOW_HOURS,
        ..ReplayRequest::default()
    }
}

struct State {
    market: SpotMarket,
    generate_s: f64,
    build_indexes_s: f64,
}

fn set_up(seed: u64, rep: usize) -> Result<State, String> {
    let tm = common::timed_market(MARKET_SEED, MARKET_HOURS);
    let warm = job(&mut Rng::new(seed, 900 + rep as u64), true, WARMUP_REPLICAS);
    service::replay(&tm.market, &warm, &NullRecorder).map_err(|e| e.to_string())?;
    Ok(State {
        market: tm.market,
        generate_s: tm.generate_s,
        build_indexes_s: tm.build_indexes_s,
    })
}

/// The oracle: on a replica subsample, the report at default search
/// threads equals the one at `threads = 1`.
fn threads_agree(market: &SpotMarket, req: &ReplayRequest) -> bool {
    let at = |threads| {
        let mut r = req.clone();
        r.replicas = CHECK_REPLICAS;
        r.plan.threads = threads;
        service::replay(market, &r, &NullRecorder).ok()
    };
    let default = at(req.plan.threads);
    let ok = default.is_some() && default == at(1);
    if !ok {
        common::report_mismatch("adaptive-long", "report differs at threads = 1");
    }
    ok
}

fn jobs(seed: u64, seconds: u64) -> Vec<ReplayRequest> {
    let mut rng = Rng::new(seed, 1);
    (0..QUALITY_JOBS + 8 * seconds as usize)
        .map(|_| job(&mut rng, false, REPLICAS))
        .collect()
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let setup = common::repeat_setup(|rep| set_up(seed, rep))?;
    let st = &setup.state;
    let jobs = jobs(seed, seconds);
    let mut out = Outcome::default();
    out.info("replicas_per_job", REPLICAS);
    out.info("check_replicas", CHECK_REPLICAS);
    out.info("threads", layers::nproc());
    if trace {
        traced(st, &jobs, seconds, &mut out)?;
        out.set("ec2-market.generate_s", st.generate_s);
        out.set("ec2-market.build_indexes_s", st.build_indexes_s);
        return Ok(out);
    }
    let done = common::replays(&st.market, &jobs, seconds as f64, QUALITY_JOBS);
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let (mut cost, mut met, mut windows) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (r, wall)) in done.iter().enumerate() {
        let ok = match r {
            Ok(report) => {
                walls.push(*wall);
                rates.push(f64::from(report.replicas) / wall);
                windows.push(report.mean_windows.unwrap_or(f64::NAN));
                if i < QUALITY_JOBS {
                    cost.push(report.normalized_cost);
                    met.push(report.deadline_rate);
                    threads_agree(&st.market, &jobs[i])
                } else {
                    true
                }
            }
            Err(e) => {
                common::report_mismatch("adaptive-long", e);
                false
            }
        };
        out.count(ok);
    }
    let throughput = stats::median(&rates);
    out.set("setup_s", setup.seconds);
    out.set("throughput_per_s", throughput);
    out.set("latency_p50_ms", stats::median(&walls) * 1e3);
    out.set("cost_norm", stats::mean(&cost));
    out.set("deadline_met_frac", stats::mean(&met));
    out.detail("replicas_per_s", throughput, "replicas/s");
    out.detail("cost_norm", stats::mean(&cost), "ratio");
    out.detail("deadline_miss_frac", 1.0 - stats::mean(&met), "fraction");
    out.detail("windows_per_replica", stats::mean(&windows), "count");
    out.info("jobs", walls.len());
    Ok(out)
}

/// Per-layer figures of the traced jobs.
#[derive(Default)]
struct Layers {
    wall_s: f64,
    problem_s: f64,
    evaluate_s: f64,
    evaluate_cpu_s: f64,
    run_s: f64,
    plan_s: f64,
    plan_calls: u64,
    windows: u64,
    changes: u64,
    replicas: u64,
}

/// One job along `service::replay`'s adaptive path, with the default SOMPI
/// policy behind a timing wrapper.
fn traced_job(
    market: &SpotMarket,
    req: &ReplayRequest,
    ring: &RingRecorder,
    l: &mut Layers,
) -> Result<(McResult, u64, u64), String> {
    let start = Instant::now();
    let p = &req.plan;
    let problem = timed(&mut l.problem_s, || common::problem(market, p))?;
    let cfg = AdaptiveConfig {
        window_hours: req.window_hours,
        history_hours: p.history_hours,
        optimizer: service::optimizer_config(p),
        warmstart: req.warmstart,
        bucket_reuse: req.bucket_reuse,
    };
    let sompi = Sompi {
        config: cfg.optimizer,
    };
    let policy = TimedPolicy::new(&sompi);
    let runner = AdaptiveRunner::new(market, cfg).with_policy(&policy);
    let ctx = ExecContext::new().with_recorder(ring);
    let mc = common::monte_carlo(market, &problem, req);
    let (windows, changes, run_ns) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    let cpu = cpu_seconds();
    let result = timed(&mut l.evaluate_s, || {
        mc.evaluate(|start| {
            let t = Instant::now();
            let o = runner.run(&problem, start, &ctx)?;
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            run_ns.fetch_add(ns, Ordering::Relaxed);
            windows.fetch_add(u64::from(o.windows), Ordering::Relaxed);
            changes.fetch_add(u64::from(o.plan_changes), Ordering::Relaxed);
            Ok(o.run)
        })
    })
    .map_err(|e| e.to_string())?;
    l.evaluate_cpu_s += cpu_seconds() - cpu;
    let (w, c) = (windows.into_inner(), changes.into_inner());
    l.run_s += run_ns.into_inner() as f64 * 1e-9;
    l.plan_s += policy.seconds();
    l.plan_calls += policy.calls();
    l.windows += w;
    l.changes += c;
    l.replicas += u64::from(req.replicas);
    l.wall_s += start.elapsed().as_secs_f64();
    Ok((result, w, c))
}

fn same(traced: &(McResult, u64, u64), report: &ReplayReport) -> bool {
    let (mc, w, c) = traced;
    let n = f64::from(report.replicas);
    mc.cost == report.cost
        && mc.time == report.time
        && mc.deadline_rate == report.deadline_rate
        && mc.spot_finish_rate == report.spot_finish_rate
        && mc.mean_failures == report.mean_failures
        && report.mean_windows == Some(*w as f64 / n)
        && report.mean_plan_changes == Some(*c as f64 / n)
}

fn traced(
    st: &State,
    jobs: &[ReplayRequest],
    seconds: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    // Half the time untraced, then the same jobs traced.
    let plain = common::replays(&st.market, jobs, seconds as f64 / 2.0, 1);
    let ring = layers::ring();
    let mut l = Layers::default();
    for (req, (untraced, _)) in jobs.iter().zip(&plain) {
        let result = traced_job(&st.market, req, &ring, &mut l);
        let ok = matches!((&result, untraced), (Ok(t), Ok(u)) if same(t, u));
        if !ok {
            common::report_mismatch(
                "adaptive-long traced",
                "traced result differs from service::replay",
            );
        }
        out.count(ok);
    }
    let plain_wall: f64 = plain.iter().map(|(_, w)| w).sum();
    let search = SearchStats::from_events(&ring.take());
    let replicas = l.replicas as f64;
    out.set("mpi-sim.problem_s", l.problem_s);
    out.set("sompi-core.plan_s", l.plan_s);
    out.set("sompi-core.plan_calls", l.plan_calls as f64);
    out.set("sompi-core.assess_s", search.assess_s);
    out.set("sompi-core.search_s", search.search_s);
    out.set("sompi-core.evaluations", search.evaluations as f64);
    out.set("sompi-core.prune_frac", search.prune_frac());
    out.set("sompi-server.plan_searches", search.searches as f64);
    out.set(
        "sompi-core.replan_reuse_frac",
        ratio(l.windows as f64 - l.plan_calls as f64, l.windows as f64),
    );
    out.set("replay.adaptive_exec_s", l.run_s - l.plan_s);
    out.set("replay.windows_per_replica", l.windows as f64 / replicas);
    out.set(
        "replay.plan_changes_per_replica",
        l.changes as f64 / replicas,
    );
    out.set(
        "replay.cpu_busy_frac",
        ratio(l.evaluate_cpu_s, l.evaluate_s * layers::nproc() as f64),
    );
    out.set(
        "unaccounted_frac",
        (l.wall_s - l.problem_s - l.evaluate_s) / l.wall_s,
    );
    out.set("trace_overhead_frac", l.wall_s / plain_wall - 1.0);
    out.info("jobs", plain.len());
    out.info("evaluate_s", l.evaluate_s);
    out.info("worker_run_s", l.run_s);

    // The first jobs again, each at default search threads and with the
    // nested search held to one thread, alternating which runs first: the
    // before/after reference for the nested-parallelism finding.
    let (mut default, mut one) = (Layers::default(), Layers::default());
    for (i, job) in jobs[..FINDING_JOBS].iter().enumerate() {
        let mut single = job.clone();
        single.plan.threads = 1;
        let mut pair = [(job, &mut default), (&single, &mut one)];
        if i % 2 == 1 {
            pair.reverse();
        }
        for (req, tally) in pair {
            traced_job(&st.market, req, &layers::ring(), tally)?;
        }
    }
    let summary = |l: &Layers| {
        serde_json::json!({
            "wall_s": l.wall_s,
            "plan_s": l.plan_s,
            "cpu_busy_frac": ratio(l.evaluate_cpu_s, l.evaluate_s * layers::nproc() as f64),
        })
    };
    out.info("finding_jobs", FINDING_JOBS);
    out.info("finding_default_threads", summary(&default));
    out.info("finding_threads_1", summary(&one));
    Ok(())
}
