//! `replay-mc`: back-to-back fixed-plan `service::replay` requests of
//! millions of Monte-Carlo replicas each, fault-free, batched executor.
//!
//! Why: death tables, replica execution and aggregation do nearly all the
//! work; the one search per request is about a millisecond. A change to
//! the replay path should show here and leave `plan-serve` unmoved.

use crate::common::{self, Outcome};
use crate::layers::{self, cpu_seconds, ratio, timed, SearchStats, TimedPolicy};
use crate::stats::{self, Rng};
use ec2_market::market::SpotMarket;
use replay::batch::BatchTables;
use replay::exec::{ExecContext, ExecMode};
use replay::montecarlo::McResult;
use sompi_core::adaptive::PlanContext;
use sompi_core::cost::evaluate_plan;
use sompi_core::policy::Policy;
use sompi_obs::NullRecorder;
use sompi_server::proto::{PlanRequest, ReplayRequest};
use sompi_server::service::{self, ReplayReport};
use std::time::Instant;

/// The paper-2014 market, one month.
const MARKET_SEED: u64 = 2014;
const MARKET_HOURS: f64 = 720.0;
/// Replicas per measured request.
const REPLICAS: u32 = 2_000_000;
/// Replicas per oracle comparison (batched vs scalar).
const CHECK_REPLICAS: u32 = 20_000;
/// Start of a warm-up request's market view, hours.
const WARMUP_VIEW_START: f64 = 200.0;
/// Replicas of a warm-up request.
const WARMUP_REPLICAS: u32 = 1_000_000;
/// Request shapes (app, deadline factor, κ), cycled in order. The first
/// pass over them is the quality set behind `cost_norm`,
/// `deadline_met_frac` and `model_gap`.
const SHAPES: [(&str, f64, u32); 6] = [
    ("BT", 1.50, 4),
    ("FT", 1.20, 2),
    ("LAMMPS", 2.00, 6),
    ("EP", 1.30, 4),
    ("CG", 1.80, 2),
    ("LU", 1.25, 6),
];

/// Request `i` of a run. The seed picks each request's Monte-Carlo seed
/// (so replica offsets never repeat between requests) and nudges its
/// deadline by up to 0.04. Warm-up requests sit 0.005 off that grid and
/// plan against a later market view, so their plans bid differently and
/// the death-time tables they build are not the ones measured requests use.
fn request(rng: &mut Rng, i: usize, warm_up: bool) -> ReplayRequest {
    let (app, deadline, kappa) = SHAPES[i % SHAPES.len()];
    let nudge = 0.01 * rng.below(5) as f64 + if warm_up { 0.005 } else { 0.0 };
    ReplayRequest {
        plan: PlanRequest {
            tenant: "bench".into(),
            app: app.into(),
            deadline_factor: deadline + nudge,
            kappa,
            view_start_hours: if warm_up { WARMUP_VIEW_START } else { 0.0 },
            ..PlanRequest::default()
        },
        replicas: if warm_up { WARMUP_REPLICAS } else { REPLICAS },
        mc_seed: rng.next_u64() >> 16,
        ..ReplayRequest::default()
    }
}

fn requests(seed: u64, n: usize) -> Vec<ReplayRequest> {
    let mut rng = Rng::new(seed, 1);
    (0..n).map(|i| request(&mut rng, i, false)).collect()
}

struct State {
    market: SpotMarket,
    generate_s: f64,
    build_indexes_s: f64,
}

fn set_up(seed: u64, rep: usize) -> Result<State, String> {
    let tm = common::timed_market(MARKET_SEED, MARKET_HOURS);
    let warm = request(&mut Rng::new(seed, 900 + rep as u64), rep, true);
    service::replay(&tm.market, &warm, &NullRecorder).map_err(|e| e.to_string())?;
    Ok(State {
        market: tm.market,
        generate_s: tm.generate_s,
        build_indexes_s: tm.build_indexes_s,
    })
}

/// The oracle: on a replica subsample of `req`, the batched result equals
/// the scalar one.
fn batched_matches_scalar(market: &SpotMarket, req: &ReplayRequest) -> bool {
    let sub = |batch_replay| {
        let r = ReplayRequest {
            replicas: CHECK_REPLICAS,
            batch_replay,
            ..req.clone()
        };
        service::replay(market, &r, &NullRecorder).ok()
    };
    let (b, s) = (sub(true), sub(false));
    let ok = b.is_some() && b == s;
    if !ok {
        common::report_mismatch(
            "replay-mc",
            format!("batched != scalar for {:?}", req.plan.app),
        );
    }
    ok
}

/// Upper bound on how many requests a run can make.
fn max_requests(seconds: u64) -> usize {
    SHAPES.len() + 8 * seconds as usize
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let setup = common::repeat_setup(|rep| set_up(seed, rep))?;
    let st = &setup.state;
    let reqs = requests(seed, max_requests(seconds));
    let mut out = Outcome::default();
    out.info("replicas_per_request", REPLICAS);
    out.info("check_replicas", CHECK_REPLICAS);
    out.info("threads", layers::nproc());
    if trace {
        traced(seed, st, &reqs, seconds, &mut out)?;
        out.set("ec2-market.generate_s", st.generate_s);
        out.set("ec2-market.build_indexes_s", st.build_indexes_s);
        return Ok(out);
    }
    let done = common::replays(&st.market, &reqs, seconds as f64, SHAPES.len());
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let (mut cost, mut met, mut gap) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (r, wall)) in done.iter().enumerate() {
        let ok = match r {
            Ok(report) => {
                walls.push(*wall);
                rates.push(f64::from(report.replicas) / wall);
                if i < SHAPES.len() {
                    cost.push(report.normalized_cost);
                    met.push(report.deadline_rate);
                    gap.push(model_gap(&st.market, &reqs[i].plan, report)?);
                    batched_matches_scalar(&st.market, &reqs[i])
                } else {
                    true
                }
            }
            Err(e) => {
                common::report_mismatch("replay-mc", e);
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
    out.detail("model_gap", stats::mean(&gap), "ratio");
    out.info("requests", walls.len());
    Ok(out)
}

/// |model E[cost] − replayed mean cost| / replayed mean cost for one
/// request, the model evaluated on the plan the replay ran.
fn model_gap(market: &SpotMarket, req: &PlanRequest, report: &ReplayReport) -> Result<f64, String> {
    let plan = report
        .plan
        .as_ref()
        .ok_or("fixed-plan replay without a plan")?;
    let eval = evaluate_plan(plan, &service::view_for(market, req))
        .map_err(|e| e.to_string())?
        .ok_or("plan has an unlaunchable bid")?;
    Ok((eval.expected_cost - report.cost.mean).abs() / report.cost.mean)
}

/// Per-layer times of one request along `service::replay`'s fixed-plan
/// path, one public call at a time.
#[derive(Default)]
struct Layers {
    problem_s: f64,
    view_s: f64,
    plan_s: f64,
    tables_s: f64,
    run_plan_s: f64,
    run_plan_cpu_s: f64,
    built: u64,
    reused: u64,
}

fn traced_request(
    market: &SpotMarket,
    req: &ReplayRequest,
    ring: &sompi_obs::RingRecorder,
    l: &mut Layers,
) -> Result<McResult, String> {
    let p = &req.plan;
    let problem = timed(&mut l.problem_s, || common::problem(market, p))?;
    let view = timed(&mut l.view_s, || service::view_for(market, p));
    let strategy = service::strategy_from(&p.strategy, service::optimizer_config(p))
        .map_err(|e| e.to_string())?;
    let policy = TimedPolicy::new(&*strategy);
    let plan = policy
        .plan(&problem, &view, &mut PlanContext::new().with_recorder(ring))
        .map_err(|e| e.to_string())?;
    l.plan_s += policy.seconds();
    let tables = timed(&mut l.tables_s, || BatchTables::for_plan(market, &plan))
        .map_err(|e| e.to_string())?;
    l.built += u64::from(tables.tables_built);
    l.reused += u64::from(tables.tables_reused);
    // As in `service::replay`, the recorder narrates planning only.
    let ctx = ExecContext::new()
        .with_mode(ExecMode::Batched)
        .with_batch(&tables);
    let mc = common::monte_carlo(market, &problem, req);
    let cpu = cpu_seconds();
    let result = timed(&mut l.run_plan_s, || {
        mc.run_plan(market, &plan, problem.deadline, &ctx)
    });
    l.run_plan_cpu_s += cpu_seconds() - cpu;
    result.map_err(|e| e.to_string())
}

fn traced(
    seed: u64,
    st: &State,
    reqs: &[ReplayRequest],
    seconds: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    // Half the time untraced, then the same requests traced on a second
    // market set up like the first, so death tables are built as often.
    let plain = common::replays(&st.market, reqs, seconds as f64 / 2.0, 1);
    let fresh = set_up(seed, common::SETUP_REPS)?;
    let ring = layers::ring();
    let mut l = Layers::default();
    let start = Instant::now();
    let mut replicas = 0u64;
    for (req, (untraced, _)) in reqs.iter().zip(&plain) {
        let result = traced_request(&fresh.market, req, &ring, &mut l);
        replicas += u64::from(req.replicas);
        let same = match (&result, untraced) {
            (Ok(mc), Ok(rep)) => {
                mc.cost == rep.cost
                    && mc.time == rep.time
                    && mc.deadline_rate == rep.deadline_rate
                    && mc.spot_finish_rate == rep.spot_finish_rate
                    && mc.mean_failures == rep.mean_failures
            }
            _ => false,
        };
        if !same {
            common::report_mismatch(
                "replay-mc traced",
                "traced result differs from service::replay",
            );
        }
        out.count(same);
    }
    let wall = start.elapsed().as_secs_f64();
    let plain_wall: f64 = plain.iter().map(|(_, w)| w).sum();
    let events = ring.take();
    let search = SearchStats::from_events(&events);
    let n = plain.len() as f64;
    out.set("mpi-sim.problem_s", l.problem_s);
    out.set("sompi-core.view_s", l.view_s);
    out.set("sompi-core.view_calls", n);
    out.set("sompi-core.plan_s", l.plan_s);
    out.set("sompi-core.plan_calls", n);
    out.set("sompi-core.assess_s", search.assess_s);
    out.set("sompi-core.search_s", search.search_s);
    out.set("sompi-core.evaluations", search.evaluations as f64);
    out.set("sompi-core.prune_frac", search.prune_frac());
    out.set("sompi-server.plan_searches", search.searches as f64);
    out.set("ec2-market.death_tables_s", l.tables_s);
    out.set("ec2-market.death_tables_built", l.built as f64);
    out.set("ec2-market.death_tables_reused", l.reused as f64);
    out.set("replay.run_plan_s", l.run_plan_s);
    out.set(
        "replay.ns_per_replica",
        ratio(l.run_plan_s * 1e9, replicas as f64),
    );
    out.set(
        "replay.cpu_busy_frac",
        ratio(l.run_plan_cpu_s, l.run_plan_s * layers::nproc() as f64),
    );
    let timed_sum = l.problem_s + l.view_s + l.plan_s + l.tables_s + l.run_plan_s;
    out.set("unaccounted_frac", (wall - timed_sum) / wall);
    out.set("trace_overhead_frac", wall / plain_wall - 1.0);
    out.info("requests", plain.len());
    Ok(())
}
