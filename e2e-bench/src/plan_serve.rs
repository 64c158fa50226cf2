//! `plan-serve`: an open loop of plan requests against an in-process
//! `sompi_server::Server` on loopback, over a fixed ladder of rates.
//!
//! Why: it is the only workload with the server's queue, plan cache and
//! response encoding on the path. Planning is the whole service time —
//! view build and failure estimation, option assessment, subset search
//! and the cost kernel; no replay runs.

use crate::common::{self, Outcome};
use crate::layers::{self, ratio, timed, SearchStats, TimedPolicy};
use crate::openloop;
use crate::stats::{self, lateness_grows, percentile, Rng, Rung, Sample};
use ec2_market::market::SpotMarket;
use sompi_core::adaptive::PlanContext;
use sompi_core::cost::evaluate_plan;
use sompi_core::policy::Policy;
use sompi_core::pool::SearchPool;
use sompi_obs::{Event, NullRecorder, Recorder};
use sompi_server::client;
use sompi_server::proto::{self, PlanRequest, Request, Response};
use sompi_server::server::{ServeStats, Server, ServerConfig, ServerHandle};
use sompi_server::service::{self, PlanReport};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The market every request plans against: one month of paper-2014 prices.
const MARKET_SEED: u64 = 2014;
const MARKET_HOURS: f64 = 720.0;
/// Offered rates, requests per second, lowest first. The top rung offers
/// more than the server can take, so what it serves there is its
/// saturation throughput: a steady reading of capacity, where the ladder
/// rule can only move by a whole rung.
const LADDER: [f64; 5] = [100.0, 200.0, 400.0, 800.0, 1600.0];
/// The rate at which plan latency is reported.
const REF_RATE: f64 = 200.0;
/// The order a run plays the ladder in: every rate once, and the
/// reference rate and the top rung five times, spread over the run so a
/// passing disturbance of the machine touches one pass, not the median.
const PASSES: [f64; 13] = [
    200.0, 1600.0, 100.0, 200.0, 1600.0, 400.0, 200.0, 1600.0, 800.0, 200.0, 1600.0, 200.0, 1600.0,
];
/// p95 latency limit of the ladder rule, seconds.
const LIMIT_S: f64 = 0.100;
/// Lateness growth across a rung that counts as a backlog, seconds.
const LATE_TOLERANCE_S: f64 = 0.005;
/// Requests per pass per second of `--seconds`; never fewer than the 200
/// a p95 needs.
const REQUESTS_PER_SECOND_OF_RUN: usize = 15;
const WARMUP_REQUESTS: usize = 150;
/// Reference passes a traced run plays on each of the two servers.
const TRACED_PASSES: usize = 3;
const APPS: [&str; 10] = [
    "BT", "SP", "LU", "FT", "IS", "BTIO", "CG", "MG", "EP", "LAMMPS",
];
const KAPPAS: [u32; 3] = [2, 4, 6];

/// Server knobs, pinned so a change of default elsewhere does not move
/// the benchmark.
fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: layers::nproc(),
        queue_cap: 64,
        batch: 8,
        cache_capacity: 1024,
        pause_ms: 0,
        max_requests: None,
        eval_pool: true,
    }
}

/// The request mix. Fresh requests span the NPB suite plus LAMMPS, tight
/// and loose deadlines, κ ∈ {2, 4, 6}, 24–96 h of history and views
/// anywhere in the month, so they miss the plan cache; every third request
/// re-sends one of the last 48 under another tenant, which makes cache
/// hits and coalesced requests. Fresh requests walk a seeded order of all
/// (app, κ, tight/loose) combinations, so every mix has the same make-up
/// and only the details vary with the seed. Deadlines of measured
/// requests lie on a 0.01 grid and warm-up ones halfway between, so
/// warm-up never fills the cache with a measured request.
fn mix(rng: &mut Rng, n: usize, warm_up: bool) -> Vec<PlanRequest> {
    let mut combos: Vec<(usize, usize, bool)> = (0..APPS.len())
        .flat_map(|a| (0..KAPPAS.len()).flat_map(move |k| [(a, k, true), (a, k, false)]))
        .collect();
    for i in (1..combos.len()).rev() {
        combos.swap(i, rng.below(i + 1));
    }
    let mut out: Vec<PlanRequest> = Vec::with_capacity(n);
    for i in 0..n {
        if i % 3 == 2 {
            let back = rng.below(i.min(48)) + 1;
            let mut again = out[i - back].clone();
            again.tenant = format!("tenant-{}", rng.below(1000));
            out.push(again);
            continue;
        }
        let (app, kappa, tight) = combos[(i - i / 3) % combos.len()];
        let hundredths = if tight {
            110 + rng.below(21)
        } else {
            150 + rng.below(101)
        };
        let history = 24.0 + 12.0 * rng.below(7) as f64;
        let view_start = rng.below((MARKET_HOURS - history) as usize - 1) as f64;
        out.push(PlanRequest {
            tenant: format!("tenant-{}", rng.below(1000)),
            app: APPS[app].to_string(),
            deadline_factor: (hundredths as f64 + if warm_up { 0.5 } else { 0.0 }) / 100.0,
            kappa: KAPPAS[kappa],
            history_hours: history,
            view_start_hours: view_start,
            ..PlanRequest::default()
        });
    }
    out
}

/// Requests per pass for a run of `seconds`.
fn per_pass(seconds: u64) -> usize {
    (REQUESTS_PER_SECOND_OF_RUN * seconds as usize).max(200)
}

/// A server running on its own thread; stopped and joined on drop.
struct Rig {
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<ServeStats>>>,
    addr: String,
}

impl Rig {
    fn start(
        market: Arc<SpotMarket>,
        recorder: Arc<dyn Recorder + Send + Sync>,
    ) -> std::io::Result<Self> {
        let server = Server::bind(market, recorder, server_config())?;
        let handle = server.handle();
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.serve());
        Ok(Rig {
            handle,
            thread: Some(thread),
            addr,
        })
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.handle.stop();
            let _ = thread.join();
        }
    }
}

/// One pass's requests, as sent and as answered.
struct Played {
    samples: Vec<Sample>,
    answers: Vec<Option<Response>>,
}

fn play(addr: &str, requests: &[PlanRequest], schedule: &[f64], senders: usize) -> Played {
    let answers: Vec<Mutex<Option<Response>>> = requests.iter().map(|_| Mutex::new(None)).collect();
    let samples = openloop::run(schedule, senders, |i| {
        let answer = client::call(addr, &Request::Plan(requests[i].clone()));
        let ok = matches!(answer, Ok(Response::Plan { .. }));
        if let Ok(a) = answer {
            *answers[i].lock().expect("answer slot") = Some(a);
        }
        ok
    });
    let answers = answers
        .into_iter()
        .map(|m| m.into_inner().expect("answer slot"))
        .collect();
    Played { samples, answers }
}

/// The cache identity of a request: everything but the tenant.
fn canonical(req: &PlanRequest) -> String {
    let mut c = req.clone();
    c.tenant = String::new();
    serde_json::to_string(&c).expect("requests serialize")
}

/// Oracle answers: a direct `service::plan` at `threads = 1` with no pool
/// for every distinct request, computed on all cores.
fn oracle(market: &SpotMarket, requests: &[PlanRequest]) -> HashMap<String, Option<PlanReport>> {
    let mut distinct: Vec<(String, PlanRequest)> = Vec::new();
    let mut seen = HashSet::new();
    for r in requests {
        let key = canonical(r);
        if seen.insert(key.clone()) {
            let mut one = r.clone();
            one.threads = 1;
            distinct.push((key, one));
        }
    }
    let per = distinct.len().div_ceil(layers::nproc()).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = distinct
            .chunks(per)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|(k, r)| {
                            (
                                k.clone(),
                                service::plan(market, r, &NullRecorder, None).ok(),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// Mark every sample whose served report differs from the oracle as
/// failed.
fn check(
    requests: &[PlanRequest],
    played: &mut Played,
    answers: &HashMap<String, Option<PlanReport>>,
) {
    for (i, req) in requests.iter().enumerate() {
        let served = match &played.answers[i] {
            Some(Response::Plan { report, .. }) => Some(report),
            _ => None,
        };
        let expected = answers.get(&canonical(req)).and_then(Option::as_ref);
        let ok = matches!((served, expected), (Some(a), Some(b)) if a == b);
        if served.is_some() && !ok {
            common::report_mismatch(
                "plan-serve",
                format!("request {i} differs from service::plan"),
            );
        }
        played.samples[i].ok &= ok;
    }
}

fn latencies(p: &Played) -> Vec<f64> {
    p.samples.iter().map(Sample::latency).collect()
}

/// The ladder rule's view of every pass at one rate: latency pooled,
/// shedding and failures summed, lateness growth in any pass, and the
/// median achieved rate.
fn rung_summary(rate: f64, passes: &[&Played]) -> Rung {
    let achieved: Vec<f64> = passes
        .iter()
        .map(|p| {
            let first = p
                .samples
                .iter()
                .map(|s| s.due)
                .fold(f64::INFINITY, f64::min);
            let last = p.samples.iter().map(|s| s.done).fold(0.0, f64::max);
            p.samples.len() as f64 / (last - first)
        })
        .collect();
    let pooled: Vec<f64> = passes.iter().flat_map(|p| latencies(p)).collect();
    Rung {
        rate,
        achieved: stats::median(&achieved),
        p95: percentile(&pooled, 0.95),
        shed: passes
            .iter()
            .flat_map(|p| &p.answers)
            .filter(|a| matches!(a, Some(Response::Overloaded { .. })))
            .count() as u64,
        failed: passes
            .iter()
            .flat_map(|p| &p.samples)
            .filter(|s| !s.ok)
            .count() as u64,
        late_grows: passes
            .iter()
            .any(|p| lateness_grows(&p.samples, LATE_TOLERANCE_S)),
    }
}

struct State {
    market: Arc<SpotMarket>,
    rig: Rig,
    generate_s: f64,
    build_indexes_s: f64,
}

/// Set-up: synthesize and index the market, bind the server, and warm it
/// with requests disjoint from the measured ones.
fn set_up(seed: u64, rep: usize, senders: usize) -> Result<State, String> {
    let tm = common::timed_market(MARKET_SEED, MARKET_HOURS);
    let market = Arc::new(tm.market);
    let rig = Rig::start(Arc::clone(&market), Arc::new(NullRecorder)).map_err(|e| e.to_string())?;
    warm_up(&rig.addr, seed, rep, senders)?;
    Ok(State {
        market,
        rig,
        generate_s: tm.generate_s,
        build_indexes_s: tm.build_indexes_s,
    })
}

/// Send a server the warm-up mix for set-up repetition `rep`, all at once.
fn warm_up(addr: &str, seed: u64, rep: usize, senders: usize) -> Result<(), String> {
    let warm = mix(&mut Rng::new(seed, 900 + rep as u64), WARMUP_REQUESTS, true);
    let played = play(addr, &warm, &vec![0.0; warm.len()], senders);
    if played.samples.iter().any(|s| !s.ok) {
        return Err("a warm-up plan request failed".into());
    }
    Ok(())
}

/// The pass's requests and schedule: a pure function of (seed, pass).
fn pass_inputs(seed: u64, pass: usize, rate: f64, n: usize) -> (Vec<PlanRequest>, Vec<f64>) {
    let requests = mix(&mut Rng::new(seed, 10 + pass as u64), n, false);
    let schedule = stats::arrivals(&mut Rng::new(seed, 100 + pass as u64), n, rate);
    (requests, schedule)
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let senders = layers::nproc();
    let setup = common::repeat_setup(|rep| set_up(seed, rep, senders))?;
    let mut out = Outcome::default();
    out.info("senders", senders);
    out.info("connections_max", senders);
    out.info("server_workers", server_config().workers);
    out.info("ladder_rps", LADDER.to_vec());
    out.info("ref_rps", REF_RATE);
    out.info("limit_ms", ms(LIMIT_S));
    if trace {
        traced(seed, seconds, &setup.state, &mut out)?;
    } else {
        untraced(seed, seconds, &setup.state, &mut out);
        out.set("setup_s", setup.seconds);
    }
    Ok(out)
}

fn untraced(seed: u64, seconds: u64, st: &State, out: &mut Outcome) {
    let n = per_pass(seconds);
    let mut passes: Vec<(f64, Played)> = Vec::new();
    let (mut cost, mut met, mut table) = (Vec::new(), Vec::new(), Vec::new());
    for (k, &rate) in PASSES.iter().enumerate() {
        let (requests, schedule) = pass_inputs(seed, k, rate, n);
        let mut played = play(&st.rig.addr, &requests, &schedule, layers::nproc());
        let answers = oracle(&st.market, &requests);
        check(&requests, &mut played, &answers);
        for (s, a) in played.samples.iter().zip(&played.answers) {
            out.count(s.ok);
            if let (true, Some(Response::Plan { report: r, .. })) = (s.ok, a) {
                cost.push(r.expected_cost / r.baseline_cost_billed);
                met.push(if r.expected_time <= r.deadline_hours {
                    1.0
                } else {
                    0.0
                });
            }
        }
        let rung = rung_summary(rate, &[&played]);
        let lateness: Vec<f64> = played.samples.iter().map(Sample::lateness).collect();
        table.push(serde_json::json!({
            "rate": rate,
            "achieved": rung.achieved,
            "p50_ms": percentile(&latencies(&played), 0.5).map(ms),
            "p95_ms": rung.p95.map(ms),
            "samples": played.samples.len(),
            "shed": rung.shed,
            "failed": rung.failed,
            "late_grows": rung.late_grows,
            "gen_late_ms_p95": percentile(&lateness, 0.95).map(ms),
        }));
        passes.push((rate, played));
    }
    let at = |rate: f64| -> Vec<&Played> {
        passes
            .iter()
            .filter(|(r, _)| *r == rate)
            .map(|(_, p)| p)
            .collect()
    };
    let ladder: Vec<Rung> = LADDER.iter().map(|&r| rung_summary(r, &at(r))).collect();
    let reference = at(REF_RATE);
    let pass_p50: Vec<f64> = reference
        .iter()
        .filter_map(|p| percentile(&latencies(p), 0.5))
        .collect();
    let pooled: Vec<f64> = reference.iter().flat_map(|p| latencies(p)).collect();
    let p50 = ms(stats::median(&pass_p50));
    let p95 = percentile(&pooled, 0.95).map_or(f64::NAN, ms);
    let max = stats::max_passing(&ladder, LIMIT_S);
    let max_rps = max.map_or(0.0, |r| r.achieved);
    let saturated = ladder.last().map_or(f64::NAN, |r| r.achieved);
    out.set("latency_p50_ms", p50);
    out.set("throughput_per_s", saturated);
    out.set("cost_norm", stats::mean(&cost));
    out.set("deadline_met_frac", stats::mean(&met));
    out.detail("plan_p50_ms", p50, "ms");
    out.detail("plan_p95_ms", p95, "ms");
    out.detail("plan_max_rps", max_rps, "req/s");
    out.detail("plan_max_rps_rung", max.map_or(0.0, |r| r.rate), "req/s");
    out.detail("plan_saturation_rps", saturated, "req/s");
    out.info("ref_passes", pass_p50.len());
    out.info("ref_samples_per_pass", n);
    out.info("ref_samples_pooled", pooled.len());
    out.info("passes", table);
}

fn traced(seed: u64, seconds: u64, st: &State, out: &mut Outcome) -> Result<(), String> {
    let n = per_pass(seconds);
    let senders = layers::nproc();
    // A second server recording at Summary level, warmed like the first;
    // the reference passes alternate between the two.
    let ring = Arc::new(layers::ring());
    let recorder: Arc<dyn Recorder + Send + Sync> = ring.clone();
    let traced_rig = Rig::start(Arc::clone(&st.market), recorder).map_err(|e| e.to_string())?;
    warm_up(&traced_rig.addr, seed, common::SETUP_REPS, senders)?;
    ring.take();
    let (mut requests, mut answers, mut played) = (Vec::new(), HashMap::new(), Vec::new());
    let (mut plain_p50, mut traced_p50) = (Vec::new(), Vec::new());
    let refs = (0..PASSES.len()).filter(|&k| PASSES[k] == REF_RATE);
    for k in refs.take(TRACED_PASSES) {
        let (reqs, schedule) = pass_inputs(seed, k, REF_RATE, n);
        let mut plain = play(&st.rig.addr, &reqs, &schedule, senders);
        let mut traced = play(&traced_rig.addr, &reqs, &schedule, senders);
        let pass_answers = oracle(&st.market, &reqs);
        check(&reqs, &mut plain, &pass_answers);
        check(&reqs, &mut traced, &pass_answers);
        for (p, t) in plain.samples.iter().zip(&traced.samples) {
            out.count(p.ok && t.ok);
        }
        plain_p50.push(stats::median(&latencies(&plain)));
        traced_p50.push(stats::median(&latencies(&traced)));
        requests.extend(reqs);
        answers.extend(pass_answers);
        played.push(traced);
    }
    drop(traced_rig);
    let events = ring.take();
    out.set(
        "trace_overhead_frac",
        stats::median(&traced_p50) / stats::median(&plain_p50) - 1.0,
    );
    server_layers(&events, &played, out);
    offline_pass(&st.market, &requests, &answers, out)?;
    out.set("ec2-market.generate_s", st.generate_s);
    out.set("ec2-market.build_indexes_s", st.build_indexes_s);
    Ok(())
}

/// Queue, service, wire, cache and generator figures of the traced
/// passes, from the server's own events.
fn server_layers(events: &[Event], played: &[Played], out: &mut Outcome) {
    let mut done: HashMap<u64, (f64, f64)> = HashMap::new();
    let (mut hits, mut coalesced, mut shed, mut plans) = (0u64, 0u64, 0u64, 0u64);
    for e in events {
        match e {
            Event::RequestCompleted {
                id,
                queue_secs,
                service_secs,
                kind,
                ..
            } if kind == "plan" => {
                plans += 1;
                done.insert(*id, (*queue_secs, *service_secs));
            }
            Event::CacheHit { coalesced: c, .. } => {
                hits += 1;
                coalesced += u64::from(*c);
            }
            Event::RequestShed { .. } => shed += 1,
            _ => {}
        }
    }
    let (mut queue, mut service, mut wire) = (Vec::new(), Vec::new(), Vec::new());
    let samples = played.iter().flat_map(|p| p.samples.iter().zip(&p.answers));
    for (s, a) in samples {
        if let Some(Response::Plan { id, .. }) = a {
            if let Some(&(q, sv)) = done.get(id) {
                queue.push(q);
                service.push(sv);
                wire.push((s.done - s.sent) - q - sv);
            }
        }
    }
    let late: Vec<f64> = played
        .iter()
        .flat_map(|p| p.samples.iter().map(Sample::lateness))
        .collect();
    let pct = |v: &[f64], q: f64| percentile(v, q).map_or(f64::NAN, ms);
    out.set("sompi-server.queue_ms_p50", pct(&queue, 0.5));
    out.set("sompi-server.queue_ms_p95", pct(&queue, 0.95));
    out.set("sompi-server.service_ms_p50", pct(&service, 0.5));
    out.set("sompi-server.service_ms_p95", pct(&service, 0.95));
    out.set("sompi-server.wire_ms_p50", pct(&wire, 0.5));
    out.set("sompi-server.gen_late_ms_p95", pct(&late, 0.95));
    out.set(
        "sompi-server.cache_hit_frac",
        ratio(hits as f64, plans as f64),
    );
    out.set("sompi-server.coalesced", coalesced as f64);
    out.set("sompi-server.shed", shed as f64);
    out.set(
        "sompi-server.plan_searches",
        SearchStats::from_events(events).searches as f64,
    );
    out.info("server_samples", queue.len());
}

/// The service path of every distinct request, one public call at a time,
/// in the order `service::plan` makes them; checked against the oracle.
fn offline_pass(
    market: &SpotMarket,
    requests: &[PlanRequest],
    answers: &HashMap<String, Option<PlanReport>>,
    out: &mut Outcome,
) -> Result<(), String> {
    let pool = SearchPool::new(0);
    let ring = layers::ring();
    let mut seen = HashSet::new();
    let (mut problem_s, mut view_s, mut key_s, mut plan_s, mut eval_s, mut encode_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let mut plans = 0u64;
    let wall = Instant::now();
    for req in requests {
        if !seen.insert(canonical(req)) {
            continue;
        }
        let problem = timed(&mut problem_s, || common::problem(market, req))?;
        let view = timed(&mut view_s, || service::view_for(market, req));
        let _key = timed(&mut key_s, || service::plan_request_key(market, req));
        let strategy = service::strategy_from(&req.strategy, service::optimizer_config(req))
            .map_err(|e| e.to_string())?;
        let policy = TimedPolicy::new(&*strategy);
        let mut ctx = PlanContext::new().with_recorder(&ring).with_pool(&pool);
        let plan = policy
            .plan(&problem, &view, &mut ctx)
            .map_err(|e| e.to_string())?;
        plan_s += policy.seconds();
        plans += 1;
        let eval = timed(&mut eval_s, || evaluate_plan(&plan, &view))
            .map_err(|e| e.to_string())?
            .ok_or("plan has an unlaunchable bid")?;
        let response = Response::Plan {
            id: 0,
            cache: "miss".into(),
            report: PlanReport {
                app: problem.app.clone(),
                deadline_hours: problem.deadline,
                baseline_hours: problem.baseline_time(),
                baseline_cost_billed: problem.baseline_cost_billed(),
                strategy: strategy.name().to_string(),
                plan,
                expected_cost: eval.expected_cost,
                expected_time: eval.expected_time,
                p_all_fail: eval.p_all_fail,
            },
        };
        let mut buf = Vec::new();
        timed(&mut encode_s, || proto::write_message(&mut buf, &response))
            .map_err(|e| e.to_string())?;
        let Response::Plan { report, .. } = &response else {
            unreachable!("built as a plan response")
        };
        let ok = answers.get(&canonical(req)).and_then(Option::as_ref) == Some(report);
        if !ok {
            common::report_mismatch(
                "plan-serve offline pass",
                "report differs from service::plan",
            );
        }
        out.count(ok);
    }
    let wall = wall.elapsed().as_secs_f64();
    let search = SearchStats::from_events(&ring.take());
    let timed_sum = problem_s + view_s + key_s + plan_s + eval_s + encode_s;
    out.set("mpi-sim.problem_s", problem_s);
    out.set("sompi-core.view_s", view_s);
    out.set("sompi-core.view_calls", plans as f64);
    out.set("sompi-core.plan_s", plan_s);
    out.set("sompi-core.plan_calls", plans as f64);
    out.set("sompi-core.assess_s", search.assess_s);
    out.set("sompi-core.search_s", search.search_s);
    out.set("sompi-core.evaluations", search.evaluations as f64);
    out.set("sompi-core.prune_frac", search.prune_frac());
    out.set("sompi-core.evaluate_plan_s", eval_s);
    out.set(
        "sompi-server.encode_us",
        ratio(encode_s * 1e6, plans as f64),
    );
    out.set("unaccounted_frac", (wall - timed_sum) / wall);
    out.info("offline_requests", plans);
    out.info("offline_cache_key_s", key_s);
    Ok(())
}
