//! Differential suite for the one-level-of-parallelism rule: an adaptive
//! replay runs an optimizer search every window it re-plans, inside a
//! Monte-Carlo worker. A Monte-Carlo run that spawns `w` workers gives
//! each its share of the cores (`sompi_core::parallel::WorkerShare`),
//! and a search in a worker uses at most that share — one thread, inline,
//! once the workers fill the cores.
//!
//! Thread counts are a wall-clock knob only: the adaptive report must be
//! bit-identical over Monte-Carlo threads {1, 2, 4, auto} × search
//! threads {auto, 1, 4}, clean and under faults, with enough replicas
//! (four chunks) that threads 2 and 4 really run several workers at once.
//! Every search must report the thread count its worker's share allows
//! and never dispatch to a search pool. A one-chunk run spawns one worker
//! and leaves its searches the configured count.

use ec2_market::fault::{FaultInjector, FaultPlan, RetryPolicy};
use ec2_market::instance::InstanceCatalog;
use ec2_market::market::SpotMarket;
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use replay::{AdaptiveRunner, ExecContext, McResult, MonteCarlo};
use sompi_core::adaptive::AdaptiveConfig;
use sompi_core::parallel::resolve_threads;
use sompi_obs::{Event, NullRecorder, RingRecorder, TraceLevel};
use sompi_server::proto::{PlanRequest, ReplayRequest};
use sompi_server::service::{self, ReplayReport};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const MC_THREADS: [usize; 4] = [1, 2, 4, 0];
const SEARCH_THREADS: [u32; 3] = [0, 1, 4];
const FAULTS: [Option<&str>; 2] = [None, Some("feed-gap=0.5,ckpt-fail=0.3")];
/// Monte-Carlo chunks hold 64 replicas: 200 replicas are four chunks, so
/// threads 2 and 4 spawn two and four workers; 50 replicas are one chunk.
const REPLICAS: u32 = 200;
const CHUNKS: usize = 4;
const ONE_CHUNK: u32 = 50;

fn market() -> SpotMarket {
    let cat = InstanceCatalog::paper_2014();
    let prof = MarketProfile::paper_2014(&cat);
    SpotMarket::generate(cat, &TraceGenerator::new(prof, 5), 300.0, 1.0 / 12.0)
}

fn request(search_threads: u32, faults: Option<&str>, replicas: u32) -> ReplayRequest {
    ReplayRequest {
        plan: PlanRequest {
            repeats: 300,
            kappa: 2,
            bid_levels: 3,
            threads: search_threads,
            ..Default::default()
        },
        replicas,
        mc_seed: 3,
        adaptive: true,
        window_hours: 1.0,
        faults: faults.map(str::to_string),
        fault_seed: 7,
        ..Default::default()
    }
}

/// `service::replay`'s adaptive path with the Monte-Carlo thread count
/// pinned and a recorder in the execution context: the same problem,
/// offsets, runner config, faults and retry policy. Also returns how many
/// distinct threads ran replicas.
fn adaptive_mc(
    market: &SpotMarket,
    req: &ReplayRequest,
    mc_threads: usize,
    recorder: &RingRecorder,
) -> ((McResult, u64, u64), usize) {
    let p = &req.plan;
    let app = service::app_profile(&p.app, &p.class, p.procs, p.repeats).unwrap();
    let problem = service::build_problem(market, &app, p.deadline_factor).unwrap();
    let injector = req.faults.as_deref().map(|spec| {
        FaultInjector::new(
            FaultPlan::parse(spec, req.fault_seed).unwrap(),
            market.horizon(),
        )
    });
    let mut ctx = ExecContext::new().with_recorder(recorder);
    if let Some(inj) = &injector {
        ctx = ctx.with_faults(inj).with_retry(RetryPolicy::default_io());
    }
    let margin = problem.baseline_time() * 4.0 + 4.0;
    let max = (market.horizon() - margin).max(p.history_hours + 1.0);
    let mc = MonteCarlo::builder()
        .replicas(req.replicas as usize)
        .seed(req.mc_seed)
        .offsets(p.history_hours, max)
        .threads(mc_threads)
        .build();
    let runner = AdaptiveRunner::new(
        market,
        AdaptiveConfig {
            window_hours: req.window_hours,
            history_hours: p.history_hours,
            optimizer: service::optimizer_config(p),
            warmstart: req.warmstart,
            bucket_reuse: req.bucket_reuse,
        },
    );
    let (windows, changes) = (AtomicU64::new(0), AtomicU64::new(0));
    let workers = Mutex::new(HashSet::new());
    let result = mc
        .evaluate(|start| {
            workers.lock().unwrap().insert(std::thread::current().id());
            let o = runner.run(&problem, start, &ctx)?;
            windows.fetch_add(u64::from(o.windows), Ordering::Relaxed);
            changes.fetch_add(u64::from(o.plan_changes), Ordering::Relaxed);
            Ok(o.run)
        })
        .unwrap();
    let workers = workers.into_inner().unwrap().len();
    (
        (result, windows.into_inner(), changes.into_inner()),
        workers,
    )
}

fn matches_report(got: &(McResult, u64, u64), report: &ReplayReport) -> bool {
    let (mc, windows, changes) = got;
    let n = f64::from(report.replicas);
    mc.cost == report.cost
        && mc.time == report.time
        && mc.deadline_rate == report.deadline_rate
        && mc.spot_finish_rate == report.spot_finish_rate
        && mc.mean_failures == report.mean_failures
        && report.mean_windows == Some(*windows as f64 / n)
        && report.mean_plan_changes == Some(*changes as f64 / n)
}

/// Plan events a run emitted: whether every search used `expected`
/// threads (a search never runs more threads than it has subsets), how
/// many searches ran, and whether any search dispatched to a pool.
fn searches_used(ring: &RingRecorder, expected: u32) -> (bool, usize, bool) {
    let events = ring.take();
    let searches: Vec<(u32, u64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::PlanSearchStarted {
                threads, subsets, ..
            } => Some((*threads, *subsets)),
            _ => None,
        })
        .collect();
    let as_expected = searches
        .iter()
        .all(|&(t, subsets)| u64::from(t) == u64::from(expected).min(subsets.max(1)));
    let pooled = events.iter().any(|e| e.kind() == "SearchPoolUsed");
    (as_expected, searches.len(), pooled)
}

/// The workers a Monte-Carlo run over [`CHUNKS`] chunks spawns at
/// `mc_threads`: chunks are dealt out in equal runs, one run per worker.
fn spawned_workers(mc_threads: usize) -> usize {
    let per_worker = CHUNKS.div_ceil(resolve_threads(mc_threads).min(CHUNKS));
    CHUNKS.div_ceil(per_worker)
}

/// The thread count a search configured with `search` threads resolves
/// to inside one of `workers` Monte-Carlo workers.
fn expected_search_threads(workers: usize, search: u32) -> u32 {
    if workers <= 1 {
        return resolve_threads(search as usize) as u32;
    }
    let cores = resolve_threads(0);
    let share = (cores / workers).max(1);
    let configured = if search == 0 { share } else { search as usize };
    configured.min(share) as u32
}

#[test]
fn adaptive_replay_is_identical_over_the_thread_grid_and_nests_no_parallelism() {
    let market = market();
    for faults in FAULTS {
        let reference =
            service::replay(&market, &request(1, faults, REPLICAS), &NullRecorder).unwrap();
        assert!(reference.mean_windows.unwrap() > 1.0, "runs span windows");
        for search in SEARCH_THREADS {
            let req = request(search, faults, REPLICAS);
            let report = service::replay(&market, &req, &NullRecorder).unwrap();
            assert_eq!(report, reference, "service report, search threads {search}");
            for mc in MC_THREADS {
                let label = format!("faults {faults:?}, mc threads {mc}, search threads {search}");
                let ring = RingRecorder::new(TraceLevel::Summary, 1 << 18);
                let (got, workers) = adaptive_mc(&market, &req, mc, &ring);
                assert!(matches_report(&got, &reference), "{label}: report diverged");
                assert_eq!(workers, spawned_workers(mc), "{label}: worker threads");

                let expected = expected_search_threads(workers, search);
                let (as_expected, searches, pooled) = searches_used(&ring, expected);
                assert!(searches > 0, "{label}: adaptive replicas search");
                assert!(
                    as_expected,
                    "{label}: searches did not use {expected} threads"
                );
                assert!(!pooled, "{label}: a search dispatched to a pool");
            }
        }
    }
}

#[test]
fn a_one_chunk_replay_leaves_its_searches_the_configured_threads() {
    let market = market();
    for search in SEARCH_THREADS {
        let req = request(search, None, ONE_CHUNK);
        let reference = service::replay(&market, &req, &NullRecorder).unwrap();
        for mc in MC_THREADS {
            let label = format!("mc threads {mc}, search threads {search}");
            let ring = RingRecorder::new(TraceLevel::Summary, 1 << 16);
            let (got, workers) = adaptive_mc(&market, &req, mc, &ring);
            assert!(matches_report(&got, &reference), "{label}: report diverged");
            assert_eq!(workers, 1, "{label}: one chunk runs on one worker");
            let expected = resolve_threads(search as usize) as u32;
            let (as_expected, searches, _) = searches_used(&ring, expected);
            assert!(searches > 0, "{label}: adaptive replicas search");
            assert!(
                as_expected,
                "{label}: searches did not use {expected} threads"
            );
        }
    }
}
