//! `tournament-faults`: `tournament::run_tournament` over the default
//! six-policy roster, several market seeds and a grid of fault plans.
//!
//! Why: it uses the `replay` and `sompi-core` layers differently from the
//! other workloads. It is the only one with market synthesis inside the
//! timed region; faults force the scalar `walk_group` path; the plan and
//! replay memos collapse duplicate cells; and six policies search
//! differently shaped spaces.

use crate::common::{self, Outcome};
use crate::layers::{self, ratio, SearchStats};
use crate::stats::{self, Rng};
use sompi_core::pool::SearchPool;
use sompi_obs::{Event, NullRecorder};
use sompi_server::tournament::{run_tournament, TournamentConfig, TournamentReport};
use std::time::Instant;

/// Market cases of every measured tournament; warm-up uses others.
const MARKET_SEEDS: [u64; 4] = [21, 22, 23, 24];
const WARMUP_MARKET_SEEDS: [u64; 2] = [90, 91];
const MARKET_HOURS: f64 = 720.0;
/// The fault grid: none, a storm with failing checkpoint uploads, and a
/// feed gap with checkpoint latency spikes.
const FAULTS: [Option<&str>; 3] = [
    None,
    Some("storm=0.05x0.5,ckpt-fail=0.2"),
    Some("feed-gap=0.25,ckpt-latency=0.3:0.25"),
];
/// Monte-Carlo replicas per cell.
const REPLICAS: u32 = 20_000;
/// The first tournament of a run is the quality set.
const QUALITY_RUNS: usize = 1;

/// Tournament `i` of a run: fixed markets and roster, its own
/// Monte-Carlo and fault seeds drawn from the workload seed.
fn config(rng: &mut Rng, warm_up: bool) -> TournamentConfig {
    let mut cfg = TournamentConfig {
        market_seeds: if warm_up {
            WARMUP_MARKET_SEEDS.to_vec()
        } else {
            MARKET_SEEDS.to_vec()
        },
        market_hours: MARKET_HOURS,
        fault_specs: FAULTS.iter().map(|f| f.map(String::from)).collect(),
        fault_seed: rng.next_u64() >> 16,
        replicas: REPLICAS,
        mc_seed: rng.next_u64() >> 16,
        ..TournamentConfig::default()
    };
    cfg.plan.tenant = "bench".into();
    cfg
}

fn configs(seed: u64, seconds: u64) -> Vec<TournamentConfig> {
    let mut rng = Rng::new(seed, 1);
    (0..QUALITY_RUNS + 8 * seconds as usize)
        .map(|_| config(&mut rng, false))
        .collect()
}

/// Set-up: the resident search pool every tournament shares, warmed by a
/// small tournament on other markets.
fn set_up(seed: u64, rep: usize) -> Result<SearchPool, String> {
    let pool = SearchPool::new(0);
    let warm = config(&mut Rng::new(seed, 900 + rep as u64), true);
    run_tournament(&warm, &NullRecorder, Some(&pool)).map_err(|e| e.to_string())?;
    Ok(pool)
}

/// The oracle: the report's JSON is byte-identical to a run with the
/// search held to one thread.
fn matches_one_thread(cfg: &TournamentConfig, report: &TournamentReport) -> bool {
    let mut one = cfg.clone();
    one.plan.threads = 1;
    let pool = SearchPool::new(1);
    let ok = run_tournament(&one, &NullRecorder, Some(&pool))
        .is_ok_and(|r| r.to_json() == report.to_json());
    if !ok {
        common::report_mismatch("tournament-faults", "JSON differs at threads = 1");
    }
    ok
}

/// `cost_norm`, deadline met share and model gap over the `sompi` cells.
fn sompi_quality(report: &TournamentReport) -> (f64, f64, f64) {
    let cells: Vec<_> = report
        .cells
        .iter()
        .filter(|c| c.policy == "SOMPI")
        .collect();
    let cost: Vec<f64> = cells.iter().map(|c| c.normalized_cost).collect();
    let met: Vec<f64> = cells.iter().map(|c| 1.0 - c.deadline_miss_rate).collect();
    let gap: Vec<f64> = cells
        .iter()
        .filter_map(|c| {
            c.expected_cost
                .map(|e| (e - c.mean_cost).abs() / c.mean_cost)
        })
        .collect();
    (stats::mean(&cost), stats::mean(&met), stats::mean(&gap))
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let setup = common::repeat_setup(|rep| set_up(seed, rep))?;
    let pool = &setup.state;
    let cfgs = configs(seed, seconds);
    let mut out = Outcome::default();
    out.info(
        "cells_per_tournament",
        cfgs[0].policies.len() * MARKET_SEEDS.len() * FAULTS.len(),
    );
    out.info("replicas_per_cell", REPLICAS);
    out.info("threads", layers::nproc());
    if trace {
        traced(&cfgs, pool, seconds, &mut out)?;
        return Ok(out);
    }
    let done = common::run_for(&cfgs, seconds as f64, QUALITY_RUNS, |cfg| {
        run_tournament(cfg, &NullRecorder, Some(pool)).map_err(|e| e.to_string())
    });
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let (mut cost, mut met, mut gap) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (r, wall)) in done.iter().enumerate() {
        let ok = match r {
            Ok(report) => {
                walls.push(*wall);
                rates.push(report.cells.len() as f64 / wall);
                if i < QUALITY_RUNS {
                    let (c, m, g) = sompi_quality(report);
                    cost.push(c);
                    met.push(m);
                    gap.push(g);
                    matches_one_thread(&cfgs[i], report)
                } else {
                    true
                }
            }
            Err(e) => {
                common::report_mismatch("tournament-faults", e);
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
    out.detail("cells_per_s", throughput, "cells/s");
    out.detail("cost_norm", stats::mean(&cost), "ratio");
    out.detail("deadline_miss_frac", 1.0 - stats::mean(&met), "fraction");
    out.detail("model_gap", stats::mean(&gap), "ratio");
    out.info("tournaments", walls.len());
    Ok(out)
}

fn traced(
    cfgs: &[TournamentConfig],
    pool: &SearchPool,
    seconds: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    // Half the time untraced, then the same tournaments traced.
    let plain = common::run_for(cfgs, seconds as f64 / 2.0, 1, |cfg| {
        run_tournament(cfg, &NullRecorder, Some(pool)).map_err(|e| e.to_string())
    });
    let ring = layers::ring();
    let (mut wall, mut generate_s) = (0.0, 0.0);
    let (mut hits, mut misses) = (0u64, 0u64);
    for (cfg, (untraced, _)) in cfgs.iter().zip(&plain) {
        // The market synthesis the tournament performs inside, timed as
        // the same calls made apart from it. (Its trace indexes are built
        // lazily, per group touched, so they stay in `unaccounted_frac`.)
        for &s in &cfg.market_seeds {
            let t = Instant::now();
            std::hint::black_box(common::market(s, cfg.market_hours));
            generate_s += t.elapsed().as_secs_f64();
        }
        let t = Instant::now();
        let traced = run_tournament(cfg, &ring, Some(pool)).map_err(|e| e.to_string());
        wall += t.elapsed().as_secs_f64();
        let ok = match (&traced, untraced) {
            (Ok(a), Ok(b)) => {
                hits += a.replay_memo_hits;
                misses += a.replay_memo_misses;
                a.to_json() == b.to_json()
            }
            _ => false,
        };
        if !ok {
            common::report_mismatch("tournament-faults traced", "traced report differs");
        }
        out.count(ok);
    }
    let plain_wall: f64 = plain.iter().map(|(_, w)| w).sum();
    let events = ring.take();
    let search = SearchStats::from_events(&events);
    let (built, reused) = layers::death_tables(&events);
    let evaluated = events
        .iter()
        .filter(|e| matches!(e, Event::PolicyEvaluated { .. }))
        .count();
    out.set("ec2-market.generate_s", generate_s);
    out.set("ec2-market.death_tables_built", built as f64);
    out.set("ec2-market.death_tables_reused", reused as f64);
    out.set("sompi-core.assess_s", search.assess_s);
    out.set("sompi-core.search_s", search.search_s);
    out.set("sompi-core.evaluations", search.evaluations as f64);
    out.set("sompi-core.prune_frac", search.prune_frac());
    out.set("sompi-server.plan_searches", search.searches as f64);
    out.set(
        "sompi-server.memo_hit_frac",
        ratio(hits as f64, (hits + misses) as f64),
    );
    let timed_sum = generate_s + search.assess_s + search.search_s;
    out.set("unaccounted_frac", (wall - timed_sum) / wall);
    out.set("trace_overhead_frac", wall / plain_wall - 1.0);
    out.info("tournaments", plain.len());
    out.info("cells_evaluated", evaluated);
    Ok(())
}
