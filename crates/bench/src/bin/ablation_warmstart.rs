//! Warm-start ablation — per-window re-plan wall-clock across a
//! many-window adaptive study on the drifting stress market (DESIGN.md
//! §12).
//!
//! Two studies, two configurations each:
//!
//! * **windows** — a sliding 48 h view stepped every 2 h across the
//!   non-stationary stress market (the adaptive loop's steady state,
//!   where every window really re-searches a drifted view),
//! * **replan storm** — repeated re-plans against the *same* view (what
//!   failure-triggered replans inside one window do); this is where the
//!   bucket-table layer pays, since the history digest is unchanged.
//!
//! The configurations:
//!
//! 1. `cold` — no carried state (every search from scratch),
//! 2. `warm` — per-`(group, bid)` bucket tables reused across searches
//!    (the adaptive loop's default).
//!
//! The warm configuration must select a plan bit-identical to the cold
//! reference in **every** window — table reuse is exactness-preserving,
//! only re-plan wall-clock may change. The per-search table reuse
//! counters are read back from the optimizer's own `WarmStartApplied`
//! trace events.
//!
//! `--smoke` shrinks the study (fewer windows, smaller search) for a fast
//! CI sanity check of the same identity assertions. The full run writes
//! the measured baseline to `BENCH_warmstart.json`.

use mpi_sim::npb::NpbKernel;
use sompi_bench::{build_problem, npb_workload, stress_market, Table, HISTORY_HOURS};
use sompi_core::adaptive::PlanContext;
use sompi_core::model::Plan;
use sompi_core::twolevel::{OptimizerConfig, TwoLevelOptimizer};
use sompi_core::view::MarketView;
use sompi_core::warmstart::WarmStart;
use sompi_core::Problem;
use sompi_obs::{Event, RingRecorder, TraceLevel};
use std::time::Instant;

/// Window stride of the sliding-view study, hours (a small `T_m`, so the
/// market drifts a little — but measurably — between re-plans).
const WINDOW_STEP_HOURS: f64 = 2.0;

/// The warm-start ablation ladder, cold first.
fn ladder() -> Vec<(&'static str, Option<WarmStart>)> {
    vec![("cold", None), ("warm", Some(WarmStart::new()))]
}

/// One arm's measurements over a window sequence.
struct ArmResult {
    name: &'static str,
    /// Wall-clock of every re-plan, in window order.
    window_secs: Vec<f64>,
    /// Bucket-table entries served from / missing the warm cache.
    tables_reused: u64,
    tables_rebuilt: u64,
    /// The selected plan per window (for the bit-identity assertion).
    plans: Vec<Plan>,
}

impl ArmResult {
    fn total_secs(&self) -> f64 {
        self.window_secs.iter().sum()
    }

    /// Mean re-plan seconds once the warm state exists (window 0 is cold
    /// in every arm — there is nothing to carry yet).
    fn steady_secs(&self) -> f64 {
        let tail = &self.window_secs[1..];
        tail.iter().sum::<f64>() / tail.len().max(1) as f64
    }
}

/// Replay one arm over the given views, carrying its warm state across
/// searches exactly like the adaptive loop does.
fn run_arm(
    name: &'static str,
    problem: &Problem,
    views: &[MarketView],
    cfg: OptimizerConfig,
    mut warm: Option<WarmStart>,
) -> ArmResult {
    let mut out = ArmResult {
        name,
        window_secs: Vec::with_capacity(views.len()),
        tables_reused: 0,
        tables_rebuilt: 0,
        plans: Vec::with_capacity(views.len()),
    };
    for view in views {
        let r = RingRecorder::new(TraceLevel::Summary, 64);
        let started = Instant::now();
        let mut ctx = PlanContext::new().with_recorder(&r);
        if let Some(w) = warm.as_mut() {
            ctx = ctx.with_warm(w);
        }
        let opt = TwoLevelOptimizer::new(problem, view, cfg)
            .optimize_with(&mut ctx)
            .expect("stress-market candidates are drawn from the view's market");
        out.window_secs.push(started.elapsed().as_secs_f64());
        for ev in r.take() {
            if let Event::WarmStartApplied {
                tables_reused,
                tables_rebuilt,
            } = ev
            {
                out.tables_reused += tables_reused;
                out.tables_rebuilt += tables_rebuilt;
            }
        }
        out.plans.push(opt.plan);
    }
    out
}

/// Run both arms over `views`, assert per-window bit-identity against
/// the cold reference, print the table, and return the arm results.
fn run_study(
    label: &str,
    problem: &Problem,
    views: &[MarketView],
    cfg: OptimizerConfig,
) -> Vec<ArmResult> {
    println!("{label}");
    let mut t = Table::new([
        "config",
        "total (s)",
        "steady/window (s)",
        "speedup",
        "tbl reused",
        "tbl rebuilt",
        "identical",
    ]);
    let mut arms = Vec::new();
    for (name, warm) in ladder() {
        let arm = run_arm(name, problem, views, cfg, warm);
        arms.push(arm);
    }
    let cold_steady = arms[0].steady_secs();
    for arm in &arms {
        let identical = arm.plans == arms[0].plans;
        t.row([
            arm.name.into(),
            format!("{:.3}", arm.total_secs()),
            format!("{:.4}", arm.steady_secs()),
            format!("{:.2}x", cold_steady / arm.steady_secs()),
            format!("{}", arm.tables_reused),
            format!("{}", arm.tables_rebuilt),
            if identical { "yes".into() } else { "NO".into() },
        ]);
        assert!(
            identical,
            "warm-start arm {:?} changed a selected plan — exactness violated",
            arm.name
        );
    }
    t.print();
    println!();
    arms
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let windows = if smoke { 8 } else { 50 };
    // Search-dominated configuration: the Theorem 1 interval-grid
    // ablation multiplies per-candidate work so the odometer walk
    // dominates fixed setup, as in the heavy
    // `ablation_prune` study. Smoke keeps the search small.
    let cfg = if smoke {
        OptimizerConfig {
            kappa: 2,
            bid_levels: 5,
            ..Default::default()
        }
    } else {
        OptimizerConfig {
            interval_grid: Some(12),
            ..Default::default()
        }
    };
    println!(
        "Warm-start ablation (kappa = {}, {} bid levels, {} windows, {} cores){}",
        cfg.kappa,
        cfg.bid_levels,
        windows,
        cores,
        if smoke { " [smoke]" } else { "" }
    );
    println!();

    // The drifting stress market: base price levels re-roll every ~50 h,
    // so consecutive windows see genuinely different markets — table
    // reuse must stay exact under drift, not just under repetition.
    let horizon = HISTORY_HOURS + 2.0 + windows as f64 * WINDOW_STEP_HOURS;
    let market = stress_market(20140815, horizon + 10.0);
    let profile = npb_workload(NpbKernel::Bt);
    let problem = build_problem(&market, &profile, sompi_bench::TIGHT);

    // Sliding views, one per window, exactly as the adaptive loop builds
    // them: the most recent HISTORY_HOURS ending at each window boundary.
    let sliding: Vec<MarketView> = (0..windows)
        .map(|i| {
            let now = HISTORY_HOURS + 1.0 + i as f64 * WINDOW_STEP_HOURS;
            MarketView::from_market(&market, now - HISTORY_HOURS, HISTORY_HOURS)
        })
        .collect();
    let window_arms = run_study(
        "windows study: sliding 48 h views over the drifting market",
        &problem,
        &sliding,
        cfg,
    );

    // Replan storm: the same view re-searched repeatedly, as happens when
    // out-of-bid kills force several re-plans inside one window. The
    // history digest never drifts here, so the bucket tables hit on every
    // search after the first.
    let storm_views: Vec<MarketView> = (0..windows.min(12))
        .map(|_| MarketView::from_market(&market, 1.0, HISTORY_HOURS))
        .collect();
    let storm_arms = run_study(
        "replan storm: repeated re-plans against one unchanged view",
        &problem,
        &storm_views,
        cfg,
    );

    println!("(Every row must match the cold reference bit-identically:");
    println!(" bucket-table reuse is exactness-preserving; only re-plan");
    println!(" wall-clock changes.)");

    if !smoke {
        let warm = &window_arms[1];
        let cold = &window_arms[0];
        let arm_doc = |a: &ArmResult, reference: f64| {
            serde_json::json!({
                "name": a.name,
                "total_secs": a.total_secs(),
                "steady_per_window_secs": a.steady_secs(),
                "speedup": reference / a.steady_secs(),
                "tables_reused": a.tables_reused,
                "tables_rebuilt": a.tables_rebuilt,
            })
        };
        let study_doc = |name: &str, work: String, arms: &[ArmResult]| {
            let reference = arms[0].steady_secs();
            serde_json::json!({
                "name": name,
                "work": work,
                "arms": arms.iter().map(|a| arm_doc(a, reference)).collect::<Vec<_>>(),
            })
        };
        let windows_doc = study_doc(
            "windows",
            format!("{windows} sliding 48 h views, drifting stress market"),
            &window_arms,
        );
        let storm_doc = study_doc(
            "replan-storm",
            format!("{} re-plans, one unchanged view", storm_views.len()),
            &storm_arms,
        );
        let doc = serde_json::json!({
            "bench": "ablation_warmstart",
            "cores": cores,
            "windows": windows,
            "window_step_hours": WINDOW_STEP_HOURS,
            "studies": [windows_doc, storm_doc],
            "warm_speedup": cold.steady_secs() / warm.steady_secs(),
        });
        let json = serde_json::to_string_pretty(&doc).expect("serializable");
        std::fs::write("BENCH_warmstart.json", json + "\n").expect("write BENCH_warmstart.json");
        println!("\nwrote BENCH_warmstart.json");
    }
}
