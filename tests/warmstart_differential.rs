//! Differential suite for warm-started incremental re-optimization
//! (DESIGN.md §12): across a many-window study over the drifting stress
//! market, warm starts with bucket-table reuse on and off, at every thread
//! count, must select plans bit-identical to the cold single-threaded
//! reference.
//!
//! Per-`(group, bid)` bucket-table reuse only changes how fast the
//! assessments build — the tables truncate bit-identically — so any
//! divergence here is an exactness bug, not noise.

use sompi_bench::{build_problem, npb_workload, stress_market, HISTORY_HOURS, TIGHT};
use sompi_core::adaptive::AdaptiveConfig;
use sompi_core::adaptive::PlanContext;
use sompi_core::model::Plan;
use sompi_core::twolevel::{OptimizerConfig, TwoLevelOptimizer};
use sompi_core::view::MarketView;
use sompi_core::warmstart::WarmStart;
use sompi_core::Problem;

const WINDOWS: usize = 50;
const STEP_HOURS: f64 = 2.0;

/// The study scaffold: a drifting stress market and one sliding 48 h view
/// per window, exactly as the adaptive loop builds them.
fn study() -> (Problem, Vec<MarketView>) {
    let horizon = HISTORY_HOURS + 2.0 + WINDOWS as f64 * STEP_HOURS + 10.0;
    let market = stress_market(20140816, horizon);
    let profile = npb_workload(mpi_sim::npb::NpbKernel::Bt);
    let problem = build_problem(&market, &profile, TIGHT);
    let views = (0..WINDOWS)
        .map(|i| {
            let now = HISTORY_HOURS + 1.0 + i as f64 * STEP_HOURS;
            MarketView::from_market(&market, now - HISTORY_HOURS, HISTORY_HOURS)
        })
        .collect();
    (problem, views)
}

/// Re-plan every window in order, carrying `warm` across searches, and
/// return the selected plan sequence.
fn run_study(
    problem: &Problem,
    views: &[MarketView],
    threads: usize,
    mut warm: Option<WarmStart>,
) -> Vec<Plan> {
    let cfg = OptimizerConfig {
        kappa: 2,
        bid_levels: 4,
        threads,
        ..Default::default()
    };
    views
        .iter()
        .map(|view| {
            let mut ctx = PlanContext::new();
            if let Some(w) = warm.as_mut() {
                ctx = ctx.with_warm(w);
            }
            TwoLevelOptimizer::new(problem, view, cfg)
                .optimize_with(&mut ctx)
                .expect("candidates are drawn from the view's market")
                .plan
        })
        .collect()
}

#[test]
fn warm_plans_are_bit_identical_across_threads_and_ablations() {
    let (problem, views) = study();
    // Reference: cold, single-threaded — the sequential pre-warm-start
    // planner replayed over the whole study.
    let reference = run_study(&problem, &views, 1, None);
    assert_eq!(reference.len(), WINDOWS);
    // The drifting market must actually change plans across the study,
    // otherwise the differential would only exercise repetition.
    assert!(
        reference.windows(2).any(|w| w[0] != w[1]),
        "the study never changed plans — market drift too weak to test warm-start"
    );

    for threads in [1usize, 4, 0] {
        let cold = run_study(&problem, &views, threads, None);
        assert_eq!(cold, reference, "cold diverged at threads={threads}");
        for tables_on in [true, false] {
            let warm = WarmStart::new().with_table_reuse(tables_on);
            let got = run_study(&problem, &views, threads, Some(warm));
            assert_eq!(
                got, reference,
                "warm(tables={tables_on}) diverged at threads={threads}"
            );
        }
    }
}

#[test]
fn warm_state_survives_a_full_study_and_stays_exact_when_resumed() {
    // Dropping the carried tables mid-study and refilling them must not
    // change any later selection.
    let (problem, views) = study();
    let reference = run_study(&problem, &views, 0, None);

    let cfg = OptimizerConfig {
        kappa: 2,
        bid_levels: 4,
        threads: 0,
        ..Default::default()
    };
    let mut warm = WarmStart::new();
    let mut got = Vec::with_capacity(views.len());
    for (i, view) in views.iter().enumerate() {
        if i == WINDOWS / 2 {
            // Mid-study reset: the cache restarts from nothing.
            assert!(warm.cached_groups() > 0);
            warm.clear();
            assert_eq!(warm.cached_groups(), 0);
        }
        got.push(
            TwoLevelOptimizer::new(&problem, view, cfg)
                .optimize_with(&mut PlanContext::new().with_warm(&mut warm))
                .expect("candidates are drawn from the view's market")
                .plan,
        );
    }
    assert_eq!(got, reference);
    assert!(warm.cached_groups() > 0);
}

#[test]
fn adaptive_studies_are_bit_identical_under_every_ablation_and_thread_count() {
    // The end-to-end version: full adaptive replays (windowed Algorithm 1
    // with plan continuity, caching, and the warm state threaded by the
    // runner) over the stress market, compared outcome-for-outcome.
    use replay::adaptive_exec::AdaptiveRunner;
    use replay::exec::ExecContext;

    let market = stress_market(20140817, 400.0);
    let profile = npb_workload(mpi_sim::npb::NpbKernel::Bt);
    let problem = build_problem(&market, &profile, 2.0);
    let ctx = ExecContext::new();

    let outcome = |threads: usize, bucket_reuse: bool| {
        let cfg = AdaptiveConfig {
            window_hours: 1.0,
            history_hours: HISTORY_HOURS,
            optimizer: OptimizerConfig {
                kappa: 2,
                bid_levels: 3,
                threads,
                ..Default::default()
            },
            bucket_reuse,
            ..Default::default()
        };
        let runner = AdaptiveRunner::new(&market, cfg);
        [60.0, 140.0].map(|start| runner.run(&problem, start, &ctx).expect("replay succeeds"))
    };

    let reference = outcome(1, false);
    for threads in [1usize, 4, 0] {
        for b in [true, false] {
            assert_eq!(
                outcome(threads, b),
                reference,
                "adaptive outcome diverged at threads={threads}, bucket_reuse={b}"
            );
        }
    }
}
