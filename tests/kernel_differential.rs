//! Differential suite for the evaluation kernel and the persistent
//! search worker pool (DESIGN.md §14).
//!
//! * Per candidate: the caps-memo kernel behind `evaluate_with_scratch`
//!   must equal `evaluate_reference`, the textbook `O(2^k·k·T)` oracle,
//!   bit for bit on every `Evaluation` field — on randomized candidates
//!   of k = 1..=8 groups with the edge cases the memo could get wrong.
//! * Per plan: across three markets plus the interval-grid study, every
//!   combination of {pool on/off} × threads {1, 4, auto} must select the
//!   plan of the single-threaded, pool-free search, and that plan's
//!   evaluation must equal the oracle over its re-assessed groups.
//! * End to end: the CLI smoke configuration planned through
//!   `service::plan` reports the oracle's numbers.
//!
//! The caps table reuses the exact left-to-right bucket summation order
//! of the reference loop, and the pool never decides how work is split —
//! so any divergence here is an exactness bug, not floating-point noise.

use ec2_market::instance::InstanceTypeId;
use ec2_market::market::CircleGroupId;
use ec2_market::zone::AvailabilityZone;
use sompi_bench::{
    build_problem, lammps_workload, npb_workload, paper_market, planning_view, stress_market,
    PROCESSES, TIGHT,
};
use sompi_core::adaptive::PlanContext;
use sompi_core::cost::{
    evaluate_reference, evaluate_with_scratch, EvalScratch, Evaluation, GroupAssessment,
};
use sompi_core::model::{CircleGroup, GroupDecision, OnDemandOption, Plan};
use sompi_core::pool::SearchPool;
use sompi_core::twolevel::{OptimizedPlan, OptimizerConfig, TwoLevelOptimizer};
use sompi_core::view::MarketView;
use sompi_core::Problem;
use sompi_obs::NullRecorder;
use sompi_server::proto::PlanRequest;
use sompi_server::service;

/// The three study markets: the calibrated paper market, the drifting
/// stress market, and the paper market under the LAMMPS profile (a
/// different candidate geometry).
fn studies() -> Vec<(&'static str, Problem, MarketView)> {
    let mut out = Vec::new();
    {
        let market = paper_market(42, 200.0);
        let problem = build_problem(&market, &npb_workload(mpi_sim::npb::NpbKernel::Bt), TIGHT);
        let view = planning_view(&market);
        out.push(("paper/BT", problem, view));
    }
    {
        let market = stress_market(20140816, 200.0);
        let problem = build_problem(&market, &npb_workload(mpi_sim::npb::NpbKernel::Ft), TIGHT);
        let view = planning_view(&market);
        out.push(("stress/FT", problem, view));
    }
    {
        let market = paper_market(7, 200.0);
        let problem = build_problem(&market, &lammps_workload(PROCESSES), TIGHT);
        let view = planning_view(&market);
        out.push(("paper/LAMMPS", problem, view));
    }
    out
}

fn optimize(
    problem: &Problem,
    view: &MarketView,
    cfg: OptimizerConfig,
    pool: Option<&SearchPool>,
) -> OptimizedPlan {
    let mut ctx = PlanContext::new();
    if let Some(pool) = pool {
        ctx = ctx.with_pool(pool);
    }
    TwoLevelOptimizer::new(problem, view, cfg)
        .optimize_with(&mut ctx)
        .expect("candidates are drawn from the view's market")
}

/// Bitwise comparison of every `Evaluation` field — stricter than the
/// `PartialEq` derive, which would let `-0.0 == 0.0` slide.
fn assert_eval_bits(a: &Evaluation, b: &Evaluation, label: &str) {
    let pairs = [
        (a.expected_cost, b.expected_cost),
        (a.expected_time, b.expected_time),
        (a.p_all_fail, b.p_all_fail),
        (a.expected_spot_cost, b.expected_spot_cost),
        (a.expected_od_cost, b.expected_od_cost),
    ];
    for (i, (x, y)) in pairs.iter().enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: evaluation field {i} diverged ({x} vs {y})"
        );
    }
}

fn assert_bits_identical(a: &OptimizedPlan, b: &OptimizedPlan, label: &str) {
    assert_eq!(a.plan, b.plan, "{label}: plan diverged");
    assert_eval_bits(&a.evaluation, &b.evaluation, label);
    assert_eq!(
        a.evaluations_performed, b.evaluations_performed,
        "{label}: evaluation count diverged"
    );
}

/// The oracle's evaluation of `plan`, re-assessing every group against
/// `view` from scratch.
fn reference_for(plan: &Plan, view: &MarketView) -> Evaluation {
    let assessed: Vec<GroupAssessment> = plan
        .groups
        .iter()
        .map(|(g, d)| {
            GroupAssessment::assess(*g, *d, view)
                .expect("planned groups are in the view")
                .expect("planned bids launch")
        })
        .collect();
    let refs: Vec<&GroupAssessment> = assessed.iter().collect();
    evaluate_reference(&refs, &plan.on_demand)
}

fn run_grid(base: OptimizerConfig, problem: &Problem, view: &MarketView, market_label: &str) {
    // Reference: single thread, no pool.
    let reference = optimize(problem, view, OptimizerConfig { threads: 1, ..base }, None);
    assert!(
        reference.evaluations_performed > 0,
        "{market_label}: empty search space tests nothing"
    );
    assert_eval_bits(
        &reference_for(&reference.plan, view),
        &reference.evaluation,
        &format!("{market_label} vs evaluate_reference"),
    );

    let pool = SearchPool::new(3); // deliberately mismatched with `threads`
    for pooled in [false, true] {
        for threads in [1usize, 4, 0] {
            let cfg = OptimizerConfig { threads, ..base };
            let got = optimize(problem, view, cfg, pooled.then_some(&pool));
            assert_bits_identical(
                &reference,
                &got,
                &format!("{market_label} pool={pooled} threads={threads}"),
            );
        }
    }
}

#[test]
fn plans_are_bit_identical_across_kernel_and_pool_ablations() {
    for (label, problem, view) in &studies() {
        run_grid(
            OptimizerConfig {
                kappa: 2,
                bid_levels: 3,
                ..Default::default()
            },
            problem,
            view,
            label,
        );
    }
}

#[test]
fn interval_grid_study_is_bit_identical_too() {
    // The interval-grid ablation multiplies per-candidate work (every
    // checkpoint-interval grid point is a separate kernel call), so it
    // stresses the caps table harder than the φ(P) default.
    let (label, problem, view) = &studies()[0];
    run_grid(
        OptimizerConfig {
            kappa: 2,
            bid_levels: 2,
            interval_grid: Some(4),
            ..Default::default()
        },
        problem,
        view,
        &format!("{label}+grid"),
    );
}

/// SplitMix64: a dependency-free, seedable stream for the randomized
/// candidates.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One random group assessment. The shape is drawn from a few classes
/// that each stress a different branch of the memo kernel: ordinary
/// groups, certain survivors (survival 1), groups whose failure
/// probability has no bucket mass behind it, certain failures, and
/// groups cloned from a fixed template so completion walls tie.
fn random_assessment(rng: &mut Rng) -> GroupAssessment {
    let class = rng.below(5);
    let (exec_hours, interval, delay) = if class == 4 {
        (3.0, 1.0, 0.0) // shared template: equal completion walls
    } else {
        let exec = 0.5 + 5.0 * rng.unit();
        (exec, exec * (0.2 + 0.8 * rng.unit()), 1.5 * rng.unit())
    };
    let group = CircleGroup {
        id: CircleGroupId::new(
            InstanceTypeId(rng.below(4) as usize),
            AvailabilityZone::UsEast1a,
        ),
        instances: 1 + rng.below(8) as u32,
        exec_hours,
        ckpt_overhead_hours: 0.02,
        recovery_hours: 0.1,
    };
    let horizon = group.completion_wall_hours(interval).ceil().max(1.0) as usize;
    let (survival, buckets) = match class {
        1 => (1.0, vec![0.0; horizon]),
        2 => (0.2 + 0.6 * rng.unit(), vec![0.0; horizon]),
        3 => (0.0, (0..horizon).map(|_| rng.unit()).collect()),
        _ => {
            // Sparse random mass: some buckets stay empty.
            let raw: Vec<f64> = (0..horizon)
                .map(|_| if rng.below(3) == 0 { 0.0 } else { rng.unit() })
                .collect();
            (rng.unit(), raw)
        }
    };
    GroupAssessment::from_parts(
        group,
        GroupDecision {
            bid: 0.1,
            ckpt_interval: interval,
        },
        0.01 + rng.unit(),
        survival,
        buckets,
        if class == 4 { 0.0 } else { delay },
    )
}

fn random_od(rng: &mut Rng) -> OnDemandOption {
    OnDemandOption {
        instance_type: InstanceTypeId(4),
        instances: 1 + rng.below(8) as u32,
        exec_hours: 0.5 + 4.0 * rng.unit(),
        unit_price: 0.5 + 2.0 * rng.unit(),
        recovery_hours: 0.1,
    }
}

#[test]
fn memo_kernel_matches_reference_on_random_candidates() {
    let mut rng = Rng(0x5eed_c057);
    let mut scratch = EvalScratch::new();
    // Sizes 1..=8 many times over, then one scratch walked through
    // 4, 1, 3, 2 in turn so stale table entries from a larger candidate
    // would surface in a smaller one.
    let sizes = (1..=8).cycle().take(8 * 40).chain([4, 1, 3, 2, 4, 1, 3, 2]);
    for (case, k) in sizes.enumerate() {
        let pool: Vec<GroupAssessment> = (0..k).map(|_| random_assessment(&mut rng)).collect();
        let refs: Vec<&GroupAssessment> = pool.iter().collect();
        let od = random_od(&mut rng);
        assert_eval_bits(
            &evaluate_reference(&refs, &od),
            &evaluate_with_scratch(&refs, &od, &mut scratch),
            &format!("case {case} (k = {k})"),
        );
    }
}

#[test]
fn cli_plan_matches_reference() {
    // `sompi plan --hours 200 --repeats 50 --kappa 1 --levels 2`: the
    // CLI's default synthetic market (seed 42) and the request the flags
    // build, through the same service entry point the CLI calls.
    let market = paper_market(42, 200.0);
    let req = PlanRequest {
        repeats: 50,
        kappa: 1,
        bid_levels: 2,
        ..Default::default()
    };
    let report = service::plan(&market, &req, &NullRecorder, None).expect("smoke plan");
    let oracle = reference_for(&report.plan, &service::view_for(&market, &req));
    for (name, got, want) in [
        ("expected_cost", report.expected_cost, oracle.expected_cost),
        ("expected_time", report.expected_time, oracle.expected_time),
        ("p_all_fail", report.p_all_fail, oracle.p_all_fail),
    ] {
        assert_eq!(got.to_bits(), want.to_bits(), "{name}: {got} vs {want}");
    }
}
