//! Allocation guards for the Monte-Carlo replay hot path.
//!
//! A batched, fault-free replica does only the simulation: `PlanRunner::run`
//! with a batch context allocates nothing, and the allocations of
//! `MonteCarlo::run_plan` do not grow with the replica count. A counting
//! global allocator makes both claims testable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ec2_market::instance::InstanceCatalog;
use ec2_market::market::SpotMarket;
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use mpi_sim::npb::{NpbClass, NpbKernel};
use mpi_sim::storage::S3Store;
use replay::{BatchTables, ExecContext, Finisher, MonteCarlo, PlanRunner};
use sompi_core::model::{GroupDecision, Plan};
use sompi_core::phi::optimal_interval;
use sompi_core::{MarketView, Problem};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `f` with allocation counting on; return its result and the count.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::SeqCst))
}

/// A market and a three-group replicated BT plan on it, bidding each
/// group's 75th-percentile price so replicas both finish on spot and fall
/// back to on-demand.
fn setup() -> (SpotMarket, Plan, f64) {
    let cat = InstanceCatalog::paper_2014();
    let prof = MarketProfile::paper_2014(&cat);
    let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 31), 300.0, 1.0 / 12.0);
    let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
    let problem = Problem::build(&market, &profile, f64::MAX, None, S3Store::paper_2014());
    let view = MarketView::from_market(&market, 0.0, 48.0);
    let groups = problem
        .candidates
        .iter()
        .take(3)
        .map(|&group| {
            let mut prices = market
                .trace(group.id)
                .expect("candidate")
                .samples()
                .to_vec();
            prices.sort_by(f64::total_cmp);
            let bid = prices[prices.len() * 3 / 4];
            let ckpt_interval = optimal_interval(&group, bid, &view).expect("in view");
            (group, GroupDecision { bid, ckpt_interval })
        })
        .collect();
    let plan = Plan {
        groups,
        on_demand: *problem.baseline(),
    };
    // Room for the slowest group to finish on spot.
    let deadline = plan
        .groups
        .iter()
        .map(|(g, _)| g.exec_hours)
        .fold(0.0, f64::max)
        * 3.0;
    (market, plan, deadline)
}

// One test function: the counter is process-global, and the default test
// harness runs `#[test]`s concurrently.
#[test]
fn batched_fault_free_replay_allocates_nothing_per_replica() {
    let (market, plan, deadline) = setup();

    // (1) A batched, fault-free `PlanRunner::run` makes no allocation,
    // whether a group wins on spot or every group dies and on-demand
    // finishes.
    let batch = BatchTables::for_plan(&market, &plan).expect("known groups");
    let ctx = ExecContext::new().with_batch(&batch);
    let runner = PlanRunner::new(&market, deadline);
    let starts: Vec<f64> = (0..400).map(|i| 48.0 + i as f64 * 0.5).collect();
    runner.run(&plan, starts[0], &ctx).expect("replay");
    let (outcomes, allocs) = counted(|| {
        starts
            .iter()
            .map(|&s| runner.run(&plan, s, &ctx).expect("replay"))
            .fold((0, 0), |(spot, od), o| match o.finisher {
                Finisher::Spot(_) => (spot + 1, od),
                Finisher::OnDemand => (spot, od + 1),
            })
    });
    assert_eq!(allocs, 0, "batched PlanRunner::run allocated");
    assert!(
        outcomes.0 > 0 && outcomes.1 > 0,
        "spot/on-demand {outcomes:?}"
    );

    // (2) After warm-up, N and 2N replicas of a batched fault-free
    // `run_plan` make the same number of allocations, sequentially and on
    // two workers.
    for threads in [1, 2] {
        let mc = |replicas| {
            MonteCarlo::builder()
                .replicas(replicas)
                .seed(9)
                .offsets(48.0, 250.0)
                .threads(threads)
                .build()
        };
        let run = |replicas| {
            mc(replicas)
                .run_plan(&market, &plan, deadline, &ExecContext::new())
                .expect("replay")
        };
        run(8192); // warm the death-time tables
        let (small, small_allocs) = counted(|| run(4096));
        let (large, large_allocs) = counted(|| run(8192));
        assert_eq!((small.cost.n, large.cost.n), (4096, 8192));
        assert_eq!(
            small_allocs, large_allocs,
            "run_plan allocations grew with the replica count (threads = {threads})"
        );
    }
}
