//! Extension experiment — persistent spot requests vs the paper's model.
//!
//! The paper's execution model ends a circle group at its first out-of-bid
//! event; recovery goes to on-demand. A *persistent* request instead waits
//! out the price excursion and resumes from the latest checkpoint. This
//! experiment replays the same single-group decisions both ways on the
//! volatile stress market and reports cost, completion venue and deadline
//! behaviour — quantifying how much the 2015 model leaves on the table
//! against what later became standard spot practice.

use mpi_sim::npb::{NpbClass, NpbKernel};
use replay::relaunch::run_persistent;
use replay::{Finisher, PlanRunner};
use sompi_bench::{
    build_problem, planning_view, repeat_to_hours, replicas, stress_market, Table, LOOSE, PROCESSES,
};
use sompi_core::adaptive::PlanContext;
use sompi_core::baselines::SompiNoReplication;
use sompi_core::model::Plan;
use sompi_core::policy::Policy;
use sompi_core::twolevel::OptimizerConfig;

fn main() {
    let market = stress_market(20140817, 500.0);
    let profile = repeat_to_hours(NpbKernel::Bt.profile(NpbClass::B, PROCESSES), 8.0);
    let problem = build_problem(&market, &profile, LOOSE);
    let view = planning_view(&market);

    // A single-group plan (the relaunch policy is per-group).
    let strat = SompiNoReplication {
        config: OptimizerConfig {
            kappa: 1,
            bid_levels: 10,
            ..Default::default()
        },
    };
    let plan = strat
        .plan(&problem, &view, &mut PlanContext::new())
        .expect("plan succeeds");
    let Some((group, decision)) = plan.groups.first().copied() else {
        println!("optimizer chose pure on-demand; nothing to compare");
        return;
    };
    let ty = market.instance_type(group.id);
    println!(
        "group: {} @ {} x{}, bid ${:.4}, F = {:.2} h, T_i = {:.2} h, deadline {:.2} h\n",
        ty.name,
        group.id.zone,
        group.instances,
        decision.bid,
        decision.ckpt_interval,
        group.exec_hours,
        problem.deadline
    );

    let n = replicas().min(64);
    let runner = PlanRunner::new(&market, problem.deadline);
    let single_plan = Plan {
        groups: vec![(group, decision)],
        on_demand: plan.on_demand,
    };

    let mut rows: Vec<(&str, Vec<f64>, usize, usize, f64)> = Vec::new();
    for mode in ["paper (die once)", "persistent relaunch"] {
        let mut costs = Vec::new();
        let mut spot_finishes = 0usize;
        let mut met = 0usize;
        let mut incarnations = 0.0;
        for i in 0..n {
            let start = 50.0 + i as f64 * (400.0 / n as f64);
            if mode.starts_with("paper") {
                let o = runner
                    .run(&single_plan, start, &replay::ExecContext::new())
                    .expect("replay succeeds");
                costs.push(o.total_cost);
                spot_finishes += matches!(o.finisher, Finisher::Spot(_)) as usize;
                met += o.met_deadline as usize;
                incarnations += 1.0;
            } else {
                let o = run_persistent(
                    &market,
                    &group,
                    &decision,
                    &single_plan.on_demand,
                    start,
                    problem.deadline,
                    &replay::ExecContext::new(),
                )
                .expect("relaunch succeeds");
                costs.push(o.total_cost);
                spot_finishes += matches!(o.finisher, Finisher::Spot(_)) as usize;
                met += o.met_deadline as usize;
                incarnations += o.incarnations as f64;
            }
        }
        rows.push((mode, costs, spot_finishes, met, incarnations / n as f64));
    }

    let mut t = Table::new([
        "policy",
        "mean cost $",
        "norm.",
        "spot-finish",
        "dl met",
        "avg lives",
    ]);
    for (mode, costs, spot, met, lives) in &rows {
        let mean = costs.iter().sum::<f64>() / costs.len() as f64;
        t.row([
            mode.to_string(),
            format!("{mean:.2}"),
            format!("{:.3}", mean / problem.baseline_cost_billed()),
            format!("{:.0}%", *spot as f64 / n as f64 * 100.0),
            format!("{:.0}%", *met as f64 / n as f64 * 100.0),
            format!("{lives:.1}"),
        ]);
    }
    t.print();
    println!("\nRelaunching turns on-demand recoveries back into cheap spot time at");
    println!("the price of waiting out excursions — an extension the paper's");
    println!("adaptive algorithm approximates with fresh circle groups per window.");
}
