//! The CLI subcommands: `plan`, `replay`, `sweep`, `tournament`,
//! `trace`.
//!
//! `plan`, `replay` and `sweep` are thin clients of the
//! `sompi-server::service` entry points — the same code the planner
//! daemon runs per request — so CLI answers and server answers are
//! bit-identical by construction. The subcommands here only translate
//! flags into `PlanRequest`/`ReplayRequest` structs and render the
//! returned reports; `serve`/`client` live in `crate::serve`.
//!
//! Every command writes a human-readable report to the given writer;
//! `--json` switches to a machine-readable JSON document instead.

use crate::args::Args;
use crate::build::{market_from, CliError};
use ec2_market::market::SpotMarket;
use sompi_core::model::Plan;
use sompi_core::pool::SearchPool;
use sompi_obs::{parse_jsonl, JsonlRecorder, NullRecorder, Recorder, RunReport, TraceLevel};
use sompi_server::proto::{PlanRequest, ReplayRequest};
use sompi_server::service::{self, ServiceError};
use sompi_server::tournament::{self, TournamentConfig};
use std::io::Write;

pub(crate) const PLAN_FLAGS: &[&str] = &[
    "feed",
    "seed",
    "hours",
    "step",
    "app",
    "class",
    "procs",
    "repeats",
    "deadline",
    "kappa",
    "levels",
    "slack",
    "strategy",
    "json",
    "history",
    "threads",
    "trace-out",
    "trace-level",
    "no-trace-index",
];

pub(crate) fn svc(e: ServiceError) -> CliError {
    CliError::Other(e.to_string())
}

/// Translate the planning flags into the wire-protocol request struct.
/// Defaults here and in the serde schema are the same, so a bare
/// `sompi plan` and a `{"Plan": {}}` request describe the same problem.
pub(crate) fn plan_request_from(args: &Args) -> Result<PlanRequest, CliError> {
    Ok(PlanRequest {
        tenant: args.str_or("tenant", "anon"),
        app: args.str_or("app", "BT"),
        class: args.str_or("class", "B"),
        procs: args.u64_or("procs", 128)? as u32,
        repeats: args.u64_or("repeats", 200)? as u32,
        deadline_factor: args.f64_or("deadline", 1.5)?,
        strategy: args.str_or("strategy", "sompi"),
        kappa: args.u64_or("kappa", 4)? as u32,
        bid_levels: args.u64_or("levels", 12)? as u32,
        slack: args.f64_or("slack", 0.2)?,
        threads: args.u64_or("threads", 0)? as u32,
        history_hours: args.f64_or("history", 48.0)?,
        view_start_hours: 0.0,
    })
}

/// Translate the replay flags (planning flags included) into the wire
/// request. `default_replicas` differs per command: 100 for `replay`,
/// 50 for `sweep`.
pub(crate) fn replay_request_from(
    args: &Args,
    default_replicas: u64,
) -> Result<ReplayRequest, CliError> {
    Ok(ReplayRequest {
        plan: plan_request_from(args)?,
        replicas: args.u64_or("replicas", default_replicas)? as u32,
        mc_seed: args.u64_or("mc-seed", 1)?,
        adaptive: args.flag("adaptive"),
        window_hours: args.f64_or("window", 15.0)?,
        warmstart: true,
        bucket_reuse: !args.flag("no-bucket-reuse"),
        faults: args.get("faults").map(str::to_string),
        fault_seed: args.u64_or("fault-seed", 42)?,
        batch_replay: !args.flag("no-batch-replay"),
    })
}

/// Build the optional JSONL trace sink from `--trace-out` /
/// `--trace-level` (default level `summary` once a path is given).
pub(crate) fn trace_sink_from(args: &Args) -> Result<Option<JsonlRecorder>, CliError> {
    let level = match args.get("trace-level") {
        None => TraceLevel::Summary,
        Some(v) => v.parse().map_err(CliError::Other)?,
    };
    match args.get("trace-out") {
        None => Ok(None),
        Some(path) => JsonlRecorder::create(std::path::Path::new(path), level)
            .map(Some)
            .map_err(|e| CliError::Other(format!("--trace-out {path}: {e}"))),
    }
}

/// Flush a trace sink and surface any events lost to I/O errors.
pub(crate) fn finish_trace(sink: &JsonlRecorder, path: &str) -> Result<(), CliError> {
    sink.flush()
        .map_err(|e| CliError::Other(format!("--trace-out {path}: {e}")))?;
    if sink.write_errors() > 0 {
        return Err(CliError::Other(format!(
            "--trace-out {path}: {} event(s) lost to write errors",
            sink.write_errors()
        )));
    }
    Ok(())
}

/// Render a plan for humans.
fn describe_plan(out: &mut dyn Write, market: &SpotMarket, plan: &Plan) -> std::io::Result<()> {
    writeln!(out, "plan ({} circle groups):", plan.replication_degree())?;
    for (g, d) in &plan.groups {
        let ty = market.instance_type(g.id);
        writeln!(
            out,
            "  {:<12} {} x{:<4} bid ${:.4}/h  F = {:.2} h  (T_i = {:.2} h, O_i = {:.0} s)",
            ty.name,
            g.id.zone,
            g.instances,
            d.bid,
            d.ckpt_interval,
            g.exec_hours,
            g.ckpt_overhead_hours * 3600.0
        )?;
    }
    let od = market.catalog().get(plan.on_demand.instance_type);
    writeln!(
        out,
        "  fallback: {} x{} on-demand (T_d = {:.2} h, ${:.3}/h)",
        od.name, plan.on_demand.instances, plan.on_demand.exec_hours, plan.on_demand.unit_price
    )?;
    Ok(())
}

/// `sompi plan` — optimize and print the plan plus its model evaluation.
pub fn cmd_plan(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    args.check_known(PLAN_FLAGS)?;
    let market = market_from(args)?;
    let req = plan_request_from(args)?;
    let sink = trace_sink_from(args)?;
    let recorder: &dyn Recorder = match &sink {
        Some(s) => s,
        None => &NullRecorder,
    };
    let report = service::plan(&market, &req, recorder, None).map_err(svc)?;
    if let Some(s) = &sink {
        finish_trace(s, args.get("trace-out").unwrap_or(""))?;
    }

    if args.flag("json") {
        writeln!(
            out,
            "{}",
            serde_json::to_string_pretty(&report).expect("serializable")
        )
        .map_err(|e| CliError::Other(e.to_string()))?;
        return Ok(());
    }

    writeln!(
        out,
        "{} — baseline {:.2} h (${:.2} billed), deadline {:.2} h, strategy {}",
        report.app,
        report.baseline_hours,
        report.baseline_cost_billed,
        report.deadline_hours,
        report.strategy
    )
    .map_err(|e| CliError::Other(e.to_string()))?;
    describe_plan(out, &market, &report.plan).map_err(|e| CliError::Other(e.to_string()))?;
    writeln!(
        out,
        "model: E[cost] ${:.2}  E[time] {:.2} h  P[all replicas fail] {:.3}",
        report.expected_cost, report.expected_time, report.p_all_fail
    )
    .map_err(|e| CliError::Other(e.to_string()))?;
    Ok(())
}

/// `sompi replay` — plan, then Monte-Carlo replay over the market.
/// `--adaptive` switches to the windowed Algorithm-1 runner;
/// `--no-bucket-reuse` ablates its exactness-preserving bucket-table
/// reuse (plans and replayed outcomes are bit-identical either way, only
/// re-plan wall-clock changes).
pub fn cmd_replay(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mut flags = PLAN_FLAGS.to_vec();
    flags.extend([
        "replicas",
        "mc-seed",
        "timeline",
        "faults",
        "fault-seed",
        "adaptive",
        "window",
        "no-bucket-reuse",
        "no-batch-replay",
    ]);
    args.check_known(&flags)?;
    if !args.flag("adaptive") && args.flag("no-bucket-reuse") {
        return Err(CliError::Other(
            "--no-bucket-reuse only applies to --adaptive replays".into(),
        ));
    }
    let market = market_from(args)?;
    let req = replay_request_from(args, 100)?;
    let sink = trace_sink_from(args)?;
    let recorder: &dyn Recorder = match &sink {
        Some(s) => s,
        None => &NullRecorder,
    };
    let report = service::replay(&market, &req, recorder).map_err(svc)?;

    // Tracing records one deterministic replay (the Monte-Carlo sweep
    // would interleave replica timelines into an unreadable stream).
    if let Some(s) = &sink {
        service::traced_replay(&market, &req, report.plan.as_ref(), s).map_err(svc)?;
        finish_trace(s, args.get("trace-out").unwrap_or(""))?;
    }

    if args.flag("json") {
        writeln!(
            out,
            "{}",
            serde_json::to_string_pretty(&report).expect("serializable")
        )
        .map_err(|e| CliError::Other(e.to_string()))?;
        return Ok(());
    }

    if req.adaptive {
        writeln!(
            out,
            "{} via adaptive sompi (T_m = {} h{}): {} replicas",
            report.app,
            req.window_hours,
            if req.bucket_reuse {
                ""
            } else {
                ", no-bucket-reuse"
            },
            report.replicas
        )
        .map_err(|e| CliError::Other(e.to_string()))?;
    } else {
        writeln!(
            out,
            "{} via {}: {} replicas",
            report.app, report.strategy, report.replicas
        )
        .map_err(|e| CliError::Other(e.to_string()))?;
    }
    writeln!(
        out,
        "  cost: mean ${:.2} (std {:.2}, p95 {:.2})  = {:.3} x baseline",
        report.cost.mean, report.cost.std_dev, report.cost.p95, report.normalized_cost
    )
    .map_err(|e| CliError::Other(e.to_string()))?;
    writeln!(
        out,
        "  time: mean {:.2} h (deadline {:.2} h, met {:.0}%)  finished on spot {:.0}%",
        report.time.mean,
        report.deadline_hours,
        report.deadline_rate * 100.0,
        report.spot_finish_rate * 100.0
    )
    .map_err(|e| CliError::Other(e.to_string()))?;
    if let (Some(w), Some(c)) = (report.mean_windows, report.mean_plan_changes) {
        writeln!(out, "  windows: {w:.1} per run, {c:.1} plan change(s)")
            .map_err(|e| CliError::Other(e.to_string()))?;
    }

    if args.flag("timeline") {
        let Some(plan) = &report.plan else {
            return Err(CliError::Other(
                "--timeline applies to fixed-plan replays only".into(),
            ));
        };
        let start = req.plan.history_hours + 1.0;
        let events = replay::timeline::timeline(&market, plan, start, report.deadline_hours);
        writeln!(out, "\ntimeline of one replay (start offset {start:.1} h):")
            .map_err(|e| CliError::Other(e.to_string()))?;
        write!(out, "{}", replay::timeline::render(&events, start))
            .map_err(|e| CliError::Other(e.to_string()))?;
    }
    Ok(())
}

/// `sompi sweep` — cost vs deadline factor. Each point is one
/// fixed-plan replay request with a scaled deadline factor.
pub fn cmd_sweep(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mut flags = PLAN_FLAGS.to_vec();
    flags.extend([
        "replicas",
        "mc-seed",
        "from",
        "to",
        "points",
        "no-batch-replay",
    ]);
    args.check_known(&flags)?;
    let market = market_from(args)?;
    let from = args.f64_or("from", 1.05)?;
    let to = args.f64_or("to", 2.0)?;
    let points = args.u64_or("points", 6)?.max(2);

    writeln!(out, "{:<10} {:>12} {:>8}", "deadline", "norm. cost", "met")
        .map_err(|e| CliError::Other(e.to_string()))?;
    for i in 0..points {
        let factor = from + (to - from) * i as f64 / (points - 1) as f64;
        let mut req = replay_request_from(args, 50)?;
        req.plan.deadline_factor = factor;
        let r = service::replay(&market, &req, &NullRecorder).map_err(svc)?;
        writeln!(
            out,
            "{:<10.2} {:>12.3} {:>7.0}%",
            factor,
            r.normalized_cost,
            r.deadline_rate * 100.0
        )
        .map_err(|e| CliError::Other(e.to_string()))?;
    }
    Ok(())
}

/// `sompi tournament` — plan and Monte-Carlo-execute a roster of
/// policies over a grid of markets × fault plans, head to head. The
/// whole sweep shares one resident [`SearchPool`], and the report
/// (including `--json`) is byte-identical across runs and `--threads`
/// settings — the determinism contract CI enforces.
pub fn cmd_tournament(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mut flags = PLAN_FLAGS.to_vec();
    flags.extend([
        "policies",
        "seeds",
        "replicas",
        "mc-seed",
        "fault-grid",
        "fault-seed",
        "smoke",
        "no-batch-replay",
        "no-replay-memo",
    ]);
    args.check_known(&flags)?;
    let mut cfg = TournamentConfig {
        plan: plan_request_from(args)?,
        batch_replay: !args.flag("no-batch-replay"),
        replay_memo: !args.flag("no-replay-memo"),
        ..Default::default()
    };
    if let Some(list) = args.get("policies") {
        cfg.policies = list
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
    }
    if let Some(list) = args.get("seeds") {
        cfg.market_seeds = list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.parse::<u64>()
                    .map_err(|_| CliError::Other(format!("--seeds: {s:?} is not an integer")))
            })
            .collect::<Result<_, _>>()?;
    } else if let Some(seed) = args.get("seed") {
        // Single-market shorthand, matching the other subcommands.
        cfg.market_seeds = vec![seed
            .parse::<u64>()
            .map_err(|_| CliError::Other(format!("--seed: {seed:?} is not an integer")))?];
    }
    cfg.market_hours = args.f64_or("hours", cfg.market_hours)?;
    cfg.market_step_hours = args.f64_or("step", cfg.market_step_hours)?;
    cfg.replicas = args.u64_or("replicas", u64::from(cfg.replicas))? as u32;
    cfg.mc_seed = args.u64_or("mc-seed", cfg.mc_seed)?;
    cfg.fault_seed = args.u64_or("fault-seed", cfg.fault_seed)?;
    if let Some(grid) = args.get("fault-grid") {
        cfg.fault_specs = grid
            .split(';')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| {
                if s.eq_ignore_ascii_case("none") {
                    None
                } else {
                    Some(s.to_string())
                }
            })
            .collect();
    }
    if args.flag("smoke") {
        // Seconds-fast CI configuration; everything else stays as given.
        cfg.plan.repeats = 50;
        cfg.plan.kappa = 1;
        cfg.plan.bid_levels = 2;
        cfg.market_hours = 120.0;
        cfg.replicas = 3;
    }

    let sink = trace_sink_from(args)?;
    let recorder: &dyn Recorder = match &sink {
        Some(s) => s,
        None => &NullRecorder,
    };
    let pool = SearchPool::new(cfg.plan.threads as usize);
    let report = tournament::run_tournament(&cfg, recorder, Some(&pool)).map_err(svc)?;
    if let Some(s) = &sink {
        finish_trace(s, args.get("trace-out").unwrap_or(""))?;
    }

    if args.flag("json") {
        writeln!(out, "{}", report.to_json()).map_err(|e| CliError::Other(e.to_string()))?;
    } else {
        write!(out, "{}", report.render()).map_err(|e| CliError::Other(e.to_string()))?;
    }
    Ok(())
}

/// `sompi trace summarize <file.jsonl>` — render a recorded execution
/// trace as a human-readable run report.
fn cmd_trace_summarize(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    args.check_known(&[])?;
    let path = args
        .positional()
        .get(1)
        .ok_or_else(|| CliError::Other("usage: sompi trace summarize <file.jsonl>".into()))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Other(format!("{path}: {e}")))?;
    let events = parse_jsonl(&text).map_err(CliError::Other)?;
    write!(out, "{}", RunReport::from_events(&events).render())
        .map_err(|e| CliError::Other(e.to_string()))?;
    Ok(())
}

/// `sompi trace` — summarize (and optionally calibrate against) a market's
/// traces; `sompi trace summarize <file.jsonl>` renders a recorded
/// execution trace instead.
pub fn cmd_trace(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    if args.positional().first().map(String::as_str) == Some("summarize") {
        return cmd_trace_summarize(args, out);
    }
    args.check_known(&["feed", "seed", "hours", "step", "calibrate", "json"])?;
    let market = market_from(args)?;
    let do_cal = args.flag("calibrate");
    writeln!(
        out,
        "{:<28} {:>9} {:>9} {:>9} {:>8}{}",
        "circle group",
        "min $",
        "mean $",
        "max $",
        "samples",
        if do_cal { "   calibration" } else { "" }
    )
    .map_err(|e| CliError::Other(e.to_string()))?;
    for id in market.groups().collect::<Vec<_>>() {
        let t = market.trace(id).expect("listed");
        let mut line = format!(
            "{:<28} {:>9.4} {:>9.4} {:>9.4} {:>8}",
            format!("{}@{}", market.instance_type(id).name, id.zone),
            t.min_price(),
            t.mean_price(),
            t.max_price(),
            t.len()
        );
        if do_cal {
            let cal = ec2_market::calibrate::calibrate(t.window(0.0, f64::INFINITY), 4.0);
            line.push_str(&format!(
                "   base ${:.4}, sigma {:.2}, spikes {:.3}/h x{:.1}h",
                cal.config.base_price,
                cal.config.calm_sigma,
                cal.config.spike_rate_per_hour,
                cal.config.spike_duration_mean_hours
            ));
        }
        writeln!(out, "{line}").map_err(|e| CliError::Other(e.to_string()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>())
    }

    fn run(cmd: fn(&Args, &mut dyn Write) -> Result<(), CliError>, a: &[&str]) -> String {
        let mut buf = Vec::new();
        cmd(&args(a), &mut buf).expect("command succeeds");
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn plan_prints_groups_and_model() {
        let out = run(
            cmd_plan,
            &[
                "--hours",
                "100",
                "--repeats",
                "50",
                "--kappa",
                "2",
                "--levels",
                "3",
            ],
        );
        assert!(out.contains("plan ("), "{out}");
        assert!(out.contains("E[cost]"), "{out}");
        assert!(out.contains("fallback"), "{out}");
    }

    #[test]
    fn plan_json_is_valid() {
        let out = run(
            cmd_plan,
            &[
                "--hours",
                "100",
                "--repeats",
                "50",
                "--kappa",
                "1",
                "--levels",
                "2",
                "--json",
            ],
        );
        let doc: serde_json::Value = serde_json::from_str(&out).expect("valid json");
        assert!(doc["expected_cost"].as_f64().unwrap() > 0.0);
        assert!(doc["plan"]["groups"].is_array());
    }

    #[test]
    fn replay_reports_rates() {
        let out = run(
            cmd_replay,
            &[
                "--hours",
                "200",
                "--repeats",
                "50",
                "--kappa",
                "1",
                "--levels",
                "2",
                "--replicas",
                "8",
            ],
        );
        assert!(out.contains("met"), "{out}");
        assert!(out.contains("x baseline"), "{out}");
    }

    #[test]
    fn replay_with_faults_is_deterministic() {
        let flags = [
            "--hours",
            "200",
            "--repeats",
            "50",
            "--kappa",
            "1",
            "--levels",
            "2",
            "--replicas",
            "4",
            "--faults",
            "storm=0.02x0.5,ckpt-fail=0.05",
            "--fault-seed",
            "7",
        ];
        let first = run(cmd_replay, &flags);
        let second = run(cmd_replay, &flags);
        assert_eq!(first, second);
        assert!(first.contains("met"), "{first}");
    }

    #[test]
    fn adaptive_replay_reports_windows() {
        let out = run(
            cmd_replay,
            &[
                "--adaptive",
                "--hours",
                "200",
                "--repeats",
                "50",
                "--kappa",
                "1",
                "--levels",
                "2",
                "--replicas",
                "4",
                "--window",
                "2",
            ],
        );
        assert!(out.contains("adaptive sompi"), "{out}");
        assert!(out.contains("windows:"), "{out}");
    }

    #[test]
    fn warmstart_ablation_flags_do_not_change_adaptive_results() {
        // Bucket-table reuse is exactness-preserving: the full
        // Monte-Carlo report must be bit-identical with it ablated.
        let base = [
            "--adaptive",
            "--hours",
            "200",
            "--repeats",
            "50",
            "--kappa",
            "1",
            "--levels",
            "2",
            "--replicas",
            "3",
            "--window",
            "2",
            "--json",
        ];
        let warm = run(cmd_replay, &base);
        let mut flags = base.to_vec();
        flags.push("--no-bucket-reuse");
        let cold = run(cmd_replay, &flags);
        let wdoc: serde_json::Value = serde_json::from_str(&warm).unwrap();
        let cdoc: serde_json::Value = serde_json::from_str(&cold).unwrap();
        assert_eq!(wdoc["cost"], cdoc["cost"]);
        assert_eq!(wdoc["time"], cdoc["time"]);
        assert_eq!(wdoc["mean_windows"], cdoc["mean_windows"]);
        assert_eq!(wdoc["bucket_reuse"], serde_json::json!(true));
        assert_eq!(cdoc["bucket_reuse"], serde_json::json!(false));
        // The retired `warmstart` key is still echoed, always true.
        assert_eq!(cdoc["warmstart"], serde_json::json!(true));
    }

    #[test]
    fn warmstart_flags_require_adaptive_mode() {
        let mut buf = Vec::new();
        let err =
            cmd_replay(&args(&["--hours", "100", "--no-bucket-reuse"]), &mut buf).unwrap_err();
        assert!(err.to_string().contains("--adaptive"), "{err}");
        // The plan carry-over switch is gone with the layer it switched.
        let err = cmd_replay(&args(&["--adaptive", "--no-warmstart"]), &mut buf).unwrap_err();
        assert!(
            err.to_string().contains("unknown flag --no-warmstart"),
            "{err}"
        );
    }

    #[test]
    fn non_positive_or_nan_adaptive_window_is_rejected() {
        for bad in ["0", "-2", "NaN"] {
            let mut buf = Vec::new();
            let a = [
                "--adaptive",
                "--hours",
                "200",
                "--repeats",
                "50",
                "--replicas",
                "2",
                "--window",
                bad,
            ];
            let err = cmd_replay(&args(&a), &mut buf).unwrap_err();
            assert!(err.to_string().contains("window hours"), "{bad}: {err}");
        }
    }

    #[test]
    fn bad_market_size_is_rejected_by_every_command() {
        type Cmd = fn(&Args, &mut dyn Write) -> Result<(), CliError>;
        let commands: [(&str, Cmd); 4] = [
            ("plan", cmd_plan),
            ("replay", cmd_replay),
            ("sweep", cmd_sweep),
            ("tournament", cmd_tournament),
        ];
        for (name, cmd) in commands {
            for (flag, bad) in [
                ("--hours", "0"),
                ("--hours", "-5"),
                ("--hours", "NaN"),
                ("--step", "0"),
                ("--step", "-1"),
            ] {
                let mut buf = Vec::new();
                let err = cmd(&args(&["--repeats", "50", flag, bad]), &mut buf).unwrap_err();
                assert!(
                    err.to_string().contains("finite and positive"),
                    "{name} {flag} {bad}: {err}"
                );
            }
        }
    }

    #[test]
    fn bad_fault_spec_is_rejected() {
        let mut buf = Vec::new();
        let err = cmd_replay(
            &args(&["--hours", "100", "--faults", "gremlins=1.0"]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.to_string().contains("--faults"), "{err}");
    }

    #[test]
    fn sweep_prints_requested_points() {
        let out = run(
            cmd_sweep,
            &[
                "--hours",
                "200",
                "--repeats",
                "50",
                "--kappa",
                "1",
                "--levels",
                "2",
                "--replicas",
                "4",
                "--points",
                "3",
            ],
        );
        // Header + 3 data lines.
        assert_eq!(out.lines().count(), 4, "{out}");
    }

    #[test]
    fn trace_lists_groups_and_calibrates() {
        let out = run(cmd_trace, &["--hours", "100", "--calibrate"]);
        assert!(out.contains("m1.small@us-east-1a"), "{out}");
        assert!(out.contains("base $"), "{out}");
        assert_eq!(out.lines().count(), 16); // header + 15 groups
    }

    #[test]
    fn replay_trace_out_writes_jsonl_and_summarize_renders_it() {
        let dir = std::env::temp_dir().join(format!("sompi-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let p = path.to_str().unwrap();
        run(
            cmd_replay,
            &[
                "--hours",
                "200",
                "--repeats",
                "50",
                "--kappa",
                "1",
                "--levels",
                "2",
                "--replicas",
                "4",
                "--trace-out",
                p,
                "--trace-level",
                "detail",
            ],
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let events = parse_jsonl(&text).expect("schema-valid trace");
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"PlanSearchStarted"), "{kinds:?}");
        assert!(kinds.contains(&"PlanSelected"), "{kinds:?}");
        assert!(kinds.contains(&"RunCompleted"), "{kinds:?}");

        let report = run(cmd_trace, &["summarize", p]);
        assert!(report.contains("plan search"), "{report}");
        assert!(report.contains("outcome"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_trace_level_is_rejected() {
        let mut buf = Vec::new();
        let err = cmd_plan(
            &args(&[
                "--hours",
                "60",
                "--trace-out",
                "/tmp/x.jsonl",
                "--trace-level",
                "loud",
            ]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown trace level"), "{err}");
    }

    #[test]
    fn summarize_requires_a_path() {
        let mut buf = Vec::new();
        let err = cmd_trace(&args(&["summarize"]), &mut buf).unwrap_err();
        assert!(err.to_string().contains("usage"), "{err}");
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let mut buf = Vec::new();
        let err = cmd_plan(&args(&["--nope", "1"]), &mut buf).unwrap_err();
        assert!(err.to_string().contains("unknown flag"));
    }

    #[test]
    fn unknown_strategy_is_rejected() {
        let mut buf = Vec::new();
        let err = cmd_plan(&args(&["--strategy", "magic", "--hours", "60"]), &mut buf).unwrap_err();
        assert!(err.to_string().contains("unknown strategy"));
    }

    #[test]
    fn timeline_is_rejected_for_adaptive_replays() {
        let mut buf = Vec::new();
        let err = cmd_replay(
            &args(&[
                "--adaptive",
                "--timeline",
                "--hours",
                "200",
                "--repeats",
                "50",
                "--kappa",
                "1",
                "--levels",
                "2",
                "--replicas",
                "2",
                "--window",
                "2",
            ]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.to_string().contains("--timeline"), "{err}");
    }
}
