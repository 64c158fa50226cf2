//! End-to-end SOMPI benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload <plan-serve|replay-mc|adaptive-long|tournament-faults> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run executes one workload through the library's public entry
//! points, checks its outputs against the repository's own oracles, and
//! prints three JSON lines: run metadata, the workload's own metrics, and
//! last the result — end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`. See `README.md` in this directory.

mod adaptive_long;
mod common;
mod layers;
mod openloop;
mod plan_serve;
mod replay_mc;
mod stats;
mod tournament_faults;

use common::Outcome;
use serde_json::Value;
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// every one; see `README.md` for what each means per workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "fraction"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("cost_norm", "ratio"),
    ("deadline_met_frac", "fraction"),
];

/// Per-layer metrics (`--trace 1`), with units, named after the crate
/// whose public calls they time. A layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("ec2-market.generate_s", "s"),
    ("ec2-market.build_indexes_s", "s"),
    ("ec2-market.death_tables_s", "s"),
    ("ec2-market.death_tables_built", "count"),
    ("ec2-market.death_tables_reused", "count"),
    ("mpi-sim.problem_s", "s"),
    ("sompi-core.view_s", "s"),
    ("sompi-core.view_calls", "count"),
    ("sompi-core.plan_s", "s"),
    ("sompi-core.plan_calls", "count"),
    ("sompi-core.assess_s", "s"),
    ("sompi-core.search_s", "s"),
    ("sompi-core.evaluations", "count"),
    ("sompi-core.prune_frac", "fraction"),
    ("sompi-core.evaluate_plan_s", "s"),
    ("sompi-core.replan_reuse_frac", "fraction"),
    ("replay.run_plan_s", "s"),
    ("replay.ns_per_replica", "ns"),
    ("replay.adaptive_exec_s", "s"),
    ("replay.windows_per_replica", "count"),
    ("replay.plan_changes_per_replica", "count"),
    ("replay.cpu_busy_frac", "fraction"),
    ("sompi-server.queue_ms_p50", "ms"),
    ("sompi-server.queue_ms_p95", "ms"),
    ("sompi-server.service_ms_p50", "ms"),
    ("sompi-server.service_ms_p95", "ms"),
    ("sompi-server.wire_ms_p50", "ms"),
    ("sompi-server.encode_us", "us"),
    ("sompi-server.cache_hit_frac", "fraction"),
    ("sompi-server.coalesced", "count"),
    ("sompi-server.shed", "count"),
    ("sompi-server.gen_late_ms_p95", "ms"),
    ("sompi-server.memo_hit_frac", "fraction"),
    ("sompi-server.plan_searches", "count"),
    ("unaccounted_frac", "fraction"),
    ("trace_overhead_frac", "fraction"),
];

/// The workloads, by the names `--workload` takes.
pub const WORKLOADS: [&str; 4] = [
    "plan-serve",
    "replay-mc",
    "adaptive-long",
    "tournament-faults",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        let int = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: expected an integer, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(int(&value)?),
            "--seconds" => seconds = Some(int(&value)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Obj(vec![
        ("value".into(), Value::Num(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "plan-serve" => plan_serve::run,
        "replay-mc" => replay_mc::run,
        "adaptive-long" => adaptive_long::run,
        _ => tournament_faults::run,
    };
    let mut out: Outcome = match run(args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        out.set("peak_rss_mb", layers::peak_rss_mb());
        out.set(
            "ok_frac",
            1.0 - layers::ratio(out.failed as f64, out.attempted as f64),
        );
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                eprintln!("error: {} did not report {name}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        metrics.push((name.to_string(), metric(value, unit)));
    }

    let meta = Value::Obj(vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::Num(args.seed as f64)),
        ("seconds".into(), Value::Num(args.seconds as f64)),
        ("trace".into(), Value::Bool(args.trace)),
        ("nproc".into(), Value::Num(layers::nproc() as f64)),
        (
            "git_rev".into(),
            // Only inside a git checkout: git would otherwise search the
            // parent directories for a repository.
            Value::Str(if std::path::Path::new(".git").exists() {
                command_line("git", &["rev-parse", "--short", "HEAD"])
            } else {
                "unknown".into()
            }),
        ),
        (
            "rustc".into(),
            Value::Str(command_line("rustc", &["--version"])),
        ),
        (
            "info".into(),
            Value::Obj(
                out.info
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
    ]);
    let details = Value::Obj(
        out.details
            .iter()
            .map(|(name, value, unit)| (name.to_string(), metric(*value, unit)))
            .collect(),
    );
    let result = Value::Obj(vec![
        (
            "correct".into(),
            Value::Bool(out.failed == 0 && out.attempted > 0),
        ),
        ("attempted".into(), Value::Num(out.attempted as f64)),
        ("failed".into(), Value::Num(out.failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    let line = |v: &Value| serde_json::to_string(v).expect("JSON values serialize");
    println!("{}", line(&Value::Obj(vec![("meta".into(), meta)])));
    println!(
        "{}",
        line(&Value::Obj(vec![("workload_metrics".into(), details)]))
    );
    println!("{}", line(&result));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            let Value::Obj(fields) = &spec else {
                panic!("not an object")
            };
            let Some((_, Value::Arr(items))) = fields.iter().find(|(k, _)| k == key) else {
                panic!("no {key}")
            };
            items
                .iter()
                .map(|item| {
                    let Value::Obj(f) = item else {
                        panic!("bad entry")
                    };
                    let get = |k: &str| match f.iter().find(|(n, _)| n == k) {
                        Some((_, Value::Str(s))) => s.clone(),
                        _ => String::new(),
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), owned(&END_TO_END));
        assert_eq!(names("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        // plan-serve runs but is not listed, so no bound gates it: its
        // ms-scale latency and saturation rate swing with the load other
        // tenants put on a shared host by more than the largest bound
        // allowed (see README.md).
        const UNGATED: [&str; 1] = ["plan-serve"];
        let gated: Vec<String> = WORKLOADS
            .iter()
            .filter(|w| !UNGATED.contains(w))
            .map(|w| w.to_string())
            .collect();
        assert_eq!(workloads, gated);
    }

    #[test]
    fn args_parse_and_reject() {
        let a = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = a("--workload replay-mc --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("replay-mc", 7, 3, true)
        );
        assert!(a("--workload nope --seed 1").is_err());
        assert!(a("--workload replay-mc").is_err());
        assert!(a("--workload replay-mc --seed x").is_err());
        assert!(a("--workload replay-mc --seed 1 --trace 2").is_err());
        assert!(a("--workload replay-mc --seed").is_err());
    }
}
