//! Shared construction helpers for CLI commands: markets (synthetic or
//! from a feed file) driven by flags. Application and problem
//! construction lives in `sompi-server::service`, shared with the
//! planner daemon.

use crate::args::{ArgError, Args};
use ec2_market::instance::InstanceCatalog;
use ec2_market::market::{CircleGroupId, SpotMarket};
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use ec2_market::zone::AvailabilityZone;

/// Command errors: argument problems or domain failures.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing/validation failed.
    Arg(ArgError),
    /// Anything else, already formatted.
    Other(String),
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Arg(e)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Arg(e) => write!(f, "{e}"),
            CliError::Other(s) => write!(f, "{s}"),
        }
    }
}

/// Build a market from flags: either `--feed <file>` (AWS price history)
/// or a synthetic one from `--seed` / `--hours`. `--no-trace-index`
/// disables the sparse-table trace index (an ablation switch — replay
/// answers are bit-identical either way, only wall-clock changes).
pub fn market_from(args: &Args) -> Result<SpotMarket, CliError> {
    let mut market = market_from_inner(args)?;
    if args.flag("no-trace-index") {
        market.set_trace_index_enabled(false);
    }
    Ok(market)
}

/// Read a market-size flag in hours. Values that are not finite and
/// positive are errors: the trace generator and the feed resampler need
/// a real, non-empty grid.
fn positive_hours(args: &Args, flag: &str, default: f64) -> Result<f64, CliError> {
    let v = args.f64_or(flag, default)?;
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(CliError::Other(format!(
            "--{flag}: must be finite and positive, got {v}"
        )))
    }
}

fn market_from_inner(args: &Args) -> Result<SpotMarket, CliError> {
    let step = positive_hours(args, "step", 1.0 / 12.0)?;
    if let Some(path) = args.get("feed") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Other(format!("cannot read {path}: {e}")))?;
        let events =
            ec2_market::feed::parse_feed(&text).map_err(|e| CliError::Other(e.to_string()))?;
        // Every group's resampled trace spans at most the whole feed.
        let (first, last) = events
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), e| {
                (lo.min(e.timestamp_s), hi.max(e.timestamp_s))
            });
        within_sample_budget((last - first) / 3600.0, step)?;
        let catalog = InstanceCatalog::paper_2014();
        let mut market = SpotMarket::new(catalog.clone());
        for ((ty_name, zone_name), trace) in ec2_market::feed::traces_by_group(&events, step) {
            let Some(ty) = catalog.by_name(&ty_name) else {
                return Err(CliError::Other(format!(
                    "feed references unknown instance type {ty_name:?}"
                )));
            };
            let zone = parse_zone(&zone_name)?;
            market.insert(CircleGroupId::new(ty, zone), trace);
        }
        if market.is_empty() {
            return Err(CliError::Other("feed produced no traces".into()));
        }
        Ok(market)
    } else {
        let seed = args.u64_or("seed", 42)?;
        let hours = positive_hours(args, "hours", 336.0)?;
        within_sample_budget(hours, step)?;
        let catalog = InstanceCatalog::paper_2014();
        let profile = MarketProfile::paper_2014(&catalog);
        Ok(SpotMarket::generate(
            catalog,
            &TraceGenerator::new(profile, seed),
            hours,
            step,
        ))
    }
}

/// Refuse a market of `hours` at `step` whose traces would exceed the
/// per-group sample limit, before anything is allocated.
fn within_sample_budget(hours: f64, step: f64) -> Result<(), CliError> {
    ec2_market::trace::check_sample_budget(hours, step).map_err(|e| CliError::Other(e.to_string()))
}

fn parse_zone(name: &str) -> Result<AvailabilityZone, CliError> {
    match name {
        "us-east-1a" => Ok(AvailabilityZone::UsEast1a),
        "us-east-1b" => Ok(AvailabilityZone::UsEast1b),
        "us-east-1c" => Ok(AvailabilityZone::UsEast1c),
        other => other
            .strip_prefix("us-east-1x")
            .and_then(|n| n.parse().ok())
            .map(AvailabilityZone::Other)
            .ok_or_else(|| CliError::Other(format!("unknown availability zone {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn synthetic_market_by_default() {
        let m = market_from(&args(&["--hours", "72", "--seed", "5"])).unwrap();
        assert_eq!(m.len(), 15);
        assert!((m.horizon() - 72.0).abs() < 1.0);
        assert!(m.trace_index_enabled());
    }

    #[test]
    fn no_trace_index_flag_disables_the_index() {
        let m = market_from(&args(&["--hours", "72", "--no-trace-index"])).unwrap();
        assert!(!m.trace_index_enabled());
        let id = m.groups().next().unwrap();
        assert!(!m.query(id).unwrap().indexed());
    }

    #[test]
    fn feed_market_from_file() {
        let dir = std::env::temp_dir().join("sompi-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("feed.txt");
        std::fs::write(
            &path,
            "0 m1.small us-east-1a 0.01\n7200 m1.small us-east-1a 0.02\n",
        )
        .unwrap();
        let m = market_from(&args(&["--feed", path.to_str().unwrap()])).unwrap();
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn feed_resample_step_is_validated() {
        let dir = std::env::temp_dir().join("sompi-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("feed-step.txt");
        std::fs::write(&path, "0 m1.small us-east-1a 0.01\n").unwrap();
        let err =
            market_from(&args(&["--feed", path.to_str().unwrap(), "--step", "0"])).unwrap_err();
        assert!(err.to_string().starts_with("--step"), "{err}");
    }

    #[test]
    fn oversized_markets_are_refused_naming_the_limit() {
        let err = market_from(&args(&["--step", "1e-9", "--hours", "1"])).unwrap_err();
        assert!(
            err.to_string().contains("trace sample limit of 1000000"),
            "{err}"
        );
        // Feed resampling is held to the same limit: two events a year
        // apart at a one-second step.
        let dir = std::env::temp_dir().join("sompi-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("feed-budget.txt");
        std::fs::write(
            &path,
            "0 m1.small us-east-1a 0.01\n31536000 m1.small us-east-1a 0.02\n",
        )
        .unwrap();
        let feed = path.to_str().unwrap();
        let err = market_from(&args(&["--feed", feed, "--step", "0.0003"])).unwrap_err();
        assert!(err.to_string().contains("trace sample limit"), "{err}");
        assert!(market_from(&args(&["--feed", feed, "--step", "1"])).is_ok());
    }

    #[test]
    fn feed_with_unknown_type_errors() {
        let dir = std::env::temp_dir().join("sompi-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.txt");
        std::fs::write(&path, "0 z9.mega us-east-1a 0.01\n").unwrap();
        assert!(market_from(&args(&["--feed", path.to_str().unwrap()])).is_err());
    }
}
