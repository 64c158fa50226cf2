//! Per-layer timing from outside the library: a timing wrapper around a
//! [`Policy`], event tallies read back from a [`RingRecorder`], and
//! process-level CPU and memory readings.

use sompi_core::adaptive::PlanContext;
use sompi_core::error::SompiError;
use sompi_core::model::Plan;
use sompi_core::policy::{
    KillObservation, KillReaction, Policy, WindowObservation, WindowReaction,
};
use sompi_core::problem::Problem;
use sompi_core::view::MarketView;
use sompi_obs::{Event, RingRecorder, TraceLevel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Delegates every [`Policy`] method to `inner` and adds up the wall time
/// and count of [`Policy::plan`] calls, from whichever threads make them.
pub struct TimedPolicy<'a> {
    inner: &'a dyn Policy,
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl<'a> TimedPolicy<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a dyn Policy) -> Self {
        Self {
            inner,
            nanos: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// Seconds spent inside `plan`, summed over calls and threads.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Number of `plan` calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl Policy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError> {
        let t = Instant::now();
        let plan = self.inner.plan(problem, view, ctx);
        let nanos = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        plan
    }

    fn on_window(&self, obs: &WindowObservation) -> WindowReaction {
        self.inner.on_window(obs)
    }

    fn on_kill(&self, obs: &KillObservation) -> KillReaction {
        self.inner.on_kill(obs)
    }
}

/// Run `f`, adding its wall seconds to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// A recorder for traced runs: `Summary` level, large enough that no
/// event of one run is evicted.
pub fn ring() -> RingRecorder {
    RingRecorder::new(TraceLevel::Summary, 1 << 22)
}

/// Search-layer tallies from the optimizer's own events.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SearchStats {
    /// `PlanSearchStarted` events.
    pub searches: u64,
    /// Option-assessment seconds (`PlanSelected.assess_secs`).
    pub assess_s: f64,
    /// Subset-search seconds (`PlanSelected.search_secs`).
    pub search_s: f64,
    /// Candidate evaluations.
    pub evaluations: u64,
    /// Evaluations skipped by pruning.
    pub evals_skipped: u64,
}

impl SearchStats {
    /// Tally the search events in `events`.
    pub fn from_events(events: &[Event]) -> Self {
        let mut s = SearchStats::default();
        for e in events {
            match e {
                Event::PlanSearchStarted { .. } => s.searches += 1,
                Event::PlanSelected {
                    assess_secs,
                    search_secs,
                    evaluations,
                    evals_skipped,
                    ..
                } => {
                    s.assess_s += assess_secs;
                    s.search_s += search_secs;
                    s.evaluations += evaluations;
                    s.evals_skipped += evals_skipped;
                }
                _ => {}
            }
        }
        s
    }

    /// Share of evaluations that pruning skipped.
    pub fn prune_frac(&self) -> f64 {
        ratio(self.evals_skipped as f64, self.evaluations as f64)
    }
}

/// Death-time table counts from `ReplayBatched` events.
pub fn death_tables(events: &[Event]) -> (u64, u64) {
    events.iter().fold((0, 0), |(b, r), e| match e {
        Event::ReplayBatched {
            tables_built,
            tables_reused,
            ..
        } => (b + u64::from(*tables_built), r + u64::from(*tables_reused)),
        _ => (b, r),
    })
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// User + system CPU seconds of the whole process so far, from
/// `/proc/self/stat` (USER_HZ ticks, 100 per second on Linux).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name start at field 3.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident memory of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec2_market::instance::InstanceCatalog;
    use ec2_market::market::SpotMarket;
    use ec2_market::tracegen::{MarketProfile, TraceGenerator};
    use replay::adaptive_exec::AdaptiveRunner;
    use replay::exec::ExecContext;
    use sompi_core::adaptive::AdaptiveConfig;
    use sompi_core::baselines::Sompi;
    use sompi_core::twolevel::OptimizerConfig;
    use sompi_server::service;

    fn market() -> SpotMarket {
        let c = InstanceCatalog::paper_2014();
        let p = MarketProfile::paper_2014(&c);
        SpotMarket::generate(c, &TraceGenerator::new(p, 5), 240.0, 1.0 / 12.0)
    }

    fn problem(market: &SpotMarket) -> Problem {
        let app = service::app_profile("BT", "B", 128, 600).unwrap();
        service::build_problem(market, &app, 1.3).unwrap()
    }

    #[test]
    fn timed_sompi_plans_bit_identically() {
        let m = market();
        let p = problem(&m);
        let sompi = Sompi {
            config: OptimizerConfig::default(),
        };
        let timed = TimedPolicy::new(&sompi);
        for start in [0.0, 40.0, 97.5] {
            let view = MarketView::from_market(&m, start, 48.0);
            let a = sompi.plan(&p, &view, &mut PlanContext::new()).unwrap();
            let b = timed.plan(&p, &view, &mut PlanContext::new()).unwrap();
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        assert_eq!(timed.calls(), 3);
        assert!(timed.seconds() > 0.0);
        assert_eq!(timed.name(), sompi.name());
    }

    #[test]
    fn timed_sompi_drives_the_adaptive_loop_bit_identically() {
        let m = market();
        let p = problem(&m);
        let cfg = AdaptiveConfig {
            window_hours: 2.0,
            ..AdaptiveConfig::default()
        };
        let sompi = Sompi {
            config: cfg.optimizer,
        };
        let timed = TimedPolicy::new(&sompi);
        let ctx = ExecContext::new();
        for start in [49.0, 80.25, 120.0] {
            let a = AdaptiveRunner::new(&m, cfg).run(&p, start, &ctx).unwrap();
            let b = AdaptiveRunner::new(&m, cfg)
                .with_policy(&timed)
                .run(&p, start, &ctx)
                .unwrap();
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert!(a.windows >= 1);
        }
        assert!(timed.calls() >= 3);
    }

    #[test]
    fn process_readings_are_plausible() {
        assert!(peak_rss_mb() > 1.0);
        let cpu = cpu_seconds();
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed().as_millis() < 80 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let spent = cpu_seconds() - cpu;
        assert!(spent > 0.0 && spent < 0.5, "{spent}");
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
