//! Golden adaptive trace: one `service::traced_replay` of an adaptive
//! run at `Detail` level, under an intermittent market-feed gap so the
//! runner's last-valid-view fallback fires, must reproduce the committed
//! JSONL fixture event for event.
//!
//! The fixture pins the order of the window narration — `FaultInjected`,
//! `DegradedMode`, `WindowReplanned`, the search events of real re-plans,
//! the replay timeline — around the market-view build. Wall-clock
//! profiling fields are zeroed before comparison (and in the fixture),
//! exactly as `tests/resilience.rs` scrubs them. If a legitimate model
//! change moves the trace, regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p sompi-bench --test adaptive_trace_golden`.

use ec2_market::instance::InstanceCatalog;
use ec2_market::market::SpotMarket;
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use sompi_obs::{parse_jsonl, Event, RingRecorder, TraceLevel};
use sompi_server::proto::{PlanRequest, ReplayRequest};
use sompi_server::service;

const GOLDEN: &str = include_str!("fixtures/adaptive_trace_golden.jsonl");

fn market() -> SpotMarket {
    let cat = InstanceCatalog::paper_2014();
    let prof = MarketProfile::paper_2014(&cat);
    SpotMarket::generate(cat, &TraceGenerator::new(prof, 5), 300.0, 1.0 / 12.0)
}

/// One search thread keeps the per-worker `SubsetEvaluated` events
/// independent of the host's core count.
fn request() -> ReplayRequest {
    ReplayRequest {
        plan: PlanRequest {
            repeats: 1500,
            kappa: 2,
            bid_levels: 3,
            threads: 1,
            ..Default::default()
        },
        adaptive: true,
        window_hours: 1.0,
        faults: Some("feed-gap=0.5".into()),
        fault_seed: 17,
        ..Default::default()
    }
}

/// Zero out the wall-clock profiling fields: they measure host time, not
/// simulated time, and are the only payload allowed to differ between
/// identical runs.
fn scrub_timings(mut events: Vec<Event>) -> Vec<Event> {
    for e in &mut events {
        if let Event::PlanSelected {
            assess_secs,
            search_secs,
            evals_per_sec,
            kernel_nanos,
            ..
        } = e
        {
            *assess_secs = 0.0;
            *search_secs = 0.0;
            *evals_per_sec = 0.0;
            *kernel_nanos = 0;
        }
    }
    events
}

fn traced_jsonl() -> String {
    let ring = RingRecorder::new(TraceLevel::Detail, 1 << 16);
    service::traced_replay(&market(), &request(), None, &ring).expect("adaptive replay traces");
    scrub_timings(ring.take())
        .iter()
        .map(|e| serde_json::to_string(e).expect("events serialize") + "\n")
        .collect()
}

#[test]
fn adaptive_trace_matches_committed_golden_fixture() {
    let actual = traced_jsonl();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/adaptive_trace_golden.jsonl"
        );
        std::fs::write(path, &actual).expect("fixture is writable");
        return;
    }
    for (i, (a, g)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(a, g, "event {} drifted from the golden trace", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        GOLDEN.lines().count(),
        "event count drifted from the golden trace \
         (UPDATE_GOLDEN=1 regenerates if the change is intentional)"
    );
}

/// The fixture exercises what it claims to: gapped windows, the stale
/// view fallback, a kill, and both re-planned and reused windows —
/// including a re-plan on a gapped window, which searches the stale view.
#[test]
fn golden_fixture_covers_the_feed_gap_fallback() {
    let events = parse_jsonl(GOLDEN).expect("fixture parses");
    let has = |pred: &dyn Fn(&Event) -> bool| events.iter().any(pred);
    assert!(has(&|e| matches!(
        e,
        Event::FaultInjected { class, .. } if class == "feed-gap"
    )));
    assert!(has(&|e| matches!(
        e,
        Event::DegradedMode { mode, .. } if mode == "stale-market-view"
    )));
    assert!(has(&|e| matches!(
        e,
        Event::WindowReplanned { reused: true, .. }
    )));
    assert!(has(&|e| matches!(
        e,
        Event::WindowReplanned { reused: false, .. }
    )));
    assert!(has(&|e| e.kind() == "GroupFailed"));
    assert!(has(&|e| e.kind() == "RunCompleted"));
    let replans_after_gap = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::DegradedMode { .. } | Event::WindowReplanned { .. }
            )
        })
        .collect::<Vec<_>>()
        .windows(2)
        .filter(|w| {
            matches!(
                (w[0], w[1]),
                (
                    Event::DegradedMode { .. },
                    Event::WindowReplanned { reused: false, .. }
                )
            )
        })
        .count();
    assert!(
        replans_after_gap >= 1,
        "no window re-planned on a stale view"
    );
}
