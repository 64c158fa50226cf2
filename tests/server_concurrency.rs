//! Cross-crate integration tests for the planner service: concurrent
//! clients against a live socket server, exactness versus the in-process
//! service path, single-flight cache accounting, and load shedding.
//!
//! The acceptance bar these tests pin down:
//! - plans answered over the socket are bit-identical to plans computed
//!   in-process (the CLI path), at every thread count;
//! - a burst of identical-fingerprint requests performs exactly one
//!   search (cache hit/coalesce events and counters prove it);
//! - overload produces typed `Overloaded` responses and the server
//!   still drains and shuts down cleanly (no deadlock).

use ec2_market::instance::InstanceCatalog;
use ec2_market::market::SpotMarket;
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use sompi_obs::{Event, NullRecorder, Recorder, RingRecorder, TraceLevel};
use sompi_server::cache::SharedPlanCache;
use sompi_server::proto::{PlanRequest, ReplayRequest, Request, Response};
use sompi_server::{client, service, ServeStats, Server, ServerConfig, PROTOCOL_VERSION};
use std::sync::Arc;

fn market(seed: u64, hours: f64) -> SpotMarket {
    let catalog = InstanceCatalog::paper_2014();
    let profile = MarketProfile::paper_2014(&catalog);
    SpotMarket::generate(
        catalog,
        &TraceGenerator::new(profile, seed),
        hours,
        1.0 / 12.0,
    )
}

fn small_plan_request() -> PlanRequest {
    PlanRequest {
        repeats: 50,
        kappa: 1,
        bid_levels: 2,
        ..Default::default()
    }
}

/// Bind a server on an ephemeral loopback port and run it on a thread.
/// Returns the address, the shared cache (for counter assertions), a
/// stop handle and the join handle yielding [`ServeStats`].
fn start(
    recorder: Arc<dyn Recorder + Send + Sync>,
    config: ServerConfig,
) -> (
    String,
    Arc<SharedPlanCache>,
    sompi_server::ServerHandle,
    std::thread::JoinHandle<ServeStats>,
) {
    let server = Server::bind(Arc::new(market(42, 100.0)), recorder, config).expect("bind");
    let addr = server.local_addr().to_string();
    let cache = server.cache();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, cache, handle, join)
}

fn ephemeral(workers: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        ..Default::default()
    }
}

#[test]
fn ping_reports_the_protocol_version() {
    let (addr, _, handle, join) = start(Arc::new(NullRecorder), ephemeral(1));
    let resp = client::call(&addr, &Request::Ping).expect("ping");
    assert_eq!(
        resp,
        Response::Pong {
            version: PROTOCOL_VERSION
        }
    );
    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn concurrent_plans_are_bit_identical_to_the_in_process_path() {
    // Two distinct request shapes (different deadlines → different
    // fingerprints), interleaved across 8 client threads.
    let tight = small_plan_request();
    let mut relaxed = small_plan_request();
    relaxed.deadline_factor = 2.0;

    // The in-process ("CLI") answers, computed on an identical market.
    let local = market(42, 100.0);
    let want_tight = service::plan(&local, &tight, &NullRecorder, None).expect("plan");
    let want_relaxed = service::plan(&local, &relaxed, &NullRecorder, None).expect("plan");
    assert_ne!(want_tight.plan, want_relaxed.plan, "distinct problems");

    let (addr, cache, handle, join) = start(Arc::new(NullRecorder), ephemeral(4));
    let responses: Vec<(bool, Response)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let addr = &addr;
                let req = if i % 2 == 0 { &tight } else { &relaxed };
                scope.spawn(move || {
                    (
                        i % 2 == 0,
                        client::call(addr, &Request::Plan(req.clone())).expect("call"),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (is_tight, resp) in responses {
        let Response::Plan { report, .. } = resp else {
            panic!("expected a plan response, got {resp:?}");
        };
        let want = if is_tight { &want_tight } else { &want_relaxed };
        assert_eq!(
            &report, want,
            "socket answer differs from in-process answer"
        );
    }
    // Two distinct fingerprints → exactly two searches ran.
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.hits() + cache.coalesced(), 6);
    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn identical_burst_performs_exactly_one_search() {
    let ring = Arc::new(RingRecorder::new(TraceLevel::Summary, 256));
    let (addr, cache, handle, join) = start(Arc::clone(&ring) as _, ephemeral(4));

    let req = Request::Plan(small_plan_request());
    let responses = client::burst(&addr, &req, 8);
    let mut labels = Vec::new();
    for resp in responses {
        let Response::Plan { cache, .. } = resp.expect("transport") else {
            panic!("expected a plan response");
        };
        labels.push(cache);
    }
    assert_eq!(
        labels.iter().filter(|l| l.as_str() == "miss").count(),
        1,
        "exactly one request computed: {labels:?}"
    );
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits() + cache.coalesced(), 7);

    handle.stop();
    join.join().expect("server thread");

    // The trace proves it: 8 received/completed, 7 cache-hit events.
    let events = ring.events();
    let count = |k: &str| events.iter().filter(|e| e.kind() == k).count();
    assert_eq!(count("RequestReceived"), 8);
    assert_eq!(count("RequestCompleted"), 8);
    assert_eq!(count("CacheHit"), 7);
    assert!(events.iter().all(|e| match e {
        Event::RequestCompleted { ok, .. } => *ok,
        _ => true,
    }));
}

#[test]
fn server_reuses_one_search_pool_across_requests() {
    // The persistent-pool acceptance bar: distinct plan requests (each a
    // cache miss, each running a real parallel search) must all dispatch
    // onto the *same* resident pool — one `pool_id` for the server's
    // whole lifetime, with monotonically increasing `search_seq`. A
    // scoped-thread spawn per request would emit no such events at all.
    let ring = Arc::new(RingRecorder::new(TraceLevel::Summary, 256));
    let (addr, cache, handle, join) = start(Arc::clone(&ring) as _, ephemeral(2));

    for i in 0..3 {
        let mut req = small_plan_request();
        // threads > 1 forces the parallel (pooled) dispatch even on a
        // single-core CI runner; distinct deadlines defeat the cache.
        req.threads = 4;
        req.deadline_factor = 1.5 + 0.25 * f64::from(i);
        let resp = client::call(&addr, &Request::Plan(req)).expect("call");
        assert!(matches!(resp, Response::Plan { .. }), "got {resp:?}");
    }
    handle.stop();
    join.join().expect("server thread");
    assert_eq!(cache.misses(), 3, "each request must run its own search");

    let pool_events: Vec<(u64, u64, u32)> = ring
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::SearchPoolUsed {
                pool_id,
                search_seq,
                jobs,
                ..
            } => Some((*pool_id, *search_seq, *jobs)),
            _ => None,
        })
        .collect();
    assert_eq!(
        pool_events.len(),
        3,
        "every search must dispatch onto the pool: {pool_events:?}"
    );
    let first_pool = pool_events[0].0;
    assert!(
        pool_events.iter().all(|(id, _, _)| *id == first_pool),
        "searches crossed pools (threads were respawned): {pool_events:?}"
    );
    assert!(
        pool_events.windows(2).all(|w| w[0].1 < w[1].1),
        "search_seq must increase across requests: {pool_events:?}"
    );
    assert!(
        pool_events.iter().all(|(_, _, jobs)| *jobs == 4),
        "the request's thread count decides the work split: {pool_events:?}"
    );
}

#[test]
fn tenants_share_the_plan_cache() {
    let (addr, cache, handle, join) = start(Arc::new(NullRecorder), ephemeral(2));
    let mut a = small_plan_request();
    a.tenant = "team-a".into();
    let mut b = small_plan_request();
    b.tenant = "team-b".into();
    let ra = client::call(&addr, &Request::Plan(a)).expect("call");
    let rb = client::call(&addr, &Request::Plan(b)).expect("call");
    handle.stop();
    join.join().expect("server thread");

    let (
        Response::Plan { report: pa, .. },
        Response::Plan {
            report: pb,
            cache: label,
            ..
        },
    ) = (ra, rb)
    else {
        panic!("expected plan responses");
    };
    assert_eq!(pa, pb, "same problem, same plan, regardless of tenant");
    assert_eq!(label, "hit", "second tenant reuses the first's search");
    assert_eq!((cache.misses(), cache.hits()), (1, 1));
}

#[test]
fn replay_over_the_wire_matches_the_in_process_path() {
    let req = ReplayRequest {
        plan: small_plan_request(),
        replicas: 4,
        ..Default::default()
    };
    let local = market(42, 100.0);
    let want = service::replay(&local, &req, &NullRecorder).expect("replay");

    let (addr, _, handle, join) = start(Arc::new(NullRecorder), ephemeral(2));
    let resp = client::call(&addr, &Request::Replay(req)).expect("call");
    handle.stop();
    join.join().expect("server thread");

    let Response::Replay { report, .. } = resp else {
        panic!("expected a replay response, got {resp:?}");
    };
    assert_eq!(report, want);
}

#[test]
fn invalid_arguments_come_back_as_typed_errors() {
    let (addr, _, handle, join) = start(Arc::new(NullRecorder), ephemeral(1));
    let mut bad = small_plan_request();
    bad.strategy = "magic".into();
    let resp = client::call(&addr, &Request::Plan(bad)).expect("call");
    handle.stop();
    join.join().expect("server thread");

    let Response::Error { kind, message, .. } = resp else {
        panic!("expected a typed error, got {resp:?}");
    };
    assert_eq!(kind, "invalid-argument");
    assert!(message.contains("unknown strategy"), "{message}");
}

#[test]
fn out_of_domain_slack_is_a_typed_error_and_the_worker_survives() {
    // Slack 1.5 used to reach an assert on the only worker thread, and
    // an adaptive replay with a 0 h window used to spin it forever; each
    // request must come back as a typed error and the same worker must
    // still serve the good request sent after them.
    let (addr, _, handle, join) = start(Arc::new(NullRecorder), ephemeral(1));
    let bad_slack = PlanRequest {
        slack: 1.5,
        ..small_plan_request()
    };
    let bad_window = ReplayRequest {
        plan: small_plan_request(),
        replicas: 2,
        adaptive: true,
        window_hours: 0.0,
        ..Default::default()
    };
    let bad_resps = [
        (
            "slack",
            client::call(&addr, &Request::Plan(bad_slack)).expect("bad call"),
        ),
        (
            "window hours",
            client::call(&addr, &Request::Replay(bad_window)).expect("bad call"),
        ),
    ];
    let good_resp = client::call(&addr, &Request::Plan(small_plan_request())).expect("good call");
    handle.stop();
    join.join().expect("server thread");

    for (field, bad_resp) in bad_resps {
        let Response::Error { kind, message, .. } = bad_resp else {
            panic!("expected a typed error, got {bad_resp:?}");
        };
        assert_eq!(kind, "invalid-argument");
        assert!(message.contains(field), "{message}");
    }
    let Response::Plan { report, .. } = good_resp else {
        panic!("expected a plan after the bad request, got {good_resp:?}");
    };
    let direct = service::plan(
        &market(42, 100.0),
        &small_plan_request(),
        &NullRecorder,
        None,
    )
    .expect("in-process plan");
    assert_eq!(report, direct);
}

#[test]
fn overload_sheds_with_typed_responses_and_still_drains() {
    // One slow worker (300 ms per request), a one-slot queue, no
    // batching: a burst of 6 must shed most connections with typed
    // `Overloaded` frames while the admitted ones still complete.
    let ring = Arc::new(RingRecorder::new(TraceLevel::Summary, 256));
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 1,
        batch: 1,
        pause_ms: 300,
        max_requests: Some(6),
        ..Default::default()
    };
    let (addr, _, _handle, join) = start(Arc::clone(&ring) as _, config);

    let req = Request::Plan(small_plan_request());
    let responses = client::burst(&addr, &req, 6);
    let mut plans = 0;
    let mut shed = 0;
    for resp in responses {
        match resp.expect("transport") {
            Response::Plan { .. } => plans += 1,
            Response::Overloaded {
                queue_depth,
                capacity,
                ..
            } => {
                assert_eq!(capacity, 1);
                assert!(queue_depth >= 1);
                shed += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(plans + shed, 6);
    assert!(plans >= 1, "at least the first admitted request completes");
    assert!(shed >= 3, "a one-slot queue must shed most of a 6-burst");

    // `max_requests: 6` makes serve() return once the burst is accepted
    // and drained — reaching this join IS the no-deadlock assertion.
    let stats = join.join().expect("server thread");
    assert_eq!(stats.accepted, 6);
    assert_eq!(stats.shed as usize, shed);

    let events = ring.events();
    let shed_events = events.iter().filter(|e| e.kind() == "RequestShed").count();
    assert_eq!(shed_events, shed);
}
