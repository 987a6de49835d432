//! Fleet-plane acceptance: two live HTTP replicas behind a router, a
//! [`FleetObserver`] scraping both, and a [`FleetServer`] proving that
//! (a) the fleet-merged request count is exactly the sum of the
//! per-replica counts, (b) fleet-served percentiles equal the merge of
//! the replicas' own wire snapshots bucket-for-bucket, (c) SLO gauges
//! publish from the merged view, and (d) a hedged request's
//! `/fleet/trace/<id>` is one stitched tree with a `server.handle` under
//! each `router.attempt`; and that (e) each `/fleet/stats` row is the
//! replica's own `/stats` body, read with one scrape per replica per
//! poll.
//!
//! Runs in its own test binary because the flight recorder is process
//! global.

use std::sync::Arc;
use std::time::Duration;

use nl2vis_data::Json;
use nl2vis_llm::fault::FaultInjector;
use nl2vis_llm::http::{CompletionServer, ServerConfig};
use nl2vis_llm::profile::ModelProfile;
use nl2vis_llm::sim::SimLlm;
use nl2vis_llm::telemetry::{decode_snapshot, stats_json};
use nl2vis_obs::recorder::{self, FlightRecorder};
use nl2vis_obs::{MetricsRegistry, Span, WindowConfig};
use nl2vis_router::fleet::{FleetConfig, FleetObserver, FleetServer};
use nl2vis_router::{Router, RouterConfig};
use nl2vis_service::GenOptions;

/// One `Connection: close` GET; returns (status, body).
fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    nl2vis_llm::wire::get(addr, path, Duration::from_secs(5)).expect("GET")
}

fn sql_prompt(i: usize) -> String {
    format!("-- Test:\n-- Database:\nDatabase: d\nt = [ a , b ]\nQ: question {i}\nVQL:")
}

/// The integer `/stats` fields that hold still while no completion is in
/// flight. `active_connections`, `open_connections` and `concurrent_peak`
/// count the connections serving the reads themselves, so they are left
/// out.
const SETTLED_FIELDS: [&str; 14] = [
    "window_requests",
    "window_shed",
    "requests_total",
    "shed_total",
    "serving_threads",
    "batch_requests",
    "batch_batches",
    "batch_invocations",
    "latency_us.window.count",
    "latency_us.window.min_us",
    "latency_us.window.max_us",
    "latency_us.cumulative.count",
    "latency_us.cumulative.min_us",
    "latency_us.cumulative.max_us",
];

/// The [`SETTLED_FIELDS`] of a `/stats` body, by dotted path.
fn settled(stats: &Json) -> Vec<(&'static str, Option<f64>)> {
    SETTLED_FIELDS
        .iter()
        .map(|path| {
            let value = path
                .split('.')
                .try_fold(stats, |node, key| node.get(key))
                .and_then(Json::as_f64);
            (*path, value)
        })
        .collect()
}

#[test]
fn fleet_plane_merges_metrics_publishes_slos_and_stitches_hedged_traces() {
    recorder::install(Arc::new(FlightRecorder::new(256)));

    // Replica A stalls every completion by 150ms; replica B is prompt.
    let slow = CompletionServer::start_with_service_config(
        SimLlm::new(ModelProfile::gpt_4(), 9),
        Arc::new(MetricsRegistry::new()),
        FaultInjector::random(7, 0.0, 0.0, 1.0, Duration::from_millis(150)),
        ServerConfig::default(),
    )
    .unwrap();
    let fast = CompletionServer::start_with_service_registry(
        SimLlm::new(ModelProfile::gpt_4(), 9),
        Arc::new(MetricsRegistry::new()),
    )
    .unwrap();
    let addrs = [slow.address(), fast.address()];

    let config = RouterConfig {
        default_hedge_delay: Duration::from_millis(15),
        ..RouterConfig::default()
    };
    let router = Router::over_http(&addrs, "gpt-4", config);
    let slow_id = slow.address().to_string();

    let observer = FleetObserver::new(&addrs, FleetConfig::default());
    let fleet = FleetServer::start(Arc::clone(&observer)).unwrap();

    // Spread some plain traffic over both replicas, then drive one
    // request whose ring owner is the stalled replica so the hedge fires.
    let opts = GenOptions::default();
    for i in 0..6 {
        let call = router.call_detailed(&sql_prompt(i), &opts);
        assert!(call.outcome.is_ok(), "warmup call {i}: {:?}", call.outcome);
    }
    let prompt = (0..10_000)
        .map(sql_prompt)
        .find(|p| router.primary_replica(p, &opts) == slow_id)
        .expect("some prompt hashes to the slow replica");

    let root = Span::enter_root("client.request");
    let trace_id = nl2vis_obs::current_context().unwrap().trace_id;
    let call = router.call_detailed(&prompt, &opts);
    assert!(call.outcome.is_ok(), "hedged call: {:?}", call.outcome);
    assert!(call.hedged, "the stalled primary must trigger a hedge");

    // Let the losing primary drain so both server.handle spans exist.
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    while router.stats().inflight() != 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(router.stats().inflight(), 0, "loser never drained");
    drop(root);

    // --- Metrics: scrape both replicas directly, then make the observer
    // take a fresh poll; no traffic moves in between, so the fleet view
    // must equal the direct merge exactly.
    let scrape = |addr| {
        let (status, body) = get(addr, "/metrics.json");
        assert_eq!(status, 200, "{body}");
        decode_snapshot(&body).expect("replica snapshot decodes")
    };
    let (snap_slow, snap_fast) = (scrape(slow.address()), scrape(fast.address()));
    observer.poll_once();

    let (status, body) = get(fleet.address(), "/fleet/metrics");
    assert_eq!(status, 200, "{body}");
    let merged = decode_snapshot(&body).expect("fleet metrics is itself a mergeable snapshot");
    assert_eq!(merged.sources, 2);
    assert_eq!(
        merged.counter("llm.requests_total"),
        snap_slow.counter("llm.requests_total") + snap_fast.counter("llm.requests_total"),
        "fleet count must be the exact per-replica sum"
    );
    assert!(merged.counter("llm.requests_total") >= 7);

    // Percentile exactness over the wire path: merging the two directly
    // scraped snapshots must reproduce the fleet histogram bucket-for-
    // bucket, hence quantile-for-quantile.
    let mut direct = snap_slow.clone();
    direct.merge(&snap_fast);
    let fleet_hist = &merged.histograms["llm.request_latency_us"];
    let direct_hist = &direct.histograms["llm.request_latency_us"];
    assert_eq!(fleet_hist, direct_hist, "bucket-exact fleet merge");
    for q in [0.5, 0.95, 0.99] {
        assert_eq!(fleet_hist.quantile(q), direct_hist.quantile(q));
    }

    // --- SLO gauges published globally from the merged view.
    let (status, body) = get(fleet.address(), "/fleet/stats");
    assert_eq!(status, 200, "{body}");
    let stats = Json::parse(&body).expect("fleet stats parses");
    assert_eq!(stats.get("replicas_ok").and_then(Json::as_f64), Some(2.0));
    let slo = stats.get("slo").and_then(Json::as_array).unwrap();
    let names: Vec<&str> = slo
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, vec!["latency", "availability"]);
    assert_eq!(
        nl2vis_obs::global()
            .gauge("slo.availability.fast_good_milli")
            .get(),
        1000,
        "nothing was shed, availability attainment is 100%"
    );
    let rows = stats.get("replicas").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 2);
    assert!(rows
        .iter()
        .all(|r| r.get("ok").and_then(Json::as_bool) == Some(true)));

    // --- Each row is its replica's own `/stats` body, and the fleet
    // object is `/stats` rendered over the direct merge.
    for (row, addr) in rows.iter().zip(addrs) {
        let (status, body) = get(addr, "/stats");
        assert_eq!(status, 200, "{body}");
        let own = Json::parse(&body).expect("replica stats parses");
        assert!(settled(&own).iter().all(|(_, v)| v.is_some()), "{body}");
        assert_eq!(settled(row), settled(&own), "row of {addr}");
    }
    let fleet_object = stats.get("fleet").expect("fleet object");
    let direct_stats = stats_json(&direct, WindowConfig::default().span());
    assert_eq!(settled(fleet_object), settled(&direct_stats));
    assert_eq!(
        fleet_object.get("sources").and_then(Json::as_f64),
        Some(2.0)
    );

    // --- The hedged trace, stitched by the fleet plane.
    let (status, body) = get(fleet.address(), &format!("/fleet/trace/{trace_id}"));
    assert_eq!(status, 200, "{body}");
    let trace = Json::parse(&body).expect("stitched trace parses");
    assert_eq!(trace.get("stitched").and_then(Json::as_bool), Some(true));
    assert_eq!(
        body.matches(r#""name":"router.attempt""#).count(),
        2,
        "both racers in one stitched tree: {body}"
    );
    assert!(
        body.matches(r#""name":"server.handle""#).count() >= 2,
        "each replica's server span present: {body}"
    );
    // Walk the tree: every attempt's subtree carries a server.handle.
    let tree = trace.get("tree").and_then(Json::as_array).unwrap();
    assert_eq!(tree.len(), 1, "one root: {body}");
    fn attempts_with_handles(node: &Json, found: &mut usize) {
        if node.get("name").and_then(Json::as_str) == Some("router.attempt") {
            let subtree = node.to_compact();
            if subtree.contains(r#""name":"server.handle""#) {
                *found += 1;
            }
        }
        if let Some(children) = node.get("children").and_then(Json::as_array) {
            for child in children {
                attempts_with_handles(child, found);
            }
        }
    }
    let mut covered = 0;
    attempts_with_handles(&tree[0], &mut covered);
    assert_eq!(covered, 2, "a server.handle under each attempt: {body}");

    // --- Error surfaces stay JSON through the fleet layer.
    let (status, body) = get(fleet.address(), "/fleet/trace/999999999");
    assert_eq!(status, 404, "{body}");
    assert!(Json::parse(&body).is_ok(), "fleet 404 is JSON: {body}");
    let (status, _) = get(fleet.address(), "/fleet/trace/banana");
    assert_eq!(status, 400);
    let (status, body) = get(fleet.address(), "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("fleet-observer"));
}

#[test]
fn one_poll_scrapes_each_replica_once() {
    let replicas: Vec<CompletionServer> = (0..2)
        .map(|_| {
            CompletionServer::start_with_service_registry(
                SimLlm::new(ModelProfile::gpt_4(), 9),
                Arc::new(MetricsRegistry::new()),
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<_> = replicas.iter().map(CompletionServer::address).collect();
    // No objectives, so this poll publishes no `slo.*` gauge that the
    // other test in this binary reads.
    let config = FleetConfig {
        slos: Vec::new(),
        ..FleetConfig::default()
    };
    let observer = FleetObserver::new(&addrs, config);
    let served = |server: &CompletionServer| {
        server
            .registry()
            .counter("server.http_requests_total")
            .get()
    };
    let before: Vec<u64> = replicas.iter().map(served).collect();
    observer.poll_once();
    for (server, before) in replicas.iter().zip(before) {
        assert_eq!(served(server), before + 1, "one GET per replica per poll");
    }

    let stats = observer.fleet_stats_json();
    let rows = stats.get("replicas").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 2);
    for row in rows {
        let text = row.to_compact();
        assert_eq!(row.get("ok").and_then(Json::as_bool), Some(true), "{text}");
        for key in ["throughput_rps", "window_shed_rate"] {
            assert!(
                row.get(key).and_then(Json::as_f64).is_some(),
                "{key}: {text}"
            );
        }
    }
}
