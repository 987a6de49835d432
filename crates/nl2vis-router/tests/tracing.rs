//! The acceptance demo: a hedged request over two live HTTP replicas
//! renders as ONE trace tree — `router.request` at the top, a
//! `router.attempt` per racer (role-annotated), each with the replica's
//! own `server.handle` span stitched under it via the trace headers the
//! attempt thread injected — and `/trace/<id>` served by either replica
//! shows the whole race with the winner marked.
//!
//! Runs in its own test binary because the flight recorder is process
//! global.

use std::sync::Arc;
use std::time::Duration;

use nl2vis_llm::fault::FaultInjector;
use nl2vis_llm::http::{CompletionServer, ServerConfig};
use nl2vis_llm::profile::ModelProfile;
use nl2vis_llm::sim::SimLlm;
use nl2vis_obs::recorder::{self, FlightRecorder};
use nl2vis_obs::{MetricsRegistry, Span};
use nl2vis_router::{Router, RouterConfig};
use nl2vis_service::GenOptions;

/// One `GET` over a throwaway connection; returns (status, body).
fn raw_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    use std::io::{BufRead, BufReader, Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line.trim_end().is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, String::from_utf8_lossy(&body).to_string())
}

#[test]
fn hedged_request_renders_as_one_trace_tree_with_the_winner_marked() {
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

    let config = RouterConfig {
        default_hedge_delay: Duration::from_millis(15),
        ..RouterConfig::default()
    };
    let router = Router::over_http(&[slow.address(), fast.address()], "gpt-4", config);
    let slow_id = slow.address().to_string();
    let fast_id = fast.address().to_string();

    // A prompt whose ring owner is the stalled replica, so the hedge must
    // fire and the fast replica must win the race.
    let opts = GenOptions::default();
    let prompt = (0..10_000)
        .map(|i| {
            format!("-- Test:\n-- Database:\nDatabase: d\nt = [ a , b ]\nQ: question {i}\nVQL:")
        })
        .find(|p| router.primary_replica(p, &opts) == slow_id)
        .expect("some prompt hashes to the slow replica");

    let root = Span::enter_root("client.request");
    let trace_id = nl2vis_obs::current_context().unwrap().trace_id;
    let call = router.call_detailed(&prompt, &opts);
    assert!(
        call.outcome.is_ok(),
        "hedged call failed: {:?}",
        call.outcome
    );
    assert!(call.hedged, "the stalled primary must trigger a hedge");
    assert_eq!(call.replica, fast_id, "the fast replica wins the race");
    assert_eq!(call.role, "hedge");

    // Let the losing primary drain so its span (and the slow replica's
    // server.handle) are part of the record before the root closes.
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    while router.stats().inflight() != 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(router.stats().inflight(), 0, "loser never drained");
    drop(root);

    // Either replica can serve the stitched trace; ask the *loser*.
    let (status, body) = raw_get(slow.address(), &format!("/trace/{trace_id}"));
    assert_eq!(status, 200, "trace endpoint: {body}");

    assert!(body.contains(r#""name":"router.request""#), "{body}");
    assert_eq!(
        body.matches(r#""name":"router.attempt""#).count(),
        2,
        "both racers must appear in one tree: {body}"
    );
    assert!(
        body.matches(r#""name":"server.handle""#).count() >= 2,
        "each replica's server span must stitch under its attempt: {body}"
    );
    assert!(body.contains(r#""role":"primary""#), "{body}");
    assert!(body.contains(r#""role":"hedge""#), "{body}");
    assert!(
        body.contains(&format!(r#""winner":"{fast_id}""#)),
        "winner must be annotated on the request span: {body}"
    );
    assert!(body.contains(r#""winner_role":"hedge""#), "{body}");
    assert!(body.contains(r#""hedged":"true""#), "{body}");
}
