//! HTTP keep-alive integration: connection reuse, pooling opt-out, and
//! transparent recovery when a pooled socket goes stale.
//!
//! Connection counts are asserted through the server's metrics registry
//! (`server.connections_total` increments once per accepted TCP
//! connection), so these tests pin the *actual* number of sockets opened,
//! not a client-side guess.

use nl2vis_llm::fault::{Fault, FaultInjector};
use nl2vis_llm::http::{CompletionServer, HttpLlmClient, ServerConfig};
use nl2vis_llm::profile::ModelProfile;
use nl2vis_llm::sim::SimLlm;
use nl2vis_obs::MetricsRegistry;
use std::sync::Arc;

fn prompt(i: usize) -> String {
    format!("-- Test:\n-- Database:\nDatabase: d\nt = [ a , b ]\nQ: question {i}\nVQL:")
}

#[test]
fn sequential_requests_share_one_connection() {
    let registry = Arc::new(MetricsRegistry::new());
    let llm = SimLlm::new(ModelProfile::gpt_4(), 9);
    let server = CompletionServer::start_with_service_registry(llm, Arc::clone(&registry)).unwrap();
    let client = HttpLlmClient::new(server.address(), "gpt-4");

    for i in 0..5 {
        client.complete_http(&prompt(i)).unwrap();
    }

    assert_eq!(
        registry.counter("server.connections_total").get(),
        1,
        "five sequential completions must ride one kept-alive connection"
    );
    assert_eq!(registry.counter("llm.requests_total").get(), 5);
    assert_eq!(
        registry.counter("server.requests_on_reused_conn").get(),
        4,
        "every request after the first reuses the connection"
    );
}

#[test]
fn keep_alive_opt_out_opens_a_connection_per_request() {
    let registry = Arc::new(MetricsRegistry::new());
    let llm = SimLlm::new(ModelProfile::gpt_4(), 9);
    let server = CompletionServer::start_with_service_registry(llm, Arc::clone(&registry)).unwrap();
    let client = HttpLlmClient::new(server.address(), "gpt-4").without_keep_alive();

    for i in 0..3 {
        client.complete_http(&prompt(i)).unwrap();
    }

    assert_eq!(
        registry.counter("server.connections_total").get(),
        3,
        "an opted-out client pays one TCP connection per request"
    );
    assert_eq!(registry.counter("server.requests_on_reused_conn").get(), 0);
}

#[test]
fn stale_pooled_connection_is_retried_on_a_fresh_one() {
    let registry = Arc::new(MetricsRegistry::new());
    let llm = SimLlm::new(ModelProfile::gpt_4(), 9);
    // Request 1 succeeds and parks its connection; request 2 rides the
    // pooled socket and the server drops it without a response — exactly
    // what a pooled client sees when the server restarted or idled out the
    // socket between requests.
    let server = CompletionServer::start_with_service_config(
        llm,
        Arc::clone(&registry),
        FaultInjector::script(vec![Fault::None, Fault::Drop]),
        ServerConfig::default(),
    )
    .unwrap();
    let client = HttpLlmClient::new(server.address(), "gpt-4");

    let first = client.complete_http(&prompt(0)).unwrap();
    let second = client
        .complete_http(&prompt(1))
        .expect("a stale pooled socket must be retried transparently");
    assert!(!first.is_empty() && !second.is_empty());

    assert_eq!(
        registry.counter("server.connections_total").get(),
        2,
        "the dropped pooled socket forces exactly one replacement connection"
    );
    // Both completions ultimately succeeded despite the injected drop.
    assert_eq!(registry.counter("llm.requests_total").get(), 2);
    assert_eq!(registry.counter("server.fault.drop").get(), 1);
}

#[test]
fn first_request_drop_is_not_silently_retried() {
    // The stale-socket retry must only fire for *reused* connections: a
    // drop on a fresh connection is a real transport failure that belongs
    // to the retry/attribution layer above, not to the pool.
    let registry = Arc::new(MetricsRegistry::new());
    let llm = SimLlm::new(ModelProfile::gpt_4(), 9);
    let server = CompletionServer::start_with_service_config(
        llm,
        Arc::clone(&registry),
        FaultInjector::script(vec![Fault::Drop]),
        ServerConfig::default(),
    )
    .unwrap();
    let client = HttpLlmClient::new(server.address(), "gpt-4");

    let result = client.complete_http(&prompt(0));
    assert!(
        matches!(result, Err(nl2vis_llm::http::HttpError::Closed)),
        "a first-attempt drop surfaces as Closed: {result:?}"
    );
    assert_eq!(registry.counter("server.connections_total").get(), 1);
}

#[test]
fn truncated_429_on_reused_conn_is_overloaded_not_a_stale_retry() {
    use nl2vis_llm::wire;
    use std::io::Write;
    use std::sync::atomic::{AtomicUsize, Ordering};

    // A scripted raw server: request 1 gets a keep-alive 200 (so the
    // client parks the socket), request 2 gets a 429 whose advertised body
    // is cut short by the peer closing. The old classification saw the
    // truncation (`UnexpectedEof`) as a stale pooled socket and silently
    // replayed the shed request on a fresh connection, incrementing
    // `http.conn_stale_retries` for a 429 the server fully decided on.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let requests_seen = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&requests_seen);
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        assert!(wire::read_request(&mut stream).is_ok());
        seen.fetch_add(1, Ordering::SeqCst);
        let body = r#"{"choices":[{"text":"ok"}]}"#;
        write!(
            stream,
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
        assert!(wire::read_request(&mut stream).is_ok());
        seen.fetch_add(1, Ordering::SeqCst);
        stream
            .write_all(
                b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 64\r\nRetry-After: 0.05\r\n\r\ntruncat",
            )
            .unwrap();
        drop(stream);
        // A buggy client reconnects and replays here; poll the backlog
        // briefly to catch it without hanging the test.
        std::thread::sleep(std::time::Duration::from_millis(200));
        listener.set_nonblocking(true).unwrap();
        if let Ok((mut stream, _)) = listener.accept() {
            if wire::read_request(&mut stream).is_ok() {
                seen.fetch_add(100, Ordering::SeqCst);
            }
        }
    });

    let client = HttpLlmClient::new(addr, "gpt-4");
    client.complete_http(&prompt(0)).expect("first request");
    let second = client.complete_http(&prompt(1));
    match second {
        Err(nl2vis_llm::http::HttpError::Overloaded { retry_after, .. }) => {
            assert_eq!(
                retry_after,
                Some(std::time::Duration::from_millis(50)),
                "the Retry-After parsed before the truncation must survive"
            );
        }
        other => panic!("truncated 429 must surface as Overloaded, got {other:?}"),
    }
    server.join().unwrap();
    assert_eq!(
        requests_seen.load(Ordering::SeqCst),
        2,
        "the shed request must not be replayed down the stale-socket path"
    );
}

/// Writes one `GET` with `Connection: keep-alive` on an existing socket
/// and reads back exactly one length-delimited response.
fn keep_alive_get(stream: &mut std::net::TcpStream, path: &str) -> (u16, String) {
    let addr = stream.peer_addr().unwrap();
    let request = nl2vis_llm::wire::render_request("GET", path, addr, &[], "", true);
    let response = nl2vis_llm::wire::exchange(stream, &request).unwrap();
    (response.status, response.body_text())
}

#[test]
fn metrics_and_healthz_are_served_over_one_reused_connection() {
    // PR 3 added server-side keep-alive, but the endpoint tests all used
    // close-per-request clients. A scraper polling /metrics and /healthz
    // should be able to hold one connection for its whole polling loop.
    let registry = Arc::new(MetricsRegistry::new());
    let llm = SimLlm::new(ModelProfile::gpt_4(), 9);
    let server = CompletionServer::start_with_service_registry(llm, Arc::clone(&registry)).unwrap();
    // Seed the registry with one completion so /metrics has content.
    let client = HttpLlmClient::new(server.address(), "gpt-4");
    client.complete_http(&prompt(0)).unwrap();

    let mut stream = std::net::TcpStream::connect(server.address()).unwrap();
    let (status, health) = keep_alive_get(&mut stream, "/healthz");
    assert_eq!(status, 200);
    assert!(health.contains(r#""status":"ok""#), "{health}");
    let (status, metrics) = keep_alive_get(&mut stream, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("llm.requests_total 1"), "{metrics}");
    // Alternate the two endpoints a few more times on the same socket.
    for _ in 0..3 {
        assert_eq!(keep_alive_get(&mut stream, "/healthz").0, 200);
        assert_eq!(keep_alive_get(&mut stream, "/metrics").0, 200);
    }

    // One connection for the completion client, one for the scraper.
    assert_eq!(
        registry.counter("server.connections_total").get(),
        2,
        "eight endpoint requests must share the scraper's single connection"
    );
    assert!(
        registry.counter("server.requests_on_reused_conn").get() >= 7,
        "every scraper request after the first rides the reused connection"
    );
}

#[test]
fn concurrent_pooled_clients_stay_correct() {
    // Many threads sharing one pooled client: responses must never cross
    // wires (each thread gets the completion for its own prompt).
    let registry = Arc::new(MetricsRegistry::new());
    let llm = SimLlm::new(ModelProfile::gpt_4(), 9);
    let direct = llm.clone();
    let server = CompletionServer::start_with_service_registry(llm, Arc::clone(&registry)).unwrap();
    let client = Arc::new(HttpLlmClient::new(server.address(), "gpt-4"));

    std::thread::scope(|s| {
        for t in 0..4 {
            let client = Arc::clone(&client);
            let direct = &direct;
            s.spawn(move || {
                for i in 0..8 {
                    let p = prompt(t * 100 + i);
                    let via_http = client.complete_http(&p).unwrap();
                    assert_eq!(via_http, direct.complete(&p), "responses must not cross");
                }
            });
        }
    });

    let conns = registry.counter("server.connections_total").get();
    assert!(
        conns <= 4,
        "32 requests from 4 threads need at most 4 connections, got {conns}"
    );
    assert_eq!(registry.counter("llm.requests_total").get(), 32);
}
