//! Bounded server runtime: admission control, load shedding, and graceful
//! drain.
//!
//! The server serves connections from a fixed worker pool fed by a
//! fixed-depth accept queue. These tests pin the three promises that
//! sizing makes: in-flight work never exceeds the pool, overload is
//! rejected *quickly* with `429` + `Retry-After` instead of queueing
//! without bound, and shutdown serves everything already accepted. All
//! counts are asserted through the server's own metrics registry.

use nl2vis_llm::fault::{Fault, FaultInjector};
use nl2vis_llm::http::{CompletionServer, HttpError, HttpLlmClient, ServerConfig};
use nl2vis_llm::profile::ModelProfile;
use nl2vis_llm::sim::SimLlm;
use nl2vis_llm::{GenOptions, RetryPolicy, TransportErrorKind};
use nl2vis_obs::MetricsRegistry;
use nl2vis_service::{CompletionService, Layer, MetricsLayer, RetryLayer, TraceLayer};
use std::sync::Arc;
use std::time::Duration;

fn prompt(i: usize) -> String {
    format!("-- Test:\n-- Database:\nDatabase: d\nt = [ a , b ]\nQ: question {i}\nVQL:")
}

fn stall_all(n: usize, pause: Duration) -> FaultInjector {
    FaultInjector::script(vec![Fault::Stall(pause); n])
}

#[test]
fn full_queue_sheds_with_429_and_retry_after() {
    let registry = Arc::new(MetricsRegistry::new());
    let config = ServerConfig {
        max_inflight: 1,
        queue_depth: 1,
        retry_after: Duration::from_millis(30),
    };
    // Every served request stalls 80ms, so the single worker stays busy
    // while the burst arrives: one request in service, one queued, the
    // rest must be shed at the accept thread.
    let server = CompletionServer::start_with_service_config(
        SimLlm::new(ModelProfile::gpt_4(), 9),
        Arc::clone(&registry),
        stall_all(8, Duration::from_millis(80)),
        config,
    )
    .unwrap();
    let addr = server.address();

    let mut served = 0usize;
    let mut shed = 0usize;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                s.spawn(move || {
                    // One fresh client (own connection) per thread.
                    let client = HttpLlmClient::new(addr, "gpt-4");
                    client.complete_http(&prompt(i))
                })
            })
            .collect();
        for h in handles {
            match h.join().unwrap() {
                Ok(text) => {
                    assert!(!text.is_empty());
                    served += 1;
                }
                Err(HttpError::Overloaded { retry_after, body }) => {
                    let advertised = retry_after.expect("a shed carries Retry-After");
                    let diff = advertised.abs_diff(config.retry_after);
                    assert!(
                        diff < Duration::from_millis(5),
                        "Retry-After must echo the configured backoff: {advertised:?}"
                    );
                    assert!(body.contains("overloaded"), "{body}");
                    shed += 1;
                }
                Err(other) => panic!("overload must surface as Overloaded, got {other:?}"),
            }
        }
    });

    assert_eq!(served + shed, 6, "every request gets a definite answer");
    assert!(
        served >= 1,
        "the worker and the queue slot are still served"
    );
    assert!(
        shed >= 1,
        "a 6-deep burst against pool 1 + queue 1 must shed"
    );
    assert_eq!(registry.counter("server.shed_total").get(), shed as u64);
    assert_eq!(registry.counter("llm.status_429").get(), shed as u64);
    // Sheds are connection rejections — they never count as served traffic.
    assert_eq!(registry.counter("llm.requests_total").get(), served as u64);
}

#[test]
fn inflight_work_is_bounded_by_the_pool() {
    let registry = Arc::new(MetricsRegistry::new());
    let server = CompletionServer::start_with_service_config(
        SimLlm::new(ModelProfile::gpt_4(), 9),
        Arc::clone(&registry),
        stall_all(8, Duration::from_millis(20)),
        ServerConfig {
            max_inflight: 2,
            queue_depth: 16,
            retry_after: Duration::from_millis(50),
        },
    )
    .unwrap();
    let addr = server.address();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                s.spawn(move || {
                    let client = HttpLlmClient::new(addr, "gpt-4");
                    client.complete_http(&prompt(i))
                })
            })
            .collect();
        for h in handles {
            h.join()
                .unwrap()
                .expect("a 16-deep queue absorbs 8 requests");
        }
    });

    let peak = registry.gauge("server.concurrent_peak").get();
    assert!(
        (1..=2).contains(&peak),
        "8 concurrent stalled requests must never exceed the pool of 2, got {peak}"
    );
    assert_eq!(registry.counter("server.shed_total").get(), 0);
    assert_eq!(registry.counter("llm.requests_total").get(), 8);
}

#[test]
fn retry_layer_recovers_from_shedding() {
    let registry = Arc::new(MetricsRegistry::new());
    let config = ServerConfig {
        max_inflight: 1,
        queue_depth: 1,
        retry_after: Duration::from_millis(5),
    };
    // Short service times: the overload is transient by construction, so a
    // client that honors the advertised 5ms backoff converges quickly.
    let server = CompletionServer::start_with_service_config(
        SimLlm::new(ModelProfile::gpt_4(), 9),
        Arc::clone(&registry),
        stall_all(64, Duration::from_millis(2)),
        config,
    )
    .unwrap();
    let addr = server.address();

    // 429 is a retryable status for the policy.
    assert!(RetryPolicy::default().retryable(&TransportErrorKind::Status(429)));

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                s.spawn(move || {
                    let retry = RetryLayer::new(RetryPolicy {
                        max_attempts: 16,
                        base_backoff: Duration::from_millis(1),
                        max_backoff: Duration::from_millis(4),
                        jitter_seed: i as u64,
                    });
                    let client = TraceLayer::request().layer(
                        MetricsLayer::default()
                            .layer(retry.layer(HttpLlmClient::new(addr, "gpt-4"))),
                    );
                    client.call(&prompt(i), &GenOptions::default())
                })
            })
            .collect();
        for h in handles {
            let completion = h
                .join()
                .unwrap()
                .expect("every shed request must recover within its retry budget");
            assert!(!completion.is_empty());
        }
    });

    assert!(
        registry.counter("server.shed_total").get() > 0,
        "an 8-deep burst against pool 1 + queue 1 must shed at least once"
    );
    assert_eq!(
        registry.counter("llm.requests_total").get(),
        8,
        "each logical request is served exactly once despite the retries"
    );
}

/// Reads one length-delimited HTTP response off a raw socket; returns
/// `(status, body)`, or `None` when the response fails to arrive.
fn read_raw_response(stream: &mut std::net::TcpStream) -> Option<(u16, String)> {
    let response = nl2vis_llm::wire::read_response(stream).ok()?;
    Some((response.status, response.body_text()))
}

fn raw_completion_request(prompt: &str) -> Vec<u8> {
    let body = format!(r#"{{"model":"gpt-4","prompt":"{prompt}"}}"#);
    format!(
        "POST /v1/completions HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes()
}

/// The drain grace window exists so a request already in flight on the
/// wire can finish. A client that has *started* writing a request when
/// shutdown begins — buffered-but-incomplete bytes on the poller — must be
/// allowed to trickle the rest in during the grace and get its response,
/// not have the connection swept out from under it.
#[test]
fn slow_writer_trickling_across_the_drain_boundary_is_served() {
    use std::io::Write;
    let registry = Arc::new(MetricsRegistry::new());
    let server = CompletionServer::start_with_service_registry(
        SimLlm::new(ModelProfile::gpt_4(), 9),
        Arc::clone(&registry),
    )
    .unwrap();
    let addr = server.address();

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = raw_completion_request("hello across the drain");
    // First half of the request lands before shutdown begins...
    let split = request.len() - 12;
    stream.write_all(&request[..split]).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(40));

    // ... then the server starts draining with the request incomplete.
    let shutdown = std::thread::spawn(move || drop(server));
    std::thread::sleep(Duration::from_millis(60));

    // The trailing bytes arrive inside the 250ms grace window.
    stream.write_all(&request[split..]).unwrap();
    stream.flush().unwrap();

    let response = read_raw_response(&mut stream);
    shutdown.join().unwrap();
    match response {
        Some((200, body)) => assert!(!body.is_empty()),
        other => {
            panic!("a request trickled across the drain boundary must be served, got {other:?}")
        }
    }
    assert_eq!(registry.counter("llm.requests_total").get(), 1);
}

/// A kept-alive connection that has *started* its next request is
/// mid-request, not idle: the keep-alive idle sweep (5s) must not close it
/// silently while the client is still (slowly) writing. It gets the full
/// IO timeout, like a blocking read would have.
#[test]
fn slow_writer_on_kept_alive_conn_outlives_the_keepalive_idle_sweep() {
    use std::io::Write;
    let registry = Arc::new(MetricsRegistry::new());
    let server = CompletionServer::start_with_service_registry(
        SimLlm::new(ModelProfile::gpt_4(), 9),
        Arc::clone(&registry),
    )
    .unwrap();

    let mut stream = std::net::TcpStream::connect(server.address()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Request 1 completes normally, marking the connection kept-alive.
    stream
        .write_all(&raw_completion_request("first request"))
        .unwrap();
    let first = read_raw_response(&mut stream).expect("first response");
    assert_eq!(first.0, 200);

    // Request 2 starts, then stalls past SERVER_KEEPALIVE_IDLE (5s) with
    // bytes buffered on the poller. The old sweep treated this connection
    // as idle and closed it silently.
    let request = raw_completion_request("second request, slowly");
    let split = request.len() - 10;
    stream.write_all(&request[..split]).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(5600));
    stream.write_all(&request[split..]).unwrap();
    stream.flush().unwrap();

    match read_raw_response(&mut stream) {
        Some((200, _)) => {}
        other => {
            panic!("a mid-request connection must survive the keep-alive idle sweep, got {other:?}")
        }
    }
    assert_eq!(registry.counter("llm.requests_total").get(), 2);
}

#[test]
fn graceful_drain_serves_every_accepted_request() {
    let registry = Arc::new(MetricsRegistry::new());
    let server = CompletionServer::start_with_service_config(
        SimLlm::new(ModelProfile::gpt_4(), 9),
        Arc::clone(&registry),
        stall_all(8, Duration::from_millis(10)),
        ServerConfig {
            max_inflight: 1,
            queue_depth: 16,
            retry_after: Duration::from_millis(50),
        },
    )
    .unwrap();
    let addr = server.address();

    // 5 requests pile up behind a single 10ms-per-request worker...
    let handles: Vec<_> = (0..5)
        .map(|i| {
            std::thread::spawn(move || {
                let client = HttpLlmClient::new(addr, "gpt-4");
                client.complete_http(&prompt(i))
            })
        })
        .collect();
    // ... and once they are all accepted (connects are local and fast; the
    // backlog itself is ~50ms deep), the server shuts down mid-flight.
    std::thread::sleep(Duration::from_millis(20));
    drop(server);

    for h in handles {
        h.join()
            .unwrap()
            .expect("shutdown must drain the accept queue, not abandon it");
    }
    assert_eq!(
        registry.counter("llm.requests_total").get(),
        5,
        "every accepted request was served before the workers exited"
    );
    assert_eq!(registry.counter("server.shed_total").get(), 0);
    assert_eq!(registry.gauge("server.active_connections").get(), 0);
}
