//! Event-core behavior the sequential tests cannot see: server-side
//! batching of identical queued completions (and which hosted services get
//! it), how a hosted stack's errors are answered, connection-count/
//! thread-count decoupling, and the header-parsing fixes (case-insensitive
//! names, duplicate `Content-Length`, `Connection:` token lists) exercised
//! over real sockets.

use nl2vis_llm::fault::{Fault, FaultInjector};
use nl2vis_llm::http::{
    connection_keeps_alive, header_value, CompletionServer, HttpError, HttpLlmClient, ServerConfig,
    ServerTuning,
};
use nl2vis_llm::profile::ModelProfile;
use nl2vis_llm::sim::SimLlm;
use nl2vis_obs as obs;
use nl2vis_obs::MetricsRegistry;
use nl2vis_service::{
    service_fn, CompletionService, Layer, TraceLayer, TransportError, TransportErrorKind,
    VALIDATION_REJECTED_STATUS,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The flight recorder is process-global; tests that install one must not
/// overlap. Poisoning is irrelevant — the lock only serializes.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

const PROMPT: &str = "-- Test:\n-- Database:\nDatabase: d\nt = [ a , b ]\nQ: shared question\nVQL:";

/// Reads exactly one `Content-Length`-framed response from a kept-alive
/// socket (a plain `read_to_string` would block until the peer closes).
fn read_one_response(reader: &mut BufReader<TcpStream>) -> (u16, bool, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("bad status line `{status_line}`"))
        .parse()
        .unwrap();
    let mut content_length = 0usize;
    let mut keep_alive = false;
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "truncated headers"
        );
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = header_value(line, "content-length") {
            content_length = v.parse().unwrap();
        }
        if let Some(v) = header_value(line, "connection") {
            keep_alive = connection_keeps_alive(v);
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, keep_alive, String::from_utf8(body).unwrap())
}

/// A burst of identical completions against a single stalled worker must
/// coalesce: provably fewer `SimLlm` invocations than requests, byte-
/// identical responses, and every batched request's `server.handle` span
/// linked (via the `batch` annotation) to one shared `server.batch` span.
#[test]
fn identical_queued_completions_coalesce_into_one_invocation() {
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Generous capacity: the recorder is process-global, so tests running
    // in parallel also record into it; the shard rings must not evict the
    // traces this test asserts on.
    let recorder = Arc::new(obs::FlightRecorder::new(512));
    obs::recorder::install(Arc::clone(&recorder));

    let registry = Arc::new(MetricsRegistry::new());
    // One worker, stalled 300ms on its first completion: the remaining
    // seven requests queue behind it and dequeue as one batch.
    let server = CompletionServer::start_with_service_config(
        SimLlm::new(ModelProfile::gpt_4(), 9),
        Arc::clone(&registry),
        FaultInjector::script(vec![Fault::Stall(Duration::from_millis(300))]),
        ServerConfig {
            max_inflight: 1,
            queue_depth: 64,
            retry_after: Duration::from_millis(50),
        },
    )
    .unwrap();
    let addr = server.address();

    let results: Vec<(u64, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(move || {
                    let root = obs::Span::enter("batchtest.request");
                    let client = HttpLlmClient::new(addr, "gpt-4");
                    let text = client.complete_http(PROMPT).expect("completion");
                    (root.trace(), text)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Byte-identical responses for identical (model, prompt, options).
    for (_, text) in &results {
        assert_eq!(text, &results[0].1, "batched members must match singles");
    }

    assert_eq!(registry.counter("llm.requests_total").get(), 8);
    assert!(registry.counter("server.batch.requests_total").get() > 1);
    assert!(registry.counter("server.batch.batches_total").get() >= 1);
    let invocations = registry.counter("server.batch.invocations_total").get();
    assert!(
        invocations < 8,
        "8 identical queued requests must share invocations, got {invocations}"
    );

    // Every batched request's server span names the batch trace it shared.
    let mut members_by_batch: HashMap<String, usize> = HashMap::new();
    for (trace_id, _) in &results {
        let record = recorder.get(*trace_id).expect("client trace recorded");
        assert!(record.has_span("server.handle"), "{:?}", record.spans);
        for span in record.spans_named("server.handle") {
            for (key, value) in &span.annotations {
                if key == "batch" {
                    *members_by_batch.entry(value.clone()).or_default() += 1;
                }
            }
        }
    }
    let (batch_trace, members) = members_by_batch
        .iter()
        .max_by_key(|(_, n)| **n)
        .expect("at least one request was served from a batch");
    assert!(
        *members >= 2,
        "a shared batch span must link at least two requests"
    );
    // The last member's response is written *before* the batch span
    // closes, so a fast client can get here first — poll briefly.
    let batch_id: u64 = batch_trace.parse().expect("decimal batch trace id");
    let deadline = Instant::now() + Duration::from_secs(2);
    let batch_record = loop {
        if let Some(record) = recorder.get(batch_id) {
            break record;
        }
        assert!(
            Instant::now() < deadline,
            "the shared batch trace must be finalized and retained"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        batch_record.has_span("server.batch"),
        "{:?}",
        batch_record.spans
    );

    drop(server);
    obs::recorder::disable();
}

/// Sends eight identical completions at a one-worker server hosting
/// `service` whose first completion stalls, so the other seven queue
/// behind it. Returns the server's registry and every response.
fn stalled_burst<S>(service: S) -> (Arc<MetricsRegistry>, Vec<Result<String, HttpError>>)
where
    S: CompletionService + Send + Sync + 'static,
{
    let registry = Arc::new(MetricsRegistry::new());
    let model = service.model().to_string();
    let server = CompletionServer::start_with_service_config(
        service,
        Arc::clone(&registry),
        FaultInjector::script(vec![Fault::Stall(Duration::from_millis(300))]),
        ServerConfig {
            max_inflight: 1,
            queue_depth: 64,
            retry_after: Duration::from_millis(50),
        },
    )
    .unwrap();
    let addr = server.address();
    let responses = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let model = model.clone();
                s.spawn(move || HttpLlmClient::new(addr, model).complete_http(PROMPT))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    drop(server);
    (registry, responses)
}

/// Batching follows the hosted service, not the constructor: a shared
/// `Arc<SimLlm>` forwards its batch entry point and still coalesces, while
/// a middleware stack over the same model (which does not override it) is
/// served one request per worker — with identical answers either way.
#[test]
fn only_batching_services_coalesce() {
    let llm = SimLlm::new(ModelProfile::gpt_4(), 9);
    let expected = llm.complete(PROMPT);

    let (shared, answers) = stalled_burst(Arc::new(llm.clone()));
    assert!(answers
        .iter()
        .all(|a| a.as_deref().ok() == Some(expected.as_str())));
    assert!(shared.counter("server.batch.invocations_total").get() < 8);

    let (traced, answers) = stalled_burst(TraceLayer::request().layer(llm));
    assert!(answers
        .iter()
        .all(|a| a.as_deref().ok() == Some(expected.as_str())));
    assert_eq!(traced.counter("server.batch.batches_total").get(), 8);
    assert_eq!(traced.counter("server.batch.invocations_total").get(), 8);
    assert_eq!(traced.counter("server.batch.dedup_hits_total").get(), 0);
}

/// A hosted stack's validation rejection is a verdict on the model's
/// answer: it goes out as a `422` the client does not retry, not as a
/// retryable `502`, and it is not a backend error. Every other service
/// error stays a counted `502`.
#[test]
fn hosted_rejections_answer_422_and_failures_502() {
    let rejecting = service_fn("tiered", |_: &str, _: &_| {
        Err(TransportError::new(
            TransportErrorKind::Status(VALIDATION_REJECTED_STATUS),
            1,
            "no tier produced a valid answer",
        ))
    });
    let (registry, answers) = stalled_burst(rejecting);
    for answer in &answers {
        match answer {
            Err(HttpError::Status(422, body)) => assert!(body.contains("no tier"), "{body}"),
            other => panic!("expected a 422, got {other:?}"),
        }
    }
    assert_eq!(registry.counter("llm.status_422").get(), 8);
    assert_eq!(registry.counter("server.backend_errors_total").get(), 0);

    let failing = service_fn("tiered", |_: &str, _: &_| {
        Err(TransportError::new(
            TransportErrorKind::Timeout,
            3,
            "tier timed out",
        ))
    });
    let (registry, answers) = stalled_burst(failing);
    assert!(answers
        .iter()
        .all(|a| matches!(a, Err(HttpError::Status(502, _)))));
    assert_eq!(registry.counter("server.backend_errors_total").get(), 8);
}

/// Open connections are poller state, not threads: hundreds of idle
/// sockets coexist with a single-digit serving-thread count, and the
/// server still answers traffic while holding them.
#[test]
fn idle_connections_decouple_from_serving_threads() {
    let registry = Arc::new(MetricsRegistry::new());
    let config = ServerConfig {
        max_inflight: 4,
        queue_depth: 16,
        retry_after: Duration::from_millis(50),
    };
    let tuning = ServerTuning::default();
    let server = CompletionServer::start_with_tuning(
        SimLlm::new(ModelProfile::gpt_4(), 9),
        Arc::clone(&registry),
        FaultInjector::none(),
        config,
        tuning,
    )
    .unwrap();
    let addr = server.address();

    let threads = registry.gauge("server.serving_threads").get();
    assert_eq!(
        threads,
        (tuning.pollers + config.max_inflight) as i64,
        "serving threads are pollers + workers, nothing per-connection"
    );

    // 64 idle connections: accepted, registered, never sending a byte.
    let idle: Vec<TcpStream> = (0..64).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let open = registry.gauge("server.poller.open_connections").get();
        if open >= 64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "pollers must adopt all 64 idle connections, saw {open}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        registry.gauge("server.poller.open_connections").get() > threads,
        "open connections must exceed the thread count"
    );

    // The held connections cost no worker: live traffic still flows.
    let client = HttpLlmClient::new(addr, "gpt-4");
    let text = client
        .complete_http(PROMPT)
        .expect("completion while idle connections are held");
    assert!(!text.is_empty());

    drop(idle);
    drop(server);
}

/// Header names match case-insensitively while values keep their original
/// bytes — pinned at the unit level for both shared helpers.
#[test]
fn header_helpers_fold_names_and_preserve_values() {
    assert_eq!(
        header_value("CONTENT-LENGTH: 42", "content-length"),
        Some("42")
    );
    assert_eq!(
        header_value("Content-Length:42", "content-length"),
        Some("42")
    );
    assert_eq!(
        header_value("X-Thing:   MiXeD CaSe VaLuE  ", "x-thing"),
        Some("MiXeD CaSe VaLuE"),
        "values are trimmed but never case-folded"
    );
    assert_eq!(header_value("X-Other: 1", "x-thing"), None);
    assert_eq!(header_value("no colon here", "x-thing"), None);

    assert!(connection_keeps_alive("keep-alive"));
    assert!(connection_keeps_alive("Keep-Alive"));
    assert!(connection_keeps_alive("keep-alive, TE"));
    assert!(connection_keeps_alive(" TE , Keep-Alive "));
    assert!(!connection_keeps_alive("close"));
    assert!(!connection_keeps_alive("keep-alive, close"), "close wins");
    assert!(
        !connection_keeps_alive("TE"),
        "unknown tokens alone don't keep"
    );
    assert!(!connection_keeps_alive(""));
}

/// A mixed-case trace header still stitches the server span into the
/// propagated trace, fetchable back through `/trace/<id>`.
#[test]
fn mixed_case_trace_headers_round_trip_through_trace_endpoint() {
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Same capacity note as above: parallel tests share the recorder.
    let recorder = Arc::new(obs::FlightRecorder::new(512));
    obs::recorder::install(Arc::clone(&recorder));

    let server = CompletionServer::start_with_service_registry(
        SimLlm::new(ModelProfile::gpt_4(), 9),
        Arc::new(MetricsRegistry::new()),
    )
    .unwrap();

    let body = format!("{{\"model\":\"gpt-4\",\"prompt\":{}}}", quote_json(PROMPT));
    let mut stream = TcpStream::connect(server.address()).unwrap();
    write!(
        stream,
        "POST /v1/completions HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nX-NL2VIS-TRACE-ID: 424242\r\nx-nl2vis-PARENT-span: 777\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )
    .unwrap();
    let mut response = String::new();
    BufReader::new(stream)
        .read_to_string(&mut response)
        .unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");

    // The server span joined trace 424242 under parent span 777 even
    // though the header names arrived in the wrong case.
    let record = recorder.get(424242).expect("trace recorded");
    assert!(record.has_span("server.handle"), "{:?}", record.spans);
    assert_eq!(record.spans_named("server.handle")[0].parent, Some(777));

    let mut stream = TcpStream::connect(server.address()).unwrap();
    write!(
        stream,
        "GET /trace/424242 HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
    )
    .unwrap();
    let mut fetched = String::new();
    BufReader::new(stream).read_to_string(&mut fetched).unwrap();
    assert!(fetched.starts_with("HTTP/1.1 200"), "{fetched}");
    assert!(fetched.contains("\"trace_id\":424242"), "{fetched}");
    assert!(fetched.contains("server.handle"), "{fetched}");

    drop(server);
    obs::recorder::disable();
}

/// Duplicate `Content-Length` headers: identical repeats are harmless,
/// conflicting ones are a request-smuggling vector and must be rejected.
#[test]
fn duplicate_content_length_is_rejected_only_when_conflicting() {
    let server = CompletionServer::start_with_service_registry(
        SimLlm::new(ModelProfile::gpt_4(), 9),
        Arc::new(MetricsRegistry::new()),
    )
    .unwrap();

    // Conflicting duplicates: 400, connection closed.
    let mut stream = TcpStream::connect(server.address()).unwrap();
    write!(
        stream,
        "POST /v1/completions HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello"
    )
    .unwrap();
    let mut response = String::new();
    BufReader::new(stream)
        .read_to_string(&mut response)
        .unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("conflicting"), "{response}");

    // Identical duplicates: last-wins degenerates to the same value, so
    // the request is served normally.
    let body = format!("{{\"model\":\"gpt-4\",\"prompt\":{}}}", quote_json(PROMPT));
    let mut stream = TcpStream::connect(server.address()).unwrap();
    write!(
        stream,
        "POST /v1/completions HTTP/1.1\r\nHost: x\r\nContent-Length: {0}\r\nContent-Length: {0}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )
    .unwrap();
    let mut response = String::new();
    BufReader::new(stream)
        .read_to_string(&mut response)
        .unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
}

/// The client applies the same rule to responses: a server answering with
/// conflicting `Content-Length` headers is a protocol error, not a guess.
#[test]
fn client_rejects_conflicting_response_content_length() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Consume the full request so closing later is a clean FIN, not an
        // RST racing the response bytes.
        let mut data = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "client closed before the response");
            data.extend_from_slice(&buf[..n]);
            if let Some(pos) = data.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&data[..pos]).to_ascii_lowercase();
                let declared: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length:"))
                    .map(|v| v.trim().parse().unwrap())
                    .unwrap_or(0);
                if data.len() >= pos + 4 + declared {
                    break;
                }
            }
        }
        stream
            .write_all(
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\nConnection: close\r\n\r\nok!",
            )
            .unwrap();
    });

    let client = HttpLlmClient::new(addr, "gpt-4");
    match client.complete_http(PROMPT) {
        Err(HttpError::Protocol(message)) => {
            assert!(message.contains("conflicting"), "{message}")
        }
        other => panic!("conflicting response lengths must be Protocol, got {other:?}"),
    }
    fake.join().unwrap();
}

/// `Connection:` is a token list: `keep-alive, TE` keeps the connection,
/// mixed case matches, and `close` anywhere wins.
#[test]
fn connection_token_lists_govern_keep_alive() {
    let registry = Arc::new(MetricsRegistry::new());
    let server = CompletionServer::start_with_service_registry(
        SimLlm::new(ModelProfile::gpt_4(), 9),
        Arc::clone(&registry),
    )
    .unwrap();

    // `keep-alive, TE`: the token list keeps the socket; a second request
    // rides it and counts as reuse.
    let stream = TcpStream::connect(server.address()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    write!(
        writer,
        "GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: keep-alive, TE\r\n\r\n"
    )
    .unwrap();
    let (status, keep, _) = read_one_response(&mut reader);
    assert_eq!(status, 200);
    assert!(keep, "the server must echo keep-alive for a token list");

    // Mixed case on the reused socket, then an explicit close.
    write!(
        writer,
        "GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: Keep-Alive\r\n\r\n"
    )
    .unwrap();
    let (status, keep, _) = read_one_response(&mut reader);
    assert_eq!(status, 200);
    assert!(keep, "mixed-case `Keep-Alive` must match");

    write!(
        writer,
        "GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: keep-alive, close\r\n\r\n"
    )
    .unwrap();
    let (status, keep, _) = read_one_response(&mut reader);
    assert_eq!(status, 200);
    assert!(!keep, "`close` anywhere in the list wins");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "the server must close after `close`");

    assert!(
        registry.counter("server.requests_on_reused_conn").get() >= 2,
        "both follow-up requests rode the kept-alive socket"
    );
    drop(server);
}

/// Minimal JSON string quoting for raw-socket request bodies.
fn quote_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
