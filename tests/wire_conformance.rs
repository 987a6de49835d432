//! HTTP/1.1 framing conformance, one table per direction of traffic.
//!
//! Raw request bytes go to both servers: the event core behind
//! [`CompletionServer`] and the fleet observer's [`FleetServer`]. Raw
//! response bytes, served by a fake server, go to every client:
//! [`HttpLlmClient`], the load generator's [`LoadConn`], and
//! [`wire::get`], which backs the fleet scrape and the router's health
//! probe. Each row names the verdict of every consumer that sees its
//! direction, so a framing rule cannot hold for one consumer and not for
//! another.

use nl2vis::llm::http::{CompletionServer, HttpError, HttpLlmClient};
use nl2vis::llm::wire::{self, AcceptLoop, WireError, MAX_BODY_BYTES, MAX_HEADER_BYTES};
use nl2vis::llm::{ModelProfile, SimLlm};
use nl2vis::obs::{self, FlightRecorder, MetricsRegistry};
use nl2vis_loadgen::client::{LoadConn, Outcome};
use nl2vis_router::fleet::{FleetConfig, FleetObserver, FleetServer};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// What a server answered: status, a fragment of the body, and whether it
/// offered to keep the connection.
type Answer = (u16, &'static str, bool);

struct RequestCase {
    name: &'static str,
    bytes: Vec<u8>,
    /// Half-close after writing, so a short body is a truncation.
    half_close: bool,
    core: Answer,
    fleet: Answer,
}

fn request(
    name: &'static str,
    bytes: impl Into<Vec<u8>>,
    core: Answer,
    fleet: Answer,
) -> RequestCase {
    RequestCase {
        name,
        bytes: bytes.into(),
        half_close: false,
        core,
        fleet,
    }
}

/// Sends raw request bytes and reads the one response. When the server
/// is expected to close, the connection is read to its end: a closing
/// server answers exactly once, so no request byte was framed as a
/// second request.
fn send(addr: SocketAddr, case: &RequestCase, closes: bool) -> (u16, String, bool) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
    // A server may answer before it has read everything, so a failed
    // write is not the verdict; the response is.
    let _ = stream.write_all(&case.bytes);
    if case.half_close {
        let _ = stream.shutdown(Shutdown::Write);
    }
    if !closes {
        let response = wire::read_response(&mut stream)
            .unwrap_or_else(|e| panic!("{}: no response: {e}", case.name));
        return (response.status, response.body_text(), response.keep_alive);
    }
    let mut raw = Vec::new();
    if let Err(e) = stream.read_to_end(&mut raw) {
        // A reset after the answer still ends the connection; a deadline
        // means the server kept it open.
        let open = matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut);
        assert!(!open, "{}: the connection was left open", case.name);
    }
    let response = wire::read_response(&mut raw.as_slice())
        .unwrap_or_else(|e| panic!("{}: no response: {e}", case.name));
    assert_eq!(
        response.head().len + response.body().len(),
        raw.len(),
        "{}: answered more than once: {}",
        case.name,
        String::from_utf8_lossy(&raw)
    );
    (response.status, response.body_text(), response.keep_alive)
}

const TRACE_ID: u64 = 9_000_000_001;

fn request_cases() -> Vec<RequestCase> {
    let ok = "\"status\":\"ok\"";
    let get = |headers: &str| format!("GET /healthz HTTP/1.1\r\nHost: x\r\n{headers}\r\n");
    let mut oversized_head = get("Content-Length: 0\r\n").into_bytes();
    oversized_head.truncate(oversized_head.len() - 2);
    oversized_head.extend(format!("X-Pad: {}\r\n\r\n", "a".repeat(MAX_HEADER_BYTES)).bytes());
    let mut truncated = request(
        "truncated body",
        get("Content-Length: 100\r\n") + "abc",
        (400, "request read failed", false),
        (400, "request read failed", false),
    );
    truncated.half_close = true;
    vec![
        request(
            "request line without a version",
            "GET /healthz\r\nHost: x\r\n\r\n",
            (400, "malformed request line", false),
            (400, "malformed request line", false),
        ),
        request(
            "request line with a foreign version",
            "GET /healthz SPDY/3\r\nHost: x\r\n\r\n",
            (400, "malformed request line", false),
            (400, "malformed request line", false),
        ),
        request(
            "malformed content-length",
            get("Content-Length: banana\r\n"),
            (400, "malformed content-length", false),
            (400, "malformed content-length", false),
        ),
        request(
            "conflicting duplicate content-length",
            get("Content-Length: 5\r\nContent-Length: 6\r\n") + "hello",
            (400, "conflicting", false),
            (400, "conflicting", false),
        ),
        request(
            "identical duplicate content-length",
            get("Content-Length: 5\r\nContent-Length: 5\r\n") + "hello",
            (200, ok, false),
            (200, ok, false),
        ),
        request(
            "declared body over the limit",
            get(&format!("Content-Length: {}\r\n", MAX_BODY_BYTES + 1)),
            (413, "exceeds", false),
            (413, "exceeds", false),
        ),
        truncated,
        request(
            "head over 64 KiB",
            oversized_head,
            (400, "header block exceeds", false),
            (400, "header block exceeds", false),
        ),
        request(
            "mixed-case names",
            get(&format!(
                "cOnTeNt-LeNgTh: 0\r\nX-NL2VIS-TRACE-ID: {TRACE_ID}\r\nx-nl2vis-PARENT-span: 777\r\n"
            )),
            (200, ok, false),
            (200, ok, false),
        ),
        request(
            "Connection: keep-alive, TE",
            get("Content-Length: 0\r\nConnection: keep-alive, TE\r\n"),
            (200, ok, true),
            (200, ok, false),
        ),
        request(
            "Connection: Keep-Alive",
            get("Content-Length: 0\r\nConnection: Keep-Alive\r\n"),
            (200, ok, true),
            (200, ok, false),
        ),
        request(
            "Connection: keep-alive, close",
            get("Content-Length: 0\r\nConnection: keep-alive, close\r\n"),
            (200, ok, false),
            (200, ok, false),
        ),
        request(
            "bare-LF line endings",
            "GET /healthz HTTP/1.1\nHost: x\nContent-Length: 0\n\n",
            (200, ok, false),
            (200, ok, false),
        ),
        request(
            "keep-alive chunked POST",
            concat!(
                "POST /v1/completions HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n",
                "Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
            ),
            (501, "transfer-encoding", false),
            (501, "transfer-encoding", false),
        ),
    ]
}

#[test]
fn every_server_frames_requests_alike() {
    let recorder = Arc::new(FlightRecorder::new(64));
    obs::recorder::install(Arc::clone(&recorder));
    let registry = Arc::new(MetricsRegistry::new());
    let core = CompletionServer::start_with_service_registry(
        SimLlm::new(ModelProfile::gpt_4(), 9),
        Arc::clone(&registry),
    )
    .unwrap();
    let fleet = FleetServer::start(FleetObserver::new(&[], FleetConfig::default())).unwrap();

    for case in request_cases() {
        for (server, addr, (status, fragment, keep_alive)) in [
            ("event core", core.address(), case.core),
            ("fleet server", fleet.address(), case.fleet),
        ] {
            let (got, body, kept) = send(addr, &case, !keep_alive);
            assert_eq!(got, status, "{} on the {server}: {body}", case.name);
            assert!(
                body.contains(fragment),
                "{} on the {server}: `{body}` lacks `{fragment}`",
                case.name
            );
            assert_eq!(kept, keep_alive, "{} on the {server}", case.name);
        }
    }

    // Mixed-case names still carried the trace id and parent through.
    let record = recorder.get(TRACE_ID).expect("the traced GET was recorded");
    assert_eq!(record.spans_named("server.handle")[0].parent, Some(777));
    // Every rejection was counted as one.
    assert_eq!(registry.counter("server.bad_requests_total").get(), 8);
    obs::recorder::disable();
}

/// Canned bytes every consumer receives, and what each makes of them.
struct ResponseCase {
    name: &'static str,
    bytes: Vec<u8>,
    /// For keep-alive rows: the connections two requests need (1 when the
    /// client reuses its socket). Other rows send one request, and the fake
    /// closes after answering.
    reuse: Option<usize>,
    /// Verdict prefixes from `HttpLlmClient`, `LoadConn` and `wire::get`.
    expect: [String; 3],
}

const COMPLETION: &str = r#"{"choices":[{"text":"VISUALIZE Bar MiXeD"}]}"#;

fn response(name: &'static str, bytes: impl Into<Vec<u8>>, expect: [&str; 3]) -> ResponseCase {
    ResponseCase {
        name,
        bytes: bytes.into(),
        reuse: None,
        expect: expect.map(str::to_string),
    }
}

/// A `200` carrying [`COMPLETION`], with `headers` and a line ending.
fn ok_with(headers: &str, eol: &str) -> String {
    format!(
        "HTTP/1.1 200 OK{eol}Content-Length: {}{eol}{headers}{eol}{COMPLETION}",
        COMPLETION.len()
    )
    .replace("\r\n", eol)
}

fn response_cases() -> Vec<ResponseCase> {
    const OK: &str = "ok VISUALIZE Bar MiXeD";
    let completion_get = &format!("200 {COMPLETION}");
    let keep = |name, connection: &str, connections| ResponseCase {
        reuse: Some(connections),
        ..response(
            name,
            ok_with(&format!("Connection: {connection}\r\n"), "\r\n"),
            [OK, "ok", completion_get],
        )
    };
    let shed = |name, headers: &str| {
        response(
            name,
            format!("HTTP/1.1 429 Too Many Requests\r\nRetry-After: 0.05\r\n{headers}\r\n"),
            ["shed Some(50ms)", "shed", "error"],
        )
    };
    let mut oversized_head = "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n".to_string();
    oversized_head += &format!("X-Pad: {}\r\n\r\n", "a".repeat(MAX_HEADER_BYTES));
    vec![
        response(
            "status line without HTTP/1.x",
            "garbage 200 OK\r\nContent-Length: 2\r\n\r\nok",
            ["protocol malformed status line", "error", "error malformed status line"],
        ),
        response(
            "status code of two digits",
            "HTTP/1.1 20 OK\r\nContent-Length: 2\r\n\r\nok",
            ["protocol malformed status line", "error", "error malformed status line"],
        ),
        response(
            "malformed content-length",
            "HTTP/1.1 200 OK\r\nContent-Length: banana\r\n\r\n",
            [
                "protocol malformed content-length",
                "error",
                "error malformed content-length",
            ],
        ),
        response(
            "conflicting duplicate content-length",
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok!",
            ["protocol conflicting", "error", "error conflicting"],
        ),
        response(
            "identical duplicate content-length",
            ok_with(&format!("Content-Length: {}\r\n", COMPLETION.len()), "\r\n"),
            [OK, "ok", completion_get],
        ),
        response(
            "declared body over the limit",
            format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 65536
            ),
            ["protocol body of", "error", "error body of"],
        ),
        response(
            "truncated body",
            "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nabc",
            [
                "transport ConnectionClosed",
                "error",
                "error connection closed mid-response",
            ],
        ),
        response(
            "head over 64 KiB",
            oversized_head,
            [
                "protocol header block exceeds",
                "error",
                "error header block exceeds",
            ],
        ),
        response(
            "mixed-case names",
            format!(
                "HTTP/1.1 200 OK\r\ncOnTeNt-TyPe: application/json\r\ncOnTeNt-LeNgTh: {}\r\n\r\n{COMPLETION}",
                COMPLETION.len()
            ),
            [OK, "ok", completion_get],
        ),
        keep("Connection: keep-alive, TE", "keep-alive, TE", 1),
        keep("Connection: Keep-Alive", "Keep-Alive", 1),
        keep("Connection: keep-alive, close", "keep-alive, close", 2),
        response(
            "bare-LF line endings",
            ok_with("", "\n"),
            [OK, "ok", completion_get],
        ),
        response(
            "chunked transfer-encoding",
            format!(
                "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n{COMPLETION}\r\n0\r\n\r\n",
                COMPLETION.len()
            ),
            [
                "protocol transfer-encoding is not supported",
                "error",
                "error transfer-encoding is not supported",
            ],
        ),
        shed("429 with transfer-encoding", "Transfer-Encoding: chunked\r\n"),
        shed("429 with malformed content-length", "Content-Length: banana\r\n"),
        shed(
            "429 with conflicting content-length",
            "Content-Length: 5\r\nContent-Length: 6\r\n",
        ),
        shed("429 with a body over the limit", "Content-Length: 999999999\r\n"),
        response(
            "429 with mixed-case names",
            "HTTP/1.1 429 Too Many Requests\r\nrEtRy-AfTeR: 0.05\r\ncontent-LENGTH: 2\r\n\r\n{}",
            ["shed Some(50ms)", "shed", "429 {}"],
        ),
    ]
}

/// A server that answers every request with the same canned bytes and
/// counts the connections it accepted.
struct Fake {
    accept: AcceptLoop,
    connections: Arc<AtomicUsize>,
}

impl Fake {
    fn serve(canned: Vec<u8>, keep_open: bool) -> Fake {
        let connections = Arc::new(AtomicUsize::new(0));
        let accepted = Arc::clone(&connections);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let accept = AcceptLoop::spawn(listener, move |mut stream| {
            accepted.fetch_add(1, Ordering::SeqCst);
            let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
            while wire::read_request(&mut stream).is_ok() {
                if stream.write_all(&canned).is_err() || !keep_open {
                    break;
                }
            }
        })
        .unwrap();
        Fake {
            accept,
            connections,
        }
    }

    fn addr(&self) -> SocketAddr {
        self.accept.address()
    }

    fn connections(&self) -> usize {
        self.connections.load(Ordering::SeqCst)
    }
}

fn client_verdict(result: Result<String, HttpError>) -> String {
    match result {
        Ok(text) => format!("ok {text}"),
        Err(HttpError::Overloaded { retry_after, .. }) => format!("shed {retry_after:?}"),
        Err(HttpError::Protocol(message)) => format!("protocol {message}"),
        Err(HttpError::Status(code, _)) => format!("status {code}"),
        Err(e) => format!("transport {:?}", e.transport_kind()),
    }
}

fn loadgen_verdict(outcome: Outcome) -> String {
    match outcome {
        Outcome::Ok => "ok".to_string(),
        Outcome::Shed => "shed".to_string(),
        Outcome::Error(message) => format!("error {message}"),
    }
}

fn get_verdict(result: Result<(u16, String), WireError>) -> String {
    match result {
        Ok((status, body)) => format!("{status} {body}"),
        Err(e) => format!("error {e}"),
    }
}

#[test]
fn every_client_frames_responses_alike() {
    for case in response_cases() {
        let fake = Fake::serve(case.bytes.clone(), case.reuse.is_some());
        let requests = if case.reuse.is_some() { 2 } else { 1 };
        let [client, loadgen, get] = &case.expect;
        let check = |consumer: &str, verdicts: Vec<String>, expected: &str, opened: usize| {
            for verdict in &verdicts {
                assert!(
                    verdict.starts_with(expected),
                    "{} via {consumer}: got `{verdict}`, want `{expected}…`",
                    case.name
                );
            }
            if let (Some(connections), false) = (case.reuse, consumer == "wire::get") {
                assert_eq!(opened, connections, "{} via {consumer}", case.name);
            }
        };

        // Each client is dropped before the next starts: the fake serves
        // one connection at a time, and a parked socket holds it.
        let before = fake.connections();
        let verdicts = {
            let client = HttpLlmClient::new(fake.addr(), "m");
            (0..requests)
                .map(|_| client_verdict(client.complete_http("p")))
                .collect()
        };
        check(
            "HttpLlmClient",
            verdicts,
            client,
            fake.connections() - before,
        );

        let before = fake.connections();
        let verdicts = {
            let mut conn = LoadConn::new(fake.addr(), "m");
            (0..requests)
                .map(|_| loadgen_verdict(conn.request("p").outcome))
                .collect()
        };
        check("LoadConn", verdicts, loadgen, fake.connections() - before);

        let verdict = get_verdict(wire::get(fake.addr(), "/", IO_TIMEOUT));
        check("wire::get", vec![verdict], get, 0);
    }
}
