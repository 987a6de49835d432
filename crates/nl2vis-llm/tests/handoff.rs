//! The event core's connection handoff, on whichever poller this build
//! links (epoll by default, the scan poller under
//! `--no-default-features`).
//!
//! A worker that answers a kept-alive connection with nothing pipelined
//! behind the request re-arms the socket itself and posts its `Done`
//! without waking the poller; leftovers, closes and partial writes take
//! the other paths. These tests drive each path over raw sockets and check
//! every answer's text under a read timeout, so a request lost between a
//! worker and its poller fails the test instead of hanging it.

use nl2vis_data::Json;
use nl2vis_llm::http::CompletionServer;
use nl2vis_obs::MetricsRegistry;
use nl2vis_service::service_fn;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A completion request for the hosted model, asking to keep the
/// connection.
fn request(prompt: &str) -> Vec<u8> {
    let body = Json::object(vec![("prompt", Json::from(prompt))]).to_compact();
    format!(
        "POST /v1/completions HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A raw client connection that reads `Content-Length`-framed responses
/// of any size one at a time and keeps the bytes past one response for
/// the next, since pipelined answers can arrive in one read. (The
/// clients' `wire` reader drops such bytes and caps bodies at 4 MiB.)
struct Client {
    stream: TcpStream,
    received: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Client {
            stream,
            received: Vec::new(),
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    /// Reads until `received` holds at least `n` bytes.
    fn fill(&mut self, n: usize) {
        let mut chunk = [0u8; 1 << 16];
        while self.received.len() < n {
            let got = self
                .stream
                .read(&mut chunk)
                .expect("a response within 10 s");
            assert!(got > 0, "the connection closed mid-response");
            self.received.extend_from_slice(&chunk[..got]);
        }
    }

    /// The next response's completion text.
    fn completion(&mut self) -> String {
        let head_end = loop {
            if let Some(at) = self.received.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
            self.fill(self.received.len() + 1);
        };
        let head = String::from_utf8_lossy(&self.received[..head_end]).to_ascii_lowercase();
        assert!(head.starts_with("http/1.1 200"), "{head}");
        let length: usize = head
            .lines()
            .find_map(|line| line.strip_prefix("content-length:"))
            .expect("a Content-Length header")
            .trim()
            .parse()
            .expect("a numeric Content-Length");
        self.fill(head_end + length);
        let rest = self.received.split_off(head_end + length);
        let body = std::mem::replace(&mut self.received, rest).split_off(head_end);
        let body = Json::parse(&String::from_utf8(body).expect("a UTF-8 body")).expect("JSON");
        body.get("choices")
            .and_then(|c| c.at(0))
            .and_then(|c| c.get("text"))
            .and_then(Json::as_str)
            .expect("a completion text")
            .to_string()
    }
}

/// Runs `clients` against `server`. If they fail, the server is left
/// running rather than drained: a connection its poller still counts busy
/// would hold the drain forever and turn the failure into a hang.
fn against(server: CompletionServer, clients: impl FnOnce(SocketAddr)) {
    let addr = server.address();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| clients(addr)));
    if let Err(panic) = outcome {
        std::mem::forget(server);
        std::panic::resume_unwind(panic);
    }
}

/// A server whose model answers `answer:<prompt>`.
fn echo_server(registry: &Arc<MetricsRegistry>) -> CompletionServer {
    CompletionServer::start_with_service_registry(
        service_fn("echo", |prompt: &str, _| Ok(format!("answer:{prompt}"))),
        Arc::clone(registry),
    )
    .unwrap()
}

#[test]
fn pipelined_requests_in_one_write_are_answered_in_order() {
    let registry = Arc::new(MetricsRegistry::new());
    against(echo_server(&registry), |addr| {
        let mut client = Client::connect(addr);
        // Every request after the first is a leftover in the poller's
        // buffer when the one before it is dispatched: the hand-back path.
        for round in 0..3 {
            let burst: Vec<u8> = (0..4)
                .flat_map(|i| request(&format!("round {round} request {i}")))
                .collect();
            client.send(&burst);
            for i in 0..4 {
                assert_eq!(
                    client.completion(),
                    format!("answer:round {round} request {i}")
                );
            }
        }
    });
    assert_eq!(registry.counter("server.connections_total").get(), 1);
    assert_eq!(registry.counter("llm.requests_total").get(), 12);
}

#[test]
fn a_response_larger_than_the_send_buffer_arrives_whole() {
    // More than a loopback socket's send buffer (4 MiB at most on Linux)
    // and its reader's receive buffer hold while the reader sleeps, so the
    // worker's nonblocking write comes back partial and the rest goes out
    // under the blocking write deadline.
    let big = "x".repeat(12 << 20);
    let answer = big.clone();
    let server = CompletionServer::start(service_fn("big", move |prompt: &str, _| {
        Ok(match prompt.strip_prefix("big") {
            Some(_) => format!("{prompt}:{answer}"),
            None => format!("{prompt}:small"),
        })
    }))
    .unwrap();
    against(server, |addr| {
        let mut client = Client::connect(addr);
        for i in 0..2 {
            client.send(&request(&format!("big {i}")));
            std::thread::sleep(Duration::from_millis(300));
            let text = client.completion();
            assert!(
                text == format!("big {i}:{big}"),
                "response {i} arrived damaged"
            );
        }
        // The connection is still served after two partial writes.
        client.send(&request("after"));
        assert_eq!(client.completion(), "after:small");
    });
}

#[test]
fn an_idle_kept_alive_connection_closes_although_its_last_done_posted_no_wake() {
    let registry = Arc::new(MetricsRegistry::new());
    against(echo_server(&registry), |addr| {
        let mut client = Client::connect(addr);
        client.send(&request("only request"));
        assert_eq!(client.completion(), "answer:only request");
        // Past the 5 s keep-alive idle deadline the poller's sweep closes
        // the connection, which it can only do once it has read the
        // worker's unwoken `Done`.
        let mut byte = [0u8; 1];
        let started = std::time::Instant::now();
        let read = client.stream.read(&mut byte);
        let waited = started.elapsed();
        assert!(
            matches!(read, Ok(0)),
            "expected the server's close, got {read:?} after {waited:?}"
        );
        assert!(waited >= Duration::from_secs(4), "closed early: {waited:?}");
        assert_eq!(
            registry.gauge("server.poller.open_connections").get(),
            0,
            "the poller forgot the connection"
        );
    });
}

#[test]
fn back_to_back_requests_on_many_connections_lose_none() {
    let registry = Arc::new(MetricsRegistry::new());
    const CONNECTIONS: usize = 8;
    const REQUESTS: usize = 250;
    against(echo_server(&registry), |addr| {
        std::thread::scope(|scope| {
            for c in 0..CONNECTIONS {
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    for r in 0..REQUESTS {
                        client.send(&request(&format!("c{c} r{r}")));
                        assert_eq!(client.completion(), format!("answer:c{c} r{r}"));
                    }
                });
            }
        });
    });
    assert_eq!(
        registry.counter("llm.requests_total").get(),
        (CONNECTIONS * REQUESTS) as u64
    );
    assert_eq!(
        registry.counter("server.connections_total").get(),
        CONNECTIONS as u64
    );
}
