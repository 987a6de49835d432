//! The load generator's wire client: one persistent keep-alive connection
//! per worker, with per-phase timing.
//!
//! [`HttpLlmClient`](nl2vis_llm::http::HttpLlmClient) hides connection
//! management — which is right for the serving path and wrong for a load
//! harness, where *connect time is a measured phase* and the shed path
//! (`429` on a fresh connection) must be counted, not retried away. This
//! client keeps the socket visible: it reuses its one connection while the
//! server keeps it alive, reconnects (timed) when it does not, and retries
//! exactly once when a parked socket turns out to be stale.

use nl2vis_data::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Per-request socket deadlines. Generous enough for a server under
/// deliberate overload, small enough that a dead server fails the run
/// instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// What the server said to one request.
#[derive(Debug)]
pub enum Outcome {
    /// 200 with a completion body.
    Ok,
    /// 429 — admission control shed the request.
    Shed,
    /// Transport or protocol failure, or an unexpected status.
    Error(String),
}

/// One request's result with its phase breakdown (microseconds).
#[derive(Debug)]
pub struct WireResult {
    /// How the request ended.
    pub outcome: Outcome,
    /// TCP connect time; 0 when the request rode the kept-alive socket.
    pub connect_us: u64,
    /// Write-to-last-byte service time as seen from the client.
    pub serve_us: u64,
}

/// A worker's connection to the completion server.
pub struct LoadConn {
    addr: SocketAddr,
    model: String,
    stream: Option<TcpStream>,
}

enum WireError {
    /// The reused socket died before delivering a status line — retryable
    /// once on a fresh connection.
    Stale,
    /// A real failure.
    Fatal(String),
}

impl LoadConn {
    /// A client for `addr` requesting completions from `model`.
    pub fn new(addr: SocketAddr, model: impl Into<String>) -> LoadConn {
        LoadConn {
            addr,
            model: model.into(),
            stream: None,
        }
    }

    /// Issues one completion request, reusing the kept-alive connection
    /// when one is parked. A stale parked socket costs one transparent
    /// reconnect; every other failure is the request's outcome.
    pub fn request(&mut self, prompt: &str) -> WireResult {
        let body = Json::object(vec![
            ("model", Json::from(self.model.as_str())),
            ("prompt", Json::from(prompt)),
        ])
        .to_compact();

        let mut connect_us = 0u64;
        let reused = self.stream.is_some();
        if self.stream.is_none() {
            let started = Instant::now();
            match TcpStream::connect_timeout(&self.addr, IO_TIMEOUT) {
                Ok(stream) => {
                    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
                    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                    // Request/response latency is the measurement; Nagle
                    // batching + delayed ACK would add spurious 40ms
                    // stalls to it.
                    let _ = stream.set_nodelay(true);
                    connect_us = started.elapsed().as_micros() as u64;
                    self.stream = Some(stream);
                }
                Err(e) => {
                    return WireResult {
                        outcome: Outcome::Error(format!("connect: {e}")),
                        connect_us: started.elapsed().as_micros() as u64,
                        serve_us: 0,
                    }
                }
            }
        }

        let started = Instant::now();
        match self.roundtrip(&body) {
            Ok(outcome) => WireResult {
                outcome,
                connect_us,
                serve_us: started.elapsed().as_micros() as u64,
            },
            Err(WireError::Stale) if reused => {
                // The parked socket died while idle; the request never
                // reached the server, so a single fresh-connection retry is
                // safe. `self.stream` is already cleared.
                self.request(prompt)
            }
            Err(WireError::Stale) => WireResult {
                outcome: Outcome::Error("connection closed before response".to_string()),
                connect_us,
                serve_us: started.elapsed().as_micros() as u64,
            },
            Err(WireError::Fatal(message)) => WireResult {
                outcome: Outcome::Error(message),
                connect_us,
                serve_us: started.elapsed().as_micros() as u64,
            },
        }
    }

    /// One exchange on the live socket. On any error the socket is
    /// dropped; on success it is kept only if the server said keep-alive.
    fn roundtrip(&mut self, body: &str) -> Result<Outcome, WireError> {
        let mut stream = self.stream.take().expect("live socket");
        let fatal = |e: std::io::Error| WireError::Fatal(format!("io: {e}"));
        // One write syscall for the whole request: header-then-body writes
        // on a non-NODELAY path would hand Nagle a stall opportunity, and
        // even with NODELAY two segments cost more than one.
        let request = format!(
            "POST /v1/completions HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            self.addr,
            body.len(),
        );
        stream
            .write_all(request.as_bytes())
            .and_then(|_| stream.flush())
            .map_err(|e| {
                // A write failing on a reused socket is the stale signature too
                // (RST from a closed peer surfaces on write).
                if is_disconnect(&e) {
                    WireError::Stale
                } else {
                    fatal(e)
                }
            })?;

        let mut reader = BufReader::new(stream.try_clone().map_err(fatal)?);
        let mut status_line = String::new();
        // `Stale` (and the transparent retry it buys) is only safe while
        // the response has not started: once any status-line byte arrived,
        // the server *did* process the request, so replaying it would
        // double-send — and a readable 429 would be retried instead of
        // counted as the shed it is.
        match reader.read_line(&mut status_line) {
            Ok(0) => return Err(WireError::Stale),
            Ok(_) => {}
            Err(e) if is_disconnect(&e) && status_line.is_empty() => return Err(WireError::Stale),
            Err(e) => return Err(fatal(e)),
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| WireError::Fatal(format!("bad status line `{status_line}`")))?;

        // Past this point the status is authoritative. If the connection
        // dies mid-headers or mid-body, a 429 is still a shed (admission
        // control spoke; the body was only advisory) — anything else is a
        // fatal truncation. Never `Stale`.
        match Self::read_rest(&mut reader) {
            Ok((keep_alive, response)) => {
                drop(reader);
                if keep_alive && status == 200 {
                    self.stream = Some(stream);
                }
                Ok(match status {
                    200 => Outcome::Ok,
                    429 => Outcome::Shed,
                    other => Outcome::Error(format!(
                        "http {other}: {}",
                        String::from_utf8_lossy(&response)
                    )),
                })
            }
            Err(_) if status == 429 => Ok(Outcome::Shed),
            Err(e) => Err(e),
        }
    }

    /// Reads headers and body after the status line; returns
    /// `(keep_alive, body)`.
    fn read_rest(reader: &mut BufReader<TcpStream>) -> Result<(bool, Vec<u8>), WireError> {
        let fatal = |e: std::io::Error| WireError::Fatal(format!("io: {e}"));
        let mut content_length: Option<usize> = None;
        let mut keep_alive = false;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).map_err(fatal)? == 0 {
                return Err(WireError::Fatal("truncated headers".to_string()));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            // Shared header helpers: names match case-insensitively, values
            // keep their bytes, and a `Connection:` token list is matched
            // per token.
            if let Some(v) = nl2vis_llm::http::header_value(line, "content-length") {
                let parsed = v
                    .parse::<usize>()
                    .map_err(|_| WireError::Fatal(format!("bad content-length `{v}`")))?;
                if content_length.is_some_and(|prev| prev != parsed) {
                    return Err(WireError::Fatal(
                        "conflicting duplicate content-length headers".to_string(),
                    ));
                }
                content_length = Some(parsed);
            }
            if let Some(v) = nl2vis_llm::http::header_value(line, "connection") {
                keep_alive = nl2vis_llm::http::connection_keeps_alive(v);
            }
        }
        let content_length = content_length.unwrap_or(0);
        let mut response = vec![0u8; content_length.min(nl2vis_llm::http::MAX_BODY_BYTES)];
        reader.read_exact(&mut response).map_err(fatal)?;
        Ok((keep_alive, response))
    }
}

fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// Fetches a debug endpoint (`/stats`, `/metrics`) from the server and
/// returns the response body. Best-effort: any failure yields `None`.
pub fn fetch(addr: SocketAddr, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).ok()?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\n\r\n"
    )
    .ok()?;
    let mut response = String::new();
    BufReader::new(stream).read_to_string(&mut response).ok()?;
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis_llm::{ModelProfile, SimLlm};
    use nl2vis_obs::MetricsRegistry;
    use std::sync::Arc;

    #[test]
    fn request_reuses_the_connection_and_times_phases() {
        let registry = Arc::new(MetricsRegistry::new());
        let server = nl2vis_llm::http::CompletionServer::start_with_service_registry(
            SimLlm::new(ModelProfile::davinci_003(), 1),
            Arc::clone(&registry),
        )
        .unwrap();
        let mut conn = LoadConn::new(server.address(), "text-davinci-003");
        let prompt = "-- Test:\n-- Database:\nDatabase: d\nt = [ a , b ]\nQ: hello\nVQL:";

        let first = conn.request(prompt);
        assert!(matches!(first.outcome, Outcome::Ok), "{:?}", first.outcome);
        assert!(first.connect_us > 0, "fresh request pays a connect");
        assert!(first.serve_us > 0);

        let second = conn.request(prompt);
        assert!(matches!(second.outcome, Outcome::Ok));
        assert_eq!(second.connect_us, 0, "second request rides keep-alive");
        assert_eq!(registry.counter("server.connections_total").get(), 1);

        let stats = fetch(server.address(), "/stats").expect("stats body");
        let json = Json::parse(&stats).unwrap();
        assert_eq!(
            json.get("window_requests").and_then(Json::as_f64),
            Some(2.0)
        );
    }

    /// Reads one HTTP request (headers + content-length body) off a raw
    /// socket; returns false on EOF before any byte.
    fn read_request(reader: &mut BufReader<TcpStream>) -> bool {
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                return false;
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = nl2vis_llm::http::header_value(line, "content-length") {
                content_length = v.parse().unwrap_or(0);
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        true
    }

    /// The satellite regression: a 429 delivered on a *reused* connection —
    /// even one whose body is truncated by the peer closing right after —
    /// must be counted as a shed, not misclassified down the stale-socket
    /// path and silently re-sent.
    #[test]
    fn truncated_429_on_reused_conn_is_a_shed_not_a_stale_retry() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let requests_seen = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let seen = Arc::clone(&requests_seen);
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut stream = stream;
            // First request: a normal keep-alive 200 so the client parks
            // the socket as reused.
            assert!(read_request(&mut reader));
            seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            stream
                .write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok",
                )
                .unwrap();
            // Second request: a shed whose advertised body never fully
            // arrives — the server dies right after the headers.
            assert!(read_request(&mut reader));
            seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            stream
                .write_all(b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 40\r\n\r\nshort")
                .unwrap();
            drop(stream);
            // A buggy client would reconnect and replay the request here;
            // give it a beat, then poll the backlog without hanging.
            std::thread::sleep(Duration::from_millis(200));
            listener.set_nonblocking(true).unwrap();
            if let Ok((stream, _)) = listener.accept() {
                let mut reader = BufReader::new(stream);
                if read_request(&mut reader) {
                    seen.fetch_add(100, std::sync::atomic::Ordering::SeqCst);
                }
            }
        });

        let mut conn = LoadConn::new(addr, "m");
        let first = conn.request("p");
        assert!(matches!(first.outcome, Outcome::Ok), "{:?}", first.outcome);
        let second = conn.request("p");
        assert!(
            matches!(second.outcome, Outcome::Shed),
            "a readable 429 with a truncated body must classify as Shed, got {:?}",
            second.outcome
        );
        server.join().unwrap();
        assert_eq!(
            requests_seen.load(std::sync::atomic::Ordering::SeqCst),
            2,
            "the shed request must not be silently replayed on a fresh connection"
        );
    }
}
