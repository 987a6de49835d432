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
use nl2vis_llm::wire;
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
        let mut stream = self.stream.take().expect("live socket");
        let request = wire::render_request(
            "POST",
            "/v1/completions",
            self.addr,
            &[("Content-Type", "application/json")],
            &body,
            true,
        );
        let outcome = match wire::exchange(&mut stream, &request) {
            Ok(response) => {
                // Kept only while the server keeps it; dropped on any error.
                if response.keep_alive && response.status == 200 {
                    self.stream = Some(stream);
                }
                match response.status {
                    200 => Outcome::Ok,
                    429 => Outcome::Shed,
                    other => Outcome::Error(format!("http {other}: {}", response.body_text())),
                }
            }
            // The parked socket died while idle; the request never reached
            // the server, so a single fresh-connection retry is safe.
            Err(e) if e.is_stale() && reused => return self.request(prompt),
            Err(e) if e.is_stale() => {
                Outcome::Error("connection closed before response".to_string())
            }
            // Admission control spoke: a readable 429 is a shed whatever
            // followed it, never a retry.
            Err(e) if e.status() == Some(429) => Outcome::Shed,
            Err(e) => Outcome::Error(format!("io: {e}")),
        };
        WireResult {
            outcome,
            connect_us,
            serve_us: started.elapsed().as_micros() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis_llm::{ModelProfile, SimLlm};
    use nl2vis_obs::MetricsRegistry;
    use std::io::Write;
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

        let (status, stats) =
            wire::get(server.address(), "/stats", Duration::from_secs(2)).expect("stats");
        assert_eq!(status, 200);
        let json = Json::parse(&stats).unwrap();
        assert_eq!(
            json.get("window_requests").and_then(Json::as_f64),
            Some(2.0)
        );
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
            let (mut stream, _) = listener.accept().unwrap();
            // First request: a normal keep-alive 200 so the client parks
            // the socket as reused.
            assert!(wire::read_request(&mut stream).is_ok());
            seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            stream
                .write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok",
                )
                .unwrap();
            // Second request: a shed whose advertised body never fully
            // arrives — the server dies right after the headers.
            assert!(wire::read_request(&mut stream).is_ok());
            seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            stream
                .write_all(b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 40\r\n\r\nshort")
                .unwrap();
            drop(stream);
            // A buggy client would reconnect and replay the request here;
            // give it a beat, then poll the backlog without hanging.
            std::thread::sleep(Duration::from_millis(200));
            listener.set_nonblocking(true).unwrap();
            if let Ok((mut stream, _)) = listener.accept() {
                if wire::read_request(&mut stream).is_ok() {
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
