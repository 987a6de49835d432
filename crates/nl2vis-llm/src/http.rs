//! A minimal OpenAI-compatible HTTP transport.
//!
//! The paper drives GPT-3.5/GPT-4 through the OpenAI completions API over
//! HTTPS. This module reproduces that wire surface with a small HTTP/1.1
//! implementation over `std::net`, framed by [`crate::wire`]: a
//! [`CompletionServer`] that hosts any
//! [`CompletionService`] (typically a [`SimLlm`](crate::SimLlm)), and a
//! [`HttpLlmClient`] leaf service that speaks the same
//! `POST /v1/completions` JSON protocol. The rest of the system only sees
//! the [`CompletionService`] trait, so swapping the simulated backend for a
//! real endpoint is a URL change.

use crate::client::{CompletionOutcome, TransportError, TransportErrorKind};
use crate::event;
use crate::sim::GenOptions;
use crate::telemetry;
use crate::wire::{self, AcceptLoop, WireError};
use nl2vis_data::Json;
use nl2vis_obs as obs;
use nl2vis_obs::{MetricsRegistry, Snapshot, WindowedRegistry};
use nl2vis_service::{CompletionService, FaultInjector};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Deadline for a fresh connection to produce a complete request, and for
/// response writes. A stalled or dead peer is swept (and the response
/// write abandoned) after this long instead of being held forever.
pub(crate) const SERVER_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the server keeps an idle kept-alive connection before closing
/// it. Idle sockets cost the event-driven core only a poller table entry
/// (not a thread), but pooling clients give up after [`CLIENT_POOL_IDLE`]
/// anyway, so anything older is dead weight.
pub(crate) const SERVER_KEEPALIVE_IDLE: Duration = Duration::from_secs(5);

/// How long the client keeps an idle pooled connection before discarding
/// it. Kept below [`SERVER_KEEPALIVE_IDLE`] so the client usually gives up
/// on a socket before the server closes it (the stale-retry path covers
/// the race when it does not).
const CLIENT_POOL_IDLE: Duration = Duration::from_secs(3);

/// Max idle connections the client parks per [`HttpLlmClient`].
const CLIENT_POOL_MAX_IDLE: usize = 8;

/// Errors from the HTTP layer.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// A connect/read/write deadline expired.
    Timeout(String),
    /// The peer closed the connection before sending a response.
    Closed,
    /// Malformed HTTP traffic.
    Protocol(String),
    /// Non-2xx status.
    Status(u16, String),
    /// The server shed the request under admission control (`429`),
    /// optionally naming the backoff it wants honored before a retry.
    Overloaded {
        /// Parsed `Retry-After` header, if the server sent one.
        retry_after: Option<Duration>,
        /// Response body.
        body: String,
    },
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "io error: {e}"),
            HttpError::Timeout(stage) => write!(f, "timed out: {stage}"),
            HttpError::Closed => write!(f, "connection closed before a response"),
            HttpError::Protocol(m) => write!(f, "protocol error: {m}"),
            HttpError::Status(code, body) => write!(f, "http {code}: {body}"),
            HttpError::Overloaded { body, .. } => write!(f, "http 429: {body}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> HttpError {
        match e.kind() {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                HttpError::Timeout(e.to_string())
            }
            _ => HttpError::Io(e),
        }
    }
}

impl From<WireError> for HttpError {
    /// A readable `429` status line is the shed verdict whatever followed
    /// it: the body and `Retry-After` are advisory, so a malformed or
    /// truncated remainder is still [`HttpError::Overloaded`]. Otherwise a
    /// close before any response byte is [`HttpError::Closed`].
    fn from(e: WireError) -> HttpError {
        if e.status() == Some(429) {
            return HttpError::Overloaded {
                retry_after: e.header("retry-after").and_then(wire::parse_retry_after),
                body: String::new(),
            };
        }
        let started = e.started();
        match e.cause {
            wire::Cause::Io(io) if !started && io.kind() == std::io::ErrorKind::UnexpectedEof => {
                HttpError::Closed
            }
            wire::Cause::Io(io) => io.into(),
            wire::Cause::Frame(f) => HttpError::Protocol(f.to_string()),
        }
    }
}

impl HttpError {
    /// The attribution bucket this failure belongs to. Mid-stream
    /// connection loss (reset, abort, broken pipe, truncation) maps to
    /// [`TransportErrorKind::ConnectionClosed`] — like a clean pre-response
    /// EOF, the peer went away, and a retry layer treats both the same.
    pub fn transport_kind(&self) -> TransportErrorKind {
        match self {
            HttpError::Timeout(_) => TransportErrorKind::Timeout,
            HttpError::Closed => TransportErrorKind::ConnectionClosed,
            HttpError::Status(code, _) => TransportErrorKind::Status(*code),
            HttpError::Overloaded { .. } => TransportErrorKind::Status(429),
            HttpError::Protocol(_) => TransportErrorKind::Protocol,
            HttpError::Io(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                TransportErrorKind::Connect
            }
            HttpError::Io(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::BrokenPipe
                        | std::io::ErrorKind::UnexpectedEof
                ) =>
            {
                TransportErrorKind::ConnectionClosed
            }
            HttpError::Io(_) => TransportErrorKind::Io,
        }
    }

    /// Converts the final failure of `attempts` tries into the typed
    /// [`TransportError`], carrying any server-requested `Retry-After`
    /// through so a retry layer can honor it. Does *not* touch counters —
    /// in the layered stack, error attribution belongs to the metrics
    /// layer, which counts a request's final outcome exactly once.
    pub fn transport_error(self, attempts: u32) -> TransportError {
        let retry_after = match &self {
            HttpError::Overloaded { retry_after, .. } => *retry_after,
            _ => None,
        };
        let mut error = TransportError::new(self.transport_kind(), attempts, self.to_string());
        error.retry_after = retry_after;
        error
    }
}

/// Sizing and load-shed behavior of the bounded server runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads, i.e. the maximum connections served concurrently.
    pub max_inflight: usize,
    /// Accepted connections allowed to wait for a worker before the
    /// accept thread starts shedding with `429`.
    pub queue_depth: usize,
    /// The backoff advertised in the `Retry-After` header of a shed
    /// response. Honored by the client's retry layer over its own
    /// schedule.
    pub retry_after: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_inflight: 16,
            queue_depth: 64,
            retry_after: Duration::from_millis(50),
        }
    }
}

/// The event core's tuning. It has no fields: the poller count (2) and
/// the largest batch (32) are constants of the core, and a batch is what
/// is already queued. It stays only as the argument of
/// [`CompletionServer::start_with_tuning`], which the pinned `benchmark/`
/// calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerTuning;

/// A completion server exposing a [`CompletionService`] on `127.0.0.1`.
///
/// The runtime is event-driven: a few poller threads own every accepted
/// socket in nonblocking mode (see [`crate::poll`]), parse requests
/// incrementally, and hand *complete* requests to a bounded worker pool
/// ([`ServerConfig::max_inflight`] threads) through a fixed-depth queue;
/// when the queue is full the poller *sheds* the request with
/// `429 Too Many Requests` and a `Retry-After` header instead of letting
/// load grow unboundedly. For a service whose
/// [`batches`](CompletionService::batches) is true (the simulated model),
/// queued completions sharing generation options are coalesced into one
/// [`call_batch`](CompletionService::call_batch) invocation; every other
/// service — a tier router, a test double — is served one request per
/// worker. A service error answers `502`, or
/// `422` when the stack rejected the answer
/// ([`VALIDATION_REJECTED_STATUS`](nl2vis_service::VALIDATION_REJECTED_STATUS))
/// — a verdict on the model, not a gateway failure.
/// Shutdown is a graceful drain: requests already read are all served
/// before the workers exit. Every request is instrumented against a
/// shared [`MetricsRegistry`]:
///
/// - `llm.requests_total` / `llm.request_latency_us` — completion calls;
/// - `server.http_requests_total`, `llm.status_<code>` — all traffic;
/// - `server.shed_total` — requests rejected by admission control;
/// - `server.active_connections` / `server.concurrent_peak` — busy-worker
///   gauge and its high-water mark (bounded by the pool size);
/// - `server.poller.open_connections` / `server.serving_threads` — the
///   decoupling pair: sockets held open vs. threads serving them;
/// - `server.batch.*` — batching effectiveness (batches formed, requests
///   batched, backend invocations, prompt-dedup hits, size histogram);
/// - `server.backend_errors_total` — service failures answered `502`;
/// - one `llm` access-log event per request on the installed sink.
///
/// Besides the OpenAI-compatible surface, the server exposes
/// `GET /metrics` (plain-text exposition of the registry),
/// `GET /metrics.json` (the mergeable `nl2vis.metrics.v1` snapshot of the
/// registry and its sliding window), `GET /stats` (that same snapshot
/// rendered by [`telemetry::stats_json`]: rolling throughput, windowed p50/p95/p99
/// and shed rate over the last 10 seconds next to the cumulative totals),
/// and `GET /healthz`.
pub struct CompletionServer {
    addr: std::net::SocketAddr,
    accept: Option<AcceptLoop>,
    core: Option<event::Core>,
    registry: Arc<MetricsRegistry>,
    windowed: Arc<WindowedRegistry>,
    faults: Arc<FaultInjector>,
}

impl CompletionServer {
    /// Hosts `service` on an ephemeral local port with default sizing,
    /// instrumented against the process-wide global registry. The
    /// server answers as the service's [`model`](CompletionService::model).
    pub fn start<S>(service: S) -> Result<CompletionServer, HttpError>
    where
        S: CompletionService + Send + Sync + 'static,
    {
        CompletionServer::start_with_service_registry(service, Arc::clone(obs::global()))
    }

    /// Like [`CompletionServer::start`], against an explicit registry
    /// (test isolation, or one registry per hosted model).
    pub fn start_with_service_registry<S>(
        service: S,
        registry: Arc<MetricsRegistry>,
    ) -> Result<CompletionServer, HttpError>
    where
        S: CompletionService + Send + Sync + 'static,
    {
        CompletionServer::start_with_service_config(
            service,
            registry,
            FaultInjector::none(),
            ServerConfig::default(),
        )
    }

    /// Like [`CompletionServer::start_with_service_registry`], with a
    /// [`FaultInjector`] deciding, per completion request, whether to
    /// stall, drop the connection, or answer `500` (the offline test
    /// double for a flaky remote API), and explicit runtime sizing.
    pub fn start_with_service_config<S>(
        service: S,
        registry: Arc<MetricsRegistry>,
        faults: FaultInjector,
        config: ServerConfig,
    ) -> Result<CompletionServer, HttpError>
    where
        S: CompletionService + Send + Sync + 'static,
    {
        CompletionServer::start_service(Arc::new(service), registry, faults, config)
    }

    /// [`CompletionServer::start_with_service_config`]; the fieldless
    /// [`ServerTuning`] changes nothing.
    pub fn start_with_tuning<S>(
        service: S,
        registry: Arc<MetricsRegistry>,
        faults: FaultInjector,
        config: ServerConfig,
        _tuning: ServerTuning,
    ) -> Result<CompletionServer, HttpError>
    where
        S: CompletionService + Send + Sync + 'static,
    {
        CompletionServer::start_with_service_config(service, registry, faults, config)
    }

    /// The non-generic body of every constructor, compiled once rather
    /// than per hosted service type.
    fn start_service(
        service: Arc<dyn CompletionService + Send + Sync>,
        registry: Arc<MetricsRegistry>,
        faults: FaultInjector,
        config: ServerConfig,
    ) -> Result<CompletionServer, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let faults = Arc::new(faults);
        let windowed = Arc::new(WindowedRegistry::new(obs::WindowConfig::seconds_10()));
        let core = event::Core::start(
            service,
            Arc::clone(&registry),
            Arc::clone(&windowed),
            Arc::clone(&faults),
            config,
        )?;
        // The accept thread does nothing but deal accepted sockets to the
        // poller shards.
        let pollers = core.pollers.clone();
        let rr = AtomicUsize::new(0);
        let accept = AcceptLoop::spawn(listener, move |stream| {
            event::hand_off(&pollers, &rr, stream)
        })?;
        Ok(CompletionServer {
            addr,
            accept: Some(accept),
            core: Some(core),
            registry,
            windowed,
            faults,
        })
    }

    /// The server's base URL host:port.
    pub fn address(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The registry this server records into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The sliding-window registry behind the windowed sections of
    /// `GET /metrics.json` and `GET /stats` — rolling throughput, latency
    /// and shed over the last 10 seconds.
    pub fn windowed(&self) -> &Arc<WindowedRegistry> {
        &self.windowed
    }

    /// The fault injector driving this server (inactive unless the server
    /// was started with one, e.g. by
    /// [`CompletionServer::start_with_service_config`]).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }
}

impl Drop for CompletionServer {
    fn drop(&mut self) {
        // Phase 1: stop accepting (see [`AcceptLoop`]'s drop).
        drop(self.accept.take());
        // Phase 2: drain. Pollers serve what has already been read, then
        // the workers drain the request queue (see [`event::Core::shutdown`]).
        if let Some(core) = self.core.take() {
            core.shutdown();
        }
    }
}

/// Renders the OpenAI-style completion response body.
pub(crate) fn completion_json(model: &str, completion: &str) -> String {
    Json::object(vec![
        ("object", Json::from("text_completion")),
        ("model", Json::from(model)),
        (
            "choices",
            Json::Array(vec![Json::object(vec![
                ("text", Json::from(completion)),
                ("index", Json::from(0i64)),
                ("finish_reason", Json::from("stop")),
            ])]),
        ),
    ])
    .to_compact()
}

pub(crate) const JSON: &str = "application/json";
const TEXT: &str = "text/plain; charset=utf-8";

/// Routes the non-completion surface (`/v1/models`, `/metrics`,
/// `/metrics.json`, `/stats`, `/requests`, `/trace/<id>`, `/healthz`). `POST /v1/completions` never
/// reaches here: the pollers pre-parse it and the worker pool serves it
/// (batched) directly — see [`crate::event`].
pub(crate) fn route(
    method: &str,
    path: &str,
    _body: &str,
    model: &str,
    registry: &MetricsRegistry,
    windowed: &WindowedRegistry,
) -> (u16, String, &'static str) {
    let snapshot = || Snapshot::collect(registry, Some(windowed));
    match (method, path) {
        ("GET", "/v1/models") => {
            let response = Json::object(vec![(
                "data",
                Json::Array(vec![Json::object(vec![("id", Json::from(model))])]),
            )]);
            (200, response.to_compact(), JSON)
        }
        ("GET", "/metrics") => (200, obs::report::render_exposition(registry), TEXT),
        ("GET", "/metrics.json") => (
            200,
            telemetry::snapshot_json(&snapshot()).to_compact(),
            JSON,
        ),
        ("GET", "/stats") => (
            200,
            telemetry::stats_json(&snapshot(), windowed.config().span()).to_compact(),
            JSON,
        ),
        ("GET", "/requests") => match obs::recorder::installed() {
            Some(recorder) => (
                200,
                telemetry::trace_index_json(&recorder.recent(50)).to_compact(),
                JSON,
            ),
            None => (
                404,
                r#"{"error":"flight recorder not installed"}"#.to_string(),
                JSON,
            ),
        },
        ("GET", trace_path) if trace_path.starts_with("/trace/") => {
            let id = trace_path["/trace/".len()..].parse::<u64>();
            match (obs::recorder::installed(), id) {
                (None, _) => (
                    404,
                    r#"{"error":"flight recorder not installed"}"#.to_string(),
                    JSON,
                ),
                (_, Err(_)) => (
                    400,
                    r#"{"error":"trace id must be a decimal integer"}"#.to_string(),
                    JSON,
                ),
                (Some(recorder), Ok(id)) => match recorder.get(id) {
                    Some(record) => (200, telemetry::trace_json(&record).to_compact(), JSON),
                    None => (
                        404,
                        format!(r#"{{"error":"trace {id} not retained"}}"#),
                        JSON,
                    ),
                },
            }
        }
        ("GET", "/healthz") => (
            200,
            Json::object(vec![
                ("status", Json::from("ok")),
                ("model", Json::from(model)),
            ])
            .to_compact(),
            JSON,
        ),
        _ => (404, r#"{"error":"not found"}"#.to_string(), JSON),
    }
}

/// Connect/read/write deadlines for [`HttpLlmClient`].
///
/// Defaults are generous for a local simulated backend; eval runs against
/// flaky or remote endpoints tighten them so a stalled peer costs one
/// deadline, not an eval worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeouts {
    /// TCP connect deadline.
    pub connect: Duration,
    /// Socket read deadline (per read syscall).
    pub read: Duration,
    /// Socket write deadline (per write syscall).
    pub write: Duration,
}

impl Default for Timeouts {
    fn default() -> Timeouts {
        Timeouts {
            connect: Duration::from_secs(2),
            read: Duration::from_secs(15),
            write: Duration::from_secs(15),
        }
    }
}

/// An idle connection parked in the client pool.
struct PooledConn {
    stream: TcpStream,
    parked_at: Instant,
}

/// A client for the completions protocol.
///
/// By default the client keeps connections alive: it sends
/// `Connection: keep-alive`, parks the socket after each successful
/// response, and reuses it for the next request instead of paying a TCP
/// handshake per completion. A reused socket can always have been closed
/// by the server in the meantime (idle deadline, restart, injected fault);
/// a request that fails on a *reused* connection with a stale-socket error
/// is transparently retried exactly once on a fresh connection, so callers
/// never observe the race. Metrics: `http.connections_opened`,
/// `http.conn_reused`, `http.conn_stale_retries`.
pub struct HttpLlmClient {
    addr: std::net::SocketAddr,
    /// Model name sent with each request.
    pub model: String,
    /// Connect/read/write deadlines applied to every request.
    pub timeouts: Timeouts,
    /// Idle kept-alive connections; `None` disables pooling entirely.
    pool: Option<Mutex<Vec<PooledConn>>>,
}

impl HttpLlmClient {
    /// Creates a client for a server address with default [`Timeouts`] and
    /// connection keep-alive enabled.
    pub fn new(addr: std::net::SocketAddr, model: impl Into<String>) -> HttpLlmClient {
        HttpLlmClient::with_timeouts(addr, model, Timeouts::default())
    }

    /// Creates a client with explicit deadlines (keep-alive enabled).
    pub fn with_timeouts(
        addr: std::net::SocketAddr,
        model: impl Into<String>,
        timeouts: Timeouts,
    ) -> HttpLlmClient {
        HttpLlmClient {
            addr,
            model: model.into(),
            timeouts,
            pool: Some(Mutex::new(Vec::new())),
        }
    }

    /// Disables connection reuse: every request opens (and closes) its own
    /// TCP connection, as the pre-keep-alive client did.
    pub fn without_keep_alive(mut self) -> HttpLlmClient {
        self.pool = None;
        self
    }

    /// Takes a live-looking idle connection from the pool, discarding any
    /// that have sat past [`CLIENT_POOL_IDLE`] (the server has likely
    /// dropped those already).
    fn checkout(&self) -> Option<TcpStream> {
        let pool = self.pool.as_ref()?;
        let mut idle = pool.lock().expect("http client pool");
        while let Some(conn) = idle.pop() {
            if conn.parked_at.elapsed() < CLIENT_POOL_IDLE {
                obs::count("http.conn_reused", 1);
                return Some(conn.stream);
            }
            // Too old: drop it (closing the socket) and keep looking.
        }
        None
    }

    /// Parks a connection whose response said `keep-alive`, bounded at
    /// [`CLIENT_POOL_MAX_IDLE`].
    fn park(&self, stream: TcpStream) {
        if let Some(pool) = self.pool.as_ref() {
            let mut idle = pool.lock().expect("http client pool");
            if idle.len() < CLIENT_POOL_MAX_IDLE {
                idle.push(PooledConn {
                    stream,
                    parked_at: Instant::now(),
                });
            }
        }
    }

    fn connect_fresh(&self) -> Result<TcpStream, HttpError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeouts.connect)?;
        stream.set_read_timeout(Some(self.timeouts.read))?;
        stream.set_write_timeout(Some(self.timeouts.write))?;
        // Each request is a complete message followed by a read; Nagle
        // would only add delayed-ACK stalls to the round trip.
        let _ = stream.set_nodelay(true);
        obs::count("http.connections_opened", 1);
        Ok(stream)
    }

    /// Issues a completion request. Every socket operation runs under the
    /// client's [`Timeouts`], so a stalled or vanished server surfaces as
    /// [`HttpError::Timeout`] / [`HttpError::Closed`] instead of hanging
    /// the caller forever. With keep-alive enabled the request may ride a
    /// pooled connection; a stale-socket failure there is retried once on
    /// a fresh connection before any error reaches the caller.
    pub fn complete_http(&self, prompt: &str) -> Result<String, HttpError> {
        self.complete_http_with(prompt, &GenOptions::default())
    }

    /// Like [`HttpLlmClient::complete_http`], carrying non-default
    /// [`GenOptions`] in the request body's `options` object so the server
    /// generates with them (and batches only requests whose options
    /// match). Default options are omitted from the wire: the common case
    /// stays byte-identical to the pre-options protocol.
    pub fn complete_http_with(&self, prompt: &str, opts: &GenOptions) -> Result<String, HttpError> {
        let mut fields = vec![
            ("model", Json::from(self.model.as_str())),
            ("prompt", Json::from(prompt)),
        ];
        let defaults = GenOptions::default();
        if opts.attempt != defaults.attempt
            || opts.error_scale != defaults.error_scale
            || opts.structural_scale != defaults.structural_scale
        {
            fields.push((
                "options",
                Json::object(vec![
                    ("attempt", Json::from(opts.attempt as f64)),
                    ("error_scale", Json::from(opts.error_scale)),
                    ("structural_scale", Json::from(opts.structural_scale)),
                ]),
            ));
        }
        let request = Json::object(fields).to_compact();
        if let Some(stream) = self.checkout() {
            let attempt = obs::span!("llm.attempt");
            attempt.annotate("conn", "reused");
            match self.roundtrip(stream, &request) {
                Err(e) if e.is_stale() => {
                    // The parked socket died while idle, before a single
                    // response byte. The request never reached the
                    // application layer, so retrying it on a fresh
                    // connection is safe and invisible to the caller. A
                    // failure *after* the response started (e.g. a 429
                    // truncated mid-body) never takes this path.
                    attempt.annotate("stale", "true");
                    obs::count("http.conn_stale_retries", 1);
                }
                done => return completion_text(done?),
            }
        }
        let attempt = obs::span!("llm.attempt");
        attempt.annotate("conn", "fresh");
        let stream = self.connect_fresh()?;
        completion_text(self.roundtrip(stream, &request)?)
    }

    /// One request/response exchange on `stream`. A response the server
    /// will keep alive sends the socket back to the pool.
    fn roundtrip(&self, mut stream: TcpStream, body: &str) -> Result<wire::Message, WireError> {
        let keep_alive = self.pool.is_some();
        // Propagate the caller's trace so the server's handling span joins
        // it instead of starting a disconnected one.
        let trace = obs::current_context().map(|ctx| (ctx.trace_header(), ctx.parent_header()));
        let mut headers = vec![("Content-Type", JSON)];
        if let Some((trace_id, parent)) = &trace {
            headers.push(("X-Nl2vis-Trace-Id", trace_id));
            headers.push(("X-Nl2vis-Parent-Span", parent));
        }
        let request = wire::render_request(
            "POST",
            "/v1/completions",
            self.addr,
            &headers,
            body,
            keep_alive,
        );
        let response = wire::exchange(&mut stream, &request)?;
        if keep_alive && response.keep_alive {
            self.park(stream);
        }
        Ok(response)
    }
}

/// Maps a complete response to the completion text or the error its
/// status names.
fn completion_text(response: wire::Message) -> Result<String, HttpError> {
    let body = response.body_text();
    match response.status {
        200 => {}
        429 => {
            return Err(HttpError::Overloaded {
                retry_after: response
                    .header("retry-after")
                    .and_then(wire::parse_retry_after),
                body,
            })
        }
        status => return Err(HttpError::Status(status, body)),
    }
    let json = Json::parse(&body).map_err(|e| HttpError::Protocol(format!("bad body: {e}")))?;
    json.get("choices")
        .and_then(|c| c.at(0))
        .and_then(|c| c.get("text"))
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| HttpError::Protocol("missing choices[0].text".to_string()))
}

/// The HTTP client as a leaf [`CompletionService`]. The error conversion
/// is *uncounted*: per-attempt failures feed a retry layer, and only the
/// request's final outcome is attributed to `llm.error.transport` — by a
/// metrics layer, exactly once. A bare client counts nothing.
impl CompletionService for HttpLlmClient {
    fn model(&self) -> &str {
        &self.model
    }

    fn call(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome {
        self.complete_http_with(prompt, opts)
            .map_err(|e| e.transport_error(1))
    }

    fn describe(&self, stack: &mut Vec<&'static str>) {
        stack.push("http");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ModelProfile;
    use crate::SimLlm;
    use nl2vis_service::{
        Layer, MetricsLayer, RetryLayer, RetryPolicy, TraceLayer, VALIDATION_REJECTED_STATUS,
    };
    use std::io::{BufRead, BufReader, Read, Write};

    #[test]
    fn transience_classification_via_transport_kinds() {
        use std::io::{Error, ErrorKind};
        let policy = RetryPolicy::default();
        let transient = [
            HttpError::Timeout("read".to_string()),
            HttpError::Closed,
            HttpError::Status(500, String::new()),
            HttpError::Status(503, String::new()),
            HttpError::Io(Error::new(ErrorKind::ConnectionRefused, "refused")),
            HttpError::Io(Error::new(ErrorKind::ConnectionReset, "reset")),
            HttpError::Overloaded {
                retry_after: None,
                body: String::new(),
            },
        ];
        for e in transient {
            assert!(policy.retryable(&e.transport_kind()), "{e}");
        }
        // Semantic failures are deterministic: retrying cannot help.
        let permanent = [
            HttpError::Status(400, String::new()),
            HttpError::Status(404, String::new()),
            HttpError::Status(VALIDATION_REJECTED_STATUS, String::new()),
            HttpError::Protocol("bad body".to_string()),
        ];
        for e in permanent {
            assert!(!policy.retryable(&e.transport_kind()), "{e}");
        }
    }

    #[test]
    fn refused_connection_exhausts_attempts_with_typed_error() {
        // Bind then drop a listener: the port refuses connections.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            jitter_seed: 1,
        };
        let client = TraceLayer::request().layer(
            MetricsLayer::default()
                .layer(RetryLayer::new(policy).layer(HttpLlmClient::new(addr, "gpt-4"))),
        );
        let retries_before = obs::global().counter("llm.retries_total").get();
        let err = client
            .call("Q: hello\nVQL:", &GenOptions::default())
            .unwrap_err();
        assert_eq!(err.attempts, 3);
        assert!(
            matches!(
                err.kind,
                TransportErrorKind::Connect | TransportErrorKind::Io
            ),
            "{err}"
        );
        assert!(obs::global().counter("llm.retries_total").get() >= retries_before + 2);
    }

    #[test]
    fn end_to_end_completion_over_http() {
        let llm = SimLlm::new(ModelProfile::gpt_4(), 9);
        let direct = llm.clone();
        let server = CompletionServer::start(llm).unwrap();
        let client = HttpLlmClient::new(server.address(), "gpt-4");

        // Build a real prompt so the model emits real VQL.
        let corpus = nl2vis_corpus::Corpus::build(&nl2vis_corpus::CorpusConfig::small(29));
        let e = &corpus.examples[0];
        let db = corpus.catalog.database(&e.db).unwrap();
        let p = nl2vis_prompt::build_prompt(
            &nl2vis_prompt::PromptOptions::default(),
            db,
            &e.nl,
            &[],
            |d| corpus.catalog.database(&d.db).unwrap(),
        );
        let via_http = client.complete_http(&p.text).unwrap();
        let direct_out = direct.complete(&p.text);
        assert_eq!(via_http, direct_out, "HTTP transport must be lossless");
    }

    #[test]
    fn wrong_model_is_rejected() {
        let llm = SimLlm::new(ModelProfile::davinci_003(), 1);
        let server = CompletionServer::start(llm).unwrap();
        let client = HttpLlmClient::new(server.address(), "gpt-4");
        match client.complete_http("-- Test:\n-- Database:\nx\nQ: hello\nVQL:") {
            Err(HttpError::Status(400, body)) => assert!(body.contains("not hosted")),
            other => panic!("expected 400, got {other:?}"),
        }
    }

    #[test]
    fn malformed_json_is_rejected() {
        let llm = SimLlm::new(ModelProfile::davinci_003(), 1);
        let server = CompletionServer::start(llm).unwrap();
        let addr = server.address();
        let mut stream = TcpStream::connect(addr).unwrap();
        let body = "{not json";
        write!(
            stream,
            "POST /v1/completions HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        assert!(status_line.contains("400"), "{status_line}");
    }

    #[test]
    fn unknown_path_is_404() {
        let llm = SimLlm::new(ModelProfile::davinci_003(), 1);
        let server = CompletionServer::start(llm).unwrap();
        let mut stream = TcpStream::connect(server.address()).unwrap();
        write!(
            stream,
            "GET /nope HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        BufReader::new(stream)
            .read_to_string(&mut response)
            .unwrap();
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
    }

    #[test]
    fn concurrent_clients_are_served() {
        let llm = SimLlm::new(ModelProfile::davinci_003(), 1);
        let server = CompletionServer::start(llm).unwrap();
        let addr = server.address();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let client = HttpLlmClient::new(addr, "text-davinci-003");
                    let prompt = format!(
                        "-- Test:\n-- Database:\nDatabase: d\nt = [ a , b ]\nQ: question {i}\nVQL:"
                    );
                    client.complete_http(&prompt).unwrap()
                })
            })
            .collect();
        for h in handles {
            let out = h.join().unwrap();
            assert!(!out.is_empty());
        }
    }

    #[test]
    fn large_prompt_roundtrips() {
        let llm = SimLlm::new(ModelProfile::davinci_003(), 1);
        let server = CompletionServer::start(llm).unwrap();
        let client = HttpLlmClient::new(server.address(), "text-davinci-003");
        // A prompt with a large serialized body (tens of KB) survives the
        // length-delimited transport, including JSON escaping.
        let filler = "x\"y\\z\n".repeat(5_000);
        let prompt = format!("-- Test:\n-- Database:\n{filler}\nQ: hello\nVQL:");
        let out = client.complete_http(&prompt).unwrap();
        assert!(!out.is_empty());
    }

    /// Issues one `Connection: close` GET and returns the whole response.
    fn get(addr: std::net::SocketAddr, path: &str) -> wire::Message {
        let mut stream = TcpStream::connect(addr).unwrap();
        let request = wire::render_request("GET", path, addr, &[], "", false);
        wire::exchange(&mut stream, &request).unwrap()
    }

    #[test]
    fn healthz_reports_ok_and_hosted_model() {
        let registry = Arc::new(MetricsRegistry::new());
        let llm = SimLlm::new(ModelProfile::gpt_4(), 9);
        let server = CompletionServer::start_with_service_registry(llm, registry).unwrap();
        let response = get(server.address(), "/healthz");
        assert_eq!(response.status, 200);
        let response = response.body_text();
        assert!(response.contains(r#""status":"ok""#), "{response}");
        assert!(response.contains("gpt-4"), "{response}");
    }

    #[test]
    fn metrics_endpoint_exposes_request_counters_and_latency() {
        let registry = Arc::new(MetricsRegistry::new());
        let llm = SimLlm::new(ModelProfile::gpt_4(), 9);
        let server =
            CompletionServer::start_with_service_registry(llm, Arc::clone(&registry)).unwrap();
        let client = HttpLlmClient::new(server.address(), "gpt-4");
        for i in 0..3 {
            let prompt = format!(
                "-- Test:\n-- Database:\nDatabase: d\nt = [ a , b ]\nQ: question {i}\nVQL:"
            );
            client.complete_http(&prompt).unwrap();
        }
        let response = get(server.address(), "/metrics");
        assert_eq!(response.status, 200);
        let content_type = response.header("content-type").unwrap_or_default();
        assert!(content_type.contains("text/plain"), "{content_type}");
        let response = response.body_text();
        assert!(response.contains("llm.requests_total 3"), "{response}");
        assert!(response.contains("llm.status_200"), "{response}");
        assert!(
            response.contains("llm.request_latency_us count 3"),
            "{response}"
        );
        assert!(response.contains("p95"), "{response}");
        // The registry handle agrees with the exposition.
        assert_eq!(registry.counter("llm.requests_total").get(), 3);
        assert!(registry.histogram("llm.request_latency_us").count() == 3);
        // /metrics and /healthz traffic is counted, completions are not
        // inflated by it.
        assert!(registry.counter("server.http_requests_total").get() >= 4);
    }

    #[test]
    fn metrics_json_endpoint_serves_a_mergeable_snapshot() {
        let registry = Arc::new(MetricsRegistry::new());
        let llm = SimLlm::new(ModelProfile::gpt_4(), 9);
        let server =
            CompletionServer::start_with_service_registry(llm, Arc::clone(&registry)).unwrap();
        let client = HttpLlmClient::new(server.address(), "gpt-4");
        for i in 0..3 {
            let prompt = format!(
                "-- Test:\n-- Database:\nDatabase: d\nt = [ a , b ]\nQ: question {i}\nVQL:"
            );
            client.complete_http(&prompt).unwrap();
        }
        let response = get(server.address(), "/metrics.json");
        assert_eq!(response.status, 200);
        let content_type = response.header("content-type").unwrap_or_default();
        assert!(content_type.contains("application/json"), "{content_type}");
        let body = &response.body_text();
        let json = Json::parse(body).unwrap();
        assert_eq!(
            json.get("format").and_then(Json::as_str),
            Some("nl2vis.metrics.v1")
        );
        assert_eq!(json.get("sources").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            json.get("counters")
                .and_then(|c| c.get("llm.requests_total"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        // The cumulative histogram exports raw buckets whose counts sum
        // to the request count — the property fleet merging relies on.
        let hist = json
            .get("histograms")
            .and_then(|h| h.get("llm.request_latency_us"))
            .expect("latency histogram in snapshot");
        assert_eq!(hist.get("count").and_then(Json::as_f64), Some(3.0));
        let bucket_sum: f64 = hist
            .get("buckets")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(Json::as_f64)
            .sum();
        assert_eq!(bucket_sum, 3.0);
        // The windowed section is present and saw the same burst.
        assert_eq!(
            json.get("windowed_histograms")
                .and_then(|h| h.get("llm.request_latency_us"))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        assert!(
            json.get("window_covered_us")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0,
            "{body}"
        );
    }

    #[test]
    fn stats_endpoint_pairs_window_with_cumulative() {
        let registry = Arc::new(MetricsRegistry::new());
        let llm = SimLlm::new(ModelProfile::gpt_4(), 9);
        let server =
            CompletionServer::start_with_service_registry(llm, Arc::clone(&registry)).unwrap();
        let client = HttpLlmClient::new(server.address(), "gpt-4");
        for i in 0..3 {
            let prompt = format!(
                "-- Test:\n-- Database:\nDatabase: d\nt = [ a , b ]\nQ: question {i}\nVQL:"
            );
            client.complete_http(&prompt).unwrap();
        }
        let response = get(server.address(), "/stats");
        assert_eq!(response.status, 200);
        let json = Json::parse(&response.body_text()).unwrap();
        assert_eq!(
            json.get("window_seconds").and_then(Json::as_f64),
            Some(10.0)
        );
        // All three completions landed within the last 10 s: window and
        // cumulative agree.
        assert_eq!(
            json.get("window_requests").and_then(Json::as_f64),
            Some(3.0)
        );
        assert_eq!(json.get("requests_total").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            json.get("window_shed_rate").and_then(Json::as_f64),
            Some(0.0)
        );
        assert!(json.get("throughput_rps").and_then(Json::as_f64).unwrap() > 0.0);
        let latency = json.get("latency_us").unwrap();
        let wp99 = latency.at(0).is_none(); // object, not array
        assert!(wp99);
        let window_p99 = latency
            .get("window")
            .and_then(|w| w.get("p99_us"))
            .and_then(Json::as_f64)
            .unwrap();
        let cumulative_p99 = latency
            .get("cumulative")
            .and_then(|c| c.get("p99_us"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(window_p99 > 0.0);
        assert_eq!(window_p99, cumulative_p99, "identical samples, same p99");
        assert_eq!(server.windowed().config().buckets, 10);

        // `/stats` renders the `/metrics.json` snapshot, so with no traffic
        // between reads every integer field equals the snapshot's value.
        // The connection gauges count the reads' own sockets and workers,
        // which come and go between reads, so the reads repeat until one
        // `/stats` agrees with the `/metrics.json` reads on both sides of
        // it; a field rendered from the wrong metric never agrees.
        let read = |path| get_json(server.address(), path);
        let mut reads = None;
        for _ in 0..50 {
            let (before, stats, after) =
                (read("/metrics.json"), read("/stats"), read("/metrics.json"));
            let expected = integer_stats_of(&before);
            let quiet = expected == integer_stats_of(&after)
                && expected
                    .iter()
                    .all(|(path, v)| field(&stats, path) == Some(*v));
            reads = Some((before, stats, after));
            if quiet {
                break;
            }
        }
        let (before, stats, after) = reads.expect("at least one read");
        for (path, value) in integer_stats_of(&before) {
            assert_eq!(field(&stats, path), Some(value), "/stats {path}");
        }
        // The rate divides by the covered window, which grew between the
        // reads and is still the server's age, not the 10 s span.
        let covered = |m: &Json| m.get("window_covered_us").and_then(Json::as_f64).unwrap() / 1e6;
        let requests = field(&stats, "window_requests").unwrap();
        let rps = field(&stats, "throughput_rps").unwrap();
        assert!(covered(&after) < 10.0);
        assert!(
            requests / covered(&after) - 5e-4 <= rps && rps <= requests / covered(&before) + 5e-4,
            "throughput {rps} is not {requests} requests over the covered window"
        );
        assert_eq!(field(&stats, "latency_us.window.rate_per_sec"), Some(rps));

        // Reading `/stats` registers nothing: on a fresh server the metric
        // names `/metrics.json` lists are the same before and after it.
        let fresh = CompletionServer::start_with_service_registry(
            SimLlm::new(ModelProfile::gpt_4(), 9),
            Arc::new(MetricsRegistry::new()),
        )
        .unwrap();
        let names = || {
            let json = get_json(fresh.address(), "/metrics.json");
            let sections = [
                "counters",
                "gauges",
                "histograms",
                "windowed_counters",
                "windowed_histograms",
            ];
            sections
                .iter()
                .flat_map(|section| match json.get(section) {
                    Some(Json::Object(members)) => members
                        .iter()
                        .map(|(name, _)| format!("{section} {name}"))
                        .collect(),
                    _ => Vec::new(),
                })
                .collect::<Vec<String>>()
        };
        // The first read registers the serving path's own counters.
        names();
        let before = names();
        assert_eq!(get(fresh.address(), "/stats").status, 200);
        assert_eq!(names(), before);
    }

    fn get_json(addr: std::net::SocketAddr, path: &str) -> Json {
        Json::parse(&get(addr, path).body_text()).unwrap()
    }

    /// The number at a dotted `path` of a JSON body.
    fn field(json: &Json, path: &str) -> Option<f64> {
        path.split('.')
            .try_fold(json, |node, key| node.get(key))
            .and_then(Json::as_f64)
    }

    /// Every integer `/stats` field, by its dotted path, read straight out
    /// of a `/metrics.json` body (an absent metric reads as zero).
    fn integer_stats_of(metrics: &Json) -> Vec<(&'static str, f64)> {
        let value = |section: &str, name: &str| {
            metrics
                .get(section)
                .and_then(|s| s.get(name))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let latency = |section: &str, key: &str| {
            metrics
                .get(section)
                .and_then(|s| s.get("llm.request_latency_us"))
                .and_then(|h| h.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        vec![
            ("window_requests", latency("windowed_histograms", "count")),
            (
                "window_shed",
                value("windowed_counters", "server.shed_total"),
            ),
            ("requests_total", value("counters", "llm.requests_total")),
            ("shed_total", value("counters", "server.shed_total")),
            (
                "active_connections",
                value("gauges", "server.active_connections"),
            ),
            ("concurrent_peak", value("gauges", "server.concurrent_peak")),
            (
                "open_connections",
                value("gauges", "server.poller.open_connections"),
            ),
            ("serving_threads", value("gauges", "server.serving_threads")),
            (
                "batch_requests",
                value("counters", "server.batch.requests_total"),
            ),
            (
                "batch_batches",
                value("counters", "server.batch.batches_total"),
            ),
            (
                "batch_invocations",
                value("counters", "server.batch.invocations_total"),
            ),
            (
                "latency_us.window.count",
                latency("windowed_histograms", "count"),
            ),
            (
                "latency_us.window.min_us",
                latency("windowed_histograms", "min"),
            ),
            (
                "latency_us.window.max_us",
                latency("windowed_histograms", "max"),
            ),
            (
                "latency_us.cumulative.count",
                latency("histograms", "count"),
            ),
            ("latency_us.cumulative.min_us", latency("histograms", "min")),
            ("latency_us.cumulative.max_us", latency("histograms", "max")),
        ]
    }

    #[test]
    fn concurrent_connections_record_a_peak_gauge() {
        let registry = Arc::new(MetricsRegistry::new());
        let llm = SimLlm::new(ModelProfile::davinci_003(), 1);
        let server =
            CompletionServer::start_with_service_registry(llm, Arc::clone(&registry)).unwrap();
        let addr = server.address();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let client = HttpLlmClient::new(addr, "text-davinci-003");
                    let prompt = format!(
                        "-- Test:\n-- Database:\nDatabase: d\nt = [ a , b ]\nQ: peak {i}\nVQL:"
                    );
                    client.complete_http(&prompt).unwrap()
                })
            })
            .collect();
        for h in handles {
            assert!(!h.join().unwrap().is_empty());
        }
        assert_eq!(registry.counter("llm.requests_total").get(), 8);
        let peak = registry.gauge("server.concurrent_peak").get();
        assert!(
            peak >= 1,
            "peak gauge must have recorded at least one connection: {peak}"
        );
        // Connection threads decrement the gauge just after the response is
        // flushed; give them a moment to drain.
        for _ in 0..100 {
            if registry.gauge("server.active_connections").get() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(registry.gauge("server.active_connections").get(), 0);
    }

    #[test]
    fn malformed_content_length_is_rejected_with_400() {
        let llm = SimLlm::new(ModelProfile::davinci_003(), 1);
        let server = CompletionServer::start(llm).unwrap();
        let mut stream = TcpStream::connect(server.address()).unwrap();
        write!(
            stream,
            "POST /v1/completions HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        BufReader::new(stream)
            .read_to_string(&mut response)
            .unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("malformed content-length"), "{response}");
    }

    #[test]
    fn oversized_declared_body_is_rejected_with_413() {
        let registry = Arc::new(MetricsRegistry::new());
        let llm = SimLlm::new(ModelProfile::davinci_003(), 1);
        let server =
            CompletionServer::start_with_service_registry(llm, Arc::clone(&registry)).unwrap();
        let mut stream = TcpStream::connect(server.address()).unwrap();
        // Declares a body far past the cap; the server must reject from the
        // header alone rather than allocate half a gigabyte.
        write!(
            stream,
            "POST /v1/completions HTTP/1.1\r\nHost: x\r\nContent-Length: 536870912\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        BufReader::new(stream)
            .read_to_string(&mut response)
            .unwrap();
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        assert_eq!(registry.counter("server.bad_requests_total").get(), 1);
    }

    #[test]
    fn truncated_body_gets_best_effort_400() {
        let llm = SimLlm::new(ModelProfile::davinci_003(), 1);
        let server = CompletionServer::start(llm).unwrap();
        let mut stream = TcpStream::connect(server.address()).unwrap();
        // Promise 100 bytes, deliver 3, then half-close: the server's
        // read_exact fails mid-request and the client must still see a
        // status line, not a bare closed socket.
        write!(
            stream,
            "POST /v1/completions HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\nabc"
        )
        .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        BufReader::new(stream)
            .read_to_string(&mut response)
            .unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("request read failed"), "{response}");
    }

    #[test]
    fn trace_headers_stitch_client_and_server_spans() {
        let recorder = Arc::new(obs::FlightRecorder::new(32));
        obs::recorder::install(Arc::clone(&recorder));
        let llm = SimLlm::new(ModelProfile::gpt_4(), 9);
        let server =
            CompletionServer::start_with_service_registry(llm, Arc::new(MetricsRegistry::new()))
                .unwrap();
        let client = HttpLlmClient::new(server.address(), "gpt-4");
        let trace_id = {
            let root = obs::Span::enter("httptest.request");
            client
                .complete_http(
                    "-- Test:\n-- Database:\nDatabase: d\nt = [ a , b ]\nQ: traced\nVQL:",
                )
                .unwrap();
            root.trace()
        };
        // The trace is finalized once the root closes; the server span must
        // have joined it via the propagated headers.
        let record = recorder.get(trace_id).expect("trace recorded");
        assert!(record.has_span("httptest.request"), "{:?}", record.spans);
        assert!(record.has_span("llm.attempt"), "{:?}", record.spans);
        assert!(record.has_span("server.handle"), "{:?}", record.spans);
        assert!(record.has_annotation("path", "/v1/completions"));
        assert!(record.has_annotation("status", "200"));
        // The server span is parented to the client attempt span.
        let attempt_id = record.spans_named("llm.attempt")[0].span_id;
        assert_eq!(
            record.spans_named("server.handle")[0].parent,
            Some(attempt_id)
        );

        // The stitched record is fetchable over HTTP.
        let response = get(server.address(), &format!("/trace/{trace_id}"));
        assert_eq!(response.status, 200);
        let response = response.body_text();
        assert!(response.contains(&format!("\"trace_id\":{trace_id}")));
        assert!(response.contains("server.handle"), "{response}");
        let index = get(server.address(), "/requests").body_text();
        assert!(
            index.contains(&format!("\"trace_id\":{trace_id}")),
            "{index}"
        );

        // Unknown and malformed ids fail cleanly.
        assert_eq!(get(server.address(), "/trace/999999999").status, 404);
        assert_eq!(get(server.address(), "/trace/banana").status, 400);
        obs::recorder::disable();
        // Without a recorder the endpoints say so instead of pretending.
        assert_eq!(get(server.address(), "/requests").status, 404);
    }

    #[test]
    fn models_endpoint_lists_hosted_model() {
        let llm = SimLlm::new(ModelProfile::turbo_16k(), 1);
        let server = CompletionServer::start(llm).unwrap();
        let mut stream = TcpStream::connect(server.address()).unwrap();
        write!(
            stream,
            "GET /v1/models HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        BufReader::new(stream)
            .read_to_string(&mut response)
            .unwrap();
        assert!(response.contains("gpt-3.5-turbo-16k"));
    }
}
