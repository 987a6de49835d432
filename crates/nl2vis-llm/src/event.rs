//! The event-driven server core: sharded pollers, a request queue, and a
//! batching worker pool.
//!
//! The original runtime was thread-per-connection: a connection held a
//! worker for its whole life, so a few hundred idle keep-alive clients
//! starved the pool. This core decouples the two populations. A small,
//! fixed set of *poller* threads owns every accepted socket in nonblocking
//! mode and does the byte-level work — reading, incremental HTTP parsing,
//! request-level admission control — while the bounded *worker* pool only
//! ever sees complete parsed requests. Thread count is
//! `pollers + max_inflight` regardless of connection count.
//!
//! Sockets move between the two sides with a mode switch rather than a
//! write-readiness state machine: when a poller finishes parsing a request
//! it deregisters the socket, marks the connection busy, and enqueues the
//! request with a cloned handle; the worker flips the socket to blocking,
//! writes the whole response, flips it back, and posts a `Done` to the
//! owning poller, which re-registers the socket and resumes parsing any
//! pipelined leftovers. The `busy` flag serializes a connection's
//! requests, so responses can never interleave.
//!
//! Workers complete against one hosted [`CompletionService`]. On top of
//! the queue sits **server-side batching**, decided once at start: when
//! the service [`batches`](CompletionService::batches) (the simulated
//! model), a worker that dequeues a completion request also drains every
//! queued completion sharing its `(model, GenOptions)` key — and
//! optionally lingers for [`crate::http::ServerTuning::batch_window`] —
//! serving the whole group with a single
//! [`call_batch`](CompletionService::call_batch) that deduplicates
//! identical prompts. Under a skewed (Zipf) workload most of a saturated
//! queue is a handful of hot prompts, so one invocation amortizes the
//! prompt/schema parse that dominates completion CPU. Any other service
//! (a tier router escalates per request) is served one request per worker.
//!
//! One function serves every completion, lone or coalesced, and it is the
//! only place the server's [`FaultInjector`] plan is drawn, counted and
//! applied. Every other request goes to [`route`] and never draws a fault.

use crate::http::{
    completion_json, route, ServerConfig, ServerTuning, JSON, SERVER_IO_TIMEOUT,
    SERVER_KEEPALIVE_IDLE,
};
use crate::poll::{Poller, WakePair, WAKE_TOKEN};
use crate::sim::GenOptions;
use crate::wire::{self, Parsed, MAX_BODY_BYTES, MAX_HEADER_BYTES};
use nl2vis_data::Json;
use nl2vis_obs as obs;
use nl2vis_obs::{MetricsRegistry, WindowedRegistry};
use nl2vis_service::{
    CompletionOutcome, CompletionService, Fault, FaultInjector, TransportErrorKind,
    VALIDATION_REJECTED_STATUS,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an epoll-backed poller sleeps with nothing ready; bounds the
/// latency of idle sweeps and drain checks, not of request handling
/// (readiness interrupts the wait).
const POLL_TICK: Duration = Duration::from_millis(100);

/// Scan-mode fallback tick: the cost of not having epoll is at most this
/// much added latency per read.
const SCAN_TICK: Duration = Duration::from_millis(1);

/// During drain, how long a connection with no complete request gets to
/// finish sending one before the poller closes it.
const DRAIN_GRACE: Duration = Duration::from_millis(250);

/// Deadline for poller-side response writes (sheds, parse errors). A shed
/// exists to protect the workers; it must never park a poller on a slow
/// peer.
const POLLER_WRITE_TIMEOUT: Duration = Duration::from_millis(250);

/// A parsed inbound request: the owned copy of the wire bytes that travels
/// from a poller to a worker.
pub(crate) struct Request {
    pub method: String,
    pub path: String,
    pub body: String,
    /// Did the client ask to keep the connection open (see
    /// [`wire::Head::keep_alive`])?
    pub keep_alive: bool,
    /// Trace context imported from `X-Nl2vis-Trace-Id` /
    /// `X-Nl2vis-Parent-Span` headers, if the client is propagating one —
    /// the server-side handling span then joins the caller's trace instead
    /// of starting its own.
    pub trace: Option<obs::TraceContext>,
}

impl Request {
    fn new(head: &wire::Head<'_>, body: &[u8]) -> Request {
        Request {
            method: head.method.to_string(),
            path: head.path.to_string(),
            body: String::from_utf8_lossy(body).into_owned(),
            keep_alive: head.keep_alive,
            trace: obs::TraceContext::from_headers(
                head.header("x-nl2vis-trace-id"),
                head.header("x-nl2vis-parent-span"),
            ),
        }
    }
}

/// The completion request pre-parsed by the poller, so workers can form
/// batches without re-reading JSON under the queue lock.
pub(crate) enum CompletionParse {
    /// Well-formed request for the hosted model.
    Call(CompletionCall),
    /// Well-formed JSON naming a model this server does not host.
    BadModel(String),
    /// Body that does not parse as JSON; carries the parser's message.
    BadJson(String),
}

/// A parsed completion call: the batching unit.
pub(crate) struct CompletionCall {
    pub prompt: String,
    pub opts: GenOptions,
}

/// The batch key: completions coalesce only when every generation option
/// matches bit-for-bit (floats compared by bits, so `-0.0 != 0.0` — the
/// safe direction).
fn opts_key(opts: &GenOptions) -> (u64, u64, u64) {
    (
        opts.attempt,
        opts.error_scale.to_bits(),
        opts.structural_scale.to_bits(),
    )
}

/// One parsed request traveling from a poller to a worker.
pub(crate) struct Work {
    /// Token of the owning connection, scoped to `poller`.
    conn: u64,
    /// Index of the poller shard that owns the connection.
    poller: usize,
    /// Cloned socket handle the worker writes the response to.
    stream: TcpStream,
    request: Request,
    /// `Some` exactly when the request is `POST /v1/completions`.
    parse: Option<CompletionParse>,
    /// When the poller finished parsing; request latency counts queue wait.
    received: Instant,
}

fn batch_key(work: &Work) -> Option<(u64, u64, u64)> {
    match &work.parse {
        Some(CompletionParse::Call(call)) => Some(opts_key(&call.opts)),
        _ => None,
    }
}

/// State shared by pollers, workers, and the accept thread.
pub(crate) struct Shared {
    /// Complete parsed requests waiting for a worker.
    queue: Mutex<VecDeque<Work>>,
    /// Signals workers that the queue has work (or that draining began).
    ready: Condvar,
    /// Set at shutdown *after* the pollers exit: workers drain the queue,
    /// then exit.
    draining: AtomicBool,
    config: ServerConfig,
    tuning: ServerTuning,
    /// The hosted completion stack.
    service: Arc<dyn CompletionService + Send + Sync>,
    /// Whether workers coalesce queued completions into one
    /// [`CompletionService::call_batch`]; fixed at start from
    /// [`CompletionService::batches`].
    coalesce: bool,
    registry: Arc<MetricsRegistry>,
    windowed: Arc<WindowedRegistry>,
    faults: Arc<FaultInjector>,
}

/// A `Done` posted by a worker when a response has been written (or the
/// connection was fault-dropped).
struct Done {
    conn: u64,
    /// Keep the connection registered for more requests?
    keep: bool,
}

/// One poller shard's mailbox: new connections from the accept thread,
/// completions from workers, and the drain signal.
#[derive(Default)]
struct Inbox {
    conns: Vec<TcpStream>,
    dones: Vec<Done>,
    drain: bool,
}

/// The cross-thread handle to one poller shard.
pub(crate) struct PollerShared {
    inbox: Mutex<Inbox>,
    wake: WakePair,
}

/// Hands an accepted connection to a poller shard, round-robin.
pub(crate) fn hand_off(pollers: &[Arc<PollerShared>], rr: &AtomicUsize, stream: TcpStream) {
    let i = rr.fetch_add(1, Ordering::Relaxed) % pollers.len();
    pollers[i]
        .inbox
        .lock()
        .expect("poller inbox")
        .conns
        .push(stream);
    pollers[i].wake.wake();
}

/// The running core: poller shards plus the worker pool.
pub(crate) struct Core {
    pub pollers: Vec<Arc<PollerShared>>,
    poller_handles: Vec<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl Core {
    pub fn start(
        service: Arc<dyn CompletionService + Send + Sync>,
        registry: Arc<MetricsRegistry>,
        windowed: Arc<WindowedRegistry>,
        faults: Arc<FaultInjector>,
        config: ServerConfig,
        tuning: ServerTuning,
    ) -> std::io::Result<Core> {
        let pollers = tuning.pollers.max(1);
        let workers = config.max_inflight.max(1);
        registry
            .gauge("server.serving_threads")
            .set((pollers + workers) as i64);
        registry.gauge("server.poller.shards").set(pollers as i64);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            draining: AtomicBool::new(false),
            config,
            tuning,
            coalesce: service.batches(),
            service,
            registry,
            windowed,
            faults,
        });
        let poller_shared: Vec<Arc<PollerShared>> = (0..pollers)
            .map(|_| {
                Ok(Arc::new(PollerShared {
                    inbox: Mutex::new(Inbox::default()),
                    wake: WakePair::new()?,
                }))
            })
            .collect::<std::io::Result<_>>()?;
        let poller_handles = poller_shared
            .iter()
            .enumerate()
            .map(|(index, me)| {
                let shared = Arc::clone(&shared);
                let me = Arc::clone(me);
                std::thread::spawn(move || {
                    PollerThread {
                        index,
                        shared,
                        me,
                        poller: Poller::new(),
                        conns: HashMap::new(),
                        next_token: WAKE_TOKEN + 1,
                        draining: false,
                        drain_deadline: None,
                    }
                    .run()
                })
            })
            .collect();
        let worker_handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let pollers = poller_shared.clone();
                std::thread::spawn(move || worker_loop(&shared, &pollers))
            })
            .collect();
        Ok(Core {
            pollers: poller_shared,
            poller_handles,
            worker_handles,
            shared,
        })
    }

    /// Two-phase drain. Phase A tells the pollers to quiesce: they parse
    /// and dispatch what has already arrived (fresh connections get
    /// [`DRAIN_GRACE`] to finish a request in flight), close everything
    /// else, wait for in-flight responses, and exit — so by the time they
    /// are joined, no new work can appear. Phase B then drains the worker
    /// pool: workers serve the queue to empty and exit. Every request the
    /// pollers dispatched is therefore served before shutdown completes.
    pub fn shutdown(mut self) {
        for p in &self.pollers {
            p.inbox.lock().expect("poller inbox").drain = true;
            p.wake.wake();
        }
        for h in self.poller_handles.drain(..) {
            let _ = h.join();
        }
        self.shared.draining.store(true, Ordering::Relaxed);
        self.shared.ready.notify_all();
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One nonblocking connection owned by a poller.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed into a request.
    buf: Vec<u8>,
    /// Responses completed on this connection.
    served: u64,
    /// A request is dispatched and its response not yet written; the
    /// poller neither reads nor closes a busy connection.
    busy: bool,
    /// Peer sent EOF while a response was in flight; close after it.
    peer_closed: bool,
    last_activity: Instant,
}

struct PollerThread {
    index: usize,
    shared: Arc<Shared>,
    me: Arc<PollerShared>,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    draining: bool,
    drain_deadline: Option<Instant>,
}

impl PollerThread {
    fn run(mut self) {
        self.me.wake.set_thread(std::thread::current());
        self.poller.register(&self.me.wake.rx, WAKE_TOKEN);
        let wakeups = self.shared.registry.counter("server.poller.wakeups_total");
        let mut ready: Vec<u64> = Vec::new();
        loop {
            let progressed = self.handle_inbox();
            if self.draining {
                self.drain_tick();
                if self.conns.is_empty() {
                    return;
                }
            } else {
                self.sweep_idle();
            }
            ready.clear();
            let timeout = if self.poller.is_edge_informed() {
                POLL_TICK
            } else if progressed {
                Duration::ZERO
            } else {
                SCAN_TICK
            };
            self.poller.wait(&mut ready, timeout);
            if self.poller.is_edge_informed() {
                if !ready.is_empty() {
                    wakeups.inc();
                }
                if ready.contains(&WAKE_TOKEN) {
                    self.me.wake.drain();
                }
                let tokens: Vec<u64> = ready.iter().copied().filter(|&t| t != WAKE_TOKEN).collect();
                for token in tokens {
                    self.read_conn(token);
                }
            } else {
                self.me.wake.drain();
                let tokens: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| !c.busy)
                    .map(|(&t, _)| t)
                    .collect();
                for token in tokens {
                    self.read_conn(token);
                }
            }
        }
    }

    /// Drains the mailbox; returns whether anything was processed.
    fn handle_inbox(&mut self) -> bool {
        let (conns, dones, drain) = {
            let mut inbox = self.me.inbox.lock().expect("poller inbox");
            (
                std::mem::take(&mut inbox.conns),
                std::mem::take(&mut inbox.dones),
                inbox.drain,
            )
        };
        if drain && !self.draining {
            self.draining = true;
            self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
        }
        let progressed = !conns.is_empty() || !dones.is_empty();
        for stream in conns {
            self.adopt(stream);
        }
        for done in dones {
            self.handle_done(done);
        }
        progressed
    }

    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Responses are complete messages; never let Nagle hold one back
        // waiting for a delayed ACK. The write deadline covers worker-side
        // blocking writes (the flag lives on the shared file description).
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(SERVER_IO_TIMEOUT));
        let token = self.next_token;
        self.next_token += 1;
        self.shared
            .registry
            .counter("server.connections_total")
            .inc();
        self.shared
            .registry
            .gauge("server.poller.open_connections")
            .add(1);
        self.poller.register(&stream, token);
        self.conns.insert(
            token,
            Conn {
                stream,
                buf: Vec::new(),
                served: 0,
                busy: false,
                peer_closed: false,
                last_activity: Instant::now(),
            },
        );
        // The client usually writes its request before we finish
        // registering; read immediately instead of waiting for an event.
        self.read_conn(token);
    }

    fn handle_done(&mut self, done: Done) {
        let Some(conn) = self.conns.get_mut(&done.conn) else {
            return;
        };
        conn.busy = false;
        conn.last_activity = Instant::now();
        if !done.keep || conn.peer_closed || self.draining {
            self.close(done.conn);
            return;
        }
        conn.served += 1;
        // Pipelined bytes may already hold the next request.
        self.advance(done.conn);
        if let Some(conn) = self.conns.get(&done.conn) {
            if !conn.busy {
                self.poller.register(&conn.stream, done.conn);
            }
        }
    }

    /// Nonblocking read burst, then parse. EOF and read errors resolve the
    /// connection's fate afterwards, so a complete request followed by FIN
    /// in the same burst is still served.
    fn read_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.busy {
            return;
        }
        let mut chunk = [0u8; 8192];
        let mut got_bytes = false;
        let mut eof = false;
        let mut error: Option<std::io::Error> = None;
        loop {
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    got_bytes = true;
                    if conn.buf.len() > MAX_BODY_BYTES + MAX_HEADER_BYTES {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        if got_bytes {
            conn.last_activity = Instant::now();
            self.advance(token);
        }
        if eof || error.is_some() {
            self.connection_ended(token, error);
        }
    }

    /// Parses as many complete requests as the buffer holds, shedding or
    /// dispatching each. Stops at the first dispatch (the `busy` flag
    /// serializes pipelined requests) or when bytes run out.
    fn advance(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.busy {
                return;
            }
            let (request, consumed) = match wire::parse_request(&conn.buf) {
                Parsed::NeedMore => return,
                Parsed::Bad(e) => {
                    self.fail(token, e.status(), &e.to_string());
                    return;
                }
                Parsed::Ok(head, body) => (Request::new(&head, body), head.len + body.len()),
            };
            conn.buf.drain(..consumed);
            if conn.served > 0 {
                self.shared
                    .registry
                    .counter("server.requests_on_reused_conn")
                    .inc();
            }
            // Debug/health GETs bypass admission control: they are cheap,
            // their volume is bounded by the connection count, and overload
            // is exactly when `/stats` and `/metrics` must stay answerable.
            let sheddable = request.method == "POST";
            let queue_full = sheddable
                && self.shared.queue.lock().expect("work queue").len()
                    >= self.shared.config.queue_depth;
            if !queue_full {
                self.dispatch(token, request);
                return;
            }
            if !self.shed(token, &request) {
                return;
            }
            // Connection kept: the buffer may hold another pipelined
            // request; keep parsing.
        }
    }

    /// Request-level admission control: `429` + `Retry-After`, written by
    /// the poller under a short deadline. Unlike the old connection-level
    /// shed this happens *after* the request is fully read, so the
    /// connection can stay open when the client asked for keep-alive — a
    /// retrying client rides the same socket instead of reconnecting.
    /// Returns whether the connection survived.
    fn shed(&mut self, token: u64, request: &Request) -> bool {
        let registry = &self.shared.registry;
        registry.counter("server.shed_total").inc();
        registry.counter("llm.status_429").inc();
        self.shared.windowed.counter("server.shed_total").inc();
        let keep = request.keep_alive && !self.draining;
        let body = r#"{"error":"server overloaded, retry later"}"#;
        let raw =
            wire::render_response(429, body, JSON, keep, Some(self.shared.config.retry_after));
        let conn = self.conns.get_mut(&token).expect("shed target");
        let ok = write_now(&conn.stream, &raw);
        if keep && ok {
            conn.served += 1;
            conn.last_activity = Instant::now();
            true
        } else {
            self.close(token);
            false
        }
    }

    /// Responds to an unreadable request and closes the connection,
    /// mirroring the old blocking runtime's counters and bodies.
    fn fail(&mut self, token: u64, status: u16, message: &str) {
        let registry = &self.shared.registry;
        registry.counter("server.bad_requests_total").inc();
        registry.counter(&format!("llm.status_{status}")).inc();
        let raw = wire::render_response(status, &error_json(message), JSON, false, None);
        if let Some(conn) = self.conns.get(&token) {
            // Best-effort: the peer may already be gone.
            write_now(&conn.stream, &raw);
        }
        self.close(token);
    }

    fn dispatch(&mut self, token: u64, request: Request) {
        let conn = self.conns.get_mut(&token).expect("dispatch target");
        let Ok(clone) = conn.stream.try_clone() else {
            self.close(token);
            return;
        };
        conn.busy = true;
        // Deregister while a worker owns the socket: a level-triggered
        // kernel would otherwise report the body bytes of the *next*
        // pipelined request forever.
        self.poller.deregister(&conn.stream);
        let parse = classify(&request, self.shared.service.model());
        let work = Work {
            conn: token,
            poller: self.index,
            stream: clone,
            request,
            parse,
            received: Instant::now(),
        };
        self.shared
            .queue
            .lock()
            .expect("work queue")
            .push_back(work);
        self.shared.ready.notify_one();
    }

    /// The peer hung up (or the socket failed) with no response owed.
    fn connection_ended(&mut self, token: u64, error: Option<std::io::Error>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.busy {
            // Half-close while a response is in flight: the worker can
            // still deliver it. Close right after.
            conn.peer_closed = true;
            return;
        }
        if conn.served > 0 {
            // A kept-alive connection going quiet is the normal end of its
            // life, not an error.
            self.close(token);
            return;
        }
        let message = match error {
            Some(e) => format!("request read failed: {e}"),
            None if conn.buf.is_empty() => "empty request".to_string(),
            None => "request read failed: connection closed mid-request".to_string(),
        };
        self.fail(token, 400, &message);
    }

    /// Applies the idle deadlines the blocking runtime enforced with
    /// socket timeouts: a kept-alive connection sitting quiet *between*
    /// requests past [`SERVER_KEEPALIVE_IDLE`] closes silently; a
    /// connection with a request in progress — buffered-but-incomplete
    /// bytes, or a fresh connection that never produced one — gets the full
    /// [`SERVER_IO_TIMEOUT`] and then the best-effort `400` a stalled
    /// blocking read used to produce. The buffer check matters: a slow
    /// writer mid-request on a kept-alive connection is not "idle", and
    /// closing it silently would eat a request the client already started.
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        let expired: Vec<(u64, bool)> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.busy)
            .filter_map(|(&t, c)| {
                let idle = now.duration_since(c.last_activity);
                if c.buf.is_empty() && c.served > 0 {
                    (idle > SERVER_KEEPALIVE_IDLE).then_some((t, false))
                } else {
                    (idle > SERVER_IO_TIMEOUT).then_some((t, true))
                }
            })
            .collect();
        for (token, timed_out) in expired {
            if timed_out {
                self.fail(token, 400, "request read failed: read timed out");
            } else {
                self.close(token);
            }
        }
    }

    /// Drain policy: serve what has arrived, then leave. Connections that
    /// finished their life (served, empty buffer) close immediately; busy
    /// ones close right after their in-flight response; anything still
    /// assembling a request gets [`DRAIN_GRACE`], then closes.
    fn drain_tick(&mut self) {
        let grace_over = self
            .drain_deadline
            .map(|d| Instant::now() >= d)
            .unwrap_or(true);
        let doomed: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.busy && (grace_over || (c.served > 0 && c.buf.is_empty())))
            .map(|(&t, _)| t)
            .collect();
        for token in doomed {
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.deregister(&conn.stream);
            self.shared
                .registry
                .gauge("server.poller.open_connections")
                .add(-1);
        }
    }
}

/// Classifies a request for the worker side: `Some` for completion POSTs
/// (with the JSON pre-parsed into the batching key), `None` for everything
/// `route` handles.
fn classify(request: &Request, model: &str) -> Option<CompletionParse> {
    if request.method != "POST" || request.path != "/v1/completions" {
        return None;
    }
    Some(match Json::parse(&request.body) {
        Err(e) => CompletionParse::BadJson(e.to_string()),
        Ok(json) => {
            let requested = json
                .get("model")
                .and_then(Json::as_str)
                .unwrap_or(model)
                .to_string();
            if requested != model {
                CompletionParse::BadModel(requested)
            } else {
                let prompt = json
                    .get("prompt")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                CompletionParse::Call(CompletionCall {
                    prompt,
                    opts: parse_gen_options(&json),
                })
            }
        }
    })
}

/// Reads the optional `options` object off a completion request. Absent or
/// partially-specified options fall back to defaults field-by-field, like
/// the client-side [`GenOptions::default`] they mirror.
fn parse_gen_options(request: &Json) -> GenOptions {
    let mut opts = GenOptions::default();
    if let Some(o) = request.get("options") {
        if let Some(a) = o.get("attempt").and_then(Json::as_f64) {
            opts.attempt = a as u64;
        }
        if let Some(s) = o.get("error_scale").and_then(Json::as_f64) {
            opts.error_scale = s;
        }
        if let Some(s) = o.get("structural_scale").and_then(Json::as_f64) {
            opts.structural_scale = s;
        }
    }
    opts
}

/// Poller-side response write: flips the (registered, nonblocking) socket
/// to blocking under a short deadline, writes, flips back. Only sheds and
/// error responses go through here; real responses are written by workers.
fn write_now(stream: &TcpStream, raw: &[u8]) -> bool {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(POLLER_WRITE_TIMEOUT));
    let ok = {
        let mut s = stream;
        s.write_all(raw).and_then(|_| s.flush()).is_ok()
    };
    let _ = stream.set_write_timeout(Some(SERVER_IO_TIMEOUT));
    let _ = stream.set_nonblocking(true);
    ok
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared, pollers: &[Arc<PollerShared>]) {
    while let Some(group) = next_batch(shared) {
        let registry = &shared.registry;
        let active = registry.gauge("server.active_connections");
        let now_active = active.add(1);
        registry.gauge("server.concurrent_peak").set_max(now_active);
        if group[0].parse.is_some() {
            serve_completions(shared, pollers, group);
        } else {
            let work = group.into_iter().next().expect("a lone route request");
            serve_route(shared, pollers, work);
        }
        active.add(-1);
    }
}

/// Blocks for the next unit of work: the oldest queued request plus — when
/// it is a batchable completion — every queued completion sharing its
/// options key, up to `batch_max`. With a nonzero `batch_window` the
/// worker lingers that long for more matches before serving.
fn next_batch(shared: &Shared) -> Option<Vec<Work>> {
    let mut queue = shared.queue.lock().expect("work queue");
    let first = loop {
        if let Some(work) = queue.pop_front() {
            break work;
        }
        // Check draining only with an empty queue, so every dispatched
        // request is served before shutdown completes.
        if shared.draining.load(Ordering::Relaxed) {
            return None;
        }
        queue = shared.ready.wait(queue).expect("work queue");
    };
    let mut batch = vec![first];
    if !shared.coalesce {
        return Some(batch);
    }
    let Some(key) = batch_key(&batch[0]) else {
        return Some(batch);
    };
    let max = shared.tuning.batch_max.max(1);
    collect_matching(&mut queue, &mut batch, key, max);
    if batch.len() < max && !shared.tuning.batch_window.is_zero() {
        let deadline = Instant::now() + shared.tuning.batch_window;
        while batch.len() < max && !shared.draining.load(Ordering::Relaxed) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (q, _) = shared
                .ready
                .wait_timeout(queue, deadline - now)
                .expect("work queue");
            queue = q;
            collect_matching(&mut queue, &mut batch, key, max);
            // This worker may have consumed a wakeup meant for an idle
            // peer; pass it along so non-matching work is not starved for
            // the length of the window.
            if !queue.is_empty() {
                shared.ready.notify_one();
            }
        }
    }
    Some(batch)
}

/// Moves every queued completion matching `key` into `batch` (preserving
/// arrival order of the rest), bounded by `max`.
fn collect_matching(
    queue: &mut VecDeque<Work>,
    batch: &mut Vec<Work>,
    key: (u64, u64, u64),
    max: usize,
) {
    let mut i = 0;
    while i < queue.len() && batch.len() < max {
        if batch_key(&queue[i]) == Some(key) {
            batch.push(queue.remove(i).expect("indexed element"));
        } else {
            i += 1;
        }
    }
}

/// Response written, connection handed back to its poller.
fn finish(pollers: &[Arc<PollerShared>], conn: u64, poller: usize, stream: TcpStream, keep: bool) {
    // Drop our socket clone first: after the poller processes the Done it
    // may close the connection, and a surviving duplicate fd would keep
    // the kernel registration (and the peer's connection) alive.
    drop(stream);
    let p = &pollers[poller];
    p.inbox
        .lock()
        .expect("poller inbox")
        .dones
        .push(Done { conn, keep });
    p.wake.wake();
}

/// Worker-side response write on the cloned socket: blocking with the
/// [`SERVER_IO_TIMEOUT`] write deadline, restored to nonblocking before
/// the poller takes the connection back.
fn blocking_respond(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    content_type: &'static str,
    keep_alive: bool,
) -> bool {
    let _ = stream.set_nonblocking(false);
    // One write for the whole response: head and body as separate writes
    // would let Nagle hold the body back a delayed-ACK round trip.
    let response = wire::render_response(status, body, content_type, keep_alive, None);
    let ok = stream.write_all(&response).is_ok();
    let _ = stream.set_nonblocking(true);
    ok
}

/// A JSON error body: `{"error":"<message>"}`.
fn error_json(message: &str) -> String {
    Json::object(vec![("error", Json::from(message))]).to_compact()
}

/// Opens a request's `server.handle` span, joining the caller's trace when
/// it propagated one.
fn handle_span(request: &Request) -> obs::Span {
    let span = match request.trace {
        Some(ctx) => obs::Span::enter_with("server.handle", ctx),
        None => obs::Span::enter("server.handle"),
    };
    span.annotate("path", &request.path);
    span
}

/// Accounts for one response and writes it: status counters, completion
/// latency (measured from parse completion, so queue wait counts), the
/// access log line, then the write and the hand-back to the poller. The
/// handling span closes before the response goes out: by the time the
/// client reads the body, its side of the trace is consistent.
fn respond(
    shared: &Shared,
    pollers: &[Arc<PollerShared>],
    mut work: Work,
    span: Option<obs::Span>,
    status: u16,
    body: &str,
    content_type: &'static str,
) {
    let registry = &shared.registry;
    let request = &work.request;
    registry.counter("server.http_requests_total").inc();
    registry.counter(&format!("llm.status_{status}")).inc();
    let elapsed = work.received.elapsed();
    if work.parse.is_some() {
        let trace = span.as_ref().map_or(0, |s| s.trace());
        registry.counter("llm.requests_total").inc();
        registry
            .histogram("llm.request_latency_us")
            .record_duration_traced(elapsed, trace);
        shared.windowed.counter("llm.requests_total").inc();
        shared
            .windowed
            .histogram("llm.request_latency_us")
            .record_duration(elapsed);
    }
    obs::log("llm", "access", || {
        vec![
            ("method".to_string(), request.method.clone()),
            ("path".to_string(), request.path.clone()),
            ("status".to_string(), status.to_string()),
            ("bytes".to_string(), body.len().to_string()),
            ("duration_us".to_string(), elapsed.as_micros().to_string()),
        ]
    });
    if let Some(span) = &span {
        span.annotate("status", &status.to_string());
    }
    drop(span);
    let keep = request.keep_alive && !shared.draining.load(Ordering::Relaxed);
    let ok = blocking_respond(&mut work.stream, status, body, content_type, keep);
    finish(pollers, work.conn, work.poller, work.stream, keep && ok);
}

/// Serves one request on the [`route`] surface: everything but
/// `POST /v1/completions`. It never draws a fault, and it gets a span
/// only when the caller propagated a trace (tracing every `/metrics` poll
/// would flood the flight recorder with noise).
fn serve_route(shared: &Shared, pollers: &[Arc<PollerShared>], work: Work) {
    let request = &work.request;
    let span = request.trace.map(|_| handle_span(request));
    let (status, body, content_type) = route(
        &request.method,
        &request.path,
        &request.body,
        shared.service.model(),
        &shared.registry,
        &shared.windowed,
    );
    respond(shared, pollers, work, span, status, &body, content_type);
}

/// Serves a dequeue group of 1 to `batch_max` completion requests: the one
/// path every `POST /v1/completions` takes, lone or coalesced.
///
/// The group draws one fault per member in arrival order — malformed
/// requests too, since a scripted plan indexes every completion request —
/// and counts them here. It stalls once, for the longest stall drawn. A
/// `Drop` member is closed without a response and an `Http500` member
/// answered `500`; neither reaches the service. The rest are served by
/// [`invoke`]. A group of calls counts as one batch of its size whatever
/// its members draw; `invocations_total` counts only calls to the service.
///
/// Every member gets its own `server.handle` span, counters, log line and
/// response. A group of two or more also gets a `server.batch` span that
/// covers its stall and its call; untraced members nest under it, and
/// every member names it in a `batch` annotation. A lone request has no
/// batch span: its handle span opens first and covers the stall instead.
fn serve_completions(shared: &Shared, pollers: &[Arc<PollerShared>], group: Vec<Work>) {
    let registry = &shared.registry;
    let n = group.len();
    let batch_span = (n > 1).then(|| {
        let span = obs::Span::enter_root("server.batch");
        span.annotate("size", &n.to_string());
        span.annotate("model", shared.service.model());
        span
    });
    let mut lone_span = (n == 1).then(|| handle_span(&group[0].request));
    let faults: Vec<Fault> = group.iter().map(|_| shared.faults.next()).collect();
    for fault in &faults {
        if *fault != Fault::None {
            registry.counter("server.faults_injected_total").inc();
            registry
                .counter(&format!("server.fault.{}", fault.label()))
                .inc();
        }
    }
    if matches!(group[0].parse, Some(CompletionParse::Call(_))) {
        registry.counter("server.batch.batches_total").inc();
        registry
            .counter("server.batch.requests_total")
            .add(n as u64);
        registry.histogram("server.batch.size").record(n as u64);
    }
    let stall = faults
        .iter()
        .filter_map(|f| match f {
            Fault::Stall(pause) => Some(*pause),
            _ => None,
        })
        .max();
    if let Some(pause) = stall {
        if let Some(span) = &batch_span {
            span.annotate("stall_ms", &pause.as_millis().to_string());
        }
        std::thread::sleep(pause);
    }
    let outcomes = invoke(shared, &group, &faults);

    let batch_trace = batch_span.as_ref().map(|span| span.trace().to_string());
    for ((work, fault), outcome) in group.into_iter().zip(faults).zip(outcomes) {
        let span = lone_span
            .take()
            .unwrap_or_else(|| handle_span(&work.request));
        if let Some(batch) = &batch_trace {
            span.annotate("batch", batch);
        }
        if fault != Fault::None {
            span.annotate("fault", fault.label());
        }
        if fault == Fault::Drop {
            // Close without a response: the client sees a clean EOF (and a
            // pooled client exercises its stale-retry path).
            drop(span);
            finish(pollers, work.conn, work.poller, work.stream, false);
            continue;
        }
        let (status, body) = match (&work.parse, outcome) {
            _ if fault == Fault::Http500 => (500, error_json("injected server error")),
            (_, Some(outcome)) => completion_response(shared, outcome),
            (Some(CompletionParse::BadModel(requested)), None) => (
                400,
                error_json(&format!("model `{requested}` not hosted here")),
            ),
            (Some(CompletionParse::BadJson(message)), None) => (400, error_json(message)),
            _ => unreachable!("the service answered every live call"),
        };
        respond(shared, pollers, work, Some(span), status, &body, JSON);
    }
}

/// Calls the hosted service for a group's live calls — the parsed calls
/// whose fault let them through — and returns one outcome per member,
/// `None` where the service was not called. A lone call is one
/// [`CompletionService::call`]; a larger group's live calls are one
/// [`CompletionService::call_batch`], which deduplicates identical
/// prompts.
fn invoke(shared: &Shared, group: &[Work], faults: &[Fault]) -> Vec<Option<CompletionOutcome>> {
    let registry = &shared.registry;
    if let [work] = group {
        return vec![live_call(work, faults[0]).map(|call| {
            registry.counter("server.batch.invocations_total").inc();
            shared.service.call(&call.prompt, &call.opts)
        })];
    }
    let calls: Vec<Option<&CompletionCall>> = group
        .iter()
        .zip(faults)
        .map(|(work, fault)| live_call(work, *fault))
        .collect();
    let prompts: Vec<&str> = calls.iter().flatten().map(|c| c.prompt.as_str()).collect();
    let mut outputs = match calls.iter().flatten().next() {
        Some(first) => {
            let unique = prompts.iter().collect::<HashSet<_>>().len();
            registry
                .counter("server.batch.invocations_total")
                .add(unique as u64);
            registry
                .counter("server.batch.dedup_hits_total")
                .add((prompts.len() - unique) as u64);
            shared.service.call_batch(&prompts, &first.opts)
        }
        None => Vec::new(),
    }
    .into_iter();
    calls
        .iter()
        .map(|call| call.map(|_| outputs.next().expect("one outcome per prompt")))
        .collect()
}

/// The call a member puts to the service: its parsed request, unless the
/// request is malformed or its fault answers it first.
fn live_call(work: &Work, fault: Fault) -> Option<&CompletionCall> {
    match (&work.parse, fault) {
        (_, Fault::Drop | Fault::Http500) => None,
        (Some(CompletionParse::Call(call)), _) => Some(call),
        _ => None,
    }
}

/// The status and body answering one completion outcome. Model text is a
/// `200`. A validation rejection is a verdict on the model's answer, so it
/// stays a non-retryable `422` for the caller to score as a failed
/// example. Any other service error means the stack exhausted its tiers
/// or retries: a `502` gateway error, counted on
/// `server.backend_errors_total` — never fabricated model text.
fn completion_response(shared: &Shared, outcome: CompletionOutcome) -> (u16, String) {
    match outcome {
        Ok(completion) => (200, completion_json(shared.service.model(), &completion)),
        Err(e) => {
            let status = if e.kind == TransportErrorKind::Status(VALIDATION_REJECTED_STATUS) {
                VALIDATION_REJECTED_STATUS
            } else {
                shared.registry.counter("server.backend_errors_total").inc();
                502
            };
            (status, error_json(&format!("backend failed: {e}")))
        }
    }
}
