//! The fleet observability plane: one pane of glass over N replicas.
//!
//! A [`FleetObserver`] scrapes every replica's `GET /metrics.json` (the
//! mergeable [`Snapshot`] wire format) and `GET /stats` on a poll
//! interval, folds the snapshots into a single fleet view — exact, since
//! snapshot merge is lossless and order-independent — and evaluates the
//! configured [`SloSpec`]s against the merged view, publishing `slo.*`
//! burn-rate gauges. A [`FleetServer`] fronts the observer over HTTP:
//!
//! | endpoint            | body                                          |
//! |---------------------|-----------------------------------------------|
//! | `/fleet/metrics`    | the merged snapshot (itself `nl2vis.metrics.v1`, so fleets of fleets merge the same way) |
//! | `/fleet/stats`      | fleet rollup + SLO statuses + per-replica rows|
//! | `/fleet/trace/<id>` | the cross-replica stitched trace tree         |
//! | `/healthz`          | observer liveness                             |
//!
//! **Trace stitching.** A hedged request's spans live in up to three
//! processes: the router records `router.request`/`router.attempt`, and
//! each raced replica records its own `server.handle` subtree whose
//! parent id points at the router-side attempt span (propagated via the
//! `X-Nl2vis-*` headers). Span ids are per-process counters, so ids from
//! different processes may collide; the stitcher therefore keys spans by
//! *(record, id)* and resolves a parent id missing from its own record —
//! a graft point — against the other records, preferring the record
//! whose candidate span is annotated `replica=<the orphan's source>`
//! (the router annotates every attempt that way). Byte-identical records
//! (replicas sharing one in-process recorder) collapse into one with
//! their source labels merged. Replicas that answer 404 or time out are
//! reported in `partial`, never as a fan-out failure.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use nl2vis_data::Json;
use nl2vis_llm::wire::{self, AcceptLoop};
use nl2vis_obs::slo::{evaluate_all, publish, SloSpec, SloStatus};
use nl2vis_obs::snapshot::{HistSnapshot, Snapshot, FORMAT};
use nl2vis_obs::{recorder, registry};

/// Observer policy: scrape cadence, fetch deadlines, and objectives.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// How often the poller re-scrapes every replica.
    pub poll_interval: Duration,
    /// Connect/read deadline for one metrics or stats fetch.
    pub fetch_timeout: Duration,
    /// Connect/read deadline for one trace fan-out fetch.
    pub trace_timeout: Duration,
    /// Objectives evaluated against the merged snapshot each poll.
    pub slos: Vec<SloSpec>,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            poll_interval: Duration::from_millis(1000),
            fetch_timeout: Duration::from_millis(500),
            trace_timeout: Duration::from_millis(500),
            slos: SloSpec::server_defaults(100_000),
        }
    }
}

/// Deadline for each socket operation of one request the [`FleetServer`]
/// serves on its accept thread.
const SERVE_TIMEOUT: Duration = Duration::from_secs(2);

fn u64_of(json: Option<&Json>) -> u64 {
    json.and_then(Json::as_f64).unwrap_or(0.0) as u64
}

fn u64_map(json: Option<&Json>) -> BTreeMap<String, u64> {
    match json {
        Some(Json::Object(members)) => members
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f as u64)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

fn hist_of(json: &Json) -> HistSnapshot {
    let buckets = json
        .get("buckets")
        .and_then(Json::as_array)
        .map(|a| a.iter().map(|v| v.as_f64().unwrap_or(0.0) as u64).collect())
        .unwrap_or_default();
    HistSnapshot::from_parts(
        u64_of(json.get("count")),
        u64_of(json.get("sum")),
        u64_of(json.get("min")),
        u64_of(json.get("max")),
        buckets,
    )
}

fn hist_map(json: Option<&Json>) -> BTreeMap<String, HistSnapshot> {
    match json {
        Some(Json::Object(members)) => members
            .iter()
            .map(|(k, v)| (k.clone(), hist_of(v)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// Decodes one replica's `/metrics.json` body back into a [`Snapshot`].
/// The decode inverts [`Snapshot::to_json`] exactly (counts below 2^53,
/// which metric values are in practice), so scrape → merge → re-serve
/// loses nothing.
pub fn parse_snapshot(body: &str) -> Result<Snapshot, String> {
    let json = Json::parse(body).map_err(|e| format!("snapshot parse: {e}"))?;
    let format = json.get("format").and_then(Json::as_str).unwrap_or("");
    if format != FORMAT {
        return Err(format!("unknown snapshot format `{format}`"));
    }
    let gauges = match json.get("gauges") {
        Some(Json::Object(members)) => members
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f as i64)))
            .collect(),
        _ => BTreeMap::new(),
    };
    Ok(Snapshot {
        sources: u64_of(json.get("sources")).max(1),
        window_covered_us: u64_of(json.get("window_covered_us")),
        counters: u64_map(json.get("counters")),
        gauges,
        histograms: hist_map(json.get("histograms")),
        windowed_counters: u64_map(json.get("windowed_counters")),
        windowed_histograms: hist_map(json.get("windowed_histograms")),
    })
}

/// What the last poll learned about one replica.
#[derive(Debug, Clone, Default)]
struct ReplicaScrape {
    snapshot: Option<Snapshot>,
    /// Parsed `/stats` body (best-effort; rows tolerate its absence).
    stats: Option<Json>,
    /// Last scrape failure, when the replica was unreachable.
    error: Option<String>,
}

/// Scrapes, merges, and evaluates. Shared between the poller thread and
/// the HTTP frontend via `Arc`.
pub struct FleetObserver {
    addrs: Vec<SocketAddr>,
    config: FleetConfig,
    scrapes: Mutex<Vec<ReplicaScrape>>,
    merged: Mutex<Snapshot>,
    statuses: Mutex<Vec<SloStatus>>,
    polls: AtomicU64,
}

impl FleetObserver {
    /// An observer over `addrs` (the replicas' serving addresses — the
    /// same ports expose completions and the debug surface).
    pub fn new(addrs: &[SocketAddr], config: FleetConfig) -> Arc<FleetObserver> {
        Arc::new(FleetObserver {
            addrs: addrs.to_vec(),
            scrapes: Mutex::new(vec![ReplicaScrape::default(); addrs.len()]),
            merged: Mutex::new(Snapshot::default()),
            statuses: Mutex::new(evaluate_all(&config.slos, &Snapshot::default())),
            polls: AtomicU64::new(0),
            config,
        })
    }

    /// The replicas being observed.
    pub fn replica_addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Scrapes every replica once, refreshes the merged view, and
    /// re-evaluates the SLOs (publishing `slo.*` gauges globally).
    pub fn poll_once(&self) {
        let mut fresh: Vec<ReplicaScrape> = Vec::with_capacity(self.addrs.len());
        for &addr in &self.addrs {
            let mut scrape = ReplicaScrape::default();
            // Scrapes are `Connection: close` GETs, so observer sockets
            // never linger in replica keep-alive tables.
            match wire::get(addr, "/metrics.json", self.config.fetch_timeout)
                .map_err(|e| e.to_string())
                .and_then(|(status, body)| match status {
                    200 => parse_snapshot(&body),
                    other => Err(format!("/metrics.json: http {other}")),
                }) {
                Ok(snapshot) => scrape.snapshot = Some(snapshot),
                Err(e) => scrape.error = Some(e),
            }
            if scrape.error.is_none() {
                // Best-effort: /stats enriches per-replica rows but its
                // loss does not fail the scrape.
                if let Ok((200, body)) = wire::get(addr, "/stats", self.config.fetch_timeout) {
                    scrape.stats = Json::parse(&body).ok();
                }
            }
            fresh.push(scrape);
        }
        let merged = Snapshot::merged(fresh.iter().filter_map(|s| s.snapshot.as_ref()));
        let statuses = evaluate_all(&self.config.slos, &merged);
        publish(&statuses, registry::global());
        *self.scrapes.lock().expect("fleet scrapes") = fresh;
        *self.merged.lock().expect("fleet merged") = merged;
        *self.statuses.lock().expect("fleet statuses") = statuses;
        self.polls.fetch_add(1, Ordering::Relaxed);
    }

    /// The last merged fleet snapshot.
    pub fn merged(&self) -> Snapshot {
        self.merged.lock().expect("fleet merged").clone()
    }

    /// The last SLO evaluation.
    pub fn statuses(&self) -> Vec<SloStatus> {
        self.statuses.lock().expect("fleet statuses").clone()
    }

    /// `GET /fleet/metrics`: the merged snapshot, in the same
    /// `nl2vis.metrics.v1` format replicas serve — so a fleet of fleets
    /// merges with the identical machinery.
    pub fn fleet_metrics_json(&self) -> String {
        self.merged().to_json()
    }

    /// `GET /fleet/stats`: fleet rollup, SLO statuses, per-replica rows.
    pub fn fleet_stats_json(&self) -> String {
        let merged = self.merged();
        let statuses = self.statuses();
        let scrapes = self.scrapes.lock().expect("fleet scrapes").clone();
        let window = merged
            .windowed_histograms
            .get("llm.request_latency_us")
            .cloned()
            .unwrap_or_default();
        let covered_secs = merged.window_covered_us as f64 / 1e6;
        let throughput = if covered_secs > 0.0 {
            window.count as f64 / covered_secs
        } else {
            0.0
        };
        let replicas_ok = scrapes.iter().filter(|s| s.snapshot.is_some()).count();
        let fleet = Json::object(vec![
            ("sources", Json::from(merged.sources as f64)),
            (
                "requests_total",
                Json::from(merged.counter("llm.requests_total") as f64),
            ),
            (
                "shed_total",
                Json::from(merged.counter("server.shed_total") as f64),
            ),
            ("window_requests", Json::from(window.count as f64)),
            (
                "window_shed",
                Json::from(merged.windowed_counter("server.shed_total") as f64),
            ),
            ("throughput_rps", Json::from(throughput)),
            ("window_p50_us", Json::from(window.quantile(0.50))),
            ("window_p95_us", Json::from(window.quantile(0.95))),
            ("window_p99_us", Json::from(window.quantile(0.99))),
            (
                "window_covered_us",
                Json::from(merged.window_covered_us as f64),
            ),
            (
                "router_inflight",
                Json::from(registry::global().gauge("router.inflight").get()),
            ),
        ]);
        let slo = Json::Array(
            statuses
                .iter()
                .map(|s| Json::parse(&s.to_json()).expect("slo status json"))
                .collect(),
        );
        let replicas = Json::Array(
            self.addrs
                .iter()
                .zip(&scrapes)
                .map(|(addr, scrape)| {
                    let mut row = vec![
                        ("id", Json::from(addr.to_string())),
                        ("ok", Json::from(scrape.snapshot.is_some())),
                    ];
                    if let Some(e) = &scrape.error {
                        row.push(("error", Json::from(e.as_str())));
                    }
                    if let Some(snap) = &scrape.snapshot {
                        let w = snap
                            .windowed_histograms
                            .get("llm.request_latency_us")
                            .cloned()
                            .unwrap_or_default();
                        row.push((
                            "requests_total",
                            Json::from(snap.counter("llm.requests_total") as f64),
                        ));
                        row.push(("window_requests", Json::from(w.count as f64)));
                        row.push(("window_p50_us", Json::from(w.quantile(0.50))));
                        row.push(("window_p99_us", Json::from(w.quantile(0.99))));
                        row.push((
                            "window_shed",
                            Json::from(snap.windowed_counter("server.shed_total") as f64),
                        ));
                    }
                    if let Some(stats) = &scrape.stats {
                        if let Some(rps) = stats.get("throughput_rps").and_then(Json::as_f64) {
                            row.push(("throughput_rps", Json::from(rps)));
                        }
                        if let Some(rate) = stats.get("window_shed_rate").and_then(Json::as_f64) {
                            row.push(("window_shed_rate", Json::from(rate)));
                        }
                    }
                    Json::object(row)
                })
                .collect(),
        );
        Json::object(vec![
            ("replica_count", Json::from(self.addrs.len())),
            ("replicas_ok", Json::from(replicas_ok)),
            (
                "polls",
                Json::from(self.polls.load(Ordering::Relaxed) as f64),
            ),
            ("fleet", fleet),
            ("slo", slo),
            ("replicas", replicas),
        ])
        .to_compact()
    }

    /// `GET /fleet/trace/<id>`: fans the id out to the local recorder and
    /// every replica, then stitches. Returns `(status, body)`.
    pub fn fleet_trace_json(&self, trace_id: u64) -> (u16, String) {
        let mut sources: Vec<(String, Result<String, String>)> = Vec::new();
        // The router's own spans first: in a multi-process fleet only this
        // process retains `router.request` / `router.attempt`.
        let local = recorder::installed()
            .and_then(|r| r.get(trace_id))
            .map(|record| record.to_json());
        sources.push((
            "router".to_string(),
            local.ok_or_else(|| format!("trace {trace_id} not retained")),
        ));
        for &addr in &self.addrs {
            let fetched = wire::get(
                addr,
                &format!("/trace/{trace_id}"),
                self.config.trace_timeout,
            )
            .map_err(|e| e.to_string())
            .and_then(|(status, body)| match status {
                200 => Ok(body),
                404 => Err(Json::parse(&body)
                    .ok()
                    .and_then(|j| j.get("error").and_then(Json::as_str).map(String::from))
                    .unwrap_or_else(|| "not retained".to_string())),
                other => Err(format!("http {other}")),
            });
            sources.push((addr.to_string(), fetched));
        }
        stitch_trace_records(trace_id, sources)
    }
}

/// One span lifted out of a fetched trace record.
#[derive(Debug, Clone)]
struct StitchSpan {
    span: u64,
    parent: Option<u64>,
    name: String,
    duration_us: u64,
    annotations: Vec<(String, String)>,
}

/// One successfully fetched record: who reported it and its spans.
struct StitchRecord {
    sources: Vec<String>,
    root: String,
    duration_us: u64,
    spans: Vec<StitchSpan>,
}

fn parse_trace_record(source: &str, body: &str) -> Result<StitchRecord, String> {
    let json = Json::parse(body).map_err(|e| format!("trace parse: {e}"))?;
    let spans = json
        .get("spans")
        .and_then(Json::as_array)
        .ok_or("trace body has no spans array")?
        .iter()
        .map(|s| {
            let annotations = match s.get("annotations") {
                Some(Json::Object(members)) => members
                    .iter()
                    .filter_map(|(k, v)| v.as_str().map(|v| (k.clone(), v.to_string())))
                    .collect(),
                _ => Vec::new(),
            };
            StitchSpan {
                span: u64_of(s.get("span")),
                parent: s.get("parent").and_then(Json::as_f64).map(|p| p as u64),
                name: s
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                duration_us: u64_of(s.get("duration_us")),
                annotations,
            }
        })
        .collect();
    Ok(StitchRecord {
        sources: vec![source.to_string()],
        root: json
            .get("root")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        duration_us: u64_of(json.get("duration_us")),
        spans,
    })
}

/// Stitches fetched per-process records for `trace_id` into one tree.
/// Public so tests (and the loadgen dashboard) can stitch pre-fetched
/// bodies without an observer. Returns `(http_status, json_body)`.
pub fn stitch_trace_records(
    trace_id: u64,
    sources: Vec<(String, Result<String, String>)>,
) -> (u16, String) {
    let mut records: Vec<StitchRecord> = Vec::new();
    let mut partial: Vec<(String, String)> = Vec::new();
    for (source, fetched) in sources {
        match fetched.and_then(|body| parse_trace_record(&source, &body)) {
            Ok(record) => {
                // Replicas sharing one in-process recorder return the
                // same record; collapse them so spans aren't duplicated.
                let key: Vec<u64> = record.spans.iter().map(|s| s.span).collect();
                match records
                    .iter_mut()
                    .find(|r| r.spans.iter().map(|s| s.span).eq(key.iter().copied()))
                {
                    Some(existing) => existing.sources.push(source),
                    None => records.push(record),
                }
            }
            Err(reason) => partial.push((source, reason)),
        }
    }
    if records.is_empty() {
        let body = Json::object(vec![
            (
                "error",
                Json::from(format!("trace {trace_id} not retained by any replica")),
            ),
            ("partial", partial_json(&partial)),
        ])
        .to_compact();
        return (404, body);
    }

    // Keys are (record index, span id): span ids are per-process
    // counters and may collide across records.
    let mut children: BTreeMap<(usize, u64), Vec<(usize, u64)>> = BTreeMap::new();
    let mut roots: Vec<(usize, u64)> = Vec::new();
    let mut grafted: Vec<(usize, u64)> = Vec::new();
    for (ri, record) in records.iter().enumerate() {
        let local: std::collections::BTreeSet<u64> = record.spans.iter().map(|s| s.span).collect();
        for span in &record.spans {
            let key = (ri, span.span);
            match span.parent {
                None => roots.push(key),
                // Span ids are a monotone per-process counter and a parent
                // is always created before its child, so a true in-process
                // parent has a *smaller* id. A local id match with p >=
                // span.id is a cross-process collision, not a local edge.
                Some(p) if local.contains(&p) && p < span.span => {
                    children.entry((ri, p)).or_default().push(key)
                }
                Some(p) => {
                    // Graft point: the parent lives in another process's
                    // record. Prefer the record whose span `p` is the
                    // attempt dispatched to *this* record's replica
                    // (annotated `replica=<source>`); otherwise the first
                    // record holding the id.
                    let candidates: Vec<(usize, &StitchSpan)> = records
                        .iter()
                        .enumerate()
                        .filter(|&(oi, _)| oi != ri)
                        .flat_map(|(oi, r)| {
                            r.spans.iter().filter(|s| s.span == p).map(move |s| (oi, s))
                        })
                        .collect();
                    let target = candidates
                        .iter()
                        .find(|(_, s)| {
                            s.annotations
                                .iter()
                                .any(|(k, v)| k == "replica" && records[ri].sources.contains(v))
                        })
                        .or_else(|| candidates.first())
                        .map(|&(oi, s)| (oi, s.span));
                    match target {
                        Some(parent_key) => {
                            children.entry(parent_key).or_default().push(key);
                            grafted.push(key);
                        }
                        // Suspicious local edge as a last resort beats
                        // dropping the span to root.
                        None if local.contains(&p) => {
                            children.entry((ri, p)).or_default().push(key)
                        }
                        // Parent truncated everywhere: surface at root.
                        None => roots.push(key),
                    }
                }
            }
        }
    }

    let span_index: BTreeMap<(usize, u64), &StitchSpan> = records
        .iter()
        .enumerate()
        .flat_map(|(ri, r)| r.spans.iter().map(move |s| ((ri, s.span), s)))
        .collect();
    fn render(
        key: (usize, u64),
        records: &[StitchRecord],
        span_index: &BTreeMap<(usize, u64), &StitchSpan>,
        children: &BTreeMap<(usize, u64), Vec<(usize, u64)>>,
        grafted: &[(usize, u64)],
    ) -> Json {
        let span = span_index[&key];
        let mut node = vec![
            ("span", Json::from(span.span as f64)),
            (
                "parent",
                span.parent.map_or(Json::Null, |p| Json::from(p as f64)),
            ),
            ("name", Json::from(span.name.as_str())),
            ("duration_us", Json::from(span.duration_us as f64)),
            (
                "sources",
                Json::Array(
                    records[key.0]
                        .sources
                        .iter()
                        .map(|s| Json::from(s.as_str()))
                        .collect(),
                ),
            ),
        ];
        if !span.annotations.is_empty() {
            node.push((
                "annotations",
                Json::Object(
                    span.annotations
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                        .collect(),
                ),
            ));
        }
        if grafted.contains(&key) {
            node.push(("grafted", Json::from(true)));
        }
        let kids: Vec<Json> = children
            .get(&key)
            .into_iter()
            .flatten()
            .map(|&k| render(k, records, span_index, children, grafted))
            .collect();
        if !kids.is_empty() {
            node.push(("children", Json::Array(kids)));
        }
        Json::object(node)
    }
    let tree: Vec<Json> = roots
        .iter()
        .map(|&k| render(k, &records, &span_index, &children, &grafted))
        .collect();

    let body = Json::object(vec![
        ("trace_id", Json::from(trace_id as f64)),
        ("stitched", Json::from(true)),
        ("root", Json::from(records[0].root.as_str())),
        ("duration_us", Json::from(records[0].duration_us as f64)),
        ("span_count", Json::from(span_index.len())),
        (
            "sources",
            Json::Array(
                records
                    .iter()
                    .map(|r| {
                        Json::object(vec![
                            (
                                "ids",
                                Json::Array(
                                    r.sources.iter().map(|s| Json::from(s.as_str())).collect(),
                                ),
                            ),
                            ("spans", Json::from(r.spans.len())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("partial", partial_json(&partial)),
        ("tree", Json::Array(tree)),
    ])
    .to_compact();
    (200, body)
}

fn partial_json(partial: &[(String, String)]) -> Json {
    Json::Array(
        partial
            .iter()
            .map(|(id, reason)| {
                Json::object(vec![
                    ("id", Json::from(id.as_str())),
                    ("error", Json::from(reason.as_str())),
                ])
            })
            .collect(),
    )
}

/// The observer's HTTP face plus its background poller. Dropping stops
/// and joins both threads.
///
/// The fleet's only traffic is sequential GETs from an operator, tests and
/// the smoke run, so each request is served on the accept thread: no
/// thread per connection, and no polling while idle.
pub struct FleetServer {
    accept: AcceptLoop,
    observer: Arc<FleetObserver>,
    stop: Arc<AtomicBool>,
    poll_handle: Option<std::thread::JoinHandle<()>>,
}

impl FleetServer {
    /// Binds an ephemeral localhost port, takes one immediate poll so the
    /// first request never sees an empty view, and starts the accept and
    /// poll loops.
    pub fn start(observer: Arc<FleetObserver>) -> std::io::Result<FleetServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        observer.poll_once();
        let accept_observer = Arc::clone(&observer);
        let accept = AcceptLoop::spawn(listener, move |stream| {
            serve_connection(stream, &accept_observer)
        })?;

        let stop = Arc::new(AtomicBool::new(false));
        let poll_stop = Arc::clone(&stop);
        let poll_observer = Arc::clone(&observer);
        let interval = poll_observer.config.poll_interval;
        let poll_handle = std::thread::spawn(move || {
            while !poll_stop.load(Ordering::Acquire) {
                // Chunked sleep so Drop never waits a full interval.
                let mut left = interval;
                while !poll_stop.load(Ordering::Acquire) && !left.is_zero() {
                    let step = left.min(Duration::from_millis(20));
                    std::thread::sleep(step);
                    left -= step;
                }
                if !poll_stop.load(Ordering::Acquire) {
                    poll_observer.poll_once();
                }
            }
        });

        Ok(FleetServer {
            accept,
            observer,
            stop,
            poll_handle: Some(poll_handle),
        })
    }

    /// The frontend's bound address.
    pub fn address(&self) -> SocketAddr {
        self.accept.address()
    }

    /// The shared observer (e.g. to force a poll in tests).
    pub fn observer(&self) -> &Arc<FleetObserver> {
        &self.observer
    }
}

impl Drop for FleetServer {
    fn drop(&mut self) {
        // The poller stops here; the accept loop stops when the field drops.
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.poll_handle.take() {
            let _ = handle.join();
        }
    }
}

/// Serves one `Connection: close` request on `stream`.
fn serve_connection(mut stream: TcpStream, observer: &FleetObserver) {
    let _ = stream.set_read_timeout(Some(SERVE_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SERVE_TIMEOUT));
    let (status, body) = match wire::read_request(&mut stream) {
        Ok(request) => {
            let head = request.head();
            route_fleet(head.method, head.path, observer)
        }
        // The peer left without sending a byte: nothing to answer.
        Err(e) if e.is_stale() => return,
        Err(e) => {
            let (status, message) = e.rejection();
            let body = Json::object(vec![("error", Json::from(message.as_str()))]);
            (status, body.to_compact())
        }
    };
    let response = wire::render_response(status, &body, "application/json", false, None);
    let _ = stream.write_all(&response);
}

/// Routes one observer request; exposed at crate level for direct tests.
pub(crate) fn route_fleet(method: &str, path: &str, observer: &FleetObserver) -> (u16, String) {
    match (method, path) {
        ("GET", "/fleet/metrics") => (200, observer.fleet_metrics_json()),
        ("GET", "/fleet/stats") => (200, observer.fleet_stats_json()),
        ("GET", trace_path) if trace_path.starts_with("/fleet/trace/") => {
            match trace_path["/fleet/trace/".len()..].parse::<u64>() {
                Ok(id) => observer.fleet_trace_json(id),
                Err(_) => (
                    400,
                    r#"{"error":"trace id must be a decimal integer"}"#.to_string(),
                ),
            }
        }
        ("GET", "/healthz") => (
            200,
            r#"{"status":"ok","role":"fleet-observer"}"#.to_string(),
        ),
        _ => (404, r#"{"error":"not found"}"#.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis_obs::MetricsRegistry;

    /// A tiny xorshift PRNG (the crate pulls in no test dependencies).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn snapshot_round_trips_through_json_exactly() {
        let metrics = MetricsRegistry::new();
        metrics.counter("llm.requests_total").add(12345);
        metrics.gauge("router.inflight").set(-3);
        let h = metrics.histogram("llm.request_latency_us");
        let mut rng = Rng(7);
        for _ in 0..500 {
            // Spread across ~32 octaves; keep sums far below 2^53 so the
            // JSON number hop is exact (the format's stated envelope).
            h.record(rng.next() % (1 << (1 + rng.next() % 32)));
        }
        let snap = Snapshot::collect(&metrics, None);
        let decoded = parse_snapshot(&snap.to_json()).expect("decode");
        assert_eq!(decoded, snap);
        // The wire hop preserves quantiles exactly.
        let original = &snap.histograms["llm.request_latency_us"];
        let wired = &decoded.histograms["llm.request_latency_us"];
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(original.quantile(q), wired.quantile(q));
        }
    }

    #[test]
    fn decoded_replica_snapshots_merge_to_union_ground_truth() {
        // Ground truth: all samples recorded into one histogram. The
        // fleet path — two registries, serialized, decoded, merged —
        // must produce identical percentiles.
        let (a, b, union) = (
            MetricsRegistry::new(),
            MetricsRegistry::new(),
            MetricsRegistry::new(),
        );
        let mut rng = Rng(99);
        for i in 0..600 {
            let v = rng.next() % (1 << (1 + rng.next() % 32));
            let side = if i % 2 == 0 { &a } else { &b };
            side.histogram("llm.request_latency_us").record(v);
            side.counter("llm.requests_total").inc();
            union.histogram("llm.request_latency_us").record(v);
            union.counter("llm.requests_total").inc();
        }
        let decoded_a = parse_snapshot(&Snapshot::collect(&a, None).to_json()).unwrap();
        let decoded_b = parse_snapshot(&Snapshot::collect(&b, None).to_json()).unwrap();
        let merged = Snapshot::merged([&decoded_a, &decoded_b]);
        let truth = Snapshot::collect(&union, None);
        assert_eq!(merged.counter("llm.requests_total"), 600);
        let (m, t) = (
            &merged.histograms["llm.request_latency_us"],
            &truth.histograms["llm.request_latency_us"],
        );
        assert_eq!(m, t, "bucket-exact merge");
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(m.quantile(q), t.quantile(q), "q={q}");
        }
    }

    #[test]
    fn parse_snapshot_rejects_foreign_formats() {
        assert!(parse_snapshot("{}").is_err());
        assert!(parse_snapshot(r#"{"format":"something.else"}"#).is_err());
        assert!(parse_snapshot("not json").is_err());
    }

    /// Hand-built router-side record: client.request → router.request →
    /// two attempts annotated with their replica ids.
    fn router_record_body() -> String {
        concat!(
            r#"{"trace_id":42,"root":"client.request","duration_us":9000,"outcome":"ok","span_count":4,"spans":["#,
            r#"{"span":10,"parent":null,"name":"client.request","duration_us":9000},"#,
            r#"{"span":11,"parent":10,"name":"router.request","duration_us":8500,"annotations":{"hedged":"true","winner":"B"}},"#,
            r#"{"span":12,"parent":11,"name":"router.attempt","duration_us":8000,"annotations":{"replica":"A","role":"primary"}},"#,
            r#"{"span":13,"parent":11,"name":"router.attempt","duration_us":2000,"annotations":{"replica":"B","role":"hedge"}}"#,
            r#"]}"#
        )
        .to_string()
    }

    #[test]
    fn stitch_grafts_replica_subtrees_under_their_attempts() {
        // Replica A's server.handle parents the attempt span 12; replica
        // B's spans deliberately reuse ids 12/13 locally (per-process
        // counters collide) with its handle parenting attempt 13.
        let replica_a = concat!(
            r#"{"trace_id":42,"root":"client.request","duration_us":8000,"outcome":"ok","span_count":1,"spans":["#,
            r#"{"span":3,"parent":12,"name":"server.handle","duration_us":7800,"annotations":{"status":"200"}}"#,
            r#"]}"#
        );
        let replica_b = concat!(
            r#"{"trace_id":42,"root":"client.request","duration_us":1900,"outcome":"ok","span_count":2,"spans":["#,
            r#"{"span":12,"parent":13,"name":"server.handle","duration_us":1800},"#,
            r#"{"span":13,"parent":12,"name":"server.batch.flush","duration_us":900}"#,
            r#"]}"#
        );
        let (status, body) = stitch_trace_records(
            42,
            vec![
                ("router".to_string(), Ok(router_record_body())),
                ("A".to_string(), Ok(replica_a.to_string())),
                ("B".to_string(), Ok(replica_b.to_string())),
                ("C".to_string(), Err("trace 42 not retained".to_string())),
            ],
        );
        assert_eq!(status, 200, "{body}");
        let json = Json::parse(&body).unwrap();
        assert_eq!(json.get("span_count").and_then(Json::as_f64), Some(7.0));
        // The unreachable replica is annotated, not an error.
        let partial = json.get("partial").and_then(Json::as_array).unwrap();
        assert_eq!(partial.len(), 1);
        assert_eq!(partial[0].get("id").and_then(Json::as_str), Some("C"));

        // Walk: one root (client.request) → router.request → 2 attempts.
        let tree = json.get("tree").and_then(Json::as_array).unwrap();
        assert_eq!(tree.len(), 1, "one stitched root: {body}");
        let request = &tree[0].get("children").and_then(Json::as_array).unwrap()[0];
        assert_eq!(
            request.get("name").and_then(Json::as_str),
            Some("router.request")
        );
        let attempts = request.get("children").and_then(Json::as_array).unwrap();
        assert_eq!(attempts.len(), 2);
        for attempt in attempts {
            let replica = attempt
                .get("annotations")
                .and_then(|a| a.get("replica"))
                .and_then(Json::as_str)
                .unwrap();
            let kids = attempt.get("children").and_then(Json::as_array).unwrap();
            // Each attempt's grafted child is the server.handle reported
            // by that attempt's replica — collisions notwithstanding.
            assert_eq!(kids.len(), 1, "{body}");
            assert_eq!(
                kids[0].get("name").and_then(Json::as_str),
                Some("server.handle")
            );
            assert_eq!(kids[0].get("grafted").and_then(Json::as_bool), Some(true));
            assert_eq!(
                kids[0].get("sources").and_then(Json::as_array).unwrap()[0].as_str(),
                Some(replica),
                "handle must graft under its own replica's attempt: {body}"
            );
        }
        // Replica B's local child (batch.flush) stays under B's handle.
        let b_attempt = attempts
            .iter()
            .find(|a| {
                a.get("annotations")
                    .and_then(|x| x.get("replica"))
                    .and_then(Json::as_str)
                    == Some("B")
            })
            .unwrap();
        let b_handle = &b_attempt.get("children").and_then(Json::as_array).unwrap()[0];
        let b_kids = b_handle.get("children").and_then(Json::as_array).unwrap();
        assert_eq!(
            b_kids[0].get("name").and_then(Json::as_str),
            Some("server.batch.flush")
        );
    }

    #[test]
    fn identical_records_from_a_shared_recorder_collapse() {
        // In-process fleets: every replica serves the same record from
        // the shared flight recorder. Sources merge; spans don't double.
        let (status, body) = stitch_trace_records(
            42,
            vec![
                ("router".to_string(), Ok(router_record_body())),
                ("A".to_string(), Ok(router_record_body())),
                ("B".to_string(), Ok(router_record_body())),
            ],
        );
        assert_eq!(status, 200);
        let json = Json::parse(&body).unwrap();
        assert_eq!(json.get("span_count").and_then(Json::as_f64), Some(4.0));
        let sources = json.get("sources").and_then(Json::as_array).unwrap();
        assert_eq!(sources.len(), 1, "{body}");
        assert_eq!(
            sources[0]
                .get("ids")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            3
        );
        assert_eq!(body.matches("router.attempt").count(), 2, "{body}");
    }

    #[test]
    fn stitch_of_nothing_is_a_json_404() {
        let (status, body) = stitch_trace_records(
            7,
            vec![
                ("router".to_string(), Err("not retained".to_string())),
                ("A".to_string(), Err("connect: refused".to_string())),
            ],
        );
        assert_eq!(status, 404);
        let json = Json::parse(&body).unwrap();
        assert!(json
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("not retained by any replica"));
        assert_eq!(
            json.get("partial").and_then(Json::as_array).unwrap().len(),
            2
        );
    }

    #[test]
    fn orphan_spans_surface_at_root_not_dropped() {
        // A replica record whose parent span was truncated everywhere
        // still renders; nothing silently disappears.
        let lonely = concat!(
            r#"{"trace_id":5,"root":"server.handle","duration_us":100,"outcome":"ok","span_count":1,"spans":["#,
            r#"{"span":2,"parent":999,"name":"server.handle","duration_us":100}"#,
            r#"]}"#
        );
        let (status, body) =
            stitch_trace_records(5, vec![("A".to_string(), Ok(lonely.to_string()))]);
        assert_eq!(status, 200);
        let json = Json::parse(&body).unwrap();
        let tree = json.get("tree").and_then(Json::as_array).unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(
            tree[0].get("name").and_then(Json::as_str),
            Some("server.handle")
        );
    }
}
