//! The fleet observability plane: one pane of glass over N replicas.
//!
//! A [`FleetObserver`] scrapes every replica's `GET /metrics.json` (the
//! mergeable [`Snapshot`] wire format) once per poll, folds the
//! snapshots into a single fleet view — exact, since snapshot merge is
//! lossless and order-independent — and evaluates the server's default
//! [`SloSpec`]s against the merged view, publishing `slo.*` burn-rate
//! gauges. A [`FleetServer`] fronts the observer over HTTP and re-polls
//! once a second:
//!
//! | endpoint            | body                                          |
//! |---------------------|-----------------------------------------------|
//! | `/fleet/metrics`    | the merged snapshot (itself `nl2vis.metrics.v1`, so fleets of fleets merge the same way) |
//! | `/fleet/stats`      | the merged snapshot and every replica's rendered as `/stats` bodies, plus SLO statuses |
//! | `/fleet/trace/<id>` | the cross-replica stitched trace tree; each source carries its record's `outcome` and `error` |
//! | `/healthz`          | observer liveness                             |
//!
//! Replica bodies are decoded by `nl2vis_llm::telemetry`, the codec the
//! replicas encode them with, straight into obs's own [`Snapshot`] and
//! [`TraceRecord`]; this module keeps no copy of either wire format.
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
use nl2vis_llm::telemetry::{
    decode_snapshot, decode_trace, error_json, slo_json, snapshot_json, stats_json,
};
use nl2vis_llm::wire::{self, AcceptLoop};
use nl2vis_obs::recorder::{SpanRecord, TraceRecord};
use nl2vis_obs::slo::{evaluate_all, publish, SloSpec, SloStatus};
use nl2vis_obs::snapshot::Snapshot;
use nl2vis_obs::{recorder, registry, WindowConfig};

/// How often a [`FleetServer`]'s poller re-scrapes every replica.
const POLL_INTERVAL: Duration = Duration::from_millis(1000);

/// Connect/read deadline for one GET to a replica: a metrics scrape or a
/// trace fan-out fetch.
const FETCH_TIMEOUT: Duration = Duration::from_millis(500);

/// The latency objective's threshold: 95% of completions within 100 ms.
const LATENCY_SLO_US: u64 = 100_000;

/// Deadline for each socket operation of one request the [`FleetServer`]
/// serves on its accept thread.
const SERVE_TIMEOUT: Duration = Duration::from_secs(2);

/// Scrapes, merges, and evaluates. Shared between the poller thread and
/// the HTTP frontend via `Arc`.
pub struct FleetObserver {
    addrs: Vec<SocketAddr>,
    /// Objectives evaluated against the merged snapshot each poll.
    slos: Vec<SloSpec>,
    /// What the last poll learned about each replica: its snapshot, or
    /// why the scrape failed.
    scrapes: Mutex<Vec<Result<Snapshot, String>>>,
    merged: Mutex<Snapshot>,
    statuses: Mutex<Vec<SloStatus>>,
    polls: AtomicU64,
}

impl FleetObserver {
    /// An observer over `addrs` (the replicas' serving addresses — the
    /// same ports expose completions and the debug surface).
    pub fn new(addrs: &[SocketAddr]) -> Arc<FleetObserver> {
        let slos = SloSpec::server_defaults(LATENCY_SLO_US);
        Arc::new(FleetObserver {
            addrs: addrs.to_vec(),
            scrapes: Mutex::new(vec![Err("not scraped yet".to_string()); addrs.len()]),
            merged: Mutex::new(Snapshot::default()),
            statuses: Mutex::new(evaluate_all(&slos, &Snapshot::default())),
            polls: AtomicU64::new(0),
            slos,
        })
    }

    /// Scrapes every replica's `/metrics.json` once, refreshes the merged
    /// view, and re-evaluates the SLOs (publishing `slo.*` gauges
    /// globally).
    pub fn poll_once(&self) {
        let fresh: Vec<Result<Snapshot, String>> = self
            .addrs
            .iter()
            .map(|&addr| {
                // Scrapes are `Connection: close` GETs, so observer sockets
                // never linger in replica keep-alive tables.
                wire::get(addr, "/metrics.json", FETCH_TIMEOUT)
                    .map_err(|e| e.to_string())
                    .and_then(|(status, body)| match status {
                        200 => decode_snapshot(&body),
                        other => Err(format!("/metrics.json: http {other}")),
                    })
            })
            .collect();
        let merged = Snapshot::merged(fresh.iter().flatten());
        let statuses = evaluate_all(&self.slos, &merged);
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
        snapshot_json(&self.merged()).to_compact()
    }

    /// `GET /fleet/stats`: the merged snapshot rendered as a `/stats` body
    /// plus the fleet-only `sources`, `window_covered_us` and
    /// `router_inflight`; the SLO statuses; and one row per replica, its
    /// own snapshot rendered as a `/stats` body plus `id`, `ok` and, when
    /// the scrape failed, `error`. Every replica windows over the server
    /// default span, which `window_seconds` reports.
    pub fn fleet_stats_json(&self) -> Json {
        let span = WindowConfig::default().span();
        let merged = self.merged();
        let statuses = self.statuses();
        let scrapes = self.scrapes.lock().expect("fleet scrapes").clone();
        let mut fleet = stats_json(&merged, span);
        fleet.set("sources", Json::from(merged.sources as f64));
        fleet.set(
            "window_covered_us",
            Json::from(merged.window_covered_us as f64),
        );
        fleet.set(
            "router_inflight",
            Json::from(registry::global().gauge("router.inflight").get()),
        );
        let slo = Json::Array(statuses.iter().map(slo_json).collect());
        let replicas = Json::Array(
            self.addrs
                .iter()
                .zip(&scrapes)
                .map(|(addr, scrape)| {
                    let mut row = match scrape {
                        Ok(snapshot) => stats_json(snapshot, span),
                        Err(_) => Json::object(Vec::new()),
                    };
                    row.set("id", Json::from(addr.to_string()));
                    row.set("ok", Json::from(scrape.is_ok()));
                    if let Err(e) = scrape {
                        row.set("error", Json::from(e.as_str()));
                    }
                    row
                })
                .collect(),
        );
        Json::object(vec![
            ("replica_count", Json::from(self.addrs.len())),
            (
                "replicas_ok",
                Json::from(scrapes.iter().filter(|s| s.is_ok()).count()),
            ),
            (
                "polls",
                Json::from(self.polls.load(Ordering::Relaxed) as f64),
            ),
            ("fleet", fleet),
            ("slo", slo),
            ("replicas", replicas),
        ])
    }

    /// `GET /fleet/trace/<id>`: fans the id out to the local recorder and
    /// every replica, then stitches. Returns `(status, body)`.
    pub fn fleet_trace_json(&self, trace_id: u64) -> (u16, String) {
        // The router's own spans first: in a multi-process fleet only this
        // process retains `router.request` / `router.attempt`.
        let local = recorder::installed().and_then(|r| r.get(trace_id));
        let mut sources = vec![(
            "router".to_string(),
            local.ok_or_else(|| format!("trace {trace_id} not retained")),
        )];
        for &addr in &self.addrs {
            let fetched = wire::get(addr, &format!("/trace/{trace_id}"), FETCH_TIMEOUT)
                .map_err(|e| e.to_string())
                .and_then(|(status, body)| match status {
                    200 => decode_trace(&body),
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

/// One distinct record, with every source that reported it.
type Sourced = (Vec<String>, TraceRecord);

/// Stitches per-process records for `trace_id` into one tree: the local
/// recorder's own record, and each replica's `/trace/<id>` body decoded
/// by the telemetry codec. Public so tests can stitch pre-built records
/// without an observer. Returns `(http_status, json_body)`.
pub fn stitch_trace_records(
    trace_id: u64,
    sources: Vec<(String, Result<TraceRecord, String>)>,
) -> (u16, String) {
    let mut records: Vec<Sourced> = Vec::new();
    let mut partial: Vec<(String, String)> = Vec::new();
    for (source, fetched) in sources {
        match fetched {
            Ok(record) => {
                // Replicas sharing one in-process recorder return the
                // same record; collapse them so spans aren't duplicated.
                // Records that differ in outcome never collapse, so a
                // failed process is never hidden behind a clean one.
                let key = |r: &TraceRecord| {
                    let ids: Vec<u64> = r.spans.iter().map(|s| s.span_id).collect();
                    (ids, r.outcome())
                };
                let own = key(&record);
                match records.iter_mut().find(|(_, r)| key(r) == own) {
                    Some((existing, _)) => existing.push(source),
                    None => records.push((vec![source], record)),
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
    for (ri, (_, record)) in records.iter().enumerate() {
        let local: std::collections::BTreeSet<u64> =
            record.spans.iter().map(|s| s.span_id).collect();
        for span in &record.spans {
            let key = (ri, span.span_id);
            match span.parent {
                None => roots.push(key),
                // Span ids are a monotone per-process counter and a parent
                // is always created before its child, so a true in-process
                // parent has a *smaller* id. A local id match with p >=
                // span.id is a cross-process collision, not a local edge.
                Some(p) if local.contains(&p) && p < span.span_id => {
                    children.entry((ri, p)).or_default().push(key)
                }
                Some(p) => {
                    // Graft point: the parent lives in another process's
                    // record. Prefer the record whose span `p` is the
                    // attempt dispatched to *this* record's replica
                    // (annotated `replica=<source>`); otherwise the first
                    // record holding the id.
                    let candidates: Vec<(usize, &SpanRecord)> = records
                        .iter()
                        .enumerate()
                        .filter(|&(oi, _)| oi != ri)
                        .flat_map(|(oi, (_, r))| {
                            r.spans
                                .iter()
                                .filter(|s| s.span_id == p)
                                .map(move |s| (oi, s))
                        })
                        .collect();
                    let target = candidates
                        .iter()
                        .find(|(_, s)| {
                            s.annotations
                                .iter()
                                .any(|(k, v)| k == "replica" && records[ri].0.contains(v))
                        })
                        .or_else(|| candidates.first())
                        .map(|&(oi, s)| (oi, s.span_id));
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

    let span_index: BTreeMap<(usize, u64), &SpanRecord> = records
        .iter()
        .enumerate()
        .flat_map(|(ri, (_, r))| r.spans.iter().map(move |s| ((ri, s.span_id), s)))
        .collect();
    fn render(
        key: (usize, u64),
        records: &[Sourced],
        span_index: &BTreeMap<(usize, u64), &SpanRecord>,
        children: &BTreeMap<(usize, u64), Vec<(usize, u64)>>,
        grafted: &[(usize, u64)],
    ) -> Json {
        let span = span_index[&key];
        let mut node = vec![
            ("span", Json::from(span.span_id as f64)),
            (
                "parent",
                span.parent.map_or(Json::Null, |p| Json::from(p as f64)),
            ),
            ("name", Json::from(span.name.as_str())),
            ("duration_us", Json::from(span.duration_us as f64)),
            ("sources", source_ids(&records[key.0].0)),
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

    // Each source carries its record's outcome and error, so a stitched
    // trace says which process's request failed.
    let sources = records.iter().map(|(ids, r)| {
        let mut source = vec![
            ("ids", source_ids(ids)),
            ("spans", Json::from(r.spans.len())),
            ("outcome", Json::from(r.outcome())),
        ];
        if let Some(error) = &r.error {
            source.push(("error", error_json(error)));
        }
        Json::object(source)
    });
    let body = Json::object(vec![
        ("trace_id", Json::from(trace_id as f64)),
        ("stitched", Json::from(true)),
        ("root", Json::from(records[0].1.root.as_str())),
        ("duration_us", Json::from(records[0].1.duration_us as f64)),
        ("span_count", Json::from(span_index.len())),
        ("sources", Json::Array(sources.collect())),
        ("partial", partial_json(&partial)),
        ("tree", Json::Array(tree)),
    ])
    .to_compact();
    (200, body)
}

fn source_ids(ids: &[String]) -> Json {
    Json::Array(ids.iter().map(|s| Json::from(s.as_str())).collect())
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
        let poll_handle = std::thread::spawn(move || {
            while !poll_stop.load(Ordering::Acquire) {
                // Chunked sleep so Drop never waits a full interval.
                let mut left = POLL_INTERVAL;
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
        ("GET", "/fleet/stats") => (200, observer.fleet_stats_json().to_compact()),
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
                ("router".to_string(), decode_trace(&router_record_body())),
                ("A".to_string(), decode_trace(replica_a)),
                ("B".to_string(), decode_trace(replica_b)),
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
    fn stitched_sources_carry_their_records_outcome_and_error() {
        // Replica A's request failed; the router's and replica B's did
        // not. The stitched trace must say which process failed, and why.
        let replica_a = concat!(
            r#"{"trace_id":42,"root":"client.request","duration_us":8000,"outcome":"error","span_count":1,"#,
            r#""error":{"component":"server","kind":"backend","message":"model \"gpt-4\" failed"},"spans":["#,
            r#"{"span":3,"parent":12,"name":"server.handle","duration_us":7800,"annotations":{"status":"502"}}"#,
            r#"]}"#
        );
        let replica_b = concat!(
            r#"{"trace_id":42,"root":"client.request","duration_us":1900,"outcome":"ok","span_count":1,"spans":["#,
            r#"{"span":12,"parent":13,"name":"server.handle","duration_us":1800}"#,
            r#"]}"#
        );
        let (status, body) = stitch_trace_records(
            42,
            vec![
                ("router".to_string(), decode_trace(&router_record_body())),
                ("A".to_string(), decode_trace(replica_a)),
                ("B".to_string(), decode_trace(replica_b)),
            ],
        );
        assert_eq!(status, 200, "{body}");
        let json = Json::parse(&body).unwrap();
        let sources = json.get("sources").and_then(Json::as_array).unwrap();
        assert_eq!(sources.len(), 3, "{body}");
        for source in sources {
            let id = source
                .get("ids")
                .and_then(|ids| ids.at(0))
                .and_then(Json::as_str);
            let outcome = source.get("outcome").and_then(Json::as_str);
            let error = source.get("error");
            if id == Some("A") {
                assert_eq!(outcome, Some("error"), "{body}");
                let error = error.expect("the failed replica's error");
                assert_eq!(
                    error.get("component").and_then(Json::as_str),
                    Some("server")
                );
                assert_eq!(error.get("kind").and_then(Json::as_str), Some("backend"));
                assert_eq!(
                    error.get("message").and_then(Json::as_str),
                    Some("model \"gpt-4\" failed")
                );
            } else {
                assert_eq!(outcome, Some("ok"), "{id:?}: {body}");
                assert!(error.is_none(), "{id:?}: {body}");
            }
        }
    }

    #[test]
    fn records_that_differ_in_outcome_never_collapse() {
        // Same span ids, different outcome: two processes whose id
        // counters happened to line up, one of which failed.
        let errored = router_record_body().replace(
            r#""outcome":"ok","#,
            r#""outcome":"error","error":{"component":"llm","kind":"transport","message":"reset"},"#,
        );
        let (status, body) = stitch_trace_records(
            42,
            vec![
                ("router".to_string(), decode_trace(&router_record_body())),
                ("A".to_string(), decode_trace(&errored)),
            ],
        );
        assert_eq!(status, 200, "{body}");
        let json = Json::parse(&body).unwrap();
        let sources = json.get("sources").and_then(Json::as_array).unwrap();
        let outcomes: Vec<_> = sources
            .iter()
            .map(|s| s.get("outcome").and_then(Json::as_str))
            .collect();
        assert_eq!(outcomes, vec![Some("ok"), Some("error")], "{body}");
    }

    #[test]
    fn identical_records_from_a_shared_recorder_collapse() {
        // In-process fleets: every replica serves the same record from
        // the shared flight recorder. Sources merge; spans don't double.
        let (status, body) = stitch_trace_records(
            42,
            vec![
                ("router".to_string(), decode_trace(&router_record_body())),
                ("A".to_string(), decode_trace(&router_record_body())),
                ("B".to_string(), decode_trace(&router_record_body())),
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
        let (status, body) = stitch_trace_records(5, vec![("A".to_string(), decode_trace(lonely))]);
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
