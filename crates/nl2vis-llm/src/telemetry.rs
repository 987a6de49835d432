//! The JSON codec of every telemetry body.
//!
//! `nl2vis-obs` holds the data — [`Snapshot`], [`TraceRecord`],
//! [`SloStatus`] — and writes no JSON for it. This module is the one place
//! that knows each body's wire format, on both ends of the wire: the
//! server encodes with it, and the fleet plane decodes replica bodies with
//! it straight back into obs's own types.
//!
//! | body | encoder | decoder |
//! |------|---------|---------|
//! | `GET /metrics.json`, `GET /fleet/metrics` ([`FORMAT`]) | [`snapshot_json`] | [`decode_snapshot`] |
//! | `GET /trace/<id>` | [`trace_json`] | [`decode_trace`] |
//! | `GET /requests` | [`trace_index_json`] | — |
//! | `GET /stats`, every `/fleet/stats` object | [`stats_json`] | — |
//! | a `/fleet/stats` SLO entry | [`slo_json`] | — |
//!
//! Every integer travels as a JSON number, which [`Json`] holds as an
//! `f64`: values are exact below 2^53. Metric values, and trace and span
//! ids (per-process counters), stay far below that in practice.

use nl2vis_data::Json;
use nl2vis_obs::recorder::{ErrorNote, SpanRecord, TraceRecord};
use nl2vis_obs::{HistSnapshot, SloStatus, Snapshot};
use std::collections::BTreeMap;
use std::time::Duration;

/// Identifies the snapshot wire format; bump on layout changes.
pub const FORMAT: &str = "nl2vis.metrics.v1";

/// An integer as a JSON number.
fn int(v: u64) -> Json {
    Json::from(v as f64)
}

/// An integer member (0 when absent or not a number).
fn int_of(json: Option<&Json>) -> u64 {
    json.and_then(Json::as_f64).unwrap_or(0.0) as u64
}

/// A string member ("" when absent or not a string).
fn str_of(json: &Json, key: &str) -> String {
    json.get(key)
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string()
}

/// An object's members (none for any other value).
fn members(json: Option<&Json>) -> &[(String, Json)] {
    match json {
        Some(Json::Object(members)) => members,
        _ => &[],
    }
}

fn map_json<V>(map: &BTreeMap<String, V>, value: impl Fn(&V) -> Json) -> Json {
    Json::Object(map.iter().map(|(k, v)| (k.clone(), value(v))).collect())
}

/// An object member decoded entry by entry; entries `value` rejects are
/// skipped.
fn decode_map<V>(json: Option<&Json>, value: impl Fn(&Json) -> Option<V>) -> BTreeMap<String, V> {
    members(json)
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), value(v)?)))
        .collect()
}

fn hist_json(h: &HistSnapshot) -> Json {
    // Trailing zero buckets are trimmed: the decoder pads back to
    // BUCKETS, and elementwise addition is unaffected.
    let used = h.buckets.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
    Json::object(vec![
        ("count", int(h.count)),
        ("sum", int(h.sum)),
        ("min", int(h.min)),
        ("max", int(h.max)),
        (
            "buckets",
            Json::Array(h.buckets[..used].iter().map(|&c| int(c)).collect()),
        ),
    ])
}

fn decode_hist(json: &Json) -> HistSnapshot {
    let buckets = json
        .get("buckets")
        .and_then(Json::as_array)
        .map(|a| a.iter().map(|v| int_of(Some(v))).collect())
        .unwrap_or_default();
    HistSnapshot::from_parts(
        int_of(json.get("count")),
        int_of(json.get("sum")),
        int_of(json.get("min")),
        int_of(json.get("max")),
        buckets,
    )
}

/// The `nl2vis.metrics.v1` body of `GET /metrics.json` (and of the fleet's
/// merged `GET /fleet/metrics`).
pub fn snapshot_json(s: &Snapshot) -> Json {
    Json::object(vec![
        ("format", Json::from(FORMAT)),
        ("sources", int(s.sources)),
        ("window_covered_us", int(s.window_covered_us)),
        ("counters", map_json(&s.counters, |&v| int(v))),
        ("gauges", map_json(&s.gauges, |&v| Json::from(v))),
        ("histograms", map_json(&s.histograms, hist_json)),
        (
            "windowed_counters",
            map_json(&s.windowed_counters, |&v| int(v)),
        ),
        (
            "windowed_histograms",
            map_json(&s.windowed_histograms, hist_json),
        ),
    ])
}

/// Decodes a `/metrics.json` body back into a [`Snapshot`]; inverts
/// [`snapshot_json`] exactly, so scrape → merge → re-serve loses nothing.
pub fn decode_snapshot(body: &str) -> Result<Snapshot, String> {
    let json = Json::parse(body).map_err(|e| format!("snapshot parse: {e}"))?;
    let format = json.get("format").and_then(Json::as_str).unwrap_or("");
    if format != FORMAT {
        return Err(format!("unknown snapshot format `{format}`"));
    }
    let counters = |key| decode_map(json.get(key), |v| v.as_f64().map(|f| f as u64));
    let histograms = |key| decode_map(json.get(key), |v| Some(decode_hist(v)));
    Ok(Snapshot {
        sources: int_of(json.get("sources")).max(1),
        window_covered_us: int_of(json.get("window_covered_us")),
        counters: counters("counters"),
        gauges: decode_map(json.get("gauges"), |v| v.as_f64().map(|f| f as i64)),
        histograms: histograms("histograms"),
        windowed_counters: counters("windowed_counters"),
        windowed_histograms: histograms("windowed_histograms"),
    })
}

/// A record's summary: a whole `/requests` entry, and the head of its
/// `/trace/<id>` body.
fn trace_head(r: &TraceRecord) -> Vec<(&'static str, Json)> {
    vec![
        ("trace_id", int(r.trace_id)),
        ("root", Json::from(r.root.as_str())),
        ("duration_us", int(r.duration_us)),
        ("outcome", Json::from(r.outcome())),
        ("span_count", int(r.span_count)),
    ]
}

/// The error attributed to a trace, as `/trace/<id>` and each source of a
/// stitched `/fleet/trace/<id>` carry it.
pub fn error_json(e: &ErrorNote) -> Json {
    Json::object(vec![
        ("component", Json::from(e.component.as_str())),
        ("kind", Json::from(e.kind.as_str())),
        ("message", Json::from(e.message.as_str())),
    ])
}

fn span_json(s: &SpanRecord) -> Json {
    let mut span = vec![
        ("span", int(s.span_id)),
        ("parent", s.parent.map_or(Json::Null, int)),
        ("name", Json::from(s.name.as_str())),
        ("duration_us", int(s.duration_us)),
    ];
    if !s.annotations.is_empty() {
        let annotations = s
            .annotations
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(v.as_str())));
        span.push(("annotations", Json::Object(annotations.collect())));
    }
    Json::object(span)
}

/// The full stitched record: the body of `GET /trace/<id>`.
pub fn trace_json(r: &TraceRecord) -> Json {
    let mut body = trace_head(r);
    if let Some(error) = &r.error {
        body.push(("error", error_json(error)));
    }
    body.push((
        "spans",
        Json::Array(r.spans.iter().map(span_json).collect()),
    ));
    Json::object(body)
}

/// The recent-trace index, most recent first: the body of
/// `GET /requests`.
pub fn trace_index_json(records: &[TraceRecord]) -> Json {
    let traces = records.iter().map(|r| Json::object(trace_head(r)));
    Json::object(vec![("traces", Json::Array(traces.collect()))])
}

/// Decodes a `/trace/<id>` body back into a [`TraceRecord`]. The
/// finalization sequence number is process-local and not on the wire; a
/// decoded record's `seq` is 0.
pub fn decode_trace(body: &str) -> Result<TraceRecord, String> {
    let json = Json::parse(body).map_err(|e| format!("trace parse: {e}"))?;
    let spans = json
        .get("spans")
        .and_then(Json::as_array)
        .ok_or("trace body has no spans array")?
        .iter()
        .map(|s| SpanRecord {
            span_id: int_of(s.get("span")),
            parent: s.get("parent").and_then(Json::as_f64).map(|p| p as u64),
            name: str_of(s, "name"),
            duration_us: int_of(s.get("duration_us")),
            annotations: members(s.get("annotations"))
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect(),
        })
        .collect();
    Ok(TraceRecord {
        trace_id: int_of(json.get("trace_id")),
        seq: 0,
        root: str_of(&json, "root"),
        duration_us: int_of(json.get("duration_us")),
        span_count: int_of(json.get("span_count")),
        spans,
        error: json.get("error").map(|e| ErrorNote {
            component: str_of(e, "component"),
            kind: str_of(e, "kind"),
            message: str_of(e, "message"),
        }),
    })
}

/// One SLO status, as `/fleet/stats` embeds it.
pub fn slo_json(s: &SloStatus) -> Json {
    Json::object(vec![
        ("name", Json::from(s.name.as_str())),
        ("target", decimals(s.target, 4)),
        ("fast_good", decimals(s.fast_good, 6)),
        ("slow_good", decimals(s.slow_good, 6)),
        ("fast_events", int(s.fast_events)),
        ("slow_events", int(s.slow_events)),
        ("fast_burn", decimals(s.fast_burn, 4)),
        ("slow_burn", decimals(s.slow_burn, 4)),
        ("budget_remaining", decimals(s.budget_remaining, 4)),
    ])
}

/// `x` rounded the way `{:.N}` prints it (from the exact binary value,
/// ties to even), the rule SLO entries have always used. [`fixed`]'s
/// scale-and-round can land a near-tie on the other side.
fn decimals(x: f64, places: usize) -> Json {
    Json::from(format!("{x:.places$}").parse::<f64>().unwrap_or(x))
}

/// Renders the `GET /stats` body from a metrics snapshot: the
/// sliding-window view (rolling throughput, windowed latency percentiles,
/// shed rate over the last `window_span`) next to the cumulative totals,
/// so a load generator polling once a second sees live movement instead
/// of an ever-flattening average. The server renders the snapshot its
/// `GET /metrics.json` serves, and the fleet observer renders each
/// replica's scraped snapshot and their merge, so no two renderings can
/// disagree. A rate divides by the snapshot's covered window; a metric
/// the snapshot lacks reads as zero, and nothing is registered.
pub fn stats_json(snapshot: &Snapshot, window_span: Duration) -> Json {
    const LATENCY: &str = "llm.request_latency_us";
    let no_samples = HistSnapshot::default();
    let window = snapshot
        .windowed_histograms
        .get(LATENCY)
        .unwrap_or(&no_samples);
    let cumulative = snapshot.histograms.get(LATENCY).unwrap_or(&no_samples);
    let counter = |name| Json::from(snapshot.counter(name) as f64);
    let gauge = |name| Json::from(snapshot.gauges.get(name).copied().unwrap_or(0));
    let throughput = ratio(window.count as f64, snapshot.window_covered_us as f64 / 1e6);
    let shed_window = snapshot.windowed_counter("server.shed_total") as f64;
    let batch_requests = snapshot.counter("server.batch.requests_total") as f64;
    let batch_batches = snapshot.counter("server.batch.batches_total") as f64;
    let summary = |h: &HistSnapshot| {
        let s = h.summary();
        vec![
            ("count", Json::from(s.count as f64)),
            ("min_us", Json::from(s.min as f64)),
            ("max_us", Json::from(s.max as f64)),
            ("p50_us", Json::from(s.p50.round())),
            ("p95_us", Json::from(s.p95.round())),
            ("p99_us", Json::from(s.p99.round())),
        ]
    };
    let mut window_latency = summary(window);
    window_latency.insert(1, ("rate_per_sec", fixed(throughput, 3)));
    Json::object(vec![
        ("window_seconds", Json::from(window_span.as_secs_f64())),
        ("throughput_rps", fixed(throughput, 3)),
        ("window_requests", Json::from(window.count as f64)),
        ("window_shed", Json::from(shed_window)),
        (
            "window_shed_rate",
            fixed(ratio(shed_window, window.count as f64 + shed_window), 4),
        ),
        ("requests_total", counter("llm.requests_total")),
        ("shed_total", counter("server.shed_total")),
        ("active_connections", gauge("server.active_connections")),
        ("concurrent_peak", gauge("server.concurrent_peak")),
        ("open_connections", gauge("server.poller.open_connections")),
        ("serving_threads", gauge("server.serving_threads")),
        ("batch_requests", Json::from(batch_requests)),
        ("batch_batches", Json::from(batch_batches)),
        (
            "batch_invocations",
            counter("server.batch.invocations_total"),
        ),
        (
            "avg_batch_size",
            fixed(ratio(batch_requests, batch_batches), 3),
        ),
        (
            "latency_us",
            Json::object(vec![
                ("window", Json::object(window_latency)),
                ("cumulative", Json::object(summary(cumulative))),
            ]),
        ),
    ])
}

/// `numerator / denominator`, or 0 over an empty denominator.
fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// `x` rounded to `places` decimals.
fn fixed(x: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::from((x * scale).round() / scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis_obs::recorder::FlightRecorder;
    use nl2vis_obs::{MetricsRegistry, SloSpec, WindowConfig, WindowedRegistry};

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
    fn json_carries_format_and_trimmed_buckets() {
        let metrics = MetricsRegistry::new();
        metrics.histogram("s.latency_us").record(6); // bucket 3
        metrics.counter("s.requests_total").inc();
        let text = snapshot_json(&Snapshot::collect(&metrics, None)).to_compact();
        assert!(text.contains("\"format\":\"nl2vis.metrics.v1\""), "{text}");
        assert!(text.contains("\"s.requests_total\":1"), "{text}");
        assert!(
            text.contains("\"buckets\":[0,0,0,1]"),
            "trailing zeros must be trimmed: {text}"
        );
        assert!(text.contains("\"sources\":1"), "{text}");
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
        let decoded = decode_snapshot(&snapshot_json(&snap).to_compact()).expect("decode");
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
        let wire = |m: &MetricsRegistry| snapshot_json(&Snapshot::collect(m, None)).to_compact();
        let decoded_a = decode_snapshot(&wire(&a)).unwrap();
        let decoded_b = decode_snapshot(&wire(&b)).unwrap();
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
    fn decode_snapshot_rejects_foreign_formats() {
        assert!(decode_snapshot("{}").is_err());
        assert!(decode_snapshot(r#"{"format":"something.else"}"#).is_err());
        assert!(decode_snapshot("not json").is_err());
    }

    #[test]
    fn json_and_tree_rendering() {
        let r = FlightRecorder::new(4);
        r.span_opened(7, 70, None, "pipeline.run");
        r.span_opened(7, 71, Some(70), "llm.attempt");
        r.annotate(7, 71, "conn", "fresh");
        r.span_closed(7, 71, 5);
        r.note_error(7, "llm", "transport", "timeout \"deadline\"");
        r.span_closed(7, 70, 12);
        let rec = r.get(7).expect("stored");
        let json = trace_json(&rec).to_compact();
        assert!(json.contains("\"trace_id\":7"));
        assert!(json.contains("\"outcome\":\"error\""));
        assert!(json.contains("\"conn\":\"fresh\""));
        assert!(json.contains("timeout \\\"deadline\\\""), "{json}");
        let index = trace_index_json(&r.recent(10)).to_compact();
        assert!(index.starts_with("{\"traces\":["));
        assert!(index.contains("\"trace_id\":7"));
        let tree = rec.render_tree();
        assert!(tree.contains("pipeline.run (12 us)"));
        assert!(tree.contains("  llm.attempt (5 us) conn=fresh"), "{tree}");
    }

    #[test]
    fn trace_record_round_trips_through_json() {
        let record = TraceRecord {
            trace_id: 42,
            seq: 9,
            root: "client.request".to_string(),
            duration_us: 900,
            // More spans observed than kept: the record was truncated.
            span_count: 3,
            spans: vec![
                SpanRecord {
                    span_id: 10,
                    parent: None,
                    name: "client.request".to_string(),
                    duration_us: 900,
                    annotations: Vec::new(),
                },
                SpanRecord {
                    span_id: 11,
                    parent: Some(10),
                    name: "llm.attempt".to_string(),
                    duration_us: 800,
                    annotations: vec![
                        ("conn".to_string(), "fresh".to_string()),
                        ("note".to_string(), "said \"no\"\n\ttwice".to_string()),
                    ],
                },
            ],
            error: Some(ErrorNote {
                component: "llm".to_string(),
                kind: "transport".to_string(),
                message: "timeout \"deadline\"".to_string(),
            }),
        };
        let body = trace_json(&record).to_compact();
        assert!(body.contains(r#""parent":null"#), "{body}");
        let decoded = decode_trace(&body).expect("decode");
        assert_eq!(trace_json(&decoded).to_compact(), body);
        assert_eq!(decoded.outcome(), "error");
        assert_eq!(decoded.span_count, 3);
        assert_eq!(decoded.spans[0].parent, None);
        assert_eq!(decoded.spans[1].parent, Some(10));
        assert_eq!(decoded.spans[1].annotations, record.spans[1].annotations);
        let error = decoded.error.expect("error note decoded");
        assert_eq!(error.message, "timeout \"deadline\"");
        // A `/requests` entry is the head of the record's body.
        let index = trace_index_json(std::slice::from_ref(&record)).to_compact();
        let entry = &index["{\"traces\":[".len()..index.len() - "}]}".len()];
        assert!(body.starts_with(entry), "{entry} / {body}");

        assert!(decode_trace("not json").is_err());
        assert_eq!(
            decode_trace(r#"{"trace_id":1}"#).err().as_deref(),
            Some("trace body has no spans array")
        );
    }

    #[test]
    fn slo_json_carries_both_windows() {
        let metrics = MetricsRegistry::new();
        let windowed = WindowedRegistry::new(WindowConfig::seconds_10());
        let h = metrics.histogram("llm.request_latency_us");
        for _ in 0..90 {
            h.record(10_000); // 10 ms — good
        }
        for _ in 0..10 {
            h.record(10_000_000); // 10 s — bad
        }
        windowed.histogram("llm.request_latency_us").record(10_000);
        let snapshot = Snapshot::collect(&metrics, Some(&windowed));
        let spec = SloSpec::latency("latency", "llm.request_latency_us", 100_000, 0.95);
        let text = slo_json(&spec.evaluate(&snapshot)).to_compact();
        assert!(text.contains("\"name\":\"latency\""), "{text}");
        assert!(text.contains("\"target\":0.95"), "{text}");
        assert!(text.contains("\"slow_burn\":2,"), "{text}");
        assert!(text.contains("\"fast_burn\":0,"), "{text}");
        assert!(text.contains("\"budget_remaining\":-1}"), "{text}");
        assert!(text.contains("\"slow_events\":100"), "{text}");
        // Rounded the way `{:.4}` prints: an exact tie goes to even.
        assert_eq!(decimals(0.03125, 4), Json::from(0.0312));
        assert_eq!(decimals(2.0 / 3.0, 4), Json::from(0.6667));
    }
}
