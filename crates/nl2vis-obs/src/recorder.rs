//! The flight recorder: a bounded in-memory store of completed traces.
//!
//! Metrics answer "how is the system doing?"; the sink answers "what
//! happened, eventually?" (after grepping a JSONL file). Neither answers
//! the debugging question that matters when one request misbehaves: *what
//! happened to request X?* The [`FlightRecorder`] does. Every span
//! open/close is mirrored here (see [`crate::span`]); when the last open
//! span of a trace closes, the trace is *finalized* into a
//! [`TraceRecord`] — the stitched span tree plus per-span annotations
//! (cache hit/miss, connection reuse, retry attempts) and any error
//! attributed to the trace — and stored in a sharded ring buffer.
//!
//! Memory stays O(capacity) under arbitrary traffic via a tail-retention
//! policy: each record is ranked (errored > slow > normal, where *slow*
//! means the trace's duration is at or beyond the p90 of everything the
//! recorder has finalized), and a full shard evicts its oldest
//! lowest-ranked record — or refuses the incoming record when everything
//! already stored outranks it. Errored and slowest-decile traces therefore
//! survive heavy load; ordinary traces are sampled.
//!
//! Nothing is recorded unless a recorder is [`install`]ed; the disabled
//! cost is one relaxed atomic load per hook.

use crate::registry::Histogram;
use crate::span;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Hard cap on spans kept per trace; later spans are counted but dropped.
const MAX_SPANS_PER_TRACE: usize = 512;
/// Hard cap on annotations kept per span.
const MAX_ANNOTATIONS_PER_SPAN: usize = 32;

/// One span inside a finalized trace.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// The span's id (unique process-wide).
    pub span_id: u64,
    /// Parent span id within the trace, if any.
    pub parent: Option<u64>,
    /// Span name, e.g. `llm.attempt`.
    pub name: String,
    /// Wall-clock duration in microseconds (0 if never closed).
    pub duration_us: u64,
    /// Key/value annotations attached while the span was live
    /// (`cache=hit`, `conn=reused`, `attempt=2`, ...).
    pub annotations: Vec<(String, String)>,
}

/// An error attributed to a trace via [`crate::error`] while one of its
/// spans was live.
#[derive(Debug, Clone)]
pub struct ErrorNote {
    /// Component that reported the error (`llm`, `pipeline`, ...).
    pub component: String,
    /// Error kind (`transport`, `parse`, ...).
    pub kind: String,
    /// Human-readable message.
    pub message: String,
}

/// A completed, stitched trace: everything the recorder knows about one
/// request.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// The trace id shared by every span in the record.
    pub trace_id: u64,
    /// Monotonic finalization sequence number (recency ordering).
    pub seq: u64,
    /// Name of the trace's first-opened span.
    pub root: String,
    /// Duration of the root span in microseconds.
    pub duration_us: u64,
    /// Total spans observed (may exceed `spans.len()` when truncated).
    pub span_count: u64,
    /// The recorded spans, in open order.
    pub spans: Vec<SpanRecord>,
    /// First error attributed to the trace, if any.
    pub error: Option<ErrorNote>,
}

impl TraceRecord {
    /// `"error"` when an error was attributed to the trace, else `"ok"`.
    pub fn outcome(&self) -> &'static str {
        if self.error.is_some() {
            "error"
        } else {
            "ok"
        }
    }

    /// Whether the record contains a span with this name.
    pub fn has_span(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name)
    }

    /// Spans with this name.
    pub fn spans_named(&self, name: &str) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Whether any span carries the annotation `key=value`.
    pub fn has_annotation(&self, key: &str, value: &str) -> bool {
        self.spans
            .iter()
            .any(|s| s.annotations.iter().any(|(k, v)| k == key && v == value))
    }

    /// A human-readable indented span tree (used by the `traces`
    /// experiment dump).
    pub fn render_tree(&self) -> String {
        let mut out = format!(
            "trace {} [{}] {} ({} us, {} spans)\n",
            self.trace_id,
            self.outcome(),
            self.root,
            self.duration_us,
            self.span_count
        );
        if let Some(err) = &self.error {
            out.push_str(&format!(
                "  error: {}.{}: {}\n",
                err.component, err.kind, err.message
            ));
        }
        // Children of each span, in open order.
        let mut children: HashMap<Option<u64>, Vec<usize>> = HashMap::new();
        let ids: Vec<u64> = self.spans.iter().map(|s| s.span_id).collect();
        for (i, s) in self.spans.iter().enumerate() {
            // A parent outside the record (e.g. truncated) renders at root.
            let key = s.parent.filter(|p| ids.contains(p));
            children.entry(key).or_default().push(i);
        }
        fn walk(
            rec: &TraceRecord,
            children: &HashMap<Option<u64>, Vec<usize>>,
            key: Option<u64>,
            depth: usize,
            out: &mut String,
        ) {
            for &i in children.get(&key).into_iter().flatten() {
                let s = &rec.spans[i];
                out.push_str(&"  ".repeat(depth + 1));
                out.push_str(&format!("{} ({} us)", s.name, s.duration_us));
                for (k, v) in &s.annotations {
                    out.push_str(&format!(" {k}={v}"));
                }
                out.push('\n');
                walk(rec, children, Some(s.span_id), depth + 1, out);
            }
        }
        walk(self, &children, None, 0, &mut out);
        out
    }
}

/// A trace still in flight: spans have opened but not all have closed.
#[derive(Debug, Default)]
struct ActiveTrace {
    spans: Vec<SpanRecord>,
    /// Index into `spans` by span id (bounded by MAX_SPANS_PER_TRACE).
    index: HashMap<u64, usize>,
    open: usize,
    span_count: u64,
    root_duration_us: u64,
    error: Option<ErrorNote>,
    /// Admission order, for abandoning the stalest active trace.
    admitted: u64,
}

#[derive(Debug, Default)]
struct Shard {
    ring: Vec<TraceRecord>,
}

/// Counters describing what the recorder has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Traces finalized (whether or not they were stored).
    pub finalized: u64,
    /// Finalized traces refused because the shard was full of
    /// higher-ranked records (the sampling tail).
    pub sampled_out: u64,
    /// Stored records evicted to make room.
    pub evicted: u64,
    /// In-flight traces abandoned because the active set hit its bound.
    pub abandoned: u64,
}

/// A bounded, sharded store of completed [`TraceRecord`]s.
///
/// Construct one with [`FlightRecorder::new`] and make it live with
/// [`install`]; span hooks feed whichever recorder is installed.
#[derive(Debug)]
pub struct FlightRecorder {
    shards: Vec<Mutex<Shard>>,
    shard_caps: Vec<usize>,
    capacity: usize,
    active: Mutex<HashMap<u64, ActiveTrace>>,
    max_active: usize,
    admissions: AtomicU64,
    seq: AtomicU64,
    /// Root durations of every finalized trace; its p90 is the "slow"
    /// retention threshold.
    durations: Histogram,
    finalized: AtomicU64,
    sampled_out: AtomicU64,
    evicted: AtomicU64,
    abandoned: AtomicU64,
}

const SHARDS: usize = 8;

impl FlightRecorder {
    /// A recorder holding at most `capacity` completed traces (and at most
    /// `4 * capacity` in-flight ones, clamped to at least 64).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        let shards = SHARDS.min(capacity);
        // Per-shard capacities sum exactly to `capacity`.
        let shard_caps: Vec<usize> = (0..shards)
            .map(|i| capacity / shards + usize::from(i < capacity % shards))
            .collect();
        FlightRecorder {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_caps,
            capacity,
            active: Mutex::new(HashMap::new()),
            max_active: (capacity * 4).max(64),
            admissions: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            durations: Histogram::default(),
            finalized: AtomicU64::new(0),
            sampled_out: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
        }
    }

    /// Maximum number of stored traces.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of traces currently stored.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("recorder shard").ring.len())
            .sum()
    }

    /// True when no traces are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of in-flight (not yet finalized) traces — bounded by
    /// `max_active`, which load tests assert on.
    pub fn active_len(&self) -> usize {
        self.active.lock().expect("recorder active").len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> RecorderStats {
        RecorderStats {
            finalized: self.finalized.load(Ordering::Relaxed),
            sampled_out: self.sampled_out.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
        }
    }

    /// A span opened under `trace_id`.
    pub fn span_opened(&self, trace_id: u64, span_id: u64, parent: Option<u64>, name: &str) {
        let mut active = self.active.lock().expect("recorder active");
        if !active.contains_key(&trace_id) && active.len() >= self.max_active {
            // Abandon the stalest in-flight trace so fresh traffic is
            // still observable even if something leaks spans.
            if let Some(&stalest) = active
                .iter()
                .min_by_key(|(_, t)| t.admitted)
                .map(|(id, _)| id)
            {
                active.remove(&stalest);
                self.abandoned.fetch_add(1, Ordering::Relaxed);
            }
        }
        let admitted = self.admissions.fetch_add(1, Ordering::Relaxed);
        let trace = active.entry(trace_id).or_insert_with(|| ActiveTrace {
            admitted,
            ..ActiveTrace::default()
        });
        trace.open += 1;
        trace.span_count += 1;
        if trace.spans.len() < MAX_SPANS_PER_TRACE {
            trace.index.insert(span_id, trace.spans.len());
            trace.spans.push(SpanRecord {
                span_id,
                parent,
                name: name.to_string(),
                duration_us: 0,
                annotations: Vec::new(),
            });
        }
    }

    /// A span closed; finalizes the trace when it was the last one open.
    pub fn span_closed(&self, trace_id: u64, span_id: u64, duration_us: u64) {
        let record = {
            let mut active = self.active.lock().expect("recorder active");
            let Some(trace) = active.get_mut(&trace_id) else {
                return;
            };
            if let Some(&i) = trace.index.get(&span_id) {
                trace.spans[i].duration_us = duration_us;
                if i == 0 {
                    trace.root_duration_us = duration_us;
                }
            }
            trace.open = trace.open.saturating_sub(1);
            if trace.open > 0 {
                return;
            }
            let trace = active.remove(&trace_id).expect("trace just seen");
            TraceRecord {
                trace_id,
                seq: self.seq.fetch_add(1, Ordering::Relaxed),
                root: trace
                    .spans
                    .first()
                    .map(|s| s.name.clone())
                    .unwrap_or_default(),
                duration_us: trace.root_duration_us,
                span_count: trace.span_count,
                spans: trace.spans,
                error: trace.error,
            }
        };
        self.store(record);
    }

    /// Attaches `key=value` to an open span of an in-flight trace.
    pub fn annotate(&self, trace_id: u64, span_id: u64, key: &str, value: &str) {
        let mut active = self.active.lock().expect("recorder active");
        let Some(trace) = active.get_mut(&trace_id) else {
            return;
        };
        let Some(&i) = trace.index.get(&span_id) else {
            return;
        };
        let annotations = &mut trace.spans[i].annotations;
        if annotations.len() < MAX_ANNOTATIONS_PER_SPAN {
            annotations.push((key.to_string(), value.to_string()));
        }
    }

    /// Attributes an error to an in-flight trace (first one wins).
    pub fn note_error(&self, trace_id: u64, component: &str, kind: &str, message: &str) {
        let mut active = self.active.lock().expect("recorder active");
        let Some(trace) = active.get_mut(&trace_id) else {
            return;
        };
        if trace.error.is_none() {
            trace.error = Some(ErrorNote {
                component: component.to_string(),
                kind: kind.to_string(),
                message: message.to_string(),
            });
        }
    }

    /// Retention rank: errored traces outrank slow ones outrank the rest.
    fn rank(&self, record: &TraceRecord, slow_threshold: u64) -> u8 {
        if record.error.is_some() {
            2
        } else if record.duration_us >= slow_threshold {
            1
        } else {
            0
        }
    }

    /// Root-duration value at or beyond which a trace counts as "slow"
    /// (the slowest decile of everything finalized so far).
    fn slow_threshold(&self) -> u64 {
        let durations = self.durations.snapshot();
        if durations.count < 10 {
            // Too little data to call anything slow.
            return u64::MAX;
        }
        durations.quantile(0.90).max(1.0) as u64
    }

    fn store(&self, record: TraceRecord) {
        self.finalized.fetch_add(1, Ordering::Relaxed);
        self.durations.record(record.duration_us);
        let shard_i = (record.trace_id as usize) % self.shards.len();
        let cap = self.shard_caps[shard_i];
        let mut shard = self.shards[shard_i].lock().expect("recorder shard");
        if shard.ring.len() < cap {
            shard.ring.push(record);
            return;
        }
        let slow = self.slow_threshold();
        let incoming_rank = self.rank(&record, slow);
        // Oldest record of the lowest rank is the eviction candidate.
        let victim = shard
            .ring
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| (self.rank(r, slow), r.seq))
            .map(|(i, r)| (i, self.rank(r, slow)));
        match victim {
            Some((i, victim_rank)) if incoming_rank >= victim_rank => {
                shard.ring.remove(i);
                shard.ring.push(record);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                // Everything stored outranks the incoming trace: sample it out.
                self.sampled_out.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The stored record for `trace_id`, if retained.
    pub fn get(&self, trace_id: u64) -> Option<TraceRecord> {
        let shard_i = (trace_id as usize) % self.shards.len();
        let shard = self.shards[shard_i].lock().expect("recorder shard");
        shard
            .ring
            .iter()
            .rev()
            .find(|r| r.trace_id == trace_id)
            .cloned()
    }

    /// Up to `limit` stored records, most recently finalized first.
    pub fn recent(&self, limit: usize) -> Vec<TraceRecord> {
        let mut all: Vec<TraceRecord> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().expect("recorder shard").ring.clone())
            .collect();
        all.sort_by_key(|r| std::cmp::Reverse(r.seq));
        all.truncate(limit);
        all
    }
}

static RECORDER_ACTIVE: AtomicBool = AtomicBool::new(false);

fn recorder_slot() -> &'static Mutex<Option<Arc<FlightRecorder>>> {
    static SLOT: Mutex<Option<Arc<FlightRecorder>>> = Mutex::new(None);
    &SLOT
}

/// Installs `recorder` as the process-wide flight recorder; span hooks
/// start feeding it immediately. Replaces any previous recorder.
pub fn install(recorder: Arc<FlightRecorder>) {
    *recorder_slot().lock().expect("recorder slot") = Some(recorder);
    RECORDER_ACTIVE.store(true, Ordering::Release);
}

/// Removes the installed recorder; hooks go back to a single atomic load.
pub fn disable() {
    RECORDER_ACTIVE.store(false, Ordering::Release);
    *recorder_slot().lock().expect("recorder slot") = None;
}

/// True when a recorder is installed.
pub fn enabled() -> bool {
    RECORDER_ACTIVE.load(Ordering::Acquire)
}

/// The installed recorder, if any.
pub fn installed() -> Option<Arc<FlightRecorder>> {
    if !enabled() {
        return None;
    }
    recorder_slot().lock().expect("recorder slot").clone()
}

/// Span-open hook (called by [`crate::span::Span`]).
pub(crate) fn on_span_open(trace: u64, span: u64, parent: Option<u64>, name: &str) {
    if let Some(r) = installed() {
        r.span_opened(trace, span, parent, name);
    }
}

/// Span-close hook (called by [`crate::span::Span`]).
pub(crate) fn on_span_close(trace: u64, span: u64, duration_us: u64) {
    if let Some(r) = installed() {
        r.span_closed(trace, span, duration_us);
    }
}

/// Annotation hook (called by [`crate::span::Span::annotate`]).
pub(crate) fn annotate_span(trace: u64, span: u64, key: &str, value: &str) {
    if let Some(r) = installed() {
        r.annotate(trace, span, key, value);
    }
}

/// Attributes an error to the current thread's trace (called by
/// [`crate::error`]).
pub(crate) fn note_error_current(component: &str, kind: &str, message: &str) {
    if !enabled() {
        return;
    }
    if let (Some(trace), Some(r)) = (span::current_trace(), installed()) {
        r.note_error(trace, component, kind, message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(trace_id: u64, seq: u64, duration_us: u64, errored: bool) -> TraceRecord {
        TraceRecord {
            trace_id,
            seq,
            root: "test.root".to_string(),
            duration_us,
            span_count: 1,
            spans: vec![SpanRecord {
                span_id: trace_id + 1,
                parent: None,
                name: "test.root".to_string(),
                duration_us,
                annotations: Vec::new(),
            }],
            error: errored.then(|| ErrorNote {
                component: "test".to_string(),
                kind: "boom".to_string(),
                message: "synthetic".to_string(),
            }),
        }
    }

    /// Drives a full open→close lifecycle directly against one recorder.
    fn run_trace(r: &FlightRecorder, trace_id: u64, duration_us: u64, errored: bool) {
        let span_id = trace_id * 1000 + 1;
        r.span_opened(trace_id, span_id, None, "test.root");
        if errored {
            r.note_error(trace_id, "test", "boom", "synthetic");
        }
        r.span_closed(trace_id, span_id, duration_us);
    }

    #[test]
    fn trace_finalizes_when_last_span_closes() {
        let r = FlightRecorder::new(8);
        r.span_opened(1, 10, None, "test.root");
        r.span_opened(1, 11, Some(10), "test.child");
        assert_eq!(r.len(), 0, "still in flight");
        r.span_closed(1, 11, 5);
        assert_eq!(r.len(), 0, "root still open");
        r.span_closed(1, 10, 9);
        assert_eq!(r.len(), 1);
        let rec = r.get(1).expect("stored");
        assert_eq!(rec.root, "test.root");
        assert_eq!(rec.duration_us, 9);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(10));
        assert_eq!(rec.outcome(), "ok");
    }

    #[test]
    fn out_of_order_parent_close_does_not_finalize_early() {
        let r = FlightRecorder::new(8);
        r.span_opened(2, 20, None, "test.root");
        r.span_opened(2, 21, Some(20), "test.child");
        r.span_closed(2, 20, 9); // parent closes first
        assert_eq!(r.len(), 0, "child still open");
        r.span_closed(2, 21, 5);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn annotations_and_errors_land_on_the_record() {
        let r = FlightRecorder::new(8);
        r.span_opened(3, 30, None, "test.root");
        r.annotate(3, 30, "cache", "miss");
        r.note_error(3, "llm", "transport", "socket dropped");
        r.note_error(3, "llm", "transport", "second error ignored");
        r.span_closed(3, 30, 100);
        let rec = r.get(3).expect("stored");
        assert!(rec.has_annotation("cache", "miss"));
        assert_eq!(rec.outcome(), "error");
        let err = rec.error.as_ref().unwrap();
        assert_eq!(err.kind, "transport");
        assert_eq!(err.message, "socket dropped", "first error wins");
    }

    #[test]
    fn capacity_is_exact_under_ten_times_load() {
        let capacity = 32;
        let r = FlightRecorder::new(capacity);
        for i in 0..(capacity as u64 * 10) {
            run_trace(&r, i, 50, false);
        }
        assert_eq!(r.len(), capacity, "bounded at exactly capacity");
        let stats = r.stats();
        assert_eq!(stats.finalized, capacity as u64 * 10);
        assert_eq!(
            stats.evicted + stats.sampled_out,
            capacity as u64 * 9,
            "every overflow either evicted an old record or was sampled out"
        );
    }

    #[test]
    fn errored_traces_are_retained_preferentially() {
        let capacity = 16;
        let r = FlightRecorder::new(capacity);
        // Interleave: most traces fine, every 9th errored (stride co-prime
        // with the shard count so errored traces reach every shard).
        let total = capacity as u64 * 10;
        for i in 0..total {
            run_trace(&r, i, 50, i % 9 == 0);
        }
        assert_eq!(r.len(), capacity);
        let kept_errored = r
            .recent(capacity)
            .into_iter()
            .filter(|t| t.outcome() == "error")
            .count();
        // 18 errored traces entered a 16-slot recorder and errored records
        // are never evicted for healthy ones, so all slots end up errored.
        assert_eq!(kept_errored, capacity, "errored traces survive load");
    }

    #[test]
    fn slow_traces_outrank_ordinary_ones() {
        let capacity = 8;
        let r = FlightRecorder::new(capacity);
        // 100 traces, every 10th of them 100x slower than the rest.
        for i in 0..100u64 {
            let slow = i % 10 == 9;
            run_trace(&r, i, if slow { 10_000 } else { 100 }, false);
        }
        let kept = r.recent(capacity);
        let slow_kept = kept.iter().filter(|t| t.duration_us >= 10_000).count();
        // Slow ids (9, 19, ..., 99) only land on the odd shards, so with 8
        // single-slot shards at most 4 can be retained — all 4 should be.
        assert!(
            slow_kept >= 4,
            "slowest-decile traces should dominate retention, kept {slow_kept}"
        );
    }

    #[test]
    fn eviction_prefers_oldest_of_lowest_rank() {
        let r = FlightRecorder::new(1);
        r.store(record(8, 0, 50, false));
        r.store(record(16, 1, 50, false));
        // Same rank: newest replaces oldest.
        assert!(r.get(8).is_none());
        assert!(r.get(16).is_some());
        // An errored record takes the slot and then refuses a healthy one.
        r.store(record(24, 2, 50, true));
        assert!(r.get(24).is_some());
        r.store(record(32, 3, 50, false));
        assert!(r.get(24).is_some(), "errored record not evicted");
        assert!(r.get(32).is_none(), "healthy overflow sampled out");
        assert!(r.stats().sampled_out >= 1);
    }

    #[test]
    fn active_set_is_bounded() {
        let r = FlightRecorder::new(4); // max_active clamps to 64
        for i in 0..200u64 {
            r.span_opened(i, i * 1000, None, "test.leaky"); // never closed
        }
        let active = r.active.lock().unwrap().len();
        assert!(active <= 64, "active set {active} must stay bounded");
        assert!(r.stats().abandoned >= 100);
    }

    #[test]
    fn install_hooks_feed_spans_from_the_span_module() {
        let r = Arc::new(FlightRecorder::new(16));
        install(Arc::clone(&r));
        let trace_id = {
            let root = crate::span::Span::enter("rectest.request");
            root.annotate("cache", "hit");
            let _child = crate::span::Span::enter("rectest.stage");
            root.trace()
        };
        disable();
        let rec = r.get(trace_id).expect("trace recorded via hooks");
        assert!(rec.has_span("rectest.request"));
        assert!(rec.has_span("rectest.stage"));
        assert!(rec.has_annotation("cache", "hit"));
        assert!(!enabled());
    }
}
