//! # nl2vis-obs — std-only tracing and metrics for the nl2vis stack
//!
//! The paper this workspace reproduces is a *measurement* study, and the
//! ROADMAP pushes the reproduction toward a production-scale serving
//! system; both need the system to observe itself. This crate is that
//! substrate, with **zero external dependencies**:
//!
//! - [`registry`]: a global, thread-safe [`MetricsRegistry`] of named
//!   [`Counter`]s, [`Gauge`]s, and log-scale latency [`Histogram`]s with
//!   p50/p95/p99 summaries. Handles are `Arc`s updated with relaxed
//!   atomics, so instrumented hot paths never contend on the registry.
//! - [`span`]: RAII [`Span`] guards (`let _s = span!("pipeline.parse");`)
//!   that time a scope, nest into a per-request trace, and feed the
//!   `<name>.duration_us` histogram.
//! - [`sink`]: a pluggable [`EventSink`] receiving structured events
//!   (span open/close, counter deltas, errors, access logs); the
//!   [`JsonlSink`] writes one JSON object per line, the [`MemorySink`]
//!   captures lines for tests, and the default [`NullSink`] makes
//!   telemetry free when nobody is listening.
//! - [`report`]: text rendering — [`report::render_exposition`] backs the
//!   server's `GET /metrics`, [`report::render_summary`] prints the CLI
//!   telemetry table.
//! - [`window`]: sliding-window counterparts ([`WindowedCounter`],
//!   [`WindowedHistogram`], [`WindowedRegistry`]) — a ring of
//!   fixed-duration buckets holding the last N seconds. Every read is a
//!   [`HistSnapshot`] of the window (`snapshot()`), and a rate divides a
//!   window total by the registry's `covered()` duration.
//! - [`snapshot`]: mergeable point-in-time [`Snapshot`]s of both
//!   registries — raw bucket arrays that add exactly across processes
//!   (associative/commutative merge). [`HistSnapshot::quantile`] is the
//!   one percentile computation. A snapshot is the only input of every
//!   JSON metrics rendering: the server's `GET /metrics.json` and
//!   `GET /stats`, and the router's fleet-merged views. This crate
//!   writes no JSON for snapshots, trace records or SLO statuses: each
//!   body's encoder and decoder live in `nl2vis-llm`'s `telemetry`
//!   module; the only JSON written here is the sink's event lines.
//! - [`slo`]: declarative objectives ([`SloSpec`]) with fast/slow-window
//!   burn rates evaluated over snapshots, published as `slo.*` gauges.
//!
//! ## Naming convention
//!
//! Metric names are `component.verb_noun` (`llm.requests_total`,
//! `pipeline.errors_total`, `eval.worker_panics`); histograms carry a unit
//! suffix (`_us`); per-kind error counters extend the component with the
//! kind (`pipeline.error.parse`). Span names are `component.stage` and
//! materialize as `<component>.<stage>.duration_us` histograms.
//!
//! ## Example
//!
//! ```
//! use nl2vis_obs as obs;
//!
//! obs::count("demo.requests_total", 1);
//! {
//!     let _span = obs::span!("demo.handle");
//!     // ... work ...
//! }
//! let summary = obs::registry::global()
//!     .histogram("demo.handle.duration_us")
//!     .summary();
//! assert!(summary.count >= 1);
//! assert!(obs::report::render_exposition(obs::registry::global())
//!     .contains("demo.requests_total"));
//! ```

pub mod recorder;
pub mod registry;
pub mod report;
pub mod sink;
pub mod slo;
pub mod snapshot;
pub mod span;
pub mod window;

pub use recorder::{FlightRecorder, RecorderStats, TraceRecord};
pub use registry::{global, Counter, Gauge, Handle, Histogram, HistogramSummary, MetricsRegistry};
pub use sink::{
    disable_sink, emit, set_sink, sink_active, Event, EventSink, JsonlSink, MemorySink, NullSink,
};
pub use slo::{Objective, SloSpec, SloStatus};
pub use snapshot::{HistSnapshot, Snapshot};
pub use span::{annotate_current, current_context, current_trace, Span, TraceContext};
pub use window::{WindowConfig, WindowedCounter, WindowedHistogram, WindowedRegistry};

/// Adds `delta` to the global counter `name` and emits a
/// [`Event::CounterDelta`] to the installed sink.
pub fn count(name: &str, delta: u64) {
    add_counted(name, &registry::global().counter(name), delta);
}

/// Adds `delta` to `counter`, registered as `name`, and emits its
/// [`Event::CounterDelta`] to the installed sink.
fn add_counted(name: &str, counter: &Counter, delta: u64) {
    counter.add(delta);
    if sink::sink_active() {
        sink::emit(&Event::CounterDelta {
            name: name.to_string(),
            delta,
            value: counter.get(),
        });
    }
}

/// [`count`] for a hot path: the global counter `name`, looked up on
/// first use and held after, with the same sink event per addition.
pub struct Count {
    name: String,
    counter: Handle<Counter>,
}

impl Count {
    /// The global counter `name`.
    pub fn new(name: impl Into<String>) -> Count {
        let name = name.into();
        Count {
            counter: Handle::counter(registry::global(), name.as_str()),
            name,
        }
    }

    /// Adds `delta`, as [`count`]`(name, delta)` does.
    pub fn add(&self, delta: u64) {
        add_counted(&self.name, self.counter.get(), delta);
    }
}

/// Records an error: bumps `component.errors_total` and the per-kind
/// counter `component.error.<kind>`, emits an [`Event::Error`], and —
/// when a flight recorder is installed — attributes the error to the
/// current thread's in-flight trace so the stored [`TraceRecord`] carries
/// it.
pub fn error(component: &str, kind: &str, message: &str) {
    registry::global()
        .counter(&format!("{component}.errors_total"))
        .inc();
    registry::global()
        .counter(&format!("{component}.error.{kind}"))
        .inc();
    recorder::note_error_current(component, kind, message);
    if sink::sink_active() {
        sink::emit(&Event::Error {
            component: component.to_string(),
            kind: kind.to_string(),
            message: message.to_string(),
        });
    }
}

/// Records an infrastructure failure: a request that died below the model
/// (connect/timeout/5xx/dropped socket). Lands on `component.error.transport`
/// — the attribution bucket evaluation reads to keep transport failures out
/// of the model-failure taxonomy (Execution Accuracy must only count
/// completions the model actually produced).
pub fn transport_error(component: &str, message: &str) {
    error(component, "transport", message);
}

/// Emits a structured log line (e.g. an HTTP access log) to the sink.
///
/// `fields` is a *closure* producing the key/value pairs, evaluated only
/// when a sink is installed — so hot paths don't pay for formatting field
/// values (status codes, latencies, paths) that nobody will see. Call
/// sites that already hold a `Vec` can pass `move || fields`.
pub fn log<F>(component: &str, message: &str, fields: F)
where
    F: FnOnce() -> Vec<(String, String)>,
{
    if sink::sink_active() {
        sink::emit(&Event::Log {
            component: component.to_string(),
            message: message.to_string(),
            fields: fields(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn count_updates_registry_and_sink() {
        let sink = Arc::new(MemorySink::new());
        set_sink(sink.clone());
        let before = registry::global().counter("lib.count_test_total").get();
        count("lib.count_test_total", 3);
        assert_eq!(
            registry::global().counter("lib.count_test_total").get(),
            before + 3
        );
        assert!(sink
            .lines()
            .iter()
            .any(|l| l.contains("lib.count_test_total") && l.contains("\"delta\":3")));
        disable_sink();
    }

    #[test]
    fn error_bumps_total_and_kind_counters() {
        let before = registry::global().counter("libtest.errors_total").get();
        error("libtest", "parse", "bad token");
        error("libtest", "execute", "missing table");
        assert_eq!(
            registry::global().counter("libtest.errors_total").get(),
            before + 2
        );
        assert_eq!(registry::global().counter("libtest.error.parse").get(), 1);
        assert_eq!(registry::global().counter("libtest.error.execute").get(), 1);
    }

    #[test]
    fn log_fields_are_not_built_without_a_sink() {
        disable_sink();
        let mut built = false;
        log("libtest", "access", || {
            built = true;
            vec![("path".to_string(), "/metrics".to_string())]
        });
        assert!(
            !built,
            "field closure must not run when no sink is installed"
        );

        let sink = Arc::new(MemorySink::new());
        set_sink(sink.clone());
        log("libtest", "access", || {
            built = true;
            vec![("path".to_string(), "/metrics".to_string())]
        });
        disable_sink();
        assert!(built, "field closure runs once a sink is listening");
        assert!(sink
            .lines()
            .iter()
            .any(|l| l.contains("\"path\":\"/metrics\"")));
    }

    #[test]
    fn transport_errors_get_their_own_bucket() {
        let before = registry::global().counter("obslib.error.transport").get();
        transport_error("obslib", "connect refused after 3 attempts");
        assert_eq!(
            registry::global().counter("obslib.error.transport").get(),
            before + 1
        );
    }
}
