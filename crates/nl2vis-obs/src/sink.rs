//! Structured event sinks.
//!
//! Instrumented code emits [`Event`]s — span open/close, counter deltas,
//! errors, access logs — through the process-wide sink installed with
//! [`set_sink`]. The default sink drops everything (observability off costs
//! one relaxed load and an `Arc` clone per event); [`JsonlSink`] serializes
//! each event as one JSON line to any writer, and [`MemorySink`] captures
//! lines in memory for tests and reports.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// One structured telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span started.
    SpanOpen {
        /// Trace the span belongs to.
        trace: u64,
        /// Span id, unique within the process.
        span: u64,
        /// Enclosing span, if nested.
        parent: Option<u64>,
        /// Span name (`pipeline.parse`).
        name: String,
    },
    /// A span finished.
    SpanClose {
        /// Trace the span belongs to.
        trace: u64,
        /// Span id.
        span: u64,
        /// Span name.
        name: String,
        /// Wall-clock duration in microseconds.
        duration_us: u64,
    },
    /// A counter moved.
    CounterDelta {
        /// Counter name.
        name: String,
        /// Amount added.
        delta: u64,
        /// Value after the addition.
        value: u64,
    },
    /// An error was recorded.
    Error {
        /// Component that failed (`pipeline`, `llm`, `eval`).
        component: String,
        /// Machine-readable error kind (`no_query`, `parse`).
        kind: String,
        /// Human-readable message.
        message: String,
    },
    /// A free-form structured log line (e.g. HTTP access logs).
    Log {
        /// Emitting component.
        component: String,
        /// Message.
        message: String,
        /// Additional key/value fields.
        fields: Vec<(String, String)>,
    },
}

/// Escapes a string for inclusion in a JSON string literal (the JSONL
/// event lines; `nl2vis_data::Json` applies the same rules).
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Microseconds since the Unix epoch (0 if the clock is before it).
fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

impl Event {
    /// The event as one compact JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let ts = now_us();
        match self {
            Event::SpanOpen { trace, span, parent, name } => {
                let parent = match parent {
                    Some(p) => p.to_string(),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"event\":\"span_open\",\"ts_us\":{ts},\"trace\":{trace},\"span\":{span},\"parent\":{parent},\"name\":\"{}\"}}",
                    escape_json(name)
                )
            }
            Event::SpanClose { trace, span, name, duration_us } => format!(
                "{{\"event\":\"span_close\",\"ts_us\":{ts},\"trace\":{trace},\"span\":{span},\"name\":\"{}\",\"duration_us\":{duration_us}}}",
                escape_json(name)
            ),
            Event::CounterDelta { name, delta, value } => format!(
                "{{\"event\":\"counter\",\"ts_us\":{ts},\"name\":\"{}\",\"delta\":{delta},\"value\":{value}}}",
                escape_json(name)
            ),
            Event::Error { component, kind, message } => format!(
                "{{\"event\":\"error\",\"ts_us\":{ts},\"component\":\"{}\",\"kind\":\"{}\",\"message\":\"{}\"}}",
                escape_json(component),
                escape_json(kind),
                escape_json(message)
            ),
            Event::Log { component, message, fields } => {
                let mut extra = String::new();
                for (k, v) in fields {
                    extra.push_str(&format!(
                        ",\"{}\":\"{}\"",
                        escape_json(k),
                        escape_json(v)
                    ));
                }
                format!(
                    "{{\"event\":\"log\",\"ts_us\":{ts},\"component\":\"{}\",\"message\":\"{}\"{extra}}}",
                    escape_json(component),
                    escape_json(message)
                )
            }
        }
    }
}

/// A destination for telemetry events.
pub trait EventSink: Send + Sync {
    /// Receives one event.
    fn emit(&self, event: &Event);

    /// Flushes buffered output, if any.
    fn flush(&self) {}
}

/// Discards every event.
#[derive(Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &Event) {}
}

/// Writes each event as one JSON line to a writer (file, socket, stderr).
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// Wraps a writer.
    pub fn new(out: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            out: Mutex::new(out),
        }
    }

    /// A sink writing to stderr.
    pub fn stderr() -> JsonlSink {
        JsonlSink::new(Box::new(std::io::stderr()))
    }
}

impl EventSink for JsonlSink {
    fn emit(&self, event: &Event) {
        let mut out = self.out.lock().expect("jsonl writer");
        let _ = writeln!(out, "{}", event.to_json());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("jsonl writer").flush();
    }
}

/// Captures JSONL lines in memory — the test and report sink.
#[derive(Debug, Default)]
pub struct MemorySink {
    lines: Mutex<Vec<String>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A snapshot of the captured JSONL lines.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("memory sink").clone()
    }

    /// Drops captured lines.
    pub fn clear(&self) {
        self.lines.lock().expect("memory sink").clear();
    }
}

impl EventSink for MemorySink {
    fn emit(&self, event: &Event) {
        self.lines
            .lock()
            .expect("memory sink")
            .push(event.to_json());
    }
}

fn sink_slot() -> &'static RwLock<Arc<dyn EventSink>> {
    static SINK: OnceLock<RwLock<Arc<dyn EventSink>>> = OnceLock::new();
    SINK.get_or_init(|| RwLock::new(Arc::new(NullSink)))
}

/// Whether a non-null sink is installed (lets hot paths skip event
/// construction entirely).
static SINK_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Installs the process-wide event sink. Replaces any previous sink.
pub fn set_sink(sink: Arc<dyn EventSink>) {
    *sink_slot().write().expect("sink slot") = sink;
    SINK_ACTIVE.store(true, Ordering::Release);
}

/// Restores the default drop-everything sink.
pub fn disable_sink() {
    SINK_ACTIVE.store(false, Ordering::Release);
    *sink_slot().write().expect("sink slot") = Arc::new(NullSink);
}

/// The currently installed sink.
pub fn sink() -> Arc<dyn EventSink> {
    Arc::clone(&sink_slot().read().expect("sink slot"))
}

/// True when events will actually be recorded somewhere.
pub fn sink_active() -> bool {
    SINK_ACTIVE.load(Ordering::Acquire)
}

/// Emits one event to the installed sink.
pub fn emit(event: &Event) {
    if sink_active() {
        sink().emit(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_to_valid_jsonl_shapes() {
        let open = Event::SpanOpen {
            trace: 1,
            span: 2,
            parent: None,
            name: "a.b".into(),
        };
        let line = open.to_json();
        assert!(line.starts_with("{\"event\":\"span_open\""), "{line}");
        assert!(line.contains("\"parent\":null"));
        assert!(line.contains("\"name\":\"a.b\""));

        let close = Event::SpanClose {
            trace: 1,
            span: 2,
            name: "a.b".into(),
            duration_us: 17,
        };
        assert!(close.to_json().contains("\"duration_us\":17"));

        let log = Event::Log {
            component: "llm".into(),
            message: "access".into(),
            fields: vec![("path".into(), "/v1/completions".into())],
        };
        assert!(log.to_json().contains("\"path\":\"/v1/completions\""));
    }

    #[test]
    fn json_escaping_handles_control_and_quote_characters() {
        let e = Event::Error {
            component: "pipeline".into(),
            kind: "parse".into(),
            message: "bad \"token\"\n\tat byte \u{1}7".into(),
        };
        let line = e.to_json();
        assert!(
            line.contains("bad \\\"token\\\"\\n\\tat byte \\u00017"),
            "{line}"
        );
        // No raw control characters survive.
        assert!(line.chars().all(|c| (c as u32) >= 0x20));
    }

    #[test]
    fn memory_sink_captures_in_order() {
        let sink = MemorySink::new();
        for i in 0..3u64 {
            sink.emit(&Event::CounterDelta {
                name: "x.y".into(),
                delta: 1,
                value: i + 1,
            });
        }
        let lines = sink.lines();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].contains("\"value\":3"));
        sink.clear();
        assert!(sink.lines().is_empty());
    }

    #[test]
    fn jsonl_sink_writes_newline_delimited_records() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::new(Box::new(Shared(Arc::clone(&buf))));
        sink.emit(&Event::CounterDelta {
            name: "a".into(),
            delta: 1,
            value: 1,
        });
        sink.emit(&Event::CounterDelta {
            name: "b".into(),
            delta: 1,
            value: 1,
        });
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }
}
