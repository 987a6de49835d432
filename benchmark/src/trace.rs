//! The benchmark's span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer of the program; nothing inside the program is
//! instrumented. A span is opened with [`enter`] and closed when the
//! returned guard drops. A span opened while no other span is open on the
//! thread is a request root: it and every span nested under it share the
//! root's id as their request id. Spans stay in per-thread memory until the
//! thread calls [`flush`], and [`take`] collects every flushed span once the
//! run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub req: u64,
    pub id: u64,
    /// The enclosing span's id; 0 for a request root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Local {
    spans: Vec<SpanRec>,
    /// Indexes into `spans` of the spans still open, innermost last.
    open: Vec<usize>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static COLLECTED: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Closes its span on drop.
#[must_use = "the span closes when the guard drops"]
pub struct Guard(usize);

/// Opens a span named `name` under the innermost open span of this thread.
pub fn enter(name: &'static str) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let (req, parent) = match local.open.last() {
            Some(&i) => (local.spans[i].req, local.spans[i].id),
            None => (id, 0),
        };
        let index = local.spans.len();
        local.spans.push(SpanRec {
            req,
            id,
            parent,
            name,
            start_ns: now_ns(),
            end_ns: 0,
        });
        local.open.push(index);
        Guard(index)
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now_ns();
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            local.spans[self.0].end_ns = end;
            if let Some(pos) = local.open.iter().rposition(|&i| i == self.0) {
                local.open.remove(pos);
            }
        });
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = enter(name);
    std::hint::black_box(f())
}

/// Moves this thread's closed spans to the shared collection. Call it at
/// the end of every thread that recorded spans.
pub fn flush() {
    let spans = LOCAL.with(|local| std::mem::take(&mut local.borrow_mut().spans));
    COLLECTED
        .lock()
        .expect("span collection lock poisoned")
        .extend(spans);
}

/// Takes every flushed span, ordered by request and start time.
pub fn take() -> Vec<SpanRec> {
    flush();
    let mut spans = std::mem::take(&mut *COLLECTED.lock().expect("span collection lock poisoned"));
    spans.sort_by_key(|s| (s.req, s.start_ns, s.id));
    spans
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children of one span never overlap, because a request's
/// spans all run on one thread).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            child_ns[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Self times in nanoseconds, grouped by span name.
pub fn self_times_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        by_name.entry(s.name).or_default().push(t as f64);
    }
    by_name
}

/// Durations in nanoseconds of the spans named `name`, grouped by request.
pub fn durations_by_request(spans: &[SpanRec], name: &str) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.req).or_insert(0.0) += s.duration_ns() as f64;
    }
    out
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        writeln!(
            out,
            "{{\"req\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.req, s.id, s.parent, s.name, s.start_ns, s.end_ns, self_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_a_request_and_subtract_children() {
        let spans = vec![
            SpanRec {
                req: 1,
                id: 1,
                parent: 0,
                name: "root",
                start_ns: 0,
                end_ns: 100,
            },
            SpanRec {
                req: 1,
                id: 2,
                parent: 1,
                name: "a",
                start_ns: 10,
                end_ns: 40,
            },
            SpanRec {
                req: 1,
                id: 3,
                parent: 1,
                name: "b",
                start_ns: 50,
                end_ns: 90,
            },
            SpanRec {
                req: 1,
                id: 4,
                parent: 3,
                name: "c",
                start_ns: 60,
                end_ns: 70,
            },
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
        let by_name = self_times_by_name(&spans);
        assert_eq!(by_name["b"], vec![30.0]);
    }

    #[test]
    fn guards_record_the_tree() {
        // Runs on its own thread so the thread-local log holds only these.
        std::thread::spawn(|| {
            {
                let _root = enter("t.root");
                timed("t.child", || std::hint::black_box(1 + 1));
            }
            let local = LOCAL.with(|l| l.borrow().spans.clone());
            assert_eq!(local.len(), 2);
            assert_eq!(local[0].parent, 0);
            assert_eq!(local[1].parent, local[0].id);
            assert_eq!(local[1].req, local[0].id);
            assert!(local.iter().all(|s| s.end_ns >= s.start_ns));
        })
        .join()
        .unwrap();
    }
}
