//! The result of one run and its printed forms.

use crate::stats::valid_metric_name;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run attempted, what failed its output check, and what it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Errors, refusals (429), answers that differ from the expected ones,
    /// and results that never arrived.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (flags, sample counts, file paths).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.problems().is_empty()
    }

    /// Reasons the metric list itself is unusable: bad or repeated names and
    /// values that are not finite numbers.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if !valid_metric_name(m.name) {
                out.push(format!("invalid metric name `{}`", m.name));
            }
            if self.metrics[..i].iter().any(|p| p.name == m.name) {
                out.push(format!("metric `{}` reported twice", m.name));
            }
            if !m.value.is_finite() {
                out.push(format!("metric `{}` is not a finite number", m.name));
            }
        }
        out
    }

    /// The last line of the run's output.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// One `name value unit` line per metric, then the notes.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let fail_rate = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "attempted {}  failed {}  fail_rate {fail_rate:.6} ratio\n",
            self.attempted, self.failed
        ));
        for m in &self.metrics {
            out.push_str(&format!("{:<28} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        for problem in self.problems() {
            out.push_str(&format!("# PROBLEM: {problem}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_digit_and_the_verdict() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.push("latency_ms", 1.2034567891, "ms");
        o.push("setup_s", 0.8127, "s");
        assert_eq!(
            o.json(),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"latency_ms\":{\"value\":1.2034567891,\"unit\":\"ms\"},\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
        o.failed = 1;
        assert!(o.json().starts_with("{\"correct\":false"));
    }

    #[test]
    fn repeated_or_invalid_names_make_the_run_incorrect() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.push("a", 1.0, "s");
        assert!(o.correct());
        o.push("a", 2.0, "s");
        assert!(!o.correct());
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.push("bad name", 1.0, "s");
        assert!(!o.correct());
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.push("nan", f64::NAN, "s");
        assert!(!o.correct());
        assert!(o.json().contains("\"value\":0.0"));
    }
}
