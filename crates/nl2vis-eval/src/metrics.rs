//! The three evaluation metrics of §4.2 of the paper: Exact Accuracy (AST
//! match), Execution Accuracy (result-data match), and component accuracy.

use nl2vis_data::Database;
use nl2vis_query::ast::VqlQuery;
use nl2vis_query::canon::exact_match;
use nl2vis_query::component::{diff, Component};
use nl2vis_query::{execute, parse};

/// The outcome of scoring one prediction against its gold query.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// AST-level exact match after canonicalization.
    pub exact: bool,
    /// Execution results match (chart type + x/y/series data).
    pub exec: bool,
    /// Components on which the prediction disagrees with gold (empty when
    /// the prediction did not even parse).
    pub components_wrong: Vec<Component>,
    /// The raw model output failed to parse as VQL.
    pub parse_failed: bool,
    /// The serving stack rejected the model's answer (status 422), so no
    /// output reached scoring. Scored like an unparseable answer, but the
    /// failure taxonomy counts it as a rejection, not a parse failure.
    pub rejected: bool,
}

impl EvalOutcome {
    /// A prediction counts as failed when it is neither exactly nor
    /// execution-accurate.
    pub fn failed(&self) -> bool {
        !self.exact && !self.exec
    }

    /// The outcome of an example the model gave no usable prediction for —
    /// a baseline that produced no parse, or (with `rejected` set) an
    /// answer the serving stack rejected: a failure on every metric,
    /// scored like an unparseable answer.
    pub fn no_prediction() -> EvalOutcome {
        EvalOutcome {
            exact: false,
            exec: false,
            components_wrong: Vec::new(),
            parse_failed: true,
            rejected: false,
        }
    }

    /// The placeholder outcome for an example that was never scored because
    /// the transport failed (no completion exists to score). Carried by
    /// [`crate::runner::ExampleResult`]s whose `transport_error` is set;
    /// every aggregate excludes such rows, so none of these fields count
    /// toward any metric.
    pub fn unscored() -> EvalOutcome {
        EvalOutcome {
            exact: false,
            exec: false,
            components_wrong: Vec::new(),
            parse_failed: false,
            rejected: false,
        }
    }
}

/// Scores a raw model completion against the gold query over the database.
/// Accepts both output formalisms: VQL text and direct Vega-Lite JSON (the
/// latter imported through [`nl2vis_vega::import`]).
pub fn score_completion(completion: &str, gold: &VqlQuery, db: &Database) -> EvalOutcome {
    let parsed = nl2vis_llm::extract_vql(completion)
        .and_then(|text| parse(text).ok())
        .or_else(|| {
            let trimmed = completion.trim();
            trimmed
                .starts_with('{')
                .then(|| nl2vis_vega::import::from_vega_lite_text(trimmed).ok())
                .flatten()
        });
    match parsed {
        Some(pred) => score_query(&pred, gold, db),
        None => EvalOutcome {
            exact: false,
            exec: false,
            components_wrong: Vec::new(),
            parse_failed: true,
            rejected: false,
        },
    }
}

/// Scores an already-parsed prediction.
pub fn score_query(pred: &VqlQuery, gold: &VqlQuery, db: &Database) -> EvalOutcome {
    let exact = exact_match(pred, gold);
    let exec = if exact {
        true
    } else {
        match (execute(pred, db), execute(gold, db)) {
            (Ok(p), Ok(g)) => p.same_data(&g),
            _ => false,
        }
    };
    EvalOutcome {
        exact,
        exec,
        components_wrong: diff(gold, pred),
        parse_failed: false,
        rejected: false,
    }
}

/// An accuracy accumulator with the paper's join/non-join breakdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct Accuracy {
    exact_hits: usize,
    exec_hits: usize,
    total: usize,
}

impl Accuracy {
    /// Records one outcome.
    pub fn record(&mut self, outcome: &EvalOutcome) {
        self.total += 1;
        if outcome.exact {
            self.exact_hits += 1;
        }
        if outcome.exec {
            self.exec_hits += 1;
        }
    }

    /// Exact accuracy in [0, 1]; 0 when empty.
    pub fn exact(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.exact_hits as f64 / self.total as f64
        }
    }

    /// Execution accuracy in [0, 1]; 0 when empty.
    pub fn exec(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.exec_hits as f64 / self.total as f64
        }
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.total
    }

    /// Merges another accumulator.
    pub fn merge(&mut self, other: &Accuracy) {
        self.exact_hits += other.exact_hits;
        self.exec_hits += other.exec_hits;
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis_data::schema::{ColumnDef, DatabaseSchema, TableDef};
    use nl2vis_data::value::DataType::*;
    use nl2vis_data::Value;

    fn db() -> Database {
        let mut s = DatabaseSchema::new("d", "x");
        s.tables.push(TableDef::new(
            "payments",
            vec![
                ColumnDef::new("pay_date", Date),
                ColumnDef::new("amount", Int),
                ColumnDef::new("method", Text),
            ],
        ));
        let mut d = Database::new(s);
        let date = |y, m, dd| Value::Date(nl2vis_data::value::Date::new(y, m, dd).unwrap());
        for (t, a, m) in [
            (date(2020, 1, 5), 10, "Card"),
            (date(2020, 1, 9), 20, "Cash"),
            (date(2020, 2, 5), 30, "Card"),
        ] {
            d.insert("payments", vec![t, Value::Int(a), m.into()])
                .unwrap();
        }
        d
    }

    #[test]
    fn exact_implies_exec() {
        let d = db();
        let gold =
            parse("VISUALIZE bar SELECT method , COUNT(method) FROM payments GROUP BY method")
                .unwrap();
        let o = score_query(&gold, &gold, &d);
        assert!(o.exact && o.exec);
        assert!(o.components_wrong.is_empty());
    }

    #[test]
    fn figure5_aliased_queries_execution_equivalent() {
        // The paper's Fig. 5: different SELECT subtrees, identical execution.
        let d = db();
        let gold = parse(
            "VISUALIZE line SELECT pay_date , COUNT(pay_date) FROM payments BIN pay_date BY month",
        )
        .unwrap();
        let pred = parse(
            "VISUALIZE line SELECT pay_date , COUNT(amount) FROM payments BIN pay_date BY month",
        )
        .unwrap();
        let o = score_query(&pred, &gold, &d);
        assert!(!o.exact, "ASTs differ");
        assert!(o.exec, "execution results coincide");
        assert!(!o.failed());
    }

    #[test]
    fn wrong_chart_fails_execution() {
        let d = db();
        let gold =
            parse("VISUALIZE bar SELECT method , COUNT(method) FROM payments GROUP BY method")
                .unwrap();
        let pred =
            parse("VISUALIZE pie SELECT method , COUNT(method) FROM payments GROUP BY method")
                .unwrap();
        let o = score_query(&pred, &gold, &d);
        assert!(!o.exact && !o.exec);
        assert_eq!(o.components_wrong, vec![Component::VisType]);
    }

    #[test]
    fn unexecutable_prediction_fails_exec() {
        let d = db();
        let gold =
            parse("VISUALIZE bar SELECT method , COUNT(method) FROM payments GROUP BY method")
                .unwrap();
        let pred =
            parse("VISUALIZE bar SELECT nonexistent , COUNT(nonexistent) FROM payments").unwrap();
        let o = score_query(&pred, &gold, &d);
        assert!(!o.exec);
    }

    #[test]
    fn parse_failure_scored() {
        let d = db();
        let gold =
            parse("VISUALIZE bar SELECT method , COUNT(method) FROM payments GROUP BY method")
                .unwrap();
        let o = score_completion("I am sorry, I cannot help with that.", &gold, &d);
        assert!(o.parse_failed);
        assert!(o.failed());
    }

    #[test]
    fn completion_with_marker_scored() {
        let d = db();
        let gold =
            parse("VISUALIZE bar SELECT method , COUNT(method) FROM payments GROUP BY method")
                .unwrap();
        let o = score_completion(
            "VQL: VISUALIZE bar SELECT method , COUNT(method) FROM payments GROUP BY method",
            &gold,
            &d,
        );
        assert!(o.exact);
    }

    #[test]
    fn vega_lite_completion_scored() {
        let d = db();
        let gold =
            parse("VISUALIZE bar SELECT method , COUNT(method) FROM payments GROUP BY method")
                .unwrap();
        let spec = r#"{"data":{"name":"payments"},"mark":"bar",
            "encoding":{"x":{"field":"method"},"y":{"aggregate":"count","field":"method"}}}"#;
        let o = score_completion(spec, &gold, &d);
        assert!(o.exec, "imported Vega-Lite must be execution-equivalent");
        // Truncated JSON is a parse failure, not a panic.
        let o = score_completion(&spec[..spec.len() - 6], &gold, &d);
        assert!(o.parse_failed);
    }

    #[test]
    fn accuracy_accumulator() {
        let d = db();
        let gold =
            parse("VISUALIZE bar SELECT method , COUNT(method) FROM payments GROUP BY method")
                .unwrap();
        let bad =
            parse("VISUALIZE pie SELECT method , COUNT(method) FROM payments GROUP BY method")
                .unwrap();
        let mut acc = Accuracy::default();
        acc.record(&score_query(&gold, &gold, &d));
        acc.record(&score_query(&bad, &gold, &d));
        assert_eq!(acc.n(), 2);
        assert!((acc.exact() - 0.5).abs() < 1e-12);
        let mut merged = Accuracy::default();
        merged.merge(&acc);
        merged.merge(&acc);
        assert_eq!(merged.n(), 4);
    }
}
