//! Failure taxonomy (RQ3-1, Fig. 11 of the paper): classify failed
//! predictions by the visualization-query component they got wrong, split
//! into the *visual part* (chart type, axes) and the *data part* (join,
//! conditions, binning, grouping, nesting).

use crate::runner::EvalReport;
use nl2vis_query::component::Component;
use std::collections::BTreeMap;

/// One bucket of the failure taxonomy.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureBucket {
    /// Bucket name as in Fig. 11 ("type", "x-axis", "cond", ...).
    pub name: &'static str,
    /// Visual part (true) vs data part (false).
    pub visual: bool,
    /// Number of failures attributed to this bucket.
    pub count: usize,
    /// Share of all attributions.
    pub share: f64,
}

/// The aggregated failure taxonomy.
#[derive(Debug, Clone, Default)]
pub struct FailureTaxonomy {
    /// Buckets sorted by descending share.
    pub buckets: Vec<FailureBucket>,
    /// Number of failed examples analyzed.
    pub failures: usize,
    /// Failures whose output did not even parse as VQL.
    pub parse_failures: usize,
    /// Failures whose answer the serving stack rejected (status 422): the
    /// model answered, the validation gate refused it, so nothing reached
    /// scoring. Failed examples like any other, but not parse failures.
    pub rejections: usize,
    /// Examples whose *transport* failed. These are infrastructure
    /// failures, never attributed to any model bucket: the model produced
    /// no output to classify, so folding them into the taxonomy (as the
    /// old string-folding transport once did) would corrupt it.
    pub transport_failures: usize,
}

impl FailureTaxonomy {
    /// Builds the taxonomy from an evaluation report.
    pub fn from_report(report: &EvalReport) -> FailureTaxonomy {
        let mut counts: BTreeMap<&'static str, (bool, usize)> = BTreeMap::new();
        let mut failures = 0usize;
        let mut parse_failures = 0usize;
        let mut rejections = 0usize;
        let mut transport_failures = 0usize;
        for r in &report.results {
            if !r.scored() {
                transport_failures += 1;
                continue;
            }
            if !r.outcome.failed() {
                continue;
            }
            failures += 1;
            if r.outcome.rejected {
                rejections += 1;
                continue;
            }
            if r.outcome.parse_failed {
                parse_failures += 1;
                continue;
            }
            // Attribute to each distinct bucket the prediction got wrong.
            let mut seen = std::collections::HashSet::new();
            for c in &r.outcome.components_wrong {
                let bucket = c.bucket();
                if seen.insert(bucket) {
                    let slot = counts.entry(bucket).or_insert((c.is_visual(), 0));
                    slot.1 += 1;
                }
            }
        }
        let total: usize = counts.values().map(|(_, n)| n).sum();
        let mut buckets: Vec<FailureBucket> = counts
            .into_iter()
            .map(|(name, (visual, count))| FailureBucket {
                name,
                visual,
                count,
                share: if total == 0 {
                    0.0
                } else {
                    count as f64 / total as f64
                },
            })
            .collect();
        buckets.sort_by(|a, b| b.count.cmp(&a.count).then(a.name.cmp(b.name)));
        FailureTaxonomy {
            buckets,
            failures,
            parse_failures,
            rejections,
            transport_failures,
        }
    }

    /// Share of attributions in the visual part.
    pub fn visual_share(&self) -> f64 {
        self.buckets
            .iter()
            .filter(|b| b.visual)
            .map(|b| b.share)
            .sum()
    }

    /// Share of attributions in the data part.
    pub fn data_share(&self) -> f64 {
        self.buckets
            .iter()
            .filter(|b| !b.visual)
            .map(|b| b.share)
            .sum()
    }

    /// Share of one named bucket.
    pub fn share_of(&self, name: &str) -> f64 {
        self.buckets
            .iter()
            .find(|b| b.name == name)
            .map(|b| b.share)
            .unwrap_or(0.0)
    }

    /// Renders the taxonomy as an aligned text table. Rejections are
    /// listed only when there are some.
    pub fn to_text(&self) -> String {
        let rejected = match self.rejections {
            0 => String::new(),
            n => format!("; rejected: {n}"),
        };
        let mut out = format!(
            "failures: {} (unparseable: {}{rejected}; transport, excluded: {})\nvisual part: {:.1}%  data part: {:.1}%\n",
            self.failures,
            self.parse_failures,
            self.transport_failures,
            self.visual_share() * 100.0,
            self.data_share() * 100.0
        );
        for b in &self.buckets {
            out.push_str(&format!(
                "  {:<8} {:>5.1}%  ({} failures, {} part)\n",
                b.name,
                b.share * 100.0,
                b.count,
                if b.visual { "visual" } else { "data" }
            ));
        }
        out
    }
}

/// Maps a component list to its primary bucket (most severe first): used by
/// tests and the experiment harness to label single failures.
pub fn primary_bucket(components: &[Component]) -> Option<&'static str> {
    // Data-part issues dominate the paper's taxonomy; prefer them when both
    // parts went wrong (a wrong filter usually also shifts the y data).
    let priority = [
        Component::Subquery,
        Component::TableJoin,
        Component::Where,
        Component::Bin,
        Component::Group,
        Component::Order,
        Component::AxisY,
        Component::AxisX,
        Component::VisType,
    ];
    priority
        .into_iter()
        .find(|p| components.contains(p))
        .map(|c| c.bucket())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::score_query;
    use crate::runner::ExampleResult;
    use nl2vis_corpus::Hardness;
    use nl2vis_data::schema::{ColumnDef, DatabaseSchema, TableDef};
    use nl2vis_data::value::DataType::*;
    use nl2vis_data::{Database, Value};
    use nl2vis_query::parse;

    fn db() -> Database {
        let mut s = DatabaseSchema::new("d", "x");
        s.tables.push(TableDef::new(
            "t",
            vec![ColumnDef::new("a", Text), ColumnDef::new("b", Int)],
        ));
        let mut d = Database::new(s);
        for (a, b) in [("x", 1), ("y", 2), ("x", 3)] {
            d.insert("t", vec![a.into(), Value::Int(b)]).unwrap();
        }
        d
    }

    fn result(pred: &str, gold: &str) -> ExampleResult {
        let d = db();
        let outcome = score_query(&parse(pred).unwrap(), &parse(gold).unwrap(), &d);
        ExampleResult {
            id: 0,
            outcome,
            is_join: false,
            hardness: Hardness::Easy,
            completion: None,
            transport_error: None,
            trace_id: 0,
        }
    }

    #[test]
    fn taxonomy_counts_buckets() {
        let report = EvalReport {
            results: vec![
                result(
                    "VISUALIZE pie SELECT a , COUNT(a) FROM t GROUP BY a",
                    "VISUALIZE bar SELECT a , COUNT(a) FROM t GROUP BY a",
                ),
                result(
                    "VISUALIZE bar SELECT a , COUNT(a) FROM t GROUP BY a",
                    "VISUALIZE bar SELECT a , COUNT(a) FROM t WHERE b > 1 GROUP BY a",
                ),
                result(
                    "VISUALIZE bar SELECT a , COUNT(a) FROM t GROUP BY a",
                    "VISUALIZE bar SELECT a , COUNT(a) FROM t GROUP BY a",
                ),
            ],
            ..Default::default()
        };
        let tax = FailureTaxonomy::from_report(&report);
        assert_eq!(tax.failures, 2);
        assert!(tax.share_of("type") > 0.0);
        assert!(tax.share_of("cond") > 0.0);
        assert!((tax.visual_share() + tax.data_share() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn correct_predictions_ignored() {
        let report = EvalReport {
            results: vec![result(
                "VISUALIZE bar SELECT a , COUNT(a) FROM t GROUP BY a",
                "VISUALIZE bar SELECT a , COUNT(a) FROM t GROUP BY a",
            )],
            ..Default::default()
        };
        let tax = FailureTaxonomy::from_report(&report);
        assert_eq!(tax.failures, 0);
        assert!(tax.buckets.is_empty());
    }

    #[test]
    fn transport_failures_are_counted_but_never_bucketed() {
        use crate::metrics::EvalOutcome;
        let mut transport = result(
            "VISUALIZE bar SELECT a , COUNT(a) FROM t GROUP BY a",
            "VISUALIZE bar SELECT a , COUNT(a) FROM t GROUP BY a",
        );
        transport.outcome = EvalOutcome::unscored();
        transport.transport_error = Some("transport error (timeout, 3 attempts): ...".to_string());
        let report = EvalReport {
            results: vec![
                transport,
                result(
                    "VISUALIZE pie SELECT a , COUNT(a) FROM t GROUP BY a",
                    "VISUALIZE bar SELECT a , COUNT(a) FROM t GROUP BY a",
                ),
            ],
            ..Default::default()
        };
        let tax = FailureTaxonomy::from_report(&report);
        // The transport row is not a model failure: one genuine failure,
        // one transport failure, zero parse failures.
        assert_eq!(tax.failures, 1);
        assert_eq!(tax.transport_failures, 1);
        assert_eq!(tax.parse_failures, 0);
        assert!(tax.share_of("type") > 0.0);
        assert!(tax.to_text().contains("transport, excluded: 1"));
        // The accuracy denominator excludes the transport row too.
        assert_eq!(report.overall().n(), 1);
        assert_eq!(report.transport_failures(), 1);
        assert_eq!(report.failed_ids().len(), 1);
    }

    #[test]
    fn primary_bucket_prefers_data_part() {
        let cs = vec![Component::VisType, Component::Where];
        assert_eq!(primary_bucket(&cs), Some("cond"));
        assert_eq!(primary_bucket(&[Component::VisType]), Some("type"));
        assert_eq!(primary_bucket(&[]), None);
    }

    #[test]
    fn text_rendering() {
        let report = EvalReport {
            results: vec![result(
                "VISUALIZE pie SELECT a , COUNT(a) FROM t GROUP BY a",
                "VISUALIZE bar SELECT a , COUNT(a) FROM t GROUP BY a",
            )],
            ..Default::default()
        };
        let text = FailureTaxonomy::from_report(&report).to_text();
        assert!(text.contains("failures: 1"));
        assert!(text.contains("type"));
    }
}
