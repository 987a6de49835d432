//! A short run of every workload, untraced and traced, must pass its output
//! checks and report every metric `BENCHMARK.json` names, with its unit.

use nl2vis_data::Json;
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

fn spec() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn named(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_nl2vis-benchmark"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn check(workload: &str) {
    let spec = spec();
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let result = run(workload, trace);
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(
            result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
                >= 1.0
        );
        let metrics = result.get("metrics").expect("metrics");
        let wanted = named(&spec, list);
        for (name, unit) in &wanted {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload} trace={trace} lacks `{name}`"));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
        }
        let reported = match metrics {
            Json::Object(fields) => fields.len(),
            _ => panic!("metrics is an object"),
        };
        assert_eq!(
            reported,
            wanted.len(),
            "{workload} trace={trace} reports extra metrics"
        );
    }
}

#[test]
fn eval_study_reports_every_metric() {
    check("eval-study");
}

#[test]
fn serve_open_reports_every_metric() {
    check("serve-open");
}

#[test]
fn serve_tiered_cached_reports_every_metric() {
    check("serve-tiered-cached");
}

#[test]
fn spec_names_are_valid_and_unique() {
    let spec = spec();
    let mut names: Vec<String> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|list| named(&spec, list))
        .map(|(name, _)| name)
        .collect();
    for name in &names {
        assert!(
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "{name}"
        );
    }
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "metric names repeat");
}
