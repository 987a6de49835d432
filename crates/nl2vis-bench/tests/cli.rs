//! The `experiments` binary's command line: flags and experiments it
//! does not have are refused before any work, and a run folds its results
//! into the files already on disk instead of replacing them.

use nl2vis_data::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn experiments(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the experiments binary starts")
}

/// A fresh, empty directory under Cargo's per-target scratch space; the
/// binary writes its results files into its working directory.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("experiments-cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn unknown_flags_and_experiments_are_refused_before_any_work() {
    let dir = scratch("flags");
    for (args, flag) in [
        (&["hardness", "--fast", "--bogus"][..], "--bogus"),
        (&["serving", "--fast", "--overload=4"][..], "--overload=4"),
        (&["hardnes", "--trace=trace.jsonl"][..], "hardnes"),
    ] {
        let out = experiments(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(!stderr.contains("building corpus"), "{stderr}");
    }
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "a refused run writes nothing"
    );
}

#[test]
fn serving_keeps_the_routing_rows_already_in_the_file() {
    let dir = scratch("fold");
    let file = dir.join("BENCH_serving.json");
    std::fs::write(
        &file,
        r#"{"experiment":"serving","routing":[{"policy":"kept"}]}"#,
    )
    .unwrap();
    let out = experiments(&dir, &["serving", "--fast"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
    let policy = doc
        .get("routing")
        .and_then(|rows| rows.at(0))
        .and_then(|row| row.get("policy"))
        .and_then(Json::as_str);
    assert_eq!(policy, Some("kept"), "the file's routing rows stay");
    assert!(
        doc.get("warm_hit_rate").is_some(),
        "this run's serving fields are written"
    );
}

#[test]
fn a_results_file_that_is_not_an_object_is_left_untouched() {
    let dir = scratch("not-an-object");
    let file = dir.join("BENCH_serving.json");
    std::fs::write(&file, "[1, 2]").unwrap();
    let out = experiments(&dir, &["serving", "--fast"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains("BENCH_serving.json"), "{stderr}");
    assert_eq!(std::fs::read_to_string(&file).unwrap(), "[1, 2]");
}
