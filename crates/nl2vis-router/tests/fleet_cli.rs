//! The `fleet` binary's command line: without a subcommand it refuses to
//! start and prints a usage that names the binary Cargo builds.

use std::process::Command;

#[test]
fn no_subcommand_exits_2_with_a_usage_naming_fleet() {
    let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .output()
        .expect("the fleet binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let usage = stderr
        .split_once("usage:")
        .map(|(_, usage)| usage)
        .unwrap_or_else(|| panic!("no usage in {stderr:?}"));
    let commands: Vec<&str> = usage
        .lines()
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    assert_eq!(commands, ["fleet", "fleet"], "{stderr}");
}
