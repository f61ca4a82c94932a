//! Self-tests of the benchmark command: every workload `BENCHMARK.json`
//! lists runs at self-test size with no failed call, in both modes, and
//! prints exactly the metric names `BENCHMARK.json` registers for that
//! mode.

use std::collections::BTreeSet;
use std::process::Command;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// The `"name"` values inside the top-level array `key` of
/// `BENCHMARK.json`.
fn names_in_section(key: &str) -> BTreeSet<String> {
    let start = BENCHMARK
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let section = &BENCHMARK[start..];
    let section = &section[..section.find(']').expect("array closes")];
    section
        .split("\"name\":")
        .skip(1)
        .map(|rest| {
            let rest = rest.trim_start().strip_prefix('"').expect("quoted name");
            rest[..rest.find('"').expect("name closes")].to_string()
        })
        .collect()
}

/// The metric names in a result line: every key whose value is a
/// `{"value": …}` object.
fn metric_names(line: &str) -> BTreeSet<String> {
    let pieces: Vec<&str> = line.split("\": {\"value\"").collect();
    pieces[..pieces.len() - 1]
        .iter()
        .map(|before| before.rsplit_once('"').expect("quoted key").1.to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_e2e"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_runs_clean_and_prints_the_registered_metrics() {
    let workloads = names_in_section("workloads");
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, ") && line.contains("\"failed\": 0,"),
                "{workload} --trace {trace}: {line}"
            );
            assert_eq!(
                metric_names(&line),
                names_in_section(section),
                "{workload} --trace {trace} prints other metrics than BENCHMARK.json lists"
            );
        }
    }
}

#[test]
fn a_bad_command_line_prints_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_e2e"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
