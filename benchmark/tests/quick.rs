//! Drives whole `--quick` passes of both binaries: the result line keeps
//! its contract, wrong command lines are refused, and on the in-process
//! workloads every count-type per-layer metric repeats exactly for a seed.

use std::collections::BTreeMap;
use std::process::Command;

const E2E: &str = env!("CARGO_BIN_EXE_bench-e2e");
const LAYERS: &str = env!("CARGO_BIN_EXE_bench-layers");
const WORKLOADS: [&str; 4] = ["wire_mixed", "ingest_decay", "query_scan", "consume_cook"];

/// Runs `bin` and returns the last line of its standard output.
fn last_line(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "{bin} {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    text.lines().last().unwrap().to_string()
}

/// `name -> (value, unit)` of a result line's `metrics` object.
fn metrics(line: &str) -> BTreeMap<String, (f64, String)> {
    let body = line.split("\"metrics\": {").nth(1).unwrap();
    body.split("}, ")
        .filter_map(|entry| {
            let name = entry.split('"').nth(1)?;
            let value = entry.split("\"value\": ").nth(1)?.split(',').next()?;
            let unit = entry.split("\"unit\": \"").nth(1)?.split('"').next()?;
            Some((name.to_string(), (value.parse().ok()?, unit.to_string())))
        })
        .collect()
}

#[test]
fn quick_end_to_end_pass_keeps_the_result_contract_on_every_workload() {
    for w in WORKLOADS {
        let line = last_line(
            E2E,
            &[
                "--workload",
                w,
                "--seed",
                "3",
                "--seconds",
                "20",
                "--trace",
                "0",
                "--quick",
            ],
        );
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{w}: {line}"
        );
        assert!(
            line.contains("\"failed\": 0, \"metrics\": {"),
            "{w}: {line}"
        );
        let m = metrics(&line);
        let names: Vec<&str> = m.keys().map(String::as_str).collect();
        let mut expected = vec![
            "setup_s",
            "peak_rss_mb",
            "ops_per_s",
            "cpu_us_per_op",
            "insert_p50_us",
            "insert_p95_us",
            "query_p50_us",
            "query_p95_us",
            "tick_p50_ms",
            "tick_p95_ms",
        ];
        expected.sort_unstable();
        assert_eq!(names, expected, "{w}");
        assert_eq!(m["setup_s"].1, "s");
        for (name, (value, _)) in &m {
            // cpu_us_per_op reads the 10 ms process clock: a quick pass
            // may be over before it moves.
            assert!(
                *value > 0.0 || name == "cpu_us_per_op",
                "{w}: {name} = {value}"
            );
        }
    }
}

#[test]
fn a_second_seed_runs_clean() {
    for seed in ["11", "12"] {
        let line = last_line(
            E2E,
            &["--workload", "consume_cook", "--seed", seed, "--quick"],
        );
        assert!(
            line.starts_with("{\"correct\": true"),
            "seed {seed}: {line}"
        );
        assert!(line.contains("\"failed\": 0,"), "seed {seed}: {line}");
    }
}

#[test]
fn bad_command_lines_exit_non_zero_without_a_result() {
    for (bin, args) in [
        (E2E, vec!["--workload", "nope"]),
        (E2E, vec!["--trace", "1", "--workload", "query_scan"]),
        (LAYERS, vec!["--trace", "0", "--workload", "query_scan"]),
        (LAYERS, vec!["--seconds"]),
    ] {
        let out = Command::new(bin).args(&args).output().unwrap();
        assert!(!out.status.success(), "{bin} {args:?}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed a result");
    }
}

#[test]
fn counts_repeat_exactly_for_a_seed_on_the_in_process_workloads() {
    for w in ["ingest_decay", "query_scan", "consume_cook"] {
        let args = [
            "--workload",
            w,
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "1",
            "--quick",
        ];
        let a = metrics(&last_line(LAYERS, &args));
        let b = metrics(&last_line(LAYERS, &args));
        assert_eq!(a.len(), 59, "{w}");
        let counts: Vec<&String> = a
            .iter()
            .filter(|(name, (_, unit))| {
                (unit == "count" || name.starts_with("query.")) && !name.starts_with("query.parse")
            })
            .map(|(name, _)| name)
            .collect();
        assert!(counts.len() >= 25, "{w}: {counts:?}");
        for name in counts {
            assert_eq!(a[name].0, b[name].0, "{w}: {name} differs between two runs");
        }
        assert!(a["bench.trace_coverage_frac"].0 > 0.95, "{w}");
        assert_eq!(a["server.errors"].0, 0.0);
        assert_eq!(a["server.requests"].0, a["server.responses"].0);
    }
}
