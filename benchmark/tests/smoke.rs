//! Smoke mode: every workload, untraced and traced, at `--scale 0.05`
//! for one second — the whole command line, the oracle, the span
//! recorder and the probes, in well under a minute.

use std::process::Command;

const WORKLOADS: [&str; 5] = [
    "mem_dense",
    "lsm_cold",
    "serve_wire",
    "serve_ingest",
    "ingest_live",
];

struct Run {
    stdout: String,
}

impl Run {
    fn result(&self) -> &str {
        self.stdout.lines().last().expect("a result line")
    }

    fn header(&self, key: &str) -> String {
        let at = self
            .stdout
            .find(key)
            .unwrap_or_else(|| panic!("{key} in the header"))
            + key.len();
        self.stdout[at..]
            .split_whitespace()
            .next()
            .expect("a value")
            .to_string()
    }
}

fn run(workload: &str, seed: u64, seconds: &str, trace: &str) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_k2-benchmark"))
        .args([
            "--workload",
            workload,
            "--scale",
            "0.05",
            "--seconds",
            seconds,
            "--trace",
            trace,
        ])
        .args(["--seed", &seed.to_string()])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    Run {
        stdout: String::from_utf8(out.stdout).expect("utf-8 output"),
    }
}

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let body = &json[json.find(&format!("\"{section}\"")).expect("section")..];
    let body = &body[..body.find(']').expect("array end")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

fn assert_reports(run: &Run, names: &[String], what: &str) {
    let result = run.result();
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": "),
        "{what}: {result}"
    );
    assert!(result.contains("\"failed\": 0,"), "{what}: {result}");
    for name in names {
        assert!(
            result.contains(&format!("\"{name}\": {{\"value\": ")),
            "{what}: no {name} in {result}"
        );
    }
    let printed = result.matches("{\"value\": ").count();
    assert_eq!(
        printed,
        names.len(),
        "{what}: metrics nobody declared in {result}"
    );
}

#[test]
fn every_workload_runs_untraced_and_reports_the_end_to_end_metrics() {
    let names = declared("end_to_end");
    for workload in WORKLOADS {
        assert_reports(&run(workload, 3, "1", "0"), &names, workload);
    }
}

#[test]
fn every_workload_runs_traced_and_reports_the_per_layer_metrics() {
    let names = declared("per_layer");
    for workload in WORKLOADS {
        let traced = run(workload, 3, "1", "1");
        assert_reports(&traced, &names, workload);
        assert!(
            traced.stdout.contains("layers (self time per span"),
            "{workload}: no layers table"
        );
        assert!(
            traced.stdout.contains("client.op"),
            "{workload}: no root span"
        );
    }
}

#[test]
fn a_seed_fixes_the_schedule() {
    for workload in ["mem_dense", "serve_ingest", "ingest_live"] {
        let hash = |seed| run(workload, seed, "0", "0").header("schedule_hash=");
        let first = hash(11);
        assert_eq!(first, hash(11), "{workload}: same seed, same schedule");
        assert_ne!(
            first,
            hash(12),
            "{workload}: another seed, another schedule"
        );
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_k2-benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
