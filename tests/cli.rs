//! End-to-end smoke tests of the `k2` command-line tool.

use std::path::PathBuf;
use std::process::Command;

fn k2() -> Command {
    Command::new(env!("CARGO_BIN_EXE_k2"))
}

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("k2cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d.join(name)
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn k2");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn generate_stats_mine_convert_round_trip() {
    let bin = tmp("flow.bin");
    let csv = tmp("flow.csv");

    let out = run_ok(k2().args([
        "generate",
        "inject",
        "--out",
        bin.to_str().unwrap(),
        "--seed",
        "3",
        "--objects",
        "60",
        "--timestamps",
        "90",
        "--convoys",
        "2",
    ]));
    assert!(out.contains("points"), "{out}");

    let out = run_ok(k2().args(["stats", bin.to_str().unwrap()]));
    assert!(out.contains("objects         : 68"), "{out}");
    assert!(out.contains("timestamps      : 90"), "{out}");

    // Mining finds the two planted convoys with every algorithm we probe.
    for algo in ["k2hop", "vcoda-star", "k2hop-parallel"] {
        let out = run_ok(k2().args([
            "mine",
            bin.to_str().unwrap(),
            "--m",
            "3",
            "--k",
            "25",
            "--eps",
            "1.0",
            "--algo",
            algo,
            "--quiet",
        ]));
        assert!(out.starts_with("2 convoys"), "{algo}: {out}");
    }

    // Engine variants agree too.
    for engine in ["rdbms", "lsmt"] {
        let out = run_ok(k2().args([
            "mine",
            bin.to_str().unwrap(),
            "--m",
            "3",
            "--k",
            "25",
            "--eps",
            "1.0",
            "--engine",
            engine,
            "--quiet",
        ]));
        assert!(out.starts_with("2 convoys"), "{engine}: {out}");
    }

    // A pattern is an engine: `--pattern flock` runs the flock miner.
    let out = run_ok(k2().args([
        "mine",
        bin.to_str().unwrap(),
        "--m",
        "3",
        "--k",
        "25",
        "--eps",
        "1.0",
        "--pattern",
        "flock",
        "--engine",
        "lsmt",
        "--quiet",
    ]));
    assert!(out.contains("engine flock-k2hop"), "{out}");

    // Binary -> CSV -> binary preserves the dataset.
    run_ok(k2().args(["convert", bin.to_str().unwrap(), csv.to_str().unwrap()]));
    let bin2 = tmp("flow2.bin");
    run_ok(k2().args(["convert", csv.to_str().unwrap(), bin2.to_str().unwrap()]));
    let a = std::fs::read(&bin).unwrap();
    let b = std::fs::read(&bin2).unwrap();
    assert_eq!(a, b, "binary -> csv -> binary must round-trip");
}

/// Only `--algo k2hop` has a flock engine; any other algorithm is refused
/// before the input is even read.
#[test]
fn flock_pattern_requires_algo_k2hop() {
    let out = k2()
        .args([
            "mine",
            "/nonexistent.bin",
            "--m",
            "3",
            "--k",
            "25",
            "--eps",
            "1.0",
            "--pattern",
            "flock",
            "--algo",
            "pccd",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--pattern flock is valid only with --algo k2hop"),
        "{stderr}"
    );
}

#[test]
fn bad_usage_fails_with_help() {
    let out = k2().arg("mine").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "{stderr}");

    let out = k2().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());

    let out = k2()
        .args([
            "mine",
            "/nonexistent.bin",
            "--m",
            "3",
            "--k",
            "5",
            "--eps",
            "1",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn help_prints_usage() {
    let out = run_ok(k2().arg("help"));
    assert!(out.contains("usage"));
    assert!(out.contains("k2hop-parallel"));
}
