//! End-to-end smoke tests of the `k2` command-line tool.

mod common;

use common::TempDir;
use k2hop::model::Point;
use k2hop::server::{Request, Response, TcpClient};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

fn k2() -> Command {
    Command::new(env!("CARGO_BIN_EXE_k2"))
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
    let dir = TempDir::new("cli");
    let bin = dir.join("flow.bin");
    let csv = dir.join("flow.csv");

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

    // Mining finds the two planted convoys with every algorithm we probe,
    // and with k/2-hop on any number of threads.
    for algo in [
        &["--algo", "k2hop"][..],
        &["--algo", "vcoda-star"],
        &["--algo", "k2hop", "--threads", "4"],
    ] {
        let out = run_ok(
            k2().args([
                "mine",
                bin.to_str().unwrap(),
                "--m",
                "3",
                "--k",
                "25",
                "--eps",
                "1.0",
                "--quiet",
            ])
            .args(algo),
        );
        assert!(out.starts_with("2 convoys"), "{algo:?}: {out}");
    }

    // Engine variants agree too, for k/2-hop and the baselines alike:
    // `--engine` reaches every algorithm.
    for algo in ["k2hop", "vcoda-star", "spare"] {
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
                "--algo",
                algo,
                "--engine",
                engine,
                "--quiet",
            ]));
            assert!(out.starts_with("2 convoys"), "{algo} {engine}: {out}");
            assert!(out.contains(" points processed)"), "{algo} {engine}: {out}");
        }
        let bad_engine = k2()
            .args(["mine", bin.to_str().unwrap(), "--m", "3", "--k", "25"])
            .args(["--eps", "1.0", "--algo", algo, "--engine", "nosuch"])
            .output()
            .unwrap();
        assert!(!bad_engine.status.success(), "{algo} ignored --engine");
    }

    // A pattern is an engine: `--pattern flock` runs k/2-hop with a disk
    // grouping, on the workers `--threads` asks for, and reports its
    // pruning like the convoy miner.
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
        "--threads",
        "2",
        "--quiet",
    ]));
    assert!(out.contains("engine flock-k2hop, pruned "), "{out}");
    assert!(out.contains("% of 6120 points"), "{out}");

    // Binary -> CSV -> binary preserves the dataset.
    run_ok(k2().args(["convert", bin.to_str().unwrap(), csv.to_str().unwrap()]));
    let bin2 = dir.join("flow2.bin");
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
    assert!(out.contains("k2hop (default)"));
}

/// Output into a pipe whose reader is gone (`k2 stats f | head -0`) ends
/// the command quietly: exit 0, no panic, no error.
#[test]
fn closed_stdout_is_a_quiet_success() {
    let dir = TempDir::new("cli");
    let bin = dir.join("pipe.bin");
    let path = bin.to_str().unwrap();
    run_ok(k2().args(["generate", "inject", "--out", path, "--seed", "3"]));
    for args in [
        &["stats", path][..],
        &["mine", path, "--m", "3", "--k", "25", "--eps", "1.0"][..],
    ] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = k2().args(args).stdout(writer).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?}\n{stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.contains("error"), "{args:?}: {stderr}");
    }
}

/// A running `k2 serve`, SIGKILLed when dropped so a failing test leaves
/// no server behind.
struct Served {
    child: Child,
    addr: String,
    /// Held open, so a later line the server prints has a reader.
    _stdout: BufReader<ChildStdout>,
}

impl Served {
    /// Starts `k2 serve [file] --addr 127.0.0.1:0 --dir <dir>` and waits
    /// for the address it reports.
    fn start(file: Option<&Path>, dir: &Path) -> Self {
        let mut cmd = k2();
        cmd.arg("serve");
        if let Some(file) = file {
            cmd.arg(file);
        }
        let mut child = cmd
            .args(["--addr", "127.0.0.1:0", "--dir", dir.to_str().unwrap()])
            .args(["--workers", "2"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn k2 serve");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stdout.read_line(&mut line).expect("k2 serve stdout");
            assert!(n > 0, "k2 serve exited before serving");
            if let Some(rest) = line.strip_prefix("serving on ") {
                break rest.split_whitespace().next().unwrap().to_string();
            }
        };
        Self {
            child,
            addr,
            _stdout: stdout,
        }
    }

    fn client(&self) -> TcpClient {
        TcpClient::connect(&self.addr).expect("connect to k2 serve")
    }

    /// SIGKILL: no destructor, no flush, no chance to sync anything.
    fn kill(mut self) {
        self.child.kill().unwrap();
        self.child.wait().unwrap();
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn num_points(client: &mut TcpClient) -> u64 {
    match client.request(&Request::Stats { quiesce: false }).unwrap() {
        Response::Stats(s) => s.num_points,
        other => panic!("expected stats, got {other:?}"),
    }
}

/// Every point an `Ingested` reply acknowledged survives a SIGKILL of
/// `k2 serve`: the restarted server on the same directory counts the
/// bulk-loaded points plus every acknowledged one. This covers a process
/// crash, where written-but-unsynced bytes survive in the page cache; a
/// power loss, which drops them, needs a simulated disk and is not
/// covered here.
#[test]
fn acknowledged_ingests_survive_a_killed_server() {
    let tmp = TempDir::new("cli");
    let bin = tmp.join("crash.bin");
    let dir = tmp.join("crash-store");
    run_ok(k2().args([
        "generate",
        "inject",
        "--out",
        bin.to_str().unwrap(),
        "--seed",
        "7",
        "--objects",
        "40",
        "--timestamps",
        "50",
        "--convoys",
        "1",
    ]));

    let server = Served::start(Some(&bin), &dir);
    let mut client = server.client();
    let loaded = num_points(&mut client);
    assert!(loaded > 0);
    // Several batches past the loaded span, each acknowledged before the
    // next is sent.
    let mut acked = 0;
    for batch in 0..6u32 {
        let points: Vec<Point> = (0..700u32)
            .map(|oid| Point::new(oid, f64::from(oid), f64::from(batch), 1000 + batch))
            .collect();
        match client.request(&Request::Ingest { points }).unwrap() {
            Response::Ingested { count, .. } => acked += count,
            other => panic!("expected ingested, got {other:?}"),
        }
    }
    assert_eq!(acked, 6 * 700);
    server.kill();

    let server = Served::start(None, &dir);
    assert_eq!(num_points(&mut server.client()), loaded + acked);
}
