//! The repo benchmark. One invocation runs one workload:
//!
//! ```text
//! k2-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scale F] [--dir PATH]
//! ```
//!
//! An untraced run prints the end-to-end metrics; a traced run records
//! spans around the calls into each layer, runs the layer probes and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object with the metrics and the operation counts.
//! See `benchmark/README.md`.

mod data;
mod harness;
mod probes;
mod spec;
mod sys;
mod timed;
mod trace;
mod util;
mod workloads;

use harness::{run_phase, Phase};
use spec::{Metrics, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use sys::{RssTracker, RunDir};
use trace::Tracer;
use util::{class_of_percentile, err, median_f64};
use workloads::batch::Batch;
use workloads::serve::Serve;
use workloads::{Bench, Ctx, SetupTimes};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    dir: PathBuf,
}

/// Scratch root when `--dir` is not given: beside the executable, which
/// is inside the (git-ignored) build directory.
pub fn default_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("k2-bench-runs")))
        .unwrap_or_else(|| PathBuf::from("k2-bench-runs"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
        dir: default_root(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--scale" => args.scale = value.parse().map_err(|_| bad("a number"))?,
            "--dir" => args.dir = PathBuf::from(value),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    if !(args.seconds >= 0.0 && args.scale > 0.0 && args.scale <= 4.0) {
        return Err("--seconds must be >= 0 and --scale in (0, 4]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match args.workload.as_str() {
        "mem_dense" | "lsm_cold" => drive::<Batch>(&args),
        _ => drive::<Serve>(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("k2-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Builds the workload `SETUPS` times, keeping the last.
fn set_up<B: Bench>(args: &Args, run: &RunDir) -> Result<(B, SetupTimes), String> {
    let ctx = Ctx {
        scale: args.scale,
        seed: args.seed,
    };
    let mut times = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for i in 0..SETUPS {
        // The previous environment goes first, so two never share memory,
        // the disk or the port range.
        drop(bench.take());
        if i > 0 {
            let _ = std::fs::remove_dir_all(run.path().join(format!("store-{}", i - 1)));
        }
        let (built, t) = B::build(&args.workload, ctx, &run.sub(&format!("store-{i}")))?;
        times.push(t);
        bench = Some(built);
    }
    let median =
        |f: fn(&SetupTimes) -> f64| median_f64(&mut times.iter().map(f).collect::<Vec<_>>());
    let setup = SetupTimes {
        gen_s: median(|t| t.gen_s),
        load_s: median(|t| t.load_s),
        total_s: median(|t| t.total_s),
    };
    Ok((bench.expect("at least one set-up"), setup))
}

fn drive<B: Bench>(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.dir).map_err(|e| format!("{}: {e}", args.dir.display()))?;
    let run = RunDir::create(&args.dir, &args.workload).map_err(err)?;
    let (mut bench, setup) = set_up::<B>(args, &run)?;
    let t0 = Instant::now();
    bench.prepare_oracle()?;
    let oracle_s = t0.elapsed().as_secs_f64();

    let layout = bench.cycle_counts();
    println!(
        "k2-benchmark workload={} seed={} seconds={} trace={} scale={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale
    );
    println!("  inputs: {}", bench.describe());
    println!("  schedule_hash={:016x} cycle={layout:?} (p50 in class {:?}, p90 in class {:?}) setups={SETUPS} oracle_s={oracle_s:.3}",
        bench.schedule_hash(), class_of_percentile(layout, 0.5), class_of_percentile(layout, 0.9));
    println!(
        "  nproc={} store_fs={} git_rev={} lsm_config={:?}",
        std::thread::available_parallelism().map_or(0, usize::from),
        sys::filesystem_of(run.path()),
        sys::git_rev(),
        k2hop::storage::LsmConfig::default()
    );

    // The generator's output is gone by now, so the high-water mark from
    // here on is the program's own.
    let mut rss = RssTracker::start();
    println!("  rss_mode={}", rss.mode());
    let mut metrics = Metrics::default();
    let (phases, background, declared) = if args.trace {
        let (phases, background) = traced_run(args, bench, &setup, &run, &mut rss, &mut metrics)?;
        (phases, background, PER_LAYER)
    } else {
        let mut cursor = 0;
        let phase = run_phase(&mut bench, &mut cursor, args.seconds, None, &mut rss)?;
        let peak = rss.peak_bytes();
        bench.finish()?;
        metrics.set("setup_s", setup.total_s);
        metrics.set("op_p50_ms", phase.percentile_ms(0.5));
        metrics.set("op_p90_ms", phase.percentile_ms(0.9));
        metrics.set("ops_per_s", phase.ops_per_s());
        metrics.set("peak_rss_mb", peak as f64 / 1e6);
        // The unimodality check: a median sitting between two latency
        // modes of its class would have few samples near it.
        let p50_class =
            class_of_percentile(layout, 0.5).expect("layouts keep the median inside a class");
        println!(
            "  timed: {} ops in {:.3} s, {:.4} ms of process CPU per op; \
             share of median-class ops within ±20% of op_p50_ms: {:.3}",
            phase.samples.len(),
            phase.wall_s,
            phase.cpu_ms_per_op(),
            phase.share_near(p50_class as u8, phase.percentile_ms(0.5))
        );
        (vec![phase], bench.background_ops(), END_TO_END)
    };

    let rows = metrics.in_order(declared)?;
    for (name, value, unit) in &rows {
        println!("metric {name:<34} {value:>16.4} {unit}");
    }
    let (bg_attempted, bg_failed) = background;
    let attempted = phases.iter().map(|p| p.samples.len() as u64).sum::<u64>() + bg_attempted;
    let failed = phases.iter().map(Phase::failed).sum::<u64>() + bg_failed;
    let correct = failed == 0;
    let body: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}", body.join(", "));
    Ok(correct)
}

/// The traced run: half the time untraced, half traced — their medians
/// give the tracing overhead, everything else comes from the traced half
/// — then the in-process replay, the probes, the span file and the
/// `layers` table. Returns the measured phases and the second
/// connection's (attempted, failed) operations.
fn traced_run<B: Bench>(
    args: &Args,
    mut bench: B,
    setup: &SetupTimes,
    run: &RunDir,
    rss: &mut RssTracker,
    metrics: &mut Metrics,
) -> Result<(Vec<Phase>, (u64, u64)), String> {
    let mut cursor = 0;
    let plain = run_phase(&mut bench, &mut cursor, args.seconds / 2.0, None, rss)?;
    let mut tracer = Tracer::new();
    let traced = run_phase(
        &mut bench,
        &mut cursor,
        args.seconds / 2.0,
        Some(&mut tracer),
        rss,
    )?;
    let (observed, detailed) = bench.mine_totals()?;
    bench.finish()?;
    let background = bench.background_ops();
    bench.layer_metrics(setup, metrics);
    metrics.set("datagen.gen_s", setup.gen_s);

    let per_mine = |ns: u64| ns as f64 / 1e6 / observed.mines.max(1) as f64;
    let p = observed.phase_ns;
    metrics.set("core.benchmark_ms", per_mine(p[0]));
    metrics.set("core.intersect_ms", per_mine(p[1]));
    metrics.set("core.hwmt_ms", per_mine(p[2]));
    metrics.set("core.merge_ms", per_mine(p[3]));
    metrics.set("core.extend_ms", per_mine(p[4] + p[5]));
    metrics.set("core.validation_ms", per_mine(p[6]));
    metrics.set(
        "core.attributed_frac",
        p.iter().sum::<u64>() as f64 / observed.mine_ns.max(1) as f64,
    );
    metrics.set(
        "core.convoys",
        observed.convoys as f64 / observed.mines.max(1) as f64,
    );
    let mines = detailed.mines.max(1) as f64;
    metrics.set(
        "core.points_processed",
        detailed.points_processed as f64 / mines,
    );
    metrics.set("core.pruning_ratio", detailed.pruning_ratio_sum / mines);
    metrics.set("storage.fetch_ms", detailed.fetch_ns as f64 / 1e6 / mines);
    metrics.set(
        "storage.fetch_frac",
        detailed.fetch_ns as f64 / detailed.mine_ns.max(1) as f64,
    );
    metrics.set(
        "storage.multi_get_calls",
        detailed.multi_gets as f64 / mines,
    );
    metrics.set("storage.scan_calls", detailed.scans as f64 / mines);

    metrics.set("client.op_p99_ms", traced.percentile_ms(0.99));
    metrics.set("client.op_max_ms", traced.max_ms());
    metrics.set("client.op_mean_ms", traced.mean_ms());
    metrics.set("client.cpu_ms_per_op", traced.cpu_ms_per_op());
    let layers = tracer.layers();
    let op = layers.iter().find(|r| r.name == "client.op");
    metrics.set(
        "client.attributed_frac",
        op.map_or(0.0, |r| 1.0 - r.self_ns as f64 / r.total_ns.max(1) as f64),
    );
    metrics.set(
        "client.trace_overhead_frac",
        traced.percentile_ms(0.5) / plain.percentile_ms(0.5) - 1.0,
    );

    // The workload's environment goes before the probes build theirs.
    drop(bench);
    let ctx = Ctx {
        scale: args.scale,
        seed: args.seed,
    };
    probes::run(ctx, run, metrics)?;

    let trace_path = args
        .dir
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    tracer.write_jsonl(&trace_path).map_err(err)?;
    println!(
        "  untraced half: {} ops, op_p50_ms {:.3}; traced half: {} ops, op_p50_ms {:.3}; {} spans in {}",
        plain.samples.len(),
        plain.percentile_ms(0.5),
        traced.samples.len(),
        traced.percentile_ms(0.5),
        tracer.spans().len(),
        trace_path.display()
    );
    trace::print_layers(&layers, "client.op");
    Ok((vec![plain, traced], background))
}
