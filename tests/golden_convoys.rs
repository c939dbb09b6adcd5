//! End-to-end golden-output regression tests.
//!
//! Four fixed-seed workloads — Brinkhoff network traffic (metric
//! coordinates), Trucks depot runs and T-Drive taxi platoons (both
//! lat/lon degree coordinates, which also pin the geo-scale CSR grid
//! path), at `m = 2`, plus a denser T-Drive at `m = 3` (border points on
//! the grid path) — are mined end to end and the *full* sorted convoy
//! output is asserted against committed expectations under
//! `tests/golden/`. Both engines — `K2Hop` probing the source point by
//! point, `K2HopParallel` over the resident dataset and over prefetched
//! hop-window slabs — must reproduce the files bit for bit at several
//! worker counts, so a future refactor cannot silently change mining
//! results and still pass CI. The fetch work behind the output is pinned
//! too: the points each phase examines and the queries the store sees
//! are fixed per fixture, and every engine accounts them through the
//! same counters; so is how often benchmark clustering patched the
//! previous snapshot's grid instead of rebuilding it.
//!
//! `points` and `queries` differ by what validation answers from the
//! run's record of intact reclusters: `validation_points` counts every
//! point validation examined — the paper's Table 5 accounting, whether
//! read or recorded — while `point_queries` counts only what the store
//! was actually asked for.
//!
//! To regenerate after an *intentional* semantic change:
//!
//! ```sh
//! K2_UPDATE_GOLDEN=1 cargo test --test golden_convoys
//! ```
//!
//! and commit the diff under `tests/golden/` together with the change
//! that explains it.

use k2hop::core::benchpoints::benchmark_points;
use k2hop::core::{ConvoyMiner, K2Config, K2Hop, K2HopParallel, PrefetchStats, PruningStats};
use k2hop::datagen::brinkhoff::BrinkhoffConfig;
use k2hop::datagen::tdrive::TDriveConfig;
use k2hop::datagen::trucks::TrucksConfig;
use k2hop::model::{Convoy, Dataset, ObjPos, Time};
use k2hop::storage::{InMemoryStore, TimeRange};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.golden"))
}

/// Canonical text form: one convoy per line, `start-end: oid,oid,...`,
/// in the miners' canonical sorted order.
fn render(convoys: &[Convoy]) -> String {
    let mut s = String::new();
    for c in convoys {
        let _ = write!(s, "{}-{}:", c.start(), c.end());
        for (i, oid) in c.objects.iter().enumerate() {
            let _ = write!(s, "{}{oid}", if i == 0 { " " } else { "," });
        }
        s.push('\n');
    }
    s
}

/// The fetch work of one fixture under `K2Hop::with_threads(cfg, 1)` over
/// a fresh `InMemoryStore` — the path every benchmark workload runs.
struct FetchWork {
    /// `(benchmark_points, hwmt_points, extend_points, validation_points)`.
    points: (u64, u64, u64, u64),
    /// `(point_queries, range_queries)` the store counted: one point
    /// query per object of every probe HWMT and extension read, and of
    /// every validation probe the record did not answer.
    queries: (u64, u64),
    /// `(grid_builds, grid_patches)` of benchmark clustering. Pinned for
    /// this one-worker run only: each worker patches its own grid, so
    /// the split moves with the thread count.
    grid: (u64, u64),
    /// `hwmt_points` when the hop-windows are prefetched as slabs (each
    /// fetches its whole candidate union) instead of probed one by one.
    slab_hwmt_points: u64,
}

/// Mines `dataset` with the sequential miner at several worker counts and
/// the parallel miner at several worker counts, asserts they all agree —
/// on the convoys and on the work they account — and diffs the canonical
/// output against `tests/golden/<name>.golden`.
fn golden_check(name: &str, dataset: Dataset, cfg: K2Config, work: FetchWork) {
    let store = InMemoryStore::new(dataset.clone());
    let outcome = K2Hop::with_threads(cfg, 1)
        .mine(&store)
        .expect("in-memory mining cannot fail");
    let pruning = outcome.stats.pruning;
    assert_eq!(
        (
            pruning.benchmark_points,
            pruning.hwmt_points,
            pruning.extend_points,
            pruning.validation_points
        ),
        work.points,
        "{name}: points fetched per phase"
    );
    assert_eq!(
        (outcome.io.point_queries, outcome.io.range_queries),
        work.queries,
        "{name}: queries the store saw"
    );
    assert_eq!(
        (
            outcome.stats.grid.grid_builds,
            outcome.stats.grid.grid_patches
        ),
        work.grid,
        "{name}: benchmark grids built and patched"
    );
    let sequential = outcome.convoys;
    assert!(
        !sequential.is_empty(),
        "{name}: golden workload must contain convoys"
    );
    for threads in [2usize, 5] {
        let got = K2Hop::with_threads(cfg, threads)
            .mine(&store)
            .expect("in-memory mining cannot fail");
        assert_eq!(
            got.convoys, sequential,
            "{name}: K2Hop with {threads} threads"
        );
        assert_eq!(
            got.stats.pruning, pruning,
            "{name}: K2Hop {threads} threads"
        );
    }
    // Over the resident dataset the parallel engine issues the same
    // probes and must account them the same way.
    for threads in [1usize, 4] {
        let got = K2HopParallel::new(cfg, threads)
            .mine(&dataset)
            .expect("dataset mining cannot fail");
        assert_eq!(
            got.convoys, sequential,
            "{name}: K2HopParallel with {threads} threads"
        );
        assert_eq!(
            got.stats.pruning, pruning,
            "{name}: K2HopParallel {threads} threads"
        );
        assert_eq!(got.stats.prefetch, PrefetchStats::default(), "{name}");
    }
    // The bounded hop-window prefetch must reproduce the same bytes
    // wherever the shard boundaries fall: a temporal shard is `threads`
    // windows, so the thread count moves them. Only HWMT's fetch differs
    // from the per-probe run.
    // (A full-range clamp hides the resident dataset, so the miner takes
    // the slab path without any disk I/O in the loop.)
    let opaque = TimeRange::new(InMemoryStore::new(dataset.clone()), 0, Time::MAX);
    let windows = benchmark_points(dataset.span(), cfg.hop()).len() - 1;
    let max_objects = dataset.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    for threads in [1usize, 2, 4] {
        let got = K2HopParallel::new(cfg, threads)
            .mine(&opaque)
            .expect("opaque in-memory mining cannot fail");
        assert_eq!(
            got.convoys, sequential,
            "{name}: K2HopParallel slab path with {threads} threads"
        );
        assert_eq!(
            got.stats.pruning,
            PruningStats {
                hwmt_points: work.slab_hwmt_points,
                ..pruning
            },
            "{name}: slab path with {threads} threads"
        );
        let p = got.stats.prefetch;
        assert_eq!(p.shards as usize, windows.div_ceil(threads), "{name}");
        // O(window x threads): a shard holds at most `threads` windows
        // of fewer than `hop` open timestamps each.
        let bound = threads * cfg.hop() as usize * max_objects * std::mem::size_of::<ObjPos>();
        assert!(
            p.prefetch_bytes_peak > 0 && p.prefetch_bytes_peak <= bound as u64,
            "{name}: peak {} outside (0, {bound}] at {threads} threads",
            p.prefetch_bytes_peak
        );
    }

    let rendered = render(&sequential);
    let path = golden_path(name);
    if std::env::var_os("K2_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{name}: cannot read {} ({e}); run with K2_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "{name}: mining output diverged from the committed golden file \
         {} — if the change is intentional, regenerate with K2_UPDATE_GOLDEN=1",
        path.display()
    );
}

#[test]
fn brinkhoff_golden() {
    // Metric coordinates, organic convoys from shared motorway queues.
    let dataset = BrinkhoffConfig {
        max_time: 120,
        obj_begin: 60,
        obj_time: 2,
        ..BrinkhoffConfig::default()
    }
    .seed(42)
    .generate();
    golden_check(
        "brinkhoff",
        dataset,
        K2Config::new(2, 20, 600.0).unwrap(),
        FetchWork {
            points: (935, 452, 350, 678),
            queries: (872, 12),
            grid: (1, 11),
            slab_hwmt_points: 468,
        },
    );
}

#[test]
fn trucks_golden() {
    // Degree coordinates around Athens; eps in the paper's lat/lon range,
    // which exercises the density-tuned CSR grid on every benchmark
    // snapshot.
    let dataset = TrucksConfig {
        days: 2,
        trucks_per_day: 12,
        samples_per_day: 400,
        ..TrucksConfig::default()
    }
    .seed(5)
    .generate();
    golden_check(
        "trucks",
        dataset,
        K2Config::new(2, 30, 6.0e-4).unwrap(),
        FetchWork {
            points: (554, 2096, 80, 2292),
            queries: (2341, 53),
            // No snapshot exceeds the 24 points up to which clustering
            // scans pairwise and builds no grid.
            grid: (0, 0),
            slab_hwmt_points: 2282,
        },
    );
}

#[test]
fn tdrive_golden() {
    // Degree coordinates around Beijing with taxi platoons.
    let dataset = TDriveConfig {
        num_taxis: 60,
        num_timestamps: 90,
        platoon_fraction: 0.25,
        seed: 0,
    }
    .seed(3)
    .generate();
    golden_check(
        "tdrive",
        dataset,
        K2Config::new(2, 30, 2.0e-4).unwrap(),
        FetchWork {
            points: (360, 392, 262, 668),
            queries: (696, 6),
            grid: (2, 4),
            slab_hwmt_points: 392,
        },
    );
}

#[test]
fn tdrive_m3_golden() {
    // Denser T-Drive at m = 3: benchmark snapshots of 400 taxis go
    // through the grid, where border points exist — the one fixture whose
    // grid path labels them (every other one mines m = 2).
    let dataset = TDriveConfig {
        num_taxis: 400,
        num_timestamps: 120,
        platoon_fraction: 0.25,
        seed: 0,
    }
    .seed(3)
    .generate();
    golden_check(
        "tdrive_m3",
        dataset,
        K2Config::new(3, 20, 6.0e-4).unwrap(),
        FetchWork {
            points: (4800, 5796, 981, 7324),
            queries: (7521, 12),
            grid: (1, 11),
            slab_hwmt_points: 5796,
        },
    );
}
