//! Phase-level microbenchmarks of the k/2-hop pipeline, plus three
//! ablations:
//!
//! * HWMT *binary-tree order* vs a naive left-to-right window sweep — the
//!   paper's coincidental-togetherness heuristic (§4.3),
//! * candidate clusters by merge-joining two labellings vs the naive
//!   quadratic pairing (§4.2), on a straddling shape and on T-Drive's
//!   dense benchmark shape,
//! * DCM merge cost (§4.4) as windows grow, and with 30 partially
//!   overlapping convoys per window.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use k2_cluster::DbscanParams;
use k2_core::benchpoints::{benchmark_points, hwmt_order};
use k2_core::candidates::candidate_clusters;
use k2_core::hwmt::mine_window;
use k2_core::merge::merge_spanning;
use k2_datagen::ConvoyInjector;
use k2_model::{Convoy, ObjectSet, TimeInterval};
use k2_storage::InMemoryStore;
use std::hint::black_box;

fn store() -> InMemoryStore {
    InMemoryStore::new(
        ConvoyInjector::new(500, 256)
            .convoys(4, 5, 120)
            .seed(31)
            .generate(),
    )
}

fn bench_benchmark_points(c: &mut Criterion) {
    c.bench_function("phases/benchmark_points", |b| {
        b.iter(|| black_box(benchmark_points(TimeInterval::new(0, 100_000), 50).len()))
    });
    c.bench_function("phases/hwmt_order_1k", |b| {
        b.iter(|| black_box(hwmt_order(TimeInterval::new(0, 999)).len()))
    });
}

/// `clusters` clusters of `size` members per side, drawn from every
/// third oid (a gappy population); right clusters start `shift` members
/// later, so with `0 < shift < size` each left cluster straddles two.
fn cluster_sides(clusters: u32, size: u32, shift: u32) -> (Vec<ObjectSet>, Vec<ObjectSet>) {
    let side = |offset: u32| -> Vec<ObjectSet> {
        (0..clusters)
            .map(|i| {
                ObjectSet::new(
                    (i * size + offset..(i + 1) * size + offset)
                        .map(|j| j * 3)
                        .collect(),
                )
            })
            .collect()
    };
    (side(0), side(shift))
}

fn bench_candidate_intersection(c: &mut Criterion) {
    let mut group = c.benchmark_group("phases/candidate_clusters");
    for (shape, (left, right)) in [
        // 100 clusters x 10 members, shifted by 5.
        ("straddle_100x10", cluster_sides(100, 10, 5)),
        // T-Drive's dense benchmark snapshots at eps 0.004: ~480
        // clusters of ~8 members a side, most surviving the hop.
        ("tdrive_dense_480x8", cluster_sides(480, 8, 1)),
    ] {
        group.bench_function(BenchmarkId::new("merge_join", shape), |b| {
            b.iter(|| black_box(candidate_clusters(&left, &right, 3).len()))
        });
        // Ablation: the naive O(|C1|·|C2|) pairwise intersection.
        group.bench_function(BenchmarkId::new("naive_pairwise", shape), |b| {
            b.iter(|| {
                let mut out = 0usize;
                for l in &left {
                    for r in &right {
                        if l.intersection_len(r) >= 3 {
                            out += 1;
                        }
                    }
                }
                black_box(out)
            })
        });
    }
    group.finish();
}

fn bench_hwmt_window(c: &mut Criterion) {
    let store = store();
    let params = DbscanParams::new(3, 1.0);
    // A window whose candidates are the planted convoys (they survive all
    // probes — the worst case for HWMT).
    let surviving = vec![ObjectSet::new((500..505).collect())];
    // And candidates that die at the first probe (the pruning case).
    let doomed = vec![ObjectSet::new((0..5).collect())];
    let mut group = c.benchmark_group("phases/hwmt_window64");
    group.bench_function("surviving_candidates", |b| {
        b.iter(|| black_box(mine_window(&store, params, 64, 128, &surviving).unwrap()))
    });
    group.bench_function("doomed_candidates", |b| {
        b.iter(|| black_box(mine_window(&store, params, 64, 128, &doomed).unwrap()))
    });
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    // Ablation: merge cost as the number of windows grows.
    let mut group = c.benchmark_group("phases/merge_spanning");
    for &windows in &[8usize, 64] {
        let spanning: Vec<Vec<Convoy>> = (0..windows)
            .map(|w| {
                (0..10u32)
                    .map(|i| {
                        Convoy::from_parts([i * 3, i * 3 + 1, i * 3 + 2], w as u32, w as u32 + 1)
                    })
                    .collect()
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(windows),
            &spanning,
            |b, spanning| b.iter(|| black_box(merge_spanning(spanning, 3).len())),
        );
    }
    // 30 convoys of 4 objects per window over a 120-object population,
    // rotated by one object each window: every active convoy meets one
    // next-window convoy in 3 objects and another in 1.
    let spanning: Vec<Vec<Convoy>> = (0..64u32)
        .map(|w| {
            (0..30u32)
                .map(|i| {
                    let ids: Vec<u32> = (0..4).map(|r| (i * 4 + r + w) % 120).collect();
                    Convoy::from_parts(ObjectSet::new(ids), w, w + 1)
                })
                .collect()
        })
        .collect();
    group.bench_with_input(
        BenchmarkId::new("30_per_window", 64),
        &spanning,
        |b, spanning| b.iter(|| black_box(merge_spanning(spanning, 3).len())),
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_benchmark_points,
    bench_candidate_intersection,
    bench_hwmt_window,
    bench_merge
);
criterion_main!(benches);
