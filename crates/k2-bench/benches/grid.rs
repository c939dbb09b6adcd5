//! Grid microbenchmarks: [`GridState`] build cost, re-scatter against a
//! fresh build per update across churn levels, the eps-pair sweep, and a
//! full DBSCAN over a 10k-point uniform snapshot.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use k2_cluster::{dbscan, dbscan_with, DbscanParams, GridScratch, GridState};
use k2_model::ObjPos;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const EPS: f64 = 1.0;

/// Uniform snapshot over a square of side `sqrt(n) * 10` — ~1 point per
/// 100 cells at eps 1, the sparse-occupancy regime of movement data.
fn uniform(n: usize, seed: u64) -> Vec<ObjPos> {
    let mut rng = StdRng::seed_from_u64(seed);
    let side = (n as f64).sqrt() * 10.0;
    (0..n)
        .map(|i| ObjPos::new(i as u32, rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect()
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid/build");
    for &n in &[1_000usize, 10_000] {
        let points = uniform(n, 13);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("csr", n), &points, |b, pts| {
            b.iter(|| {
                let mut grid = GridState::new();
                grid.update(pts, EPS);
                black_box(grid.cell_side())
            })
        });
    }
    group.finish();
}

/// `points` with `churn_pct`% of its members teleported to fresh uniform
/// positions (new cell almost surely); the rest keep identical
/// coordinates, so the patch path's diff sees exactly the intended churn.
fn churned(points: &[ObjPos], churn_pct: usize, seed: u64) -> Vec<ObjPos> {
    let mut rng = StdRng::seed_from_u64(seed);
    let side = (points.len() as f64).sqrt() * 10.0;
    let stride = (100 / churn_pct.max(1)).max(1);
    points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if i % stride == 0 {
                ObjPos::new(p.oid, rng.gen_range(0.0..side), rng.gen_range(0.0..side))
            } else {
                *p
            }
        })
        .collect()
}

/// Re-scattering a [`GridState`] between two adjacent snapshots under
/// the retained geometry vs building a fresh one for each. Each iteration
/// performs two updates (A→B→A) so the state round-trips.
fn bench_build_vs_patch(c: &mut Criterion) {
    let n = 10_000usize;
    let a = uniform(n, 29);
    let mut group = c.benchmark_group("grid/build_vs_patch");
    for &churn in &[1usize, 10, 50, 100] {
        let b_pts = churned(&a, churn, 31 + churn as u64);
        group.throughput(Throughput::Elements(2 * n as u64));
        group.bench_with_input(
            BenchmarkId::new("patch", format!("churn_{churn}pct")),
            &b_pts,
            |bch, b_pts| {
                let mut state = GridState::new();
                state.update(&a, EPS);
                // Warm round-trip, then check the re-scatter actually
                // serves the updates: the teleports stay inside the
                // retained box, so every churn level patches.
                let before = state.counters();
                state.update(b_pts, EPS);
                state.update(&a, EPS);
                let delta = state.counters().since(before);
                assert_eq!(delta.patches, 2, "churn {churn}% should patch");
                bch.iter(|| {
                    state.update(b_pts, EPS);
                    state.update(&a, EPS);
                    black_box(state.counters().patches)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("rebuild", format!("churn_{churn}pct")),
            &b_pts,
            |bch, b_pts| {
                bch.iter(|| {
                    for pts in [b_pts, &a] {
                        let mut grid = GridState::new();
                        grid.update(pts, EPS);
                        black_box(grid.cell_side());
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_eps_pairs(c: &mut Criterion) {
    let n = 10_000usize;
    let points = uniform(n, 17);
    let mut grid = GridState::new();
    grid.update(&points, EPS);
    let mut group = c.benchmark_group("grid/eps_pairs_10k");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("csr", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            let mut total = 0usize;
            grid.eps_pairs(&points, EPS * EPS, &mut out, |_, _| total += 1);
            black_box(total)
        })
    });
    group.finish();
}

fn bench_dbscan_uniform_10k(c: &mut Criterion) {
    let points = uniform(10_000, 7);
    let params = DbscanParams::new(3, EPS);
    let mut group = c.benchmark_group("grid/dbscan_uniform_10k");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("csr", |b| {
        b.iter(|| black_box(dbscan(&points, params).len()))
    });
    group.bench_function("csr_scratch_reuse", |b| {
        let mut scratch = GridScratch::new();
        b.iter(|| black_box(dbscan_with(&points, params, &mut scratch).len()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_build_vs_patch,
    bench_eps_pairs,
    bench_dbscan_uniform_10k
);
criterion_main!(benches);
