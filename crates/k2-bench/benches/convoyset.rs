//! `ConvoySet::update` under a subsumption-heavy candidate stream.
//!
//! The DCM merge and final-maximality phases feed `update()` long streams
//! of overlapping convoys — nested object sets over nested lifespans —
//! which made the old scan-all-candidates implementation quadratic in the
//! candidate count (the bottleneck BENCH_2 exposed). This bench runs the
//! same stream through the indexed `ConvoySet` and through the old
//! quadratic scan (reproduced below verbatim) at growing sizes, so the
//! index's sub-quadratic scaling is measured rather than asserted.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use k2_model::{Convoy, ConvoySet};
use std::hint::black_box;

/// The pre-index `ConvoySet::update`: scan every candidate for domination,
/// then retain-scan again for eviction.
#[derive(Default)]
struct QuadraticConvoySet {
    convoys: Vec<Convoy>,
}

impl QuadraticConvoySet {
    fn update(&mut self, candidate: Convoy) -> bool {
        for existing in &self.convoys {
            if candidate.is_sub_convoy_of(existing) {
                return false;
            }
        }
        self.convoys.retain(|c| !c.is_sub_convoy_of(&candidate));
        self.convoys.push(candidate);
        true
    }
}

/// A subsumption-heavy stream: convoys drawn from sliding object windows
/// over a small universe (so many pairs are subset-related) with nested
/// lifespans, in a deterministic pseudo-random order that interleaves
/// dominated, dominating, and incomparable candidates.
fn overlapping_candidates(n: usize) -> Vec<Convoy> {
    let mut state = 0x9E3779B97F4A7C15u64 | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let start = (next() % 64) as u32;
            let width = 2 + (next() % 12) as u32;
            let objects: Vec<u32> = (start..start + width).collect();
            let ts = (next() % 200) as u32;
            let len = 1 + (next() % 40) as u32;
            Convoy::from_parts(&objects[..], ts, ts + len)
        })
        .collect()
}

fn bench_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("convoyset/update");
    group.sample_size(10);
    for n in [128usize, 512, 2048] {
        let stream = overlapping_candidates(n);
        group.bench_with_input(BenchmarkId::new("indexed", n), &stream, |b, stream| {
            b.iter(|| {
                let mut set = ConvoySet::new();
                for cv in stream {
                    set.update(cv.clone());
                }
                black_box(set.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("quadratic", n), &stream, |b, stream| {
            b.iter(|| {
                let mut set = QuadraticConvoySet::default();
                for cv in stream {
                    set.update(cv.clone());
                }
                black_box(set.convoys.len())
            })
        });
    }
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    // The parallel miner's final maximality: merging many per-task sets.
    let mut group = c.benchmark_group("convoyset/merge");
    group.sample_size(10);
    let parts: Vec<ConvoySet> = (0..16)
        .map(|i| {
            overlapping_candidates(128)
                .into_iter()
                .skip(i * 7 % 13)
                .collect()
        })
        .collect();
    group.bench_function("merge_16x128", |b| {
        b.iter(|| {
            let mut all = ConvoySet::new();
            for p in &parts {
                all.merge(p.clone());
            }
            black_box(all.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_update, bench_merge);
criterion_main!(benches);
