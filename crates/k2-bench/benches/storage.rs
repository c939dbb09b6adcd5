//! Storage-engine microbenchmarks: the two access paths §5 identifies —
//! benchmark-point snapshot scans and hop-window point queries — measured
//! per engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use k2_datagen::ConvoyInjector;
use k2_model::Dataset;
use k2_storage::{
    FlatFileStore, InMemoryStore, LsmStore, MemoryBudget, RelationalStore, SnapshotSource,
};
use std::hint::black_box;
use std::path::PathBuf;

fn dataset() -> Dataset {
    ConvoyInjector::new(1_000, 200)
        .convoys(3, 5, 80)
        .seed(13)
        .generate()
}

fn dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!("k2bench-storage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("bench dir");
    d
}

struct Engines {
    mem: InMemoryStore,
    flat: FlatFileStore,
    btree: RelationalStore,
    lsm: LsmStore,
}

fn engines() -> Engines {
    let d = dataset();
    let dir = dir();
    Engines {
        flat: FlatFileStore::create(dir.join("d.bin"), &d).expect("flat"),
        btree: RelationalStore::create(dir.join("d.k2bt"), &d).expect("btree"),
        lsm: LsmStore::bulk_load(dir.join("lsm"), &d).expect("lsm"),
        mem: InMemoryStore::new(d),
    }
}

fn bench_snapshot_scan(c: &mut Criterion) {
    let e = engines();
    let mut group = c.benchmark_group("storage/scan_snapshot");
    let stores: [(&str, &dyn SnapshotSource); 4] = [
        ("memory", &e.mem),
        ("flat", &e.flat),
        ("btree", &e.btree),
        ("lsm", &e.lsm),
    ];
    for (name, store) in stores {
        group.bench_with_input(BenchmarkId::from_parameter(name), &store, |b, s| {
            let (mut t, mut buf) = (0u32, Vec::new());
            b.iter(|| {
                t = (t + 37) % 200;
                black_box(s.scan_snapshot_ref(t, &mut buf).unwrap().len())
            })
        });
    }
    group.finish();
}

fn bench_point_get(c: &mut Criterion) {
    let e = engines();
    let mut group = c.benchmark_group("storage/point_get");
    // The flat file pays a sequential scan per lookup; keep its sample
    // small so the suite stays fast.
    group.sample_size(10);
    let stores: [(&str, &dyn SnapshotSource); 4] = [
        ("memory", &e.mem),
        ("flat", &e.flat),
        ("btree", &e.btree),
        ("lsm", &e.lsm),
    ];
    for (name, store) in stores {
        group.bench_with_input(BenchmarkId::from_parameter(name), &store, |b, s| {
            let (mut i, mut buf) = (0u32, Vec::new());
            b.iter(|| {
                i = i.wrapping_add(101);
                s.multi_get_into(i % 200, &[i % 1_000], &mut buf).unwrap();
                black_box(buf.first().copied())
            })
        });
    }
    group.finish();
}

fn bench_multi_get(c: &mut Criterion) {
    // The HWMT access pattern: a handful of candidate oids at one
    // timestamp.
    let e = engines();
    let oids: Vec<u32> = (0..8).map(|i| i * 117).collect();
    let mut group = c.benchmark_group("storage/multi_get_8");
    let stores: [(&str, &dyn SnapshotSource); 3] =
        [("memory", &e.mem), ("btree", &e.btree), ("lsm", &e.lsm)];
    for (name, store) in stores {
        group.bench_with_input(BenchmarkId::from_parameter(name), &store, |b, s| {
            let (mut t, mut buf) = (0u32, Vec::new());
            b.iter(|| {
                t = (t + 13) % 200;
                s.multi_get_into(t, &oids, &mut buf).unwrap();
                black_box(buf.len())
            })
        });
    }
    group.finish();
}

fn bench_bulk_load(c: &mut Criterion) {
    let d = dataset();
    let base = dir();
    let mut group = c.benchmark_group("storage/bulk_load");
    group.sample_size(10);
    group.bench_function("flat", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            black_box(FlatFileStore::create(base.join(format!("bl{i}.bin")), &d).unwrap())
        })
    });
    group.bench_function("btree", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            black_box(RelationalStore::create(base.join(format!("bl{i}.k2bt")), &d).unwrap())
        })
    });
    group.bench_function("lsm", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            black_box(LsmStore::bulk_load(base.join(format!("bl-lsm{i}")), &d).unwrap())
        })
    });
    group.finish();
}

fn bench_flat_load_in_memory(c: &mut Criterion) {
    let e = engines();
    c.bench_function("storage/flat_load_in_memory", |b| {
        b.iter(|| {
            black_box(
                e.flat
                    .load_in_memory(MemoryBudget::unlimited())
                    .unwrap()
                    .num_points(),
            )
        })
    });
}

criterion_group!(
    benches,
    bench_snapshot_scan,
    bench_point_get,
    bench_multi_get,
    bench_bulk_load,
    bench_flat_load_in_memory
);
criterion_main!(benches);
