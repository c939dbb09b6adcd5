//! Parallel k/2-hop (§7 future work): `K2Hop::with_threads` mines what
//! the one-thread run mines, on realistic workloads and on random ones,
//! from a resident dataset (where the probe phases fan out) and from
//! every storage engine (where they stay on the calling thread).

mod common;

use common::TempDir;
use k2hop::core::{ConvoyMiner, K2Config, K2Hop};
use k2hop::datagen::{tdrive::TDriveConfig, trucks::TrucksConfig, ConvoyInjector};
use k2hop::model::{Dataset, Point, Time};
use k2hop::patterns::FlockMiner;
use k2hop::storage::{
    FlatFileStore, InMemoryStore, LsmStore, RelationalStore, SnapshotSource, TimeRange,
};
use proptest::prelude::*;

fn sequential(d: &Dataset, m: usize, k: u32, eps: f64) -> Vec<k2hop::model::Convoy> {
    ConvoyMiner::mine(
        &K2Hop::with_threads(K2Config::new(m, k, eps).unwrap(), 1),
        &InMemoryStore::new(d.clone()),
    )
    .unwrap()
    .convoys
}

#[test]
fn parallel_equals_sequential_on_injected_workloads() {
    for seed in [1u64, 17, 99] {
        let d = ConvoyInjector::new(80, 120)
            .convoys(4, 4, 50)
            .seed(seed)
            .generate();
        let expect = sequential(&d, 3, 20, 1.0);
        assert!(!expect.is_empty());
        for threads in [1usize, 2, 8] {
            let cfg = K2Config::new(3, 20, 1.0).unwrap();
            let got = ConvoyMiner::mine(&K2Hop::with_threads(cfg, threads), &d)
                .unwrap()
                .convoys;
            assert_eq!(got, expect, "seed {seed}, {threads} threads");
        }
    }
}

/// Flocks run the same pipeline with a disk grouping: flocks and every
/// pruning counter are the same at every thread count, over the dataset,
/// a resident store and a store that hides its dataset.
#[test]
fn flock_thread_count_changes_neither_flocks_nor_counters() {
    for seed in [1u64, 17] {
        let d = ConvoyInjector::new(80, 120)
            .convoys(4, 4, 50)
            .seed(seed)
            .generate();
        let cfg = K2Config::new(3, 20, 1.0).unwrap();
        let store = InMemoryStore::new(d.clone());
        let opaque = TimeRange::new(InMemoryStore::new(d.clone()), 0, Time::MAX);
        let sequential = FlockMiner::with_threads(cfg, 1).mine(&d).unwrap();
        assert!(!sequential.convoys.is_empty(), "seed {seed}");
        assert!(
            sequential.stats.pruning.points_processed() > 0,
            "seed {seed}"
        );
        for threads in [1usize, 2, 4, 8] {
            let miner = FlockMiner::with_threads(cfg, threads);
            for source in [&d as &dyn SnapshotSource, &store, &opaque] {
                let got = miner.mine(source).unwrap();
                let at = format!("seed {seed}, {threads} threads, {}", source.name());
                assert_eq!(got.convoys, sequential.convoys, "{at}");
                assert_eq!(got.stats.pruning, sequential.stats.pruning, "{at}");
                assert_eq!(got.stats.threads, threads, "{at}");
            }
        }
    }
}

#[test]
fn parallel_equals_sequential_on_trucks() {
    let d = TrucksConfig::scaled(0.1).seed(5).generate();
    let (m, k, eps) = (3usize, 300u32, 6.0e-5);
    let expect = sequential(&d, m, k, eps);
    let cfg = K2Config::new(m, k, eps).unwrap();
    assert_eq!(
        ConvoyMiner::mine(&K2Hop::with_threads(cfg, 4), &d)
            .unwrap()
            .convoys,
        expect
    );
}

#[test]
fn parallel_equals_sequential_on_tdrive() {
    let d = TDriveConfig::scaled(0.05).seed(5).generate();
    let (m, k, eps) = (3usize, 40u32, 6.0e-4);
    let expect = sequential(&d, m, k, eps);
    let cfg = K2Config::new(m, k, eps).unwrap();
    assert_eq!(
        ConvoyMiner::mine(&K2Hop::with_threads(cfg, 4), &d)
            .unwrap()
            .convoys,
        expect
    );
}

#[test]
fn parallel_mines_from_all_four_storage_engines() {
    let d = ConvoyInjector::new(60, 60)
        .convoys(3, 4, 30)
        .seed(11)
        .generate();
    let expect = sequential(&d, 3, 16, 1.0);
    assert!(!expect.is_empty());
    let cfg = K2Config::new(3, 16, 1.0).unwrap();

    let dir = TempDir::new("par-store");
    let mem = InMemoryStore::new(d.clone());
    let flat = FlatFileStore::create(dir.join("data.bin"), &d).unwrap();
    let btree = RelationalStore::create(dir.join("data.k2bt"), &d).unwrap();
    let lsm = LsmStore::bulk_load(dir.join("lsm"), &d).unwrap();

    for threads in [1usize, 4] {
        let miner = K2Hop::with_threads(cfg, threads);
        assert_eq!(
            ConvoyMiner::mine(&miner, &mem).unwrap().convoys,
            expect,
            "in-memory, {threads} threads"
        );
        assert_eq!(
            ConvoyMiner::mine(&miner, &flat).unwrap().convoys,
            expect,
            "flat file, {threads} threads"
        );
        assert_eq!(
            ConvoyMiner::mine(&miner, &btree).unwrap().convoys,
            expect,
            "b+tree, {threads} threads"
        );
        assert_eq!(
            ConvoyMiner::mine(&miner, &lsm).unwrap().convoys,
            expect,
            "lsm, {threads} threads"
        );
    }
}

#[test]
fn oversubscribed_thread_count_is_harmless() {
    let d = ConvoyInjector::new(20, 30)
        .convoys(1, 3, 15)
        .seed(2)
        .generate();
    let cfg = K2Config::new(3, 10, 1.0).unwrap();
    let expect = sequential(&d, 3, 10, 1.0);
    assert_eq!(
        ConvoyMiner::mine(&K2Hop::with_threads(cfg, 64), &d)
            .unwrap()
            .convoys,
        expect
    );
}

fn points_strategy() -> impl Strategy<Value = Vec<Point>> {
    // A handful of objects over a few dozen timestamps, coordinates
    // coarse enough that DBSCAN at eps=1.5 finds real clusters.
    proptest::collection::vec((0u32..12, 0u32..36, 0i32..40, 0i32..40), 30..400).prop_map(|rows| {
        rows.into_iter()
            .map(|(oid, t, x, y)| Point::new(oid, x as f64 / 2.0, y as f64 / 2.0, t))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random workloads every thread count mines the one-thread
    /// reference, from the resident dataset and from all four storage
    /// engines.
    #[test]
    fn any_thread_count_equals_sequential_on_all_engines(
        points in points_strategy(),
        m in 2usize..4,
        k in 4u32..10,
    ) {
        let Some(dataset) = Dataset::from_points(&points) else {
            return Ok(());
        };
        let cfg = K2Config::new(m, k, 1.5).unwrap();
        let store = InMemoryStore::new(dataset.clone());
        let reference = ConvoyMiner::mine(&K2Hop::with_threads(cfg, 1), &store)
            .unwrap()
            .convoys;

        let dir = TempDir::new("par-props");
        let flat = FlatFileStore::create(dir.join("data.bin"), &dataset).unwrap();
        let btree = RelationalStore::create(dir.join("data.k2bt"), &dataset).unwrap();
        let lsm = LsmStore::bulk_load(dir.join("lsm"), &dataset).unwrap();
        let sources: [&dyn SnapshotSource; 5] = [&dataset, &store, &flat, &btree, &lsm];
        for threads in [1usize, 2, 4] {
            let miner = K2Hop::with_threads(cfg, threads);
            for source in sources {
                prop_assert_eq!(
                    &ConvoyMiner::mine(&miner, source).unwrap().convoys,
                    &reference,
                    "{} threads {}", source.name(), threads
                );
            }
        }
    }
}
