//! Parallel k/2-hop (§7 future work) — equivalence with the sequential
//! pipeline on realistic workloads.

use k2hop::core::{ConvoyMiner, K2Config, K2Hop, K2HopParallel};
use k2hop::datagen::{tdrive::TDriveConfig, trucks::TrucksConfig, ConvoyInjector};
use k2hop::storage::InMemoryStore;

fn sequential(d: &k2hop::model::Dataset, m: usize, k: u32, eps: f64) -> Vec<k2hop::model::Convoy> {
    ConvoyMiner::mine(
        &K2Hop::new(K2Config::new(m, k, eps).unwrap()),
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
            let got = ConvoyMiner::mine(&K2HopParallel::new(cfg, threads), &d)
                .unwrap()
                .convoys;
            assert_eq!(got, expect, "seed {seed}, {threads} threads");
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
        ConvoyMiner::mine(&K2HopParallel::new(cfg, 4), &d)
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
        ConvoyMiner::mine(&K2HopParallel::new(cfg, 4), &d)
            .unwrap()
            .convoys,
        expect
    );
}

#[test]
fn parallel_mines_from_all_four_storage_engines() {
    use k2hop::storage::{FlatFileStore, LsmStore, RelationalStore};

    let d = ConvoyInjector::new(60, 60)
        .convoys(3, 4, 30)
        .seed(11)
        .generate();
    let expect = sequential(&d, 3, 16, 1.0);
    assert!(!expect.is_empty());
    let cfg = K2Config::new(3, 16, 1.0).unwrap();

    let dir = std::env::temp_dir().join(format!("k2par-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mem = InMemoryStore::new(d.clone());
    let flat = FlatFileStore::create(dir.join("data.bin"), &d).unwrap();
    let btree = RelationalStore::create(dir.join("data.k2bt"), &d).unwrap();
    let lsm = LsmStore::bulk_load(dir.join("lsm"), &d).unwrap();

    for threads in [1usize, 4] {
        let miner = K2HopParallel::new(cfg, threads);
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
    let _ = std::fs::remove_dir_all(&dir);
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
        ConvoyMiner::mine(&K2HopParallel::new(cfg, 64), &d)
            .unwrap()
            .convoys,
        expect
    );
}
