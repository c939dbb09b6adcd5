//! Storage-engine parity: mining must return identical convoys whichever
//! persistent store backs the data — in-memory (k2-File after load), the
//! clustered B+tree (k2-RDBMS), or the LSM-tree (k2-LSMT) — and the I/O
//! profiles must match the paper's access-path story.
//!
//! The pipeline runs HWMT, the merge and extension over the whole
//! hop-window list at once on a resident dataset, but one hop-window at
//! a time on a disk engine. Both orders must also account the same work:
//! the pruning counters behind the paper's Table 5 are compared whole.

use k2hop::core::{ConvoyMiner, K2Config, K2Hop};
use k2hop::datagen::brinkhoff::BrinkhoffConfig;
use k2hop::datagen::tdrive::TDriveConfig;
use k2hop::datagen::trucks::TrucksConfig;
use k2hop::datagen::ConvoyInjector;
use k2hop::model::Dataset;
use k2hop::storage::{
    FlatFileStore, InMemoryStore, LsmConfig, LsmStore, MemoryBudget, RelationalStore,
    SnapshotSource, StoreError, TrajectoryStore,
};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("k2parity-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn all_engines_agree_on_mining_results() {
    let dataset = ConvoyInjector::new(60, 50)
        .convoys(3, 4, 25)
        .seed(21)
        .generate();
    let dir = tmpdir("agree");

    let mem = InMemoryStore::new(dataset.clone());
    let flat = FlatFileStore::create(dir.join("data.bin"), &dataset).unwrap();
    let btree = RelationalStore::create(dir.join("data.k2bt"), &dataset).unwrap();
    let lsm = LsmStore::bulk_load(dir.join("lsm"), &dataset).unwrap();

    let miner = K2Hop::new(K2Config::new(3, 10, 1.0).unwrap());
    let from_mem = ConvoyMiner::mine(&miner, &mem).unwrap().convoys;
    let from_flat = ConvoyMiner::mine(
        &miner,
        &flat.load_in_memory(MemoryBudget::unlimited()).unwrap(),
    )
    .unwrap()
    .convoys;
    let from_btree = ConvoyMiner::mine(&miner, &btree).unwrap().convoys;
    let from_lsm = ConvoyMiner::mine(&miner, &lsm).unwrap().convoys;

    assert!(!from_mem.is_empty(), "workload should contain convoys");
    assert_eq!(from_mem, from_flat, "k2-File");
    assert_eq!(from_mem, from_btree, "k2-RDBMS");
    assert_eq!(from_mem, from_lsm, "k2-LSMT");
}

/// The golden fixtures of `tests/golden_convoys.rs`, each with the
/// configurations it is mined at: its golden one, and for Brinkhoff a
/// sweep of `k` around it.
fn golden_workloads() -> Vec<(&'static str, Dataset, Vec<K2Config>)> {
    let cfg = |m, k, eps| K2Config::new(m, k, eps).unwrap();
    vec![
        (
            "brinkhoff",
            BrinkhoffConfig {
                max_time: 120,
                obj_begin: 60,
                obj_time: 2,
                ..BrinkhoffConfig::default()
            }
            .seed(42)
            .generate(),
            [8, 12, 20, 30]
                .into_iter()
                .map(|k| cfg(2, k, 600.0))
                .collect(),
        ),
        (
            "trucks",
            TrucksConfig {
                days: 2,
                trucks_per_day: 12,
                samples_per_day: 400,
                ..TrucksConfig::default()
            }
            .seed(5)
            .generate(),
            vec![cfg(2, 30, 6.0e-4)],
        ),
        (
            "tdrive",
            TDriveConfig {
                num_taxis: 60,
                num_timestamps: 90,
                platoon_fraction: 0.25,
                seed: 0,
            }
            .seed(3)
            .generate(),
            vec![cfg(2, 30, 2.0e-4)],
        ),
        (
            "tdrive_m3",
            TDriveConfig {
                num_taxis: 400,
                num_timestamps: 120,
                platoon_fraction: 0.25,
                seed: 0,
            }
            .seed(3)
            .generate(),
            vec![cfg(3, 20, 6.0e-4)],
        ),
    ]
}

#[test]
fn disk_engines_account_the_same_pruning_as_the_resident_dataset() {
    let dir = tmpdir("pruning");
    for (name, dataset, cfgs) in golden_workloads() {
        // Two cached blocks of 170 points each: every fixture's store is
        // many times larger, so the order of the reads decides what the
        // cache holds.
        let lsm = LsmStore::bulk_load_with(
            dir.join(name),
            &dataset,
            LsmConfig {
                cache_blocks: 2,
                ..LsmConfig::default()
            },
        )
        .unwrap();
        let btree = RelationalStore::create(dir.join(format!("{name}.k2bt")), &dataset).unwrap();
        let flat = FlatFileStore::create(dir.join(format!("{name}.bin")), &dataset).unwrap();
        let engines: [&dyn SnapshotSource; 3] = [&lsm, &btree, &flat];
        for cfg in cfgs {
            let miner = K2Hop::with_threads(cfg, 1);
            let want = miner.mine(&dataset).unwrap();
            for engine in engines {
                let got = miner.mine(engine).unwrap();
                let what = format!("{name}, k = {}, {}", cfg.k, engine.name());
                assert_eq!(got.convoys, want.convoys, "{what}: convoys");
                assert_eq!(got.stats.pruning, want.stats.pruning, "{what}: pruning");
            }
        }
    }
}

#[test]
fn disk_engines_serve_benchmark_scans_and_point_queries() {
    let dataset = ConvoyInjector::new(40, 30)
        .convoys(1, 4, 20)
        .seed(3)
        .generate();
    let dir = tmpdir("iostats");
    let btree = RelationalStore::create(dir.join("d.k2bt"), &dataset).unwrap();
    let lsm = LsmStore::bulk_load(dir.join("lsm"), &dataset).unwrap();

    let miner = K2Hop::new(K2Config::new(4, 10, 1.0).unwrap());
    for engine in [&btree as &dyn TrajectoryStore, &lsm as &dyn TrajectoryStore] {
        engine.reset_io_stats();
        let res = ConvoyMiner::mine(&miner, engine).unwrap();
        let io = engine.io_stats();
        assert!(!res.convoys.is_empty(), "{}", engine.name());
        // Benchmark scans: hop = 5 over 30 timestamps -> 6 range queries.
        assert_eq!(io.range_queries, 6, "{}", engine.name());
        // Hop-window work arrives as point queries (the §5 access paths).
        assert!(io.point_queries > 0, "{}", engine.name());
    }
}

#[test]
fn vcoda_on_flat_file_hits_memory_budget() {
    // Reproduces the paper's "VCoDA crashed on Brinkhoff" rows: loading
    // the whole dataset in memory fails under a budget.
    let dataset = ConvoyInjector::new(50, 40).seed(1).generate();
    let dir = tmpdir("budget");
    let flat = FlatFileStore::create(dir.join("big.bin"), &dataset).unwrap();
    let needed = dataset.num_points() * 24;
    let err = flat
        .load_in_memory(MemoryBudget::bytes(needed - 1))
        .unwrap_err();
    assert!(matches!(err, StoreError::MemoryBudgetExceeded { .. }));
    // A sufficient budget works.
    assert!(flat.load_in_memory(MemoryBudget::bytes(needed)).is_ok());
}

#[test]
fn lsm_reopen_mid_experiment_is_consistent() {
    let dataset = ConvoyInjector::new(30, 30)
        .convoys(2, 3, 18)
        .seed(8)
        .generate();
    let dir = tmpdir("reopen");
    let miner = K2Hop::new(K2Config::new(3, 8, 1.0).unwrap());
    let before = {
        let lsm = LsmStore::bulk_load_with(
            dir.join("lsm"),
            &dataset,
            LsmConfig {
                memtable_entries: 128,
                ..LsmConfig::default()
            },
        )
        .unwrap();
        ConvoyMiner::mine(&miner, &lsm).unwrap().convoys
    };
    let reopened = LsmStore::open(dir.join("lsm")).unwrap();
    let after = ConvoyMiner::mine(&miner, &reopened).unwrap().convoys;
    assert_eq!(before, after);
}

#[test]
fn trait_objects_support_heterogeneous_pipelines() {
    // The miner accepts `&dyn TrajectoryStore` — the bench harness depends
    // on this to sweep engines generically.
    let dataset = ConvoyInjector::new(20, 20)
        .convoys(1, 3, 12)
        .seed(2)
        .generate();
    let dir = tmpdir("dyn");
    let stores: Vec<Box<dyn TrajectoryStore>> = vec![
        Box::new(InMemoryStore::new(dataset.clone())),
        Box::new(RelationalStore::create(dir.join("d.k2bt"), &dataset).unwrap()),
        Box::new(LsmStore::bulk_load(dir.join("lsm"), &dataset).unwrap()),
    ];
    let miner = K2Hop::new(K2Config::new(3, 6, 1.0).unwrap());
    let results: Vec<_> = stores
        .iter()
        .map(|s| ConvoyMiner::mine(&miner, s.as_ref()).unwrap().convoys)
        .collect();
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], results[2]);
}
