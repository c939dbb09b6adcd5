//! API parity: a `MiningSession` must reproduce the committed
//! `tests/golden/*.golden` files *byte for byte* — on the golden
//! Brinkhoff/Trucks/T-Drive fixtures, over a bare dataset and all four
//! storage engines, at several thread counts.
//!
//! `tests/golden_convoys.rs` pins the engine itself against the same
//! files; this suite pins the session front door and every storage
//! backend behind it.

mod common;

use common::TempDir;
use k2hop::core::{ConvoyMiner, K2Config, K2Hop};
use k2hop::datagen::brinkhoff::BrinkhoffConfig;
use k2hop::datagen::tdrive::TDriveConfig;
use k2hop::datagen::trucks::TrucksConfig;
use k2hop::model::{Convoy, Dataset};
use k2hop::prelude::*;
use k2hop::storage::{FlatFileStore, LsmStore, RelationalStore};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The golden Brinkhoff fixture (identical to `golden_convoys.rs`).
fn brinkhoff() -> (Dataset, K2Config) {
    let dataset = BrinkhoffConfig {
        max_time: 120,
        obj_begin: 60,
        obj_time: 2,
        ..BrinkhoffConfig::default()
    }
    .seed(42)
    .generate();
    (dataset, K2Config::new(2, 20, 600.0).unwrap())
}

/// The golden Trucks fixture (identical to `golden_convoys.rs`).
fn trucks() -> (Dataset, K2Config) {
    let dataset = TrucksConfig {
        days: 2,
        trucks_per_day: 12,
        samples_per_day: 400,
        ..TrucksConfig::default()
    }
    .seed(5)
    .generate();
    (dataset, K2Config::new(2, 30, 6.0e-4).unwrap())
}

/// The golden T-Drive fixture (identical to `golden_convoys.rs`).
fn tdrive() -> (Dataset, K2Config) {
    let dataset = TDriveConfig {
        num_taxis: 60,
        num_timestamps: 90,
        platoon_fraction: 0.25,
        seed: 0,
    }
    .seed(3)
    .generate();
    (dataset, K2Config::new(2, 30, 2.0e-4).unwrap())
}

/// Canonical text form — identical to `golden_convoys.rs`, so outputs
/// can be diffed against the same committed files.
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

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.golden"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run golden_convoys first",
            path.display()
        )
    })
}

/// For one fixture: a session on every storage engine at several thread
/// counts, all of it byte-identical to the committed golden file. More
/// than one thread over a resident source (the dataset, the in-memory
/// store) fans the probe phases out; every other mine probes the source
/// on the calling thread.
fn check_fixture(name: &str, dataset: Dataset, cfg: K2Config) {
    let store = InMemoryStore::new(dataset.clone());
    let dir = TempDir::new("api-parity");
    let flat = FlatFileStore::create(dir.join("data.bin"), &dataset).unwrap();
    let btree = RelationalStore::create(dir.join("data.k2bt"), &dataset).unwrap();
    let lsm = LsmStore::bulk_load(dir.join("lsm"), &dataset).unwrap();
    let engines: [(&str, &dyn SnapshotSource); 5] = [
        ("dataset", &dataset),
        ("in-memory", &store),
        ("flat", &flat),
        ("rdbms", &btree),
        ("lsmt", &lsm),
    ];

    for threads in [1usize, 2, 4] {
        for (engine_name, source) in engines {
            let outcome = MiningSession::new(cfg)
                .threads(threads)
                .mine(source)
                .unwrap();
            assert_eq!(
                render(&outcome.convoys),
                golden(name),
                "{name}: session/k2hop diverged from the golden file \
                 ({engine_name}, {threads} threads)"
            );
        }
    }
}

#[test]
fn brinkhoff_api_parity() {
    let (dataset, cfg) = brinkhoff();
    check_fixture("brinkhoff", dataset, cfg);
}

#[test]
fn trucks_api_parity() {
    let (dataset, cfg) = trucks();
    check_fixture("trucks", dataset, cfg);
}

#[test]
fn tdrive_api_parity() {
    let (dataset, cfg) = tdrive();
    check_fixture("tdrive", dataset, cfg);
}

/// The trait objects compose: every unified engine mines every source
/// through `&dyn ConvoyMiner` + `&dyn SnapshotSource`.
#[test]
fn dyn_miners_over_dyn_sources() {
    let (dataset, cfg) = brinkhoff();
    let store = InMemoryStore::new(dataset.clone());
    let miners: Vec<Box<dyn ConvoyMiner>> = vec![
        Box::new(K2Hop::with_threads(cfg, 1)),
        Box::new(K2Hop::with_threads(cfg, 2)),
    ];
    let sources: [&dyn SnapshotSource; 2] = [&dataset, &store];
    let expect = ConvoyMiner::mine(&K2Hop::with_threads(cfg, 1), &store)
        .unwrap()
        .convoys;
    for miner in &miners {
        for source in sources {
            let outcome = miner.mine(source).unwrap();
            assert_eq!(outcome.convoys, expect, "{}", miner.engine_name());
            assert_eq!(outcome.stats.engine, miner.engine_name());
        }
    }
}
