//! Property tests for the bounded hop-window prefetch: on random
//! workloads, the windowed slab store path must equal the resident
//! dataset fast path and the sequential reference miner — on all four
//! storage engines, at several thread counts (a temporal shard is
//! `threads` windows, so the shard boundaries move with them) — and the
//! peak prefetch residency must stay within the `O(window x threads)`
//! bound the design promises.

use k2hop::core::benchpoints::benchmark_points;
use k2hop::core::{ConvoyMiner, K2Config, K2Hop, K2HopParallel};
use k2hop::model::{Convoy, Dataset, ObjPos, Point};
use k2hop::storage::{FlatFileStore, InMemoryStore, LsmStore, RelationalStore, SnapshotSource};
use proptest::prelude::*;

fn points_strategy() -> impl Strategy<Value = Vec<Point>> {
    // A handful of objects over a few dozen timestamps, coordinates
    // coarse enough that DBSCAN at eps=1.5 finds real clusters.
    proptest::collection::vec((0u32..12, 0u32..36, 0i32..40, 0i32..40), 30..400).prop_map(|rows| {
        rows.into_iter()
            .map(|(oid, t, x, y)| Point::new(oid, x as f64 / 2.0, y as f64 / 2.0, t))
            .collect()
    })
}

fn tmp(salt: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "k2prefetchprops-{}-{:?}-{salt}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn mine_seq(store: &InMemoryStore, cfg: K2Config) -> Vec<Convoy> {
    ConvoyMiner::mine(&K2Hop::new(cfg), store).unwrap().convoys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn windowed_prefetch_equals_resident_on_all_engines(
        points in points_strategy(),
        m in 2usize..4,
        k in 4u32..10,
    ) {
        let Some(dataset) = Dataset::from_points(&points) else {
            return Ok(());
        };
        let cfg = K2Config::new(m, k, 1.5).unwrap();
        let store = InMemoryStore::new(dataset.clone());
        let reference = mine_seq(&store, cfg);

        let dir = tmp("engines");
        let flat = FlatFileStore::create(dir.join("data.bin"), &dataset).unwrap();
        let btree = RelationalStore::create(dir.join("data.k2bt"), &dataset).unwrap();
        let lsm = LsmStore::bulk_load(dir.join("lsm"), &dataset).unwrap();
        let engines: [&dyn SnapshotSource; 4] = [&store, &flat, &btree, &lsm];

        let windows = benchmark_points(dataset.span(), cfg.hop()).len().saturating_sub(1);
        for threads in [1usize, 2, 4] {
            let miner = K2HopParallel::new(cfg, threads);
            // Resident fast path.
            prop_assert_eq!(&ConvoyMiner::mine(&miner, &dataset).unwrap().convoys, &reference);
            for source in engines {
                let outcome = ConvoyMiner::mine(&miner, source).unwrap();
                prop_assert_eq!(
                    &outcome.convoys, &reference,
                    "{} threads {}", source.name(), threads
                );
                // Disk engines go through the slab prefetch, one shard of
                // `threads` windows at a time; its peak must respect the
                // per-shard residency bound.
                let p = outcome.stats.prefetch;
                if source.as_dataset().is_none() && p.windows_fetched > 0 {
                    prop_assert_eq!(
                        p.shards as usize, windows.div_ceil(threads),
                        "{} threads {}", source.name(), threads
                    );
                    let h = (k / 2) as u64;
                    let bound = threads as u64
                        * (h + 1)
                        * 12
                        * std::mem::size_of::<ObjPos>() as u64;
                    prop_assert!(
                        p.prefetch_bytes_peak <= bound,
                        "{}: peak {} > bound {}",
                        source.name(),
                        p.prefetch_bytes_peak,
                        bound
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
