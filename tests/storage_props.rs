//! Property tests for the storage engines: every engine must behave like
//! the model (a sorted map over `(t, oid)`), across random workloads,
//! random operation orders, and reopen/compaction cycles.

use k2hop::model::{Dataset, Point};
use k2hop::storage::{
    replay_wal, FlatFileStore, InMemoryStore, IoCounters, LsmConfig, LsmStore, RelationalStore,
    SnapshotSource, TrajectoryStore, WalSyncPolicy, WalWriter, VAL_SIZE, WAL_FRAME_SIZE,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn points_strategy() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0u32..20, 0u32..30, -100i32..100, -100i32..100), 1..200).prop_map(
        |rows| {
            rows.into_iter()
                .map(|(oid, t, x, y)| Point::new(oid, x as f64, y as f64, t))
                .collect()
        },
    )
}

fn tmp(name: &str, salt: u64) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("k2storeprops-{}-{name}-{salt}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Random `(key, value)` WAL entries: arbitrary u64 keys, values packed
/// from two arbitrary u64 words.
fn wal_entries_strategy() -> impl Strategy<Value = Vec<(u64, [u8; VAL_SIZE])>> {
    proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 0..64).prop_map(
        |rows| {
            rows.into_iter()
                .map(|(key, a, b)| {
                    let mut val = [0u8; VAL_SIZE];
                    val[..8].copy_from_slice(&a.to_le_bytes());
                    val[8..].copy_from_slice(&b.to_le_bytes());
                    (key, val)
                })
                .collect()
        },
    )
}

fn write_wal(path: &std::path::Path, entries: &[(u64, [u8; VAL_SIZE])]) {
    let io = Arc::new(IoCounters::new());
    let mut wal = WalWriter::create(path, WalSyncPolicy::OnRotate, io).unwrap();
    for (key, val) in entries {
        wal.append(*key, val).unwrap();
    }
    wal.sync().unwrap();
}

/// Model: last write per (t, oid) wins.
fn model_of(points: &[Point]) -> BTreeMap<(u32, u32), (f64, f64)> {
    let mut m = BTreeMap::new();
    for p in points {
        m.insert((p.t, p.oid), (p.x, p.y));
    }
    m
}

fn check_against_model(store: &dyn TrajectoryStore, model: &BTreeMap<(u32, u32), (f64, f64)>) {
    let (t_lo, t_hi) = (
        model.keys().map(|k| k.0).min().unwrap(),
        model.keys().map(|k| k.0).max().unwrap(),
    );
    assert_eq!(store.span().start, t_lo, "{}", store.name());
    assert_eq!(store.span().end, t_hi, "{}", store.name());
    for t in t_lo..=t_hi {
        let snap = store.scan_snapshot(t).unwrap();
        let want: Vec<(u32, f64, f64)> = model
            .range((t, 0)..=(t, u32::MAX))
            .map(|(&(_, oid), &(x, y))| (oid, x, y))
            .collect();
        let got: Vec<(u32, f64, f64)> = snap.iter().map(|p| (p.oid, p.x, p.y)).collect();
        assert_eq!(got, want, "{} snapshot {t}", store.name());
    }
    // Random probes including misses.
    for (i, (&(t, oid), &(x, y))) in model.iter().enumerate() {
        if i % 3 == 0 {
            let got = store.point_get(t, oid).unwrap().unwrap();
            assert_eq!((got.x, got.y), (x, y), "{}", store.name());
        }
    }
    assert_eq!(store.point_get(t_hi + 10, 0).unwrap(), None);
    assert_eq!(store.point_get(t_lo, 9999).unwrap(), None);
    // Sorted batches: every oid the strategy can draw plus absent ones,
    // and every third oid.
    let everyone: Vec<u32> = (0..20).chain([21, 500, 9999]).collect();
    let thirds: Vec<u32> = (0..20).step_by(3).collect();
    for t in t_lo..=t_hi + 1 {
        for oids in [&everyone, &thirds] {
            let want: Vec<(u32, f64, f64)> = oids
                .iter()
                .filter_map(|&oid| model.get(&(t, oid)).map(|&(x, y)| (oid, x, y)))
                .collect();
            let got = store.multi_get(t, oids).unwrap();
            let got: Vec<(u32, f64, f64)> = got.iter().map(|p| (p.oid, p.x, p.y)).collect();
            assert_eq!(got, want, "{} multi_get {t} of {oids:?}", store.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All four engines match the sorted-map model on random data.
    #[test]
    fn engines_match_model(points in points_strategy(), salt in 0u64..1_000_000) {
        let dataset = Dataset::from_points(&points).unwrap();
        let model = model_of(&points);
        let dir = tmp("model", salt);

        let mem = InMemoryStore::new(dataset.clone());
        check_against_model(&mem, &model);
        let flat = FlatFileStore::create(dir.join("d.bin"), &dataset).unwrap();
        check_against_model(&flat, &model);
        let btree = RelationalStore::create(dir.join("d.k2bt"), &dataset).unwrap();
        check_against_model(&btree, &model);
        let lsm = LsmStore::bulk_load(dir.join("lsm"), &dataset).unwrap();
        check_against_model(&lsm, &model);
    }

    /// LSM with overwrites, interleaved flushes and compactions still
    /// matches the model, including after reopen.
    #[test]
    fn lsm_random_ops_match_model(
        points in points_strategy(),
        flush_every in 1usize..40,
        salt in 0u64..1_000_000,
    ) {
        let dir = tmp("lsmops", salt);
        let config = LsmConfig {
            memtable_entries: 16,
            max_tables: 3,
            ..LsmConfig::default()
        };
        let mut lsm = LsmStore::create_with(dir.join("lsm"), config).unwrap();
        for (i, p) in points.iter().enumerate() {
            lsm.insert(*p).unwrap();
            if i % flush_every == flush_every - 1 {
                lsm.flush().unwrap();
            }
        }
        let model = model_of(&points);
        check_against_model(&lsm, &model);
        lsm.compact_blocking().unwrap();
        check_against_model(&lsm, &model);
        // Reopen sees everything that was flushed; flush first so all is.
        lsm.flush().unwrap();
        drop(lsm);
        let reopened = LsmStore::open(dir.join("lsm")).unwrap();
        check_against_model(&reopened, &model);
    }

    /// WAL frames round-trip: any batch of entries appended to a log
    /// replays back byte-identical, in order, with no truncation.
    #[test]
    fn wal_frame_round_trip(entries in wal_entries_strategy(), salt in 0u64..1_000_000) {
        let dir = tmp("walrt", salt);
        let path = dir.join("wal-000001.log");
        write_wal(&path, &entries);

        let mut got = Vec::new();
        let replay = replay_wal(&path, |key, val| got.push((key, val))).unwrap();
        assert_eq!(got, entries);
        assert_eq!(replay.frames, entries.len() as u64);
        assert_eq!(replay.valid_len, (entries.len() * WAL_FRAME_SIZE) as u64);
        assert!(!replay.truncated);
    }

    /// Any prefix of a valid WAL replays cleanly to the longest whole
    /// frame: a cut mid-frame drops exactly the torn frame and truncates
    /// the file so appends can continue from the last good one.
    #[test]
    fn wal_torn_tail_replays_longest_whole_prefix(
        entries in wal_entries_strategy(),
        cut_seed in 0u64..1_000_000,
        salt in 0u64..1_000_000,
    ) {
        let dir = tmp("waltorn", salt);
        let path = dir.join("wal-000001.log");
        write_wal(&path, &entries);

        let full_len = (entries.len() * WAL_FRAME_SIZE) as u64;
        let cut = cut_seed % (full_len + 1);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let whole = cut as usize / WAL_FRAME_SIZE;
        let mut got = Vec::new();
        let replay = replay_wal(&path, |key, val| got.push((key, val))).unwrap();
        assert_eq!(got, entries[..whole]);
        assert_eq!(replay.frames, whole as u64);
        assert_eq!(replay.valid_len, (whole * WAL_FRAME_SIZE) as u64);
        assert_eq!(replay.truncated, !cut.is_multiple_of(WAL_FRAME_SIZE as u64));
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            (whole * WAL_FRAME_SIZE) as u64,
            "file truncated to the clean prefix"
        );
    }

    /// Any interleaving of inserts, flushes and tiered compactions —
    /// background or blocking, with a crash (drop without final flush)
    /// and reopen at the end — yields the same key-value state as the
    /// sequential reference model. This is the controller's core safety
    /// property: *which* runs get merged and *when* must never change
    /// *what* the store holds.
    #[test]
    fn lsm_tiered_interleavings_match_model(
        points in points_strategy(),
        flush_every in 1usize..24,
        background in 0u8..2,
        max_tables in 1usize..6,
        salt in 0u64..1_000_000,
    ) {
        let dir = tmp("tieredops", salt);
        let config = LsmConfig {
            memtable_entries: 16,
            max_tables,
            background_compaction: background == 1,
            wal_sync: WalSyncPolicy::EveryAppend,
            ..LsmConfig::default()
        };
        let mut lsm = LsmStore::create_with(dir.join("lsm"), config).unwrap();
        for (i, p) in points.iter().enumerate() {
            lsm.insert(*p).unwrap();
            if i % flush_every == flush_every - 1 {
                lsm.flush().unwrap();
            }
        }
        let model = model_of(&points);
        lsm.wait_for_compactions().unwrap();
        assert!(lsm.num_tables() <= max_tables.max(1), "steady state over budget");
        check_against_model(&lsm, &model);
        // Crash without a final flush: the WAL carries the memtable tail
        // across the reopen, and recovery folds whatever partial
        // compactions had committed.
        drop(lsm);
        let reopened = LsmStore::open_with(dir.join("lsm"), config).unwrap();
        check_against_model(&reopened, &model);
    }

    /// Cache accounting invariants on a freshly loaded store: every block
    /// request is exactly one hit or one miss, a second identical scan is
    /// all hits when the cache fits the table, and `blocks_read` counts
    /// exactly the misses.
    #[test]
    fn lsm_cache_counters_account_every_block(points in points_strategy(), salt in 0u64..1_000_000) {
        let dir = tmp("cachecount", salt);
        let lsm = LsmStore::bulk_load(dir.join("lsm"), &Dataset::from_points(&points).unwrap()).unwrap();
        let t = points[0].t;
        lsm.reset_io_stats();
        let first = lsm.scan_snapshot(t).unwrap();
        let cold = lsm.io_stats();
        assert_eq!(cold.blocks_read, cold.cache_misses, "misses are disk reads");
        let again = lsm.scan_snapshot(t).unwrap();
        assert_eq!(first, again);
        let warm = lsm.io_stats().since(&cold);
        assert_eq!(warm.cache_misses, 0, "default cache holds a toy table");
        assert_eq!(warm.blocks_read, 0);
        assert_eq!(warm.cache_hits, cold.cache_hits + cold.cache_misses,
            "warm scan touches the same blocks, all from cache");
    }

    /// The clustered B+tree file round-trips through close/open.
    #[test]
    fn btree_reopen_matches_model(points in points_strategy(), salt in 0u64..1_000_000) {
        let dataset = Dataset::from_points(&points).unwrap();
        let model = model_of(&points);
        let dir = tmp("btreereopen", salt);
        let path = dir.join("d.k2bt");
        {
            let _ = RelationalStore::create(&path, &dataset).unwrap();
        }
        let store = RelationalStore::open(&path).unwrap();
        check_against_model(&store, &model);
    }
}
