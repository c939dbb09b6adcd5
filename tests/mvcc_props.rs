//! MVCC properties of the LSM store: pinned snapshots are immutable
//! under any interleaving of {insert, flush, background compaction,
//! pin, mine, unpin}, holding a pin never blocks the writer, and taking
//! one never waits for a batch the writer is in the middle of.
//!
//! The golden invariant: a mine run against a [`StorePin`] — even one
//! executed *after* the store has flushed, compacted and swapped states
//! many times — is byte-identical to mining a frozen copy of the store
//! taken at pin time.

use k2hop::model::{Dataset, ObjPos, Point};
use k2hop::server::{K2Service, Request, Response};
use k2hop::storage::{
    LsmConfig, LsmStore, SnapshotSource, StorePin, TrajectoryStore, WalSyncPolicy,
};
use k2hop::MiningSession;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Model = BTreeMap<(u32, u32), (f64, f64)>;

fn tmp(name: &str, salt: u64) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("k2mvcc-{}-{name}-{salt}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The whole snapshot at `t`, read through `scan_snapshot_ref`.
fn scan(s: &dyn SnapshotSource, t: u32) -> Vec<ObjPos> {
    let mut buf = Vec::new();
    s.scan_snapshot_ref(t, &mut buf).unwrap().to_vec()
}

/// The records of sorted `oids` at `t`, read through `multi_get_into`.
fn get(s: &dyn SnapshotSource, t: u32, oids: &[u32]) -> Vec<ObjPos> {
    let mut out = Vec::new();
    s.multi_get_into(t, oids, &mut out).unwrap();
    out
}

/// A frozen in-memory copy of the model, for mining comparison.
fn freeze(model: &Model) -> Option<Dataset> {
    if model.is_empty() {
        return None;
    }
    let points: Vec<Point> = model
        .iter()
        .map(|(&(t, oid), &(x, y))| Point::new(oid, x, y, t))
        .collect();
    Some(Dataset::from_points(&points).unwrap())
}

/// Asserts a pin reads exactly like the frozen copy of the store at its
/// pin instant: scans, probes, span, and a full mining run.
fn assert_pin_matches_frozen(pin: &StorePin, frozen: &Dataset) {
    assert_eq!(pin.span(), frozen.span(), "pinned span drifted");
    let span = frozen.span();
    for t in span.iter() {
        let got = scan(pin, t);
        let want = frozen
            .snapshot(t)
            .map(|s| s.positions().to_vec())
            .unwrap_or_default();
        assert_eq!(got, want, "pinned scan at t={t} drifted");
    }
    // Nothing newer leaked past the span end.
    assert!(scan(pin, span.end + 1).is_empty());
    // The mining outcome over the pin is byte-identical to mining the
    // frozen copy (m=2, k=2, generous eps: small random workloads still
    // produce convoys often enough to make the comparison meaningful).
    let session = MiningSession::with_params(2, 2, 60.0).unwrap();
    let from_pin = session.mine(pin).unwrap();
    let from_frozen = session.mine(frozen).unwrap();
    assert_eq!(
        from_pin.convoys, from_frozen.convoys,
        "pinned mine diverged from frozen-copy mine"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random interleavings of writer ops and pins: every pin, verified
    /// at the *end* of the whole sequence (after all later inserts,
    /// flushes and compactions), still reads and mines exactly the
    /// store contents from its pin instant.
    #[test]
    fn pinned_mines_are_frozen_in_time(
        rows in proptest::collection::vec(
            (0u32..16, 0u32..24, -50i32..50, -50i32..50, 0u8..10),
            1..150,
        ),
        salt in 0u64..1_000_000,
    ) {
        let dir = tmp("interleave", salt);
        let config = LsmConfig {
            memtable_entries: 32,
            max_tables: 3,
            background_compaction: true,
            ..LsmConfig::default()
        };
        let store = LsmStore::create_with(dir.join("lsm"), config).unwrap();
        let mut model: Model = BTreeMap::new();
        // (pin, frozen copy at pin time), verified after the sequence.
        let mut pins: Vec<(StorePin, Dataset)> = Vec::new();

        for (oid, t, x, y, action) in rows {
            store.insert(Point::new(oid, x as f64, y as f64, t)).unwrap();
            model.insert((t, oid), (x as f64, y as f64));
            match action {
                // 0..=5: keep inserting.
                6 => store.flush().unwrap(),
                7 => store.wait_for_compactions().unwrap(),
                8 | 9 => {
                    let pin = store.pin().unwrap();
                    let frozen = freeze(&model).expect("model non-empty after insert");
                    // The pin is also correct *immediately*…
                    prop_assert_eq!(pin.span(), frozen.span());
                    pins.push((pin, frozen));
                    // …and unpinning some earlier pin must not disturb
                    // the others (Drop path under live siblings).
                    if pins.len() > 3 {
                        pins.remove(0);
                    }
                }
                _ => {}
            }
        }
        // Churn the store once more so every surviving pin has writes,
        // a flush and (policy permitting) a compaction after it.
        for i in 0..64u32 {
            store.insert(Point::new(100 + i, 0.0, 0.0, i % 24)).unwrap();
        }
        store.flush().unwrap();
        store.wait_for_compactions().unwrap();

        for (pin, frozen) in &pins {
            assert_pin_matches_frozen(pin, frozen);
        }
        drop(pins);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The acceptance shape from the issue, deterministic: a mine pinned
/// before a batch of inserts + flush + compaction returns byte-identical
/// output to the pre-ingest golden, while the same request re-issued
/// after the swap sees the new data.
/// `LsmStore` and `StorePin` read through one view: the same contents —
/// two SSTables, two frozen generations, overwrites at every level —
/// must read the same through either *and* cost the same, with the
/// block cache on or off (block accesses are compared as hits + misses:
/// whoever reads second finds the shared cache warm). The costs are also
/// held to what the view must *not* do: ask a source whose key fence
/// excludes the request, or request a block twice within a batch.
#[test]
fn store_and_pin_read_alike_and_cost_alike() {
    for cache_blocks in [0usize, 256] {
        let dir = tmp("readview", cache_blocks as u64);
        let config = LsmConfig {
            cache_blocks,
            wal: false,
            background_compaction: false,
            ..LsmConfig::default()
        };
        let store = LsmStore::create_with(dir.join("lsm"), config).unwrap();
        // Version `v` writes x = v, so a read shows which layer won.
        let put = |store: &LsmStore, v: u32, ts: std::ops::Range<u32>, oids: &[u32]| {
            for t in ts {
                for &oid in oids {
                    store
                        .insert(Point::new(oid, f64::from(v), f64::from(t), t))
                        .unwrap();
                }
            }
        };
        let every = |step: usize| (0..300u32).step_by(step).collect::<Vec<_>>();
        put(&store, 1, 0..6, &every(1));
        store.flush().unwrap();
        put(&store, 2, 0..6, &every(3));
        store.flush().unwrap();
        let tables_only = store.pin().unwrap();
        put(&store, 3, 2..5, &[every(5), (300..320).collect()].concat());
        let first = store.pin().unwrap();
        put(&store, 4, 3..7, &every(7));
        let pin = store.pin().unwrap();
        assert_eq!(store.num_tables(), 2);
        assert_eq!(pin.version(), first.version() + 1, "a second generation");
        assert_eq!(store.num_points(), pin.num_points());

        let probe: Vec<u32> = (0..330u32).step_by(2).chain([1000]).collect();
        type Read<'a> = Box<dyn Fn(&dyn TrajectoryStore) -> Vec<ObjPos> + 'a>;
        let mut reads: Vec<(String, Read<'_>)> = Vec::new();
        for t in 0..8u32 {
            reads.push((
                format!("scan_snapshot_ref({t})"),
                Box::new(move |s| scan(s, t)),
            ));
            let probe = &probe;
            reads.push((
                format!("multi_get_into({t})"),
                Box::new(move |s| get(s, t, probe)),
            ));
            for oid in [0u32, 3, 5, 7, 105, 299, 310, 1000] {
                reads.push((
                    format!("multi_get_into({t}, [{oid}])"),
                    Box::new(move |s| get(s, t, &[oid])),
                ));
            }
        }
        // What a read returns and what it costs: (point queries, range
        // queries, block requests).
        type Cost = (u64, u64, u64);
        let cost = |s: &dyn TrajectoryStore, read: &Read<'_>| -> (Vec<_>, Cost) {
            s.reset_io_stats();
            let got = read(s);
            let io = s.io_stats();
            assert_eq!(io.cache_misses, io.blocks_read, "every miss is one read");
            let blocks = io.cache_hits + io.cache_misses;
            (got, (io.point_queries, io.range_queries, blocks))
        };
        let mut winners = std::collections::BTreeSet::new();
        for (what, read) in &reads {
            let (from_store, store_cost) = cost(&store, read);
            let (from_pin, pin_cost) = cost(&pin, read);
            assert_eq!(from_store, from_pin, "{what}, cache {cache_blocks}");
            assert_eq!(store_cost, pin_cost, "{what}, cache {cache_blocks}");
            winners.extend(from_pin.iter().map(|p| p.x as u32));
        }

        // (5, 298) and (5, 299) end the first table, in one block. The
        // second table's last key is (5, 297) and the older generation
        // ends at t = 4, so their fences exclude the batch; the younger
        // generation admits it and does not hold it. Exactly one block
        // request.
        let tail: Read<'_> = Box::new(|s| get(s, 5, &[298, 299]));
        for s in [&store as &dyn TrajectoryStore, &pin] {
            let (got, tail_cost) = cost(s, &tail);
            assert_eq!(got.len(), 2, "cache {cache_blocks}");
            assert_eq!(tail_cost, (2, 0, 1), "cache {cache_blocks}");
        }
        // Both generations start at t >= 2: below that they change
        // neither the answer nor the cost of a batch.
        for t in 0..2u32 {
            let below: Read<'_> = Box::new(|s| get(s, t, &probe));
            let (without, cost_without) = cost(&tables_only, &below);
            let (with, cost_with) = cost(&pin, &below);
            assert_eq!(with, without, "t {t}, cache {cache_blocks}");
            assert_eq!(cost_with, cost_without, "t {t}, cache {cache_blocks}");
            assert_eq!(with.len(), 150, "t {t}: every even oid below 300");
        }
        assert_eq!(
            winners.into_iter().collect::<Vec<_>>(),
            [1, 2, 3, 4],
            "every layer must win somewhere"
        );
    }
}

#[test]
fn pin_before_ingest_serves_the_past_reissue_serves_the_present() {
    let dir = tmp("acceptance", 0);
    let mut points = Vec::new();
    // Two objects travelling together for t=0..10 → one convoy.
    for t in 0..10u32 {
        points.push(Point::new(1, t as f64, 0.0, t));
        points.push(Point::new(2, t as f64, 0.5, t));
        points.push(Point::new(9, 500.0 + t as f64, 900.0, t)); // loner
    }
    let dataset = Dataset::from_points(&points).unwrap();
    let config = LsmConfig {
        memtable_entries: 8,
        max_tables: 2,
        ..LsmConfig::default()
    };
    let store = LsmStore::bulk_load_with(dir.join("lsm"), &dataset, config).unwrap();
    let session = MiningSession::with_params(2, 5, 2.0).unwrap();
    let golden = session.mine(&dataset).unwrap().convoys;
    assert_eq!(golden.len(), 1, "workload must produce exactly one convoy");

    let pin = store.pin().unwrap();
    // Ingest a second travelling pair at t=0..10, forcing flushes and a
    // compaction — several state swaps.
    for t in 0..10u32 {
        store.insert(Point::new(5, t as f64, 100.0, t)).unwrap();
        store.insert(Point::new(6, t as f64, 100.5, t)).unwrap();
    }
    store.flush().unwrap();
    store.wait_for_compactions().unwrap();

    // The pinned mine is byte-identical to the pre-ingest golden…
    assert_eq!(session.mine(&pin).unwrap().convoys, golden);
    // …while a fresh pin (a re-issued request) sees the new convoy too.
    let repin = store.pin().unwrap();
    let now = session.mine(&repin).unwrap().convoys;
    assert_eq!(now.len(), 2, "re-issued request must see the ingested pair");
    assert!(now.iter().any(|c| c.objects.ids() == [5, 6]));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reader-blocks-nothing regression: holding a pin — and actively
/// scanning through it from another thread — must not degrade insert
/// latency beyond a generous absolute bound. Guards against any return
/// to copy-on-write-per-insert or reader-lock-on-the-write-path designs
/// (which push p99 into milliseconds immediately).
#[test]
fn insert_p99_stays_bounded_under_a_live_pin() {
    let dir = tmp("p99", 0);
    let config = LsmConfig {
        memtable_entries: 1 << 14,
        wal: false, // isolate the in-memory write path from fs jitter
        ..LsmConfig::default()
    };
    let store = LsmStore::create_with(dir.join("lsm"), config).unwrap();
    for oid in 0..256u32 {
        store.insert(Point::new(oid, oid as f64, 0.0, 0)).unwrap();
    }
    let pin = store.pin().unwrap();
    // A busy reader hammering the pinned snapshot for the whole run.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader = {
        let stop = stop.clone();
        let reader_pin = store.pin().unwrap();
        std::thread::spawn(move || {
            let (mut scans, mut buf) = (0u64, Vec::new());
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let n = reader_pin.scan_snapshot_ref(0, &mut buf).unwrap().len();
                assert_eq!(n, 256);
                scans += 1;
            }
            scans
        })
    };

    const N: usize = 20_000;
    let mut lat = Vec::with_capacity(N);
    for i in 0..N as u32 {
        let p = Point::new(1000 + (i % 4096), 1.0, 2.0, 1 + i / 4096);
        let t0 = std::time::Instant::now();
        store.insert(p).unwrap();
        lat.push(t0.elapsed().as_nanos() as u64);
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let scans = reader.join().unwrap();
    assert!(scans > 0, "reader thread never got a scan through");

    lat.sort_unstable();
    let p99 = lat[(N * 99) / 100 - 1];
    // Insert under a live pin is a WAL-less memtable insert: single-digit
    // microseconds. 2ms catches structural regressions (per-insert state
    // clone, reader-held locks) with ~1000x headroom over CI noise.
    assert!(
        p99 < 2_000_000,
        "insert p99 under live pin too high: {p99}ns"
    );
    // The pin still reads its frozen past.
    assert_eq!(scan(&pin, 0).len(), 256);
    assert_eq!(scan(&pin, 1).len(), 0);
    drop(pin);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pins interact correctly with reopen-oriented state: a pin holds data
/// alive across compactions that unlink its files, and the store's own
/// contents stay model-exact throughout.
#[test]
fn store_stays_model_exact_while_pins_churn() {
    let dir = tmp("churn", 0);
    let config = LsmConfig {
        memtable_entries: 16,
        max_tables: 2,
        ..LsmConfig::default()
    };
    let store = LsmStore::create_with(dir.join("lsm"), config).unwrap();
    let mut model: Model = BTreeMap::new();
    let mut held: Vec<(StorePin, Dataset)> = Vec::new();
    for i in 0..400u32 {
        let (oid, t) = (i % 12, i % 20);
        let (x, y) = ((i % 7) as f64, (i % 5) as f64);
        store.insert(Point::new(oid, x, y, t)).unwrap();
        model.insert((t, oid), (x, y));
        if i % 37 == 0 {
            held.push((store.pin().unwrap(), freeze(&model).unwrap()));
        }
        if i % 90 == 0 {
            held.clear(); // mass unpin mid-churn
        }
    }
    store.wait_for_compactions().unwrap();
    for (pin, frozen) in &held {
        assert_pin_matches_frozen(pin, frozen);
    }
    // The live store matches the full model.
    let full = freeze(&model).unwrap();
    for t in 0..20u32 {
        assert_eq!(
            scan(&store, t),
            full.snapshot(t)
                .map(|s| s.positions().to_vec())
                .unwrap_or_default()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a store directory shows of its writer's progress: bytes of WAL
/// and number of SSTables.
fn disk_progress(dir: &Path) -> (u64, usize) {
    let (mut wal_bytes, mut tables) = (0, 0);
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".log") {
            wal_bytes += entry.metadata().map_or(0, |m| m.len());
        } else if name.ends_with(".k2ss") {
            tables += 1;
        }
    }
    (wal_bytes, tables)
}

/// Pins requested while another thread is inside a 131 072-point
/// `insert_batch` — tens of milliseconds in a release build, between its
/// WAL group commit and its last memtable insert — return without
/// waiting for it, see everything acknowledged before it and
/// nothing of it; with `memtable_entries` below the batch size the
/// memtable also fills and flushes midway. So does a `Stats` request:
/// its gauges return as fast as the pins and agree with the pin taken
/// beside them. Afterwards a pin sees the whole batch, and
/// further pins publish nothing.
fn pins_during_a_batch(name: &str, memtable_entries: usize) {
    const BATCH: u32 = 1 << 17;
    let dir = tmp(name, 0).join("lsm");
    let config = LsmConfig {
        memtable_entries,
        wal_sync: WalSyncPolicy::EveryAppend,
        ..LsmConfig::default()
    };
    let service = Arc::new(K2Service::new(LsmStore::create_with(&dir, config).unwrap()));
    let store = service.store();

    // Acknowledged beforehand: one batch and one single insert.
    let first: Vec<Point> = (0..300u32)
        .map(|oid| Point::new(oid, 1.0, 1.0, 0))
        .collect();
    let v_first = {
        store.insert_batch(&first).unwrap();
        store.version()
    };
    assert_eq!(store.pin().unwrap().version(), v_first);
    store.insert(Point::new(300, 1.0, 1.0, 0)).unwrap();
    let acked = 301;

    let base = disk_progress(&dir);
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let (service, done) = (service.clone(), done.clone());
        std::thread::spawn(move || {
            let batch: Vec<Point> = (0..BATCH).map(|i| Point::new(i, 2.0, 2.0, 1)).collect();
            let version = {
                let store = service.store();
                store.insert_batch(&batch).unwrap();
                store.version()
            };
            done.store(true, Ordering::Release);
            version
        })
    };
    // The batch is under way once its records show up in the WAL.
    while disk_progress(&dir) == base {
        assert!(!done.load(Ordering::Acquire), "the batch left no trace");
        std::thread::yield_now();
    }

    let mut waits = Vec::new();
    let mut gauge_waits = Vec::new();
    let mut pinned_after_flush = false;
    let mut last_version = v_first;
    loop {
        let flushed = disk_progress(&dir).1 > base.1;
        let t0 = Instant::now();
        let pin = store.pin().unwrap();
        let waited = t0.elapsed();
        let t0 = Instant::now();
        let stats = match service.handle(Request::Stats { quiesce: false }) {
            Response::Stats(s) => s,
            other => panic!("expected stats, got {other:?}"),
        };
        let gauge_waited = t0.elapsed();
        if done.load(Ordering::Acquire) {
            break; // the batch may have ended under this pin: it proves nothing
        }
        // Requested and returned while the writer held the store.
        waits.push(waited);
        gauge_waits.push(gauge_waited);
        pinned_after_flush |= flushed;
        assert_eq!(
            pin.num_points(),
            acked,
            "a pin saw part of a batch in flight"
        );
        assert_eq!(scan(&pin, 0).len(), acked as usize);
        assert!(scan(&pin, 1).is_empty());
        assert!(pin.version() >= last_version, "pin versions went backwards");
        last_version = pin.version();
        // The gauges describe the pinned state: no table was published
        // before the batch, so every pinned point is still buffered.
        let gauges = (stats.num_points, stats.num_tables, stats.memtable_len);
        assert_eq!(gauges, (acked, 0, acked), "a gauge saw the batch");
        assert_eq!((stats.maintenance_depth, stats.version), (0, pin.version()));
        std::thread::sleep(Duration::from_millis(2));
    }
    let v_batch = writer.join().unwrap();

    assert!(!waits.is_empty(), "no pin landed inside the batch");
    for (what, waits) in [("pins", &mut waits), ("gauges", &mut gauge_waits)] {
        waits.sort_unstable();
        assert!(
            waits[waits.len() / 2] < Duration::from_millis(5),
            "{what} queued behind the batch: median {:?}, worst {:?}",
            waits[waits.len() / 2],
            waits[waits.len() - 1]
        );
    }
    if memtable_entries < BATCH as usize {
        assert!(disk_progress(&dir).1 > base.1, "the batch never flushed");
        assert!(
            pinned_after_flush,
            "no pin landed after the mid-batch flush"
        );
    }

    // After the ack: all of it, at the version the batch reported.
    assert!(v_batch > last_version);
    let after = store.pin().unwrap();
    assert_eq!(after.version(), v_batch);
    assert_eq!(after.num_points(), acked + u64::from(BATCH));
    assert_eq!(scan(&after, 1).len(), BATCH as usize);
    // Pins between batches freeze nothing and publish nothing.
    for _ in 0..3 {
        assert_eq!(store.pin().unwrap().version(), v_batch);
    }
    assert_eq!(store.version(), v_batch);
    let _ = std::fs::remove_dir_all(dir.parent().unwrap());
}

#[test]
fn pins_do_not_wait_for_a_batch_in_flight() {
    pins_during_a_batch("inflight", 1 << 18);
}

#[test]
fn pins_do_not_see_a_mid_batch_flush() {
    pins_during_a_batch("inflight-flush", 1 << 15);
}
