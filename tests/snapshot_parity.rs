//! Cross-engine parity of the snapshot scan: for every engine,
//! `scan_snapshot_ref` must return exactly the reference `Dataset`
//! snapshot — same records, same (oid-sorted) order — on arbitrary
//! datasets, including absent timestamps and single-point snapshots. Plus the zero-copy contract itself: the in-memory engine
//! must serve every borrowed scan from shared storage, and a full mining
//! run over it must clone no benchmark snapshot at all.

use k2hop::core::{ConvoyMiner, K2Config, K2Hop};
use k2hop::model::{Dataset, ObjPos, Point};
use k2hop::storage::{
    FlatFileStore, InMemoryStore, LsmStore, RelationalStore, SnapshotRef, SnapshotSource,
    TrajectoryStore,
};
use proptest::prelude::*;

mod common;
use common::TempDir;

fn points_strategy() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0u32..20, 0u32..30, -100i32..100, -100i32..100), 1..200).prop_map(
        |rows| {
            rows.into_iter()
                .map(|(oid, t, x, y)| Point::new(oid, x as f64, y as f64, t))
                .collect()
        },
    )
}

/// The parity contract for one engine: every timestamp of the span, plus
/// out-of-span probes on both sides, against the reference snapshots.
fn check_scan_parity(store: &dyn SnapshotSource, reference: &Dataset) {
    let span = store.span();
    let mut buf = vec![ObjPos::new(u32::MAX, f64::MAX, f64::MAX)]; // stale content
    let probes = (span.start.saturating_sub(3)..=span.end).chain([span.end + 1, span.end + 1000]);
    for t in probes {
        let want = reference.snapshot(t).map_or(&[][..], |s| s.positions());
        let borrowed = store.scan_snapshot_ref(t, &mut buf).unwrap();
        assert_eq!(
            borrowed.positions(),
            want,
            "{} scan_snapshot_ref({t})",
            store.name()
        );
        assert!(
            borrowed.windows(2).all(|w| w[0].oid < w[1].oid),
            "{} snapshot {t} must be strictly oid-sorted",
            store.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All four engines serve the reference content and order.
    #[test]
    fn borrowed_scans_match_the_reference_on_all_engines(
        points in points_strategy()
    ) {
        let dataset = Dataset::from_points(&points).unwrap();
        let dir = TempDir::new("snapref");

        let mem = InMemoryStore::new(dataset.clone());
        check_scan_parity(&mem, &dataset);
        let flat = FlatFileStore::create(dir.join("d.bin"), &dataset).unwrap();
        check_scan_parity(&flat, &dataset);
        let btree = RelationalStore::create(dir.join("d.k2bt"), &dataset).unwrap();
        check_scan_parity(&btree, &dataset);
        let lsm = LsmStore::bulk_load(dir.join("lsm"), &dataset).unwrap();
        check_scan_parity(&lsm, &dataset);

        // The in-memory engine must have served every in-span scan
        // zero-copy (absent timestamps return an empty borrow and count
        // as neither shared nor copied); the disk engines must have
        // copied every scan.
        let span = mem.span();
        let in_span = span.len() as u64;
        let probes = in_span + u64::from(span.start - span.start.saturating_sub(3)) + 2;
        let mem_io = mem.io_stats();
        prop_assert_eq!(mem_io.snapshots_shared, in_span);
        prop_assert_eq!(mem_io.snapshots_copied, 0);
        prop_assert_eq!(mem_io.range_queries, probes);
        for disk in [&flat as &dyn SnapshotSource, &btree, &lsm] {
            let io = disk.io_stats();
            prop_assert_eq!(io.snapshots_shared, 0, "{}", disk.name());
            prop_assert_eq!(io.snapshots_copied, io.range_queries, "{}", disk.name());
        }
    }
}

#[test]
fn single_point_snapshot_parity() {
    // One lone record: the smallest possible snapshot, plus empty gap
    // snapshots on both sides of the two occupied timestamps.
    let dataset =
        Dataset::from_points(&[Point::new(7, 1.5, -2.5, 10), Point::new(3, 0.0, 0.0, 14)]).unwrap();
    let dir = TempDir::new("snapref");
    let mem = InMemoryStore::new(dataset.clone());
    let flat = FlatFileStore::create(dir.join("d.bin"), &dataset).unwrap();
    let btree = RelationalStore::create(dir.join("d.k2bt"), &dataset).unwrap();
    let lsm = LsmStore::bulk_load(dir.join("lsm"), &dataset).unwrap();
    for store in [&mem as &dyn SnapshotSource, &flat, &btree, &lsm] {
        check_scan_parity(store, &dataset);
        let mut buf = Vec::new();
        let snap = store.scan_snapshot_ref(10, &mut buf).unwrap();
        assert_eq!(snap.len(), 1, "{}", store.name());
        assert_eq!(snap[0].oid, 7, "{}", store.name());
    }
}

#[test]
fn in_memory_mining_clones_no_benchmark_snapshot() {
    // The acceptance gate of the zero-copy pipeline: a full k/2-hop run
    // over the in-memory store serves every benchmark-point scan as a
    // shared view — zero snapshot copies, one shared handout per
    // benchmark timestamp.
    let mut pts = Vec::new();
    for t in 0..60u32 {
        for oid in 0..4u32 {
            pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
        }
        for oid in 10..14u32 {
            pts.push(Point::new(
                oid,
                800.0 + oid as f64 * 90.0 + t as f64 * (oid - 8) as f64,
                500.0,
                t,
            ));
        }
    }
    let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
    for threads in [1usize, 4] {
        store.reset_io_stats();
        let miner = K2Hop::with_threads(K2Config::new(3, 20, 1.0).unwrap(), threads);
        let result = ConvoyMiner::mine(&miner, &store).unwrap();
        assert_eq!(result.convoys.len(), 1, "{threads} threads");
        let io = store.io_stats();
        assert_eq!(
            io.snapshots_copied, 0,
            "benchmark clustering must not clone in-memory snapshots ({threads} threads)"
        );
        // hop = 10 over [0, 59]: benchmarks at 0, 10, 20, 30, 40, 50.
        assert_eq!(io.snapshots_shared, 6, "{threads} threads");
    }
}

#[test]
fn shared_refs_outlive_the_scan_buffer_scope() {
    // A Shared ref is independent of the caller's buffer: the Arc keeps
    // the records alive and bit-identical after the buffer is gone.
    let dataset =
        Dataset::from_points(&[Point::new(1, 1.0, 2.0, 0), Point::new(2, 3.0, 4.0, 0)]).unwrap();
    let store = InMemoryStore::new(dataset);
    let arc = {
        let mut buf = Vec::new();
        match store.scan_snapshot_ref(0, &mut buf).unwrap() {
            SnapshotRef::Shared(arc) => arc,
            SnapshotRef::Buffered(_) => panic!("in-memory must share"),
        }
    };
    assert_eq!(arc.len(), 2);
    assert_eq!((arc[0].oid, arc[1].oid), (1, 2));
}
