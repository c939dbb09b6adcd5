//! # k2-storage — persistent storage structures for convoy mining
//!
//! §5 of the paper observes that k/2-hop needs exactly two access paths:
//!
//! 1. **fast snapshot scans** at benchmark points (all positions at one
//!    timestamp), and
//! 2. **fast random access** by `(timestamp, object id)` inside
//!    hop-windows (only candidate objects are fetched).
//!
//! This crate implements, from scratch, the three storage structures the
//! paper evaluates, all read through those two paths alone — the
//! [`SnapshotSource`] trait:
//!
//! * [`FlatFileStore`] — sorted fixed-width records, sequential scans only
//!   (the paper's *k2-File* loads it fully into memory, see
//!   [`FlatFileStore::load_in_memory`]);
//! * [`RelationalStore`] — a page-based **clustered B+tree** on the
//!   composite key `(t, oid)` with an LRU buffer pool (the paper's
//!   *k2-RDBMS*);
//! * [`LsmStore`] — a **log-structured merge-tree**: in-memory memtable,
//!   immutable SSTables with block-sparse indexes and resident key fences,
//!   size-tiered compaction, group-committed batch ingest (the paper's
//!   *k2-LSMT*).
//!
//! Every store keeps [`IoStats`] counters (seeks, blocks, bytes, query
//! counts) so the experiments can compare access behaviour, and loading
//! into memory is gated by a [`MemoryBudget`] so the paper's
//! "VCoDA/k2-File crashed on the largest dataset" rows are reproducible
//! without exhausting real RAM.

mod btree;
mod error;
mod flat;
mod iostats;
mod keys;
pub mod lsm;
mod memory;
#[cfg(test)]
mod temp_dir;

pub use btree::{BTreeConfig, RelationalStore};
pub use error::{StoreError, StoreResult};
pub use flat::FlatFileStore;
pub use iostats::{IoCounters, IoStats, MemoryBudget};
pub use keys::{decode_key, decode_val, encode_key, encode_val, KEY_SIZE, VAL_SIZE};
pub use lsm::{
    replay_wal, BlockCache, CompactionController, LsmConfig, LsmStore, Manifest, ManifestRecord,
    SharedLsm, SsTableReader, SsTableWriter, StorePin, WalReplay, WalSyncPolicy, WalWriter,
    WAL_FRAME_SIZE,
};
pub use memory::InMemoryStore;

use k2_model::{Dataset, ObjPos, Oid, Time, TimeInterval};
use std::sync::Arc;

/// A borrowed view of one timestamp's snapshot — what
/// [`SnapshotSource::scan_snapshot_ref`] returns.
///
/// Cow-like: engines whose snapshots already live in memory hand out a
/// shared `Arc` slice (no record is copied, the view is `Send` and out-
/// lives the call); disk engines fill the caller's buffer instead, so a
/// worker that scans many snapshots reuses one allocation for all of
/// them. Either way the view derefs to the sorted `&[ObjPos]` the
/// clustering layer consumes.
#[derive(Debug, Clone)]
pub enum SnapshotRef<'a> {
    /// Shared ownership of the engine's resident snapshot storage
    /// (zero-copy; [`InMemoryStore`] and anything else fully resident).
    Shared(Arc<[ObjPos]>),
    /// The records were materialised into the caller's scan buffer
    /// (flat file, B+tree, LSM — one copy, no fresh allocation).
    Buffered(&'a [ObjPos]),
}

impl SnapshotRef<'_> {
    /// The positions, sorted by object id.
    #[inline]
    pub fn positions(&self) -> &[ObjPos] {
        match self {
            SnapshotRef::Shared(arc) => arc,
            SnapshotRef::Buffered(slice) => slice,
        }
    }
}

impl std::ops::Deref for SnapshotRef<'_> {
    type Target = [ObjPos];

    #[inline]
    fn deref(&self) -> &[ObjPos] {
        self.positions()
    }
}

/// The read paths convoy mining actually needs — the object-safe common
/// surface of every storage engine *and* the in-memory [`Dataset`].
///
/// §5 of the paper observes that k/2-hop touches the data in exactly two
/// ways: full-snapshot scans at benchmark points and `(t, oid)` probes
/// inside hop-windows. This trait is those two access paths (in their
/// zero-copy / buffer-reusing forms) plus the span/size/IO metadata the
/// miners report — nothing else. Every miner in the workspace
/// ([`K2Hop`], the baselines) is generic over `SnapshotSource`, so one
/// mining pipeline serves all four storage engines and bare datasets
/// alike; `&dyn SnapshotSource` is the argument type of the unified
/// `ConvoyMiner` trait.
///
/// All methods take `&self`; engines use interior mutability for buffer
/// pools and statistics so that the mining algorithms can hold a single
/// shared reference.
///
/// [`K2Hop`]: https://docs.rs/k2-core
pub trait SnapshotSource {
    /// The dataset's time span `[Ts, Te]`.
    fn span(&self) -> TimeInterval;

    /// Total number of movement records.
    fn num_points(&self) -> u64;

    /// Borrowed snapshot scan — the zero-copy benchmark access path
    /// (access requirement 1 of §5).
    ///
    /// Returns [`SnapshotRef::Shared`] when the engine can hand out its
    /// resident storage without copying (see [`InMemoryStore`]), otherwise
    /// fills `buf` (cleared first) and returns [`SnapshotRef::Buffered`].
    /// Positions are sorted by object id; timestamps outside the span
    /// yield an empty snapshot. The integration suite
    /// (`tests/snapshot_parity.rs`) pins every engine's scans to the
    /// reference [`Dataset`] snapshots.
    fn scan_snapshot_ref<'a>(
        &self,
        t: Time,
        buf: &'a mut Vec<ObjPos>,
    ) -> StoreResult<SnapshotRef<'a>>;

    /// Positions of the given objects at timestamp `t` (`DB[t]|O`) into a
    /// caller-provided buffer (cleared first) — the hop-window access
    /// path (requirement 2 of §5).
    ///
    /// `oids` must be sorted ascending; the output is in `oids` order
    /// (absent objects skipped). The k/2-hop probe loops (HWMT,
    /// extension, validation) call this thousands of times on tiny
    /// candidate sets, so implementations should serve it without fresh
    /// allocation.
    fn multi_get_into(&self, t: Time, oids: &[Oid], out: &mut Vec<ObjPos>) -> StoreResult<()>;

    /// Snapshot of the I/O counters (all zero for sources that do no
    /// I/O, such as a bare [`Dataset`]).
    fn io_stats(&self) -> IoStats;

    /// Human-readable source name for reports.
    fn name(&self) -> &'static str;

    /// The fully-resident dataset behind this source, if there is one.
    ///
    /// A miner with several workers uses this to fan its probes out:
    /// when the source is (or wraps) a [`Dataset`], which is immutable
    /// and `Sync`, every worker probes it directly — no copy, no point
    /// query through the source.
    fn as_dataset(&self) -> Option<&Dataset> {
        None
    }
}

/// Clamps a [`SnapshotSource`] to a time sub-range `[t_lo, t_hi]`.
///
/// Snapshot scans and hop-window probes outside the clamp return empty
/// results without touching the inner source, and [`span`] reports the
/// intersection of the clamp with the inner span — so a miner handed a
/// `TimeRange` mines exactly the requested window. This is how the
/// server turns one pinned snapshot into a per-request `MineRange`
/// view: pin once, wrap per request, mine.
///
/// [`span`]: SnapshotSource::span
#[derive(Debug)]
pub struct TimeRange<S> {
    inner: S,
    t_lo: Time,
    t_hi: Time,
}

impl<S: SnapshotSource> TimeRange<S> {
    /// Wraps `inner`, clamping every access to `[t_lo, t_hi]`
    /// (inclusive). `t_lo` must be `<= t_hi`.
    pub fn new(inner: S, t_lo: Time, t_hi: Time) -> Self {
        assert!(t_lo <= t_hi, "TimeRange requires t_lo <= t_hi");
        Self { inner, t_lo, t_hi }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Consumes the wrapper, returning the inner source.
    pub fn into_inner(self) -> S {
        self.inner
    }

    #[inline]
    fn contains(&self, t: Time) -> bool {
        self.t_lo <= t && t <= self.t_hi
    }
}

impl<S: SnapshotSource> SnapshotSource for TimeRange<S> {
    fn span(&self) -> TimeInterval {
        let inner = self.inner.span();
        let clamp = TimeInterval::new(self.t_lo, self.t_hi);
        // Disjoint clamp: collapse to an empty instant at the nearest
        // boundary so miners see a well-formed, zero-width span.
        inner.intersect(&clamp).unwrap_or_else(|| {
            TimeInterval::instant(if self.t_hi < inner.start {
                inner.start
            } else {
                inner.end
            })
        })
    }

    fn num_points(&self) -> u64 {
        // Upper bound; exact counting would need a full range scan. The
        // miners only use this for reporting and budget heuristics.
        self.inner.num_points()
    }

    fn scan_snapshot_ref<'a>(
        &self,
        t: Time,
        buf: &'a mut Vec<ObjPos>,
    ) -> StoreResult<SnapshotRef<'a>> {
        if !self.contains(t) {
            buf.clear();
            return Ok(SnapshotRef::Buffered(&[]));
        }
        self.inner.scan_snapshot_ref(t, buf)
    }

    fn multi_get_into(&self, t: Time, oids: &[Oid], out: &mut Vec<ObjPos>) -> StoreResult<()> {
        if !self.contains(t) {
            out.clear();
            return Ok(());
        }
        self.inner.multi_get_into(t, oids, out)
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn name(&self) -> &'static str {
        "time-range"
    }

    // as_dataset deliberately stays `None`: exposing the inner dataset
    // would let parallel miners read around the time clamp.
}

/// Counter management shared by every storage engine. Reads go through
/// [`SnapshotSource`]'s two access paths; this adds only what the
/// experiment harnesses need between measurements.
pub trait TrajectoryStore: SnapshotSource {
    /// Resets the I/O counters to zero.
    fn reset_io_stats(&self);
}

/// A bare in-memory [`Dataset`] is a [`SnapshotSource`]: snapshot scans
/// hand out its own Arc-backed storage (zero-copy) and hop-window probes
/// are galloping-merge restrictions. No I/O counters move — wrap the
/// dataset in an [`InMemoryStore`] to account accesses.
impl SnapshotSource for Dataset {
    fn span(&self) -> TimeInterval {
        Dataset::span(self)
    }

    fn num_points(&self) -> u64 {
        Dataset::num_points(self)
    }

    fn scan_snapshot_ref<'a>(
        &self,
        t: Time,
        _buf: &'a mut Vec<ObjPos>,
    ) -> StoreResult<SnapshotRef<'a>> {
        Ok(match self.snapshot(t) {
            Some(s) => SnapshotRef::Shared(s.positions_shared()),
            None => SnapshotRef::Buffered(&[]),
        })
    }

    fn multi_get_into(&self, t: Time, oids: &[Oid], out: &mut Vec<ObjPos>) -> StoreResult<()> {
        debug_assert!(oids.windows(2).all(|w| w[0] < w[1]));
        out.clear();
        if let Some(snap) = self.snapshot(t) {
            snap.restrict_ids_into(oids, out);
        }
        Ok(())
    }

    fn io_stats(&self) -> IoStats {
        IoStats::default()
    }

    fn name(&self) -> &'static str {
        "dataset"
    }

    fn as_dataset(&self) -> Option<&Dataset> {
        Some(self)
    }
}

#[cfg(test)]
mod trait_tests {
    //! Engine-agnostic conformance tests, run against every store.
    use super::*;
    use k2_model::{Dataset, Point};

    pub(crate) fn toy_dataset() -> Dataset {
        let mut pts = Vec::new();
        for t in 0..50u32 {
            for oid in 0..20u32 {
                // Objects 0..5 travel together; rest wander apart.
                let (x, y) = if oid < 5 {
                    (t as f64, oid as f64 * 0.1)
                } else {
                    (oid as f64 * 10.0 + t as f64 * 0.5, 100.0 + oid as f64)
                };
                pts.push(Point::new(oid, x, y, t));
            }
        }
        Dataset::from_points(&pts).unwrap()
    }

    /// The whole snapshot at `t`, read through `scan_snapshot_ref`.
    pub(crate) fn scan(s: &dyn SnapshotSource, t: Time) -> Vec<ObjPos> {
        let mut buf = Vec::new();
        s.scan_snapshot_ref(t, &mut buf).unwrap().to_vec()
    }

    /// One record, read as a one-oid `multi_get_into`.
    pub(crate) fn get(s: &dyn SnapshotSource, t: Time, oid: Oid) -> Option<ObjPos> {
        let mut buf = Vec::new();
        s.multi_get_into(t, &[oid], &mut buf).unwrap();
        buf.pop()
    }

    pub(crate) fn conformance<S: TrajectoryStore>(store: &S, reference: &Dataset) {
        assert_eq!(store.span(), reference.span());
        assert_eq!(store.num_points(), reference.num_points());

        // Snapshot scans agree with the reference dataset, clear stale
        // buffer content, and are empty outside the span.
        let mut scan_buf = vec![ObjPos::new(123, 1.0, 1.0)];
        for t in [0u32, 1, 25, 49, 1000] {
            let want = reference.snapshot(t).map_or(&[][..], |s| s.positions());
            let snap = store.scan_snapshot_ref(t, &mut scan_buf).unwrap();
            assert_eq!(
                snap.positions(),
                want,
                "scan_snapshot_ref({t}) mismatch for {}",
                store.name()
            );
        }

        // Single-key probes: present, absent object, outside the span.
        let want = *reference.snapshot(25).unwrap().get(3).unwrap();
        assert_eq!(get(store, 25, 3), Some(want));
        assert_eq!(get(store, 25, 999), None);
        assert_eq!(get(store, 1000, 3), None);

        // Batch probes (sorted oids, some absent) clear stale content.
        let at10 = reference.snapshot(10).unwrap();
        let mut buf = vec![ObjPos::new(77, 0.0, 0.0)];
        store.multi_get_into(10, &[1, 3, 999], &mut buf).unwrap();
        assert_eq!(
            buf,
            [*at10.get(1).unwrap(), *at10.get(3).unwrap()],
            "multi_get_into mismatch for {}",
            store.name()
        );
        store.multi_get_into(1000, &[1], &mut buf).unwrap();
        assert!(buf.is_empty(), "out-of-span must clear the buffer");

        // I/O stats move and reset.
        store.reset_io_stats();
        let _ = scan(store, 25);
        let after = store.io_stats();
        assert!(
            after.range_queries >= 1,
            "{}: scan must be counted",
            store.name()
        );
        store.reset_io_stats();
        assert_eq!(store.io_stats().range_queries, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn dataset_probe_rejects_unsorted_oids() {
        let d = toy_dataset();
        let _ = d.multi_get_into(10, &[3, 1], &mut Vec::new());
    }
}
