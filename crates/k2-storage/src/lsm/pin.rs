//! MVCC snapshot pinning: immutable published store states and the
//! [`StorePin`] read handle miners hold across a whole run.
//!
//! The idiom is the classic `Arc<RwLock<Arc<State>>>` state-swap: the
//! store publishes its durable structure (frozen memtable generations +
//! ordered SSTable list) as an immutable [`LsmState`]; writers build a
//! fresh `Arc` and swap the pointer under a short write lock, and a pin
//! is nothing more than a clone of that `Arc`. Readers therefore never
//! hold a lock while reading, and a writer never waits for a reader —
//! the only shared point is the pointer swap itself.

use super::sstable::SsTableReader;
use super::store::{key_of, key_parts, val_parts, Memtable, MergeIter};
use crate::iostats::IoCounters;
use crate::keys::VAL_SIZE;
use crate::{IoStats, SnapshotRef, SnapshotSource, StoreResult, TrajectoryStore};
use k2_model::{ObjPos, Oid, Time, TimeInterval};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One immutable published state of an `LsmStore`: everything a reader
/// needs, shared by `Arc`. The SSTable readers inside keep their files
/// readable even after compaction unlinks them (unix unlink-while-open),
/// so a state stays fully servable for as long as anything holds it.
#[derive(Debug)]
pub(crate) struct LsmState {
    /// Frozen memtable generations, oldest first. The writer's active
    /// memtable is *not* here — it is frozen in when a batch ends, or
    /// at pin time after single inserts.
    pub(crate) frozen: Vec<Arc<Memtable>>,
    /// Open SSTable readers, oldest first (index = recency rank).
    pub(crate) tables: Vec<Arc<SsTableReader>>,
    /// Sequence numbers of `tables`, same order.
    pub(crate) table_seqs: Vec<u64>,
    /// Time span covered by this state, `None` when empty.
    pub(crate) span: Option<(Time, Time)>,
    /// Monotonic publish counter; newer states have larger versions.
    pub(crate) version: u64,
}

impl LsmState {
    pub(crate) fn empty() -> Self {
        Self {
            frozen: Vec::new(),
            tables: Vec::new(),
            table_seqs: Vec::new(),
            span: None,
            version: 0,
        }
    }

    pub(crate) fn new(
        frozen: Vec<Arc<Memtable>>,
        tables: Vec<Arc<SsTableReader>>,
        table_seqs: Vec<u64>,
        span: Option<(Time, Time)>,
        version: u64,
    ) -> Self {
        Self {
            frozen,
            tables,
            table_seqs,
            span,
            version,
        }
    }
}

/// A pinned, immutable view of an `LsmStore` at one instant.
///
/// Created by `LsmStore::pin_snapshot` (or `SharedLsm::pin`). The pin is
/// a full [`SnapshotSource`] + [`TrajectoryStore`] reader: a miner can
/// hold it for an entire run while the store keeps ingesting, flushing
/// and compacting underneath — the pin's view never changes, because it
/// owns `Arc`s to the frozen memtable generations and the open SSTable
/// readers of its state. Compaction may unlink a pinned table's file;
/// the open descriptor keeps the data readable until the pin drops.
///
/// Reads go through the store's shared block cache (cache ids are table
/// seqs, unique for the directory's whole history, so a retired table's
/// blocks can never alias a live one's) but are accounted into the
/// pin's **own** counters — `io_stats()` reports exactly the work this
/// pin caused, which is what per-request serving stats want.
#[derive(Debug)]
pub struct StorePin {
    state: Arc<LsmState>,
    io: Arc<IoCounters>,
    pins: Arc<AtomicU64>,
}

impl StorePin {
    pub(crate) fn new(state: Arc<LsmState>, pins: Arc<AtomicU64>) -> Self {
        pins.fetch_add(1, Ordering::Relaxed);
        Self {
            state,
            io: Arc::new(IoCounters::new()),
            pins,
        }
    }

    /// The publish version of the pinned state. The difference between
    /// the store's current version and this is the pin's staleness in
    /// state swaps (batches, flushes, compaction commits, pin freezes).
    pub fn version(&self) -> u64 {
        self.state.version
    }

    /// Staleness relative to a current store version: how many state
    /// swaps have been published since this pin was taken.
    pub fn staleness(&self, current_version: u64) -> u64 {
        current_version.saturating_sub(self.state.version)
    }

    /// Number of SSTables in the pinned state.
    pub fn num_tables(&self) -> usize {
        self.state.tables.len()
    }

    /// Sequence numbers of the pinned SSTables, oldest first. A seq may
    /// refer to a file compaction has since unlinked; the pin still
    /// reads it through its open descriptor.
    pub fn table_seqs(&self) -> &[u64] {
        &self.state.table_seqs
    }

    /// Newest version of one key within the pinned state: frozen
    /// generations newest-first, then SSTables newest-first.
    fn get_raw(&self, key: u64) -> StoreResult<Option<[u8; VAL_SIZE]>> {
        for generation in self.state.frozen.iter().rev() {
            if let Some(v) = generation.get(&key) {
                return Ok(Some(*v));
            }
        }
        for table in self.state.tables.iter().rev() {
            if let Some(v) = table.get_with(key, &self.io)? {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    /// Merged range scan over `[lo, hi]` within the pinned state.
    fn scan_merged_with(
        &self,
        lo: u64,
        hi: u64,
        mut visit: impl FnMut(u64, [u8; VAL_SIZE]),
    ) -> StoreResult<()> {
        let mut merge = MergeIter::over_tables(&self.state.tables, lo, &self.io)?;
        for generation in &self.state.frozen {
            merge.add_mem(generation.range(lo..=hi));
        }
        while let Some((k, v)) = merge.next()? {
            if k > hi {
                break;
            }
            visit(k, v);
        }
        Ok(())
    }
}

impl Drop for StorePin {
    fn drop(&mut self) {
        self.pins.fetch_sub(1, Ordering::Relaxed);
    }
}

impl SnapshotSource for StorePin {
    fn span(&self) -> TimeInterval {
        match self.state.span {
            Some((lo, hi)) => TimeInterval::new(lo, hi),
            None => TimeInterval::instant(0),
        }
    }

    fn num_points(&self) -> u64 {
        self.state
            .tables
            .iter()
            .map(|t| t.num_entries())
            .sum::<u64>()
            + self
                .state
                .frozen
                .iter()
                .map(|m| m.len() as u64)
                .sum::<u64>()
    }

    fn scan_snapshot_ref<'a>(
        &self,
        t: Time,
        buf: &'a mut Vec<ObjPos>,
    ) -> StoreResult<SnapshotRef<'a>> {
        self.scan_snapshot_into(t, buf)?;
        Ok(SnapshotRef::Buffered(buf))
    }

    fn multi_get_into(&self, t: Time, oids: &[Oid], out: &mut Vec<ObjPos>) -> StoreResult<()> {
        debug_assert!(oids.windows(2).all(|w| w[0] < w[1]));
        out.clear();
        if oids.is_empty() {
            return Ok(());
        }
        self.io.add_point_queries(oids.len() as u64);
        for &oid in oids {
            if let Some(v) = self.get_raw(key_of(t, oid))? {
                let (x, y) = val_parts(&v);
                out.push(ObjPos::new(oid, x, y));
            }
        }
        Ok(())
    }

    fn io_stats(&self) -> IoStats {
        self.io.snapshot()
    }

    fn name(&self) -> &'static str {
        "k2-lsmt-pin"
    }
}

impl TrajectoryStore for StorePin {
    fn scan_snapshot(&self, t: Time) -> StoreResult<Vec<ObjPos>> {
        let mut out = Vec::new();
        self.scan_snapshot_into(t, &mut out)?;
        Ok(out)
    }

    fn scan_snapshot_into(&self, t: Time, out: &mut Vec<ObjPos>) -> StoreResult<()> {
        self.io.add_range_query();
        self.io.add_snapshot_copied();
        out.clear();
        self.scan_merged_with(key_of(t, 0), key_of(t, Oid::MAX), |k, v| {
            let (_, oid) = key_parts(k);
            let (x, y) = val_parts(&v);
            out.push(ObjPos::new(oid, x, y));
        })?;
        Ok(())
    }

    fn multi_get(&self, t: Time, oids: &[Oid]) -> StoreResult<Vec<ObjPos>> {
        let mut out = Vec::with_capacity(oids.len());
        self.multi_get_into(t, oids, &mut out)?;
        Ok(out)
    }

    fn point_get(&self, t: Time, oid: Oid) -> StoreResult<Option<ObjPos>> {
        self.io.add_point_query();
        Ok(self.get_raw(key_of(t, oid))?.map(|v| {
            let (x, y) = val_parts(&v);
            ObjPos::new(oid, x, y)
        }))
    }

    fn reset_io_stats(&self) {
        self.io.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StorePin>();
        assert_send_sync::<LsmState>();
    }
}
