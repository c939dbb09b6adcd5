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

use super::read::{Frozen, ReadView};
use super::sstable::SsTableReader;
use crate::iostats::IoCounters;
use crate::{IoStats, SnapshotRef, SnapshotSource, StoreResult, TrajectoryStore};
use k2_model::{ObjPos, Oid, Time, TimeInterval};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One immutable published state of an `LsmStore`: everything a reader
/// needs, shared by `Arc`. Every read of the store goes through one — the
/// store's own reads, its gauges and its pins. The SSTable readers
/// inside keep their files readable even after compaction unlinks them
/// (unix unlink-while-open), so a state stays fully servable for as long
/// as anything holds it.
#[derive(Debug, Default)]
pub(crate) struct LsmState {
    /// Frozen memtable generations, oldest first. The writer's active
    /// memtable is *not* here — it is frozen in when a batch ends, or
    /// by the next reader after single inserts.
    pub(crate) frozen: Vec<Arc<Frozen>>,
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
    /// The time span covered, a single instant at 0 when empty.
    pub(crate) fn time_span(&self) -> TimeInterval {
        match self.span {
            Some((lo, hi)) => TimeInterval::new(lo, hi),
            None => TimeInterval::instant(0),
        }
    }
}

/// A pinned, immutable view of an `LsmStore` at one instant.
///
/// Created by `LsmStore::pin`. The pin is a full [`SnapshotSource`]
/// reader with its own resettable counters: a miner can hold it for an
/// entire run while the store keeps ingesting, flushing and compacting
/// underneath — the pin's view never changes, because it owns `Arc`s to
/// the frozen memtable generations and the open SSTable readers of its
/// state.
/// Compaction may unlink a pinned table's file; the open descriptor
/// keeps the data readable until the pin drops.
///
/// Reads take the same `ReadView` path over a published state as the
/// store's own (lookup order, merge ranking and accounting are decided
/// there, once) and go through the store's shared block cache (cache ids
/// are table seqs, unique for the directory's whole history, so a
/// retired table's blocks can never alias a live one's) but are
/// accounted into the pin's **own** counters — `io_stats()` reports exactly the work this
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
    /// state swaps (batches, flushes, compaction commits, reader freezes).
    pub fn version(&self) -> u64 {
        self.state.version
    }

    /// Staleness relative to a current store version: how many state
    /// swaps have been published since this pin was taken.
    pub fn staleness(&self, current_version: u64) -> u64 {
        current_version.saturating_sub(self.state.version)
    }

    /// Sequence numbers of the pinned SSTables, oldest first. A seq may
    /// refer to a file compaction has since unlinked; the pin still
    /// reads it through its open descriptor.
    pub fn table_seqs(&self) -> &[u64] {
        &self.state.table_seqs
    }

    /// The pinned state as a read view, reads charged to the pin's
    /// counters.
    fn view(&self) -> ReadView<'_> {
        ReadView::new(&self.state, &self.io)
    }
}

impl Drop for StorePin {
    fn drop(&mut self) {
        self.pins.fetch_sub(1, Ordering::Relaxed);
    }
}

impl SnapshotSource for StorePin {
    fn span(&self) -> TimeInterval {
        self.state.time_span()
    }

    fn num_points(&self) -> u64 {
        self.view().num_points()
    }

    fn scan_snapshot_ref<'a>(
        &self,
        t: Time,
        buf: &'a mut Vec<ObjPos>,
    ) -> StoreResult<SnapshotRef<'a>> {
        self.view().scan_into(t, buf)?;
        Ok(SnapshotRef::Buffered(buf))
    }

    fn multi_get_into(&self, t: Time, oids: &[Oid], out: &mut Vec<ObjPos>) -> StoreResult<()> {
        self.view().multi_get_into(t, oids, out)
    }

    fn io_stats(&self) -> IoStats {
        self.io.snapshot()
    }

    fn name(&self) -> &'static str {
        "k2-lsmt-pin"
    }
}

impl TrajectoryStore for StorePin {
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
