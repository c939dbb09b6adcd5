//! In-memory store: a [`Dataset`] with I/O accounting.

use crate::iostats::IoCounters;
use crate::{IoStats, SnapshotRef, SnapshotSource, StoreResult, TrajectoryStore};
use k2_model::{Dataset, ObjPos, Oid, Time, TimeInterval};

/// A fully in-memory store.
///
/// This is what the paper's *k2-File* variant becomes after loading the
/// flat file: all snapshots resident, no disk I/O. It is also the natural
/// store for unit tests and for datasets that comfortably fit in RAM.
#[derive(Debug)]
pub struct InMemoryStore {
    dataset: Dataset,
    io: IoCounters,
}

impl InMemoryStore {
    /// Wraps a dataset.
    pub fn new(dataset: Dataset) -> Self {
        Self {
            dataset,
            io: IoCounters::new(),
        }
    }

    /// Borrow the underlying dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }
}

impl SnapshotSource for InMemoryStore {
    fn span(&self) -> TimeInterval {
        self.dataset.span()
    }

    fn num_points(&self) -> u64 {
        self.dataset.num_points()
    }

    fn scan_snapshot_ref<'a>(
        &self,
        t: Time,
        _buf: &'a mut Vec<ObjPos>,
    ) -> StoreResult<SnapshotRef<'a>> {
        self.io.add_range_query();
        Ok(match self.dataset.snapshot(t) {
            // Zero-copy: the dataset's own Arc-backed storage is handed
            // out; no record moves and the caller's buffer stays untouched.
            // Only these handouts count as "shared" — an absent timestamp
            // returns an empty borrow and moves neither counter.
            Some(s) => {
                self.io.add_snapshot_shared();
                SnapshotRef::Shared(s.positions_shared())
            }
            None => SnapshotRef::Buffered(&[]),
        })
    }

    fn multi_get_into(&self, t: Time, oids: &[Oid], out: &mut Vec<ObjPos>) -> StoreResult<()> {
        debug_assert!(oids.windows(2).all(|w| w[0] < w[1]));
        self.io.add_point_queries(oids.len() as u64);
        out.clear();
        if let Some(snap) = self.dataset.snapshot(t) {
            snap.restrict_ids_into(oids, out);
        }
        Ok(())
    }

    fn io_stats(&self) -> IoStats {
        self.io.snapshot()
    }

    fn name(&self) -> &'static str {
        "in-memory"
    }

    fn as_dataset(&self) -> Option<&Dataset> {
        Some(&self.dataset)
    }
}

impl TrajectoryStore for InMemoryStore {
    fn reset_io_stats(&self) {
        self.io.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trait_tests::{conformance, toy_dataset};

    #[test]
    fn conforms_to_trait_contract() {
        let d = toy_dataset();
        let store = InMemoryStore::new(d.clone());
        conformance(&store, &d);
    }

    #[test]
    fn scan_snapshot_ref_is_zero_copy_and_counted_shared() {
        let d = toy_dataset();
        let store = InMemoryStore::new(d.clone());
        let mut buf = vec![ObjPos::new(9, 9.0, 9.0)];
        let snap = store.scan_snapshot_ref(25, &mut buf).unwrap();
        let SnapshotRef::Shared(arc) = snap else {
            panic!("in-memory scans must not copy");
        };
        assert!(
            std::sync::Arc::ptr_eq(&arc, &d.snapshot(25).unwrap().positions_shared()),
            "the handed-out Arc must alias the dataset's own storage"
        );
        // Buffer untouched on the shared path; counters attribute the scan
        // to the zero-copy column.
        assert_eq!(buf.len(), 1);
        let s = store.io_stats();
        assert_eq!((s.snapshots_shared, s.snapshots_copied), (1, 0));
    }

    #[test]
    fn point_queries_counted_per_oid() {
        let d = toy_dataset();
        let store = InMemoryStore::new(d);
        store
            .multi_get_into(0, &[0, 1, 2], &mut Vec::new())
            .unwrap();
        assert_eq!(store.io_stats().point_queries, 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn probe_rejects_unsorted_oids() {
        let store = InMemoryStore::new(toy_dataset());
        let _ = store.multi_get_into(10, &[3, 1], &mut Vec::new());
    }
}
