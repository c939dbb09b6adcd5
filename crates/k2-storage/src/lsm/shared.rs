//! [`SharedLsm`]: a cloneable, thread-safe handle over one [`LsmStore`]
//! for the serving path — `&self` ingest and pinning from any thread.
//!
//! The store itself is single-writer (`insert`/`insert_batch`/`flush`
//! take `&mut self`), so the handle serialises writers behind a mutex.
//! Readers stay off that mutex as far as the data allows:
//!
//! * **Publication happens at batch boundaries.** The writer freezes its
//!   active memtable and swaps in a new published state once per
//!   [`LsmStore::insert_batch`] (and at every flush and compaction
//!   commit), never per record and never for a reader's sake.
//! * **The fast pin path** — the only one a served workload takes —
//!   clones the published `Arc<LsmState>` under a momentary `RwLock`
//!   read: [`SharedLsm::pin`] returns at once however long a batch has
//!   been holding the writer mutex, and sees every batch acknowledged
//!   before the call and nothing of one still in flight.
//! * **The slow pin path** exists for single [`SharedLsm::insert`]s,
//!   which are acknowledged without a publish: while such entries sit
//!   in the active memtable (an atomic flag says so) a pin takes the
//!   writer mutex, freezes them in and publishes — queueing behind
//!   whatever the writer is doing, as every pin once did.
//!
//! The handle is read **only through pins**: it implements no read
//! trait of its own (a read under the writer mutex would queue behind
//! every batch). After pinning, a miner reads lock-free for its whole
//! run through the pin's read view, and `version()` peeks at the
//! published state without the writer mutex.

use super::pin::{LsmState, StorePin};
use super::store::{LsmConfig, LsmStore};
use crate::StoreResult;
use k2_model::{Dataset, Point};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Cloneable `&self` handle over an [`LsmStore`] plus direct access to
/// its published MVCC state. See the module docs.
#[derive(Debug, Clone)]
pub struct SharedLsm {
    store: Arc<Mutex<LsmStore>>,
    state: Arc<RwLock<Arc<LsmState>>>,
    /// Set while acknowledged single inserts await publication.
    unpublished: Arc<AtomicBool>,
    pins: Arc<AtomicU64>,
}

impl SharedLsm {
    /// Wraps an existing store.
    pub fn new(store: LsmStore) -> Self {
        Self {
            state: store.state_handle(),
            unpublished: store.unpublished_handle(),
            pins: store.pins_handle(),
            store: Arc::new(Mutex::new(store)),
        }
    }

    /// Creates an empty store in `dir` and wraps it.
    pub fn create_with(dir: impl AsRef<Path>, config: LsmConfig) -> StoreResult<Self> {
        Ok(Self::new(LsmStore::create_with(dir, config)?))
    }

    /// Bulk-loads `dataset` into `dir` and wraps the result.
    pub fn bulk_load_with(
        dir: impl AsRef<Path>,
        dataset: &Dataset,
        config: LsmConfig,
    ) -> StoreResult<Self> {
        Ok(Self::new(LsmStore::bulk_load_with(dir, dataset, config)?))
    }

    /// Locks the underlying store for direct access. Hold the guard as
    /// briefly as possible — every other writer queues behind it (pinned
    /// readers are unaffected, and so is [`Self::pin`] unless single
    /// inserts await publication).
    pub fn lock(&self) -> MutexGuard<'_, LsmStore> {
        self.store.lock().expect("lsm store lock")
    }

    /// Inserts one record (briefly takes the writer lock).
    pub fn insert(&self, p: Point) -> StoreResult<()> {
        self.lock().insert(p)
    }

    /// Flushes buffered entries to an SSTable.
    pub fn flush(&self) -> StoreResult<()> {
        self.lock().flush()
    }

    /// Pins the current contents as an immutable [`StorePin`]: every
    /// acknowledged insert and batch, and no part of a batch in flight.
    ///
    /// Normally a clone of the published state that waits for no writer.
    /// Only when single [`Self::insert`]s have left acknowledged entries
    /// unpublished does it go through [`LsmStore::pin_snapshot`] under
    /// the writer lock (see the module docs).
    pub fn pin(&self) -> StoreResult<StorePin> {
        // Acquire, paired with the Release stores in `LsmStore::insert`
        // and `LsmStore::publish`.
        if self.unpublished.load(Ordering::Acquire) {
            return self.lock().pin_snapshot();
        }
        let state = self.state.read().expect("state lock").clone();
        Ok(StorePin::new(state, self.pins.clone()))
    }

    /// Version of the currently published state, read lock-free with
    /// respect to writers (only the state `RwLock` read lock is taken,
    /// which writers hold just for a pointer swap).
    pub fn version(&self) -> u64 {
        self.state.read().expect("state lock").version
    }

    /// Number of live [`StorePin`]s.
    pub fn live_pins(&self) -> u64 {
        self.pins.load(Ordering::Relaxed)
    }

    /// Blocks until the store's background compactions are fully
    /// drained — how a server's `Stats` request, or a test that needs a
    /// settled table layout, quiesces the store. Holds the writer lock
    /// while it waits.
    pub fn quiesce_maintenance(&self) -> StoreResult<()> {
        self.lock().wait_for_compactions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SnapshotSource, TrajectoryStore};
    use k2_model::Time;

    #[test]
    fn shared_handle_is_send_sync_clone() {
        fn assert_ok<T: Send + Sync + Clone>() {}
        assert_ok::<SharedLsm>();
    }

    #[test]
    fn concurrent_ingest_under_live_pin() {
        let dir = std::env::temp_dir().join(format!("k2shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = LsmConfig {
            memtable_entries: 128,
            wal: false,
            ..LsmConfig::default()
        };
        let shared = SharedLsm::create_with(&dir, config).unwrap();
        for oid in 0..64u32 {
            shared.insert(Point::new(oid, oid as f64, 0.0, 0)).unwrap();
        }
        let pin = shared.pin().unwrap();
        assert_eq!(shared.live_pins(), 1);
        // Four writer threads ingest past several flush boundaries while
        // the pin is live on this thread.
        let mut handles = Vec::new();
        for w in 0..4u32 {
            let s = shared.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..256u32 {
                    s.insert(Point::new(
                        1000 + w * 1000 + i,
                        1.0,
                        1.0,
                        1 + (i % 4) as Time,
                    ))
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        shared.flush().unwrap();
        shared.quiesce_maintenance().unwrap();
        // The pin's view is exactly the pre-ingest state.
        assert_eq!(pin.scan_snapshot(0).unwrap().len(), 64);
        assert!(pin.scan_snapshot(1).unwrap().is_empty());
        // The store sees everything.
        assert_eq!(shared.lock().num_points(), 64 + 4 * 256);
        drop(pin);
        assert_eq!(shared.live_pins(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
