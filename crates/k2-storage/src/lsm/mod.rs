//! Log-structured merge-tree storage engine (the paper's *k2-LSMT*, §5.2).
//!
//! The engine follows the classic LSM design (O'Neil et al., 1996),
//! production-hardened with a crash-safe write path:
//!
//! * writes are first appended to a CRC-framed **write-ahead log**
//!   ([`wal`]), then land in an in-memory **memtable** (a sorted map) —
//!   an acknowledged insert survives a crash at any later point,
//! * full memtables are flushed to immutable **SSTables** — sorted runs of
//!   `(t, oid) → (x, y)` entries split into 4 KiB blocks with a sparse
//!   in-memory index and a per-table **bloom filter** — after which the
//!   WAL generation that covered them is retired,
//! * when the number of tables grows past a threshold a
//!   [`CompactionController`] picks a run to merge — **size-tiered** by
//!   default: only the newest run of similarly sized tables, leaving
//!   settled giants alone — and a background worker thread executes it
//!   off the write path (newest version of a key wins;
//!   [`LsmStore::compact_blocking`] runs the same merges inline for
//!   deterministic tests and benches),
//! * block reads go through a **sharded LRU block cache** shared behind
//!   an `Arc` (per-shard mutex, O(1) eviction), making [`LsmStore`]
//!   `Send`,
//! * every flush, compaction and WAL rotation is committed by an
//!   `fsync`ed record in the append-only **manifest** ([`manifest`]),
//!   written strictly *after* the files it references are durable,
//! * reads go through one private read view (`read.rs`) — built by the
//!   store over its own fields and by a [`StorePin`] over its pinned
//!   state — that consults the memtables (active, then frozen
//!   generations), then tables newest-first; range scans k-way-merge
//!   the sources,
//! * a request only reaches the sources whose key range admits it:
//!   every frozen generation and every SSTable carries a resident key
//!   fence (first and last key), and a key, a sorted batch or a scan
//!   range outside it skips the source for two integer compares. Within
//!   an admitted table the lookup order is **fence → block in hand →
//!   bloom filter → sparse index → block cache → disk**: the keys of a
//!   sorted batch (`multi_get`) that fall in the block the previous key
//!   used are answered from it, so a batch requests each block once.
//!
//! # MVCC state swap
//!
//! The store's durable structure — frozen memtable generations plus the
//! ordered table list — is published as an immutable `LsmState` behind
//! `Arc<RwLock<Arc<LsmState>>>` (the classic state-swap idiom).
//! Records fill a writer-private active memtable; every structural
//! change builds a fresh state and swaps the pointer under a short write
//! lock — once per [`LsmStore::insert_batch`] (the batch frozen into one
//! generation; a flush or compaction commit falling inside it is held
//! back to its end, so no reader sees part of a batch), and at each
//! flush and compaction commit outside one. A [`StorePin`] is an `Arc`
//! of a published state that serves reads for an entire mining run
//! without blocking ingest (retired SSTables stay readable through the
//! pin's open descriptors after compaction unlinks them; pinned reads
//! share the block cache but account into per-pin counters).
//! [`SharedLsm`] wraps a store for `&self` ingest + pinning across
//! threads — the serving substrate `k2-server` builds on: its `pin()`
//! clones the published pointer without touching the writer, falling
//! back to [`LsmStore::pin_snapshot`] under the writer lock only while
//! single inserts are acknowledged but not yet published. It is read
//! only through those pins.
//!
//! Opening a store runs recovery: fold the manifest (dropping a torn
//! tail), delete orphaned files from crashed flushes/compactions, open
//! the live tables (footer, every index row and the filter header are
//! validated; a table that fails is [`StoreError::Corrupt`](crate::StoreError),
//! never a panic or an allocation sized by its bytes), replay the live
//! WAL tail into the memtable (truncating at the first torn or corrupt
//! frame), and rebuild the time span from the tables' key fences and the
//! memtable — no data block is read.
//! The fault-injection suite (`tests/lsm_recovery.rs`) drives crashes at
//! every one of those points and asserts recovered stores re-mine to
//! byte-identical convoy output.
//!
//! Because the composite key is big-endian `(t, oid)`, "all data
//! corresponding to a timestamp `t` is co-located \[and\] fetched with a
//! single seek" — the property §5.2 credits for k2-LSMT's benchmark-point
//! scan performance. Hop-window accesses are point queries, pruned by
//! the key fences and bloom filters and batched per block.

mod bloom;
mod compaction;
pub mod manifest;
mod pin;
mod read;
mod shared;
mod sstable;
mod store;
pub mod wal;

pub use bloom::BloomFilter;
pub use compaction::CompactionController;
pub use manifest::{Manifest, ManifestRecord};
pub use pin::StorePin;
pub use shared::SharedLsm;
pub use sstable::{BlockCache, SsTableReader, SsTableWriter};
pub use store::{LsmConfig, LsmStore};
pub use wal::{replay_wal, WalReplay, WalSyncPolicy, WalWriter, WAL_FRAME_SIZE};
