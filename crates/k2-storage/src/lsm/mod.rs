//! Log-structured merge-tree storage engine (the paper's *k2-LSMT*, §5.2).
//!
//! The engine follows the classic LSM design (O'Neil et al., 1996),
//! production-hardened with a crash-safe write path:
//!
//! * writes are first appended to a CRC-framed **write-ahead log**
//!   ([`wal`]), then land in an in-memory **memtable** (a sorted map) —
//!   an acknowledged insert survives a crash at any later point. A batch
//!   ([`LsmStore::insert_batch`]) is **group-committed**: each run of it
//!   up to a memtable flush is one WAL write and, except under
//!   [`WalSyncPolicy::OnRotate`], one `sync_data` before the ack,
//! * full memtables are flushed to immutable **SSTables** — sorted runs of
//!   `(t, oid) → (x, y)` entries split into 4 KiB blocks with a sparse
//!   in-memory index — after which the WAL generation that covered them
//!   is retired,
//! * when the number of tables grows past a threshold a
//!   [`CompactionController`] picks a run to merge — **size-tiered** by
//!   default: only the newest run of similarly sized tables, leaving
//!   settled giants alone — and a background worker thread executes it
//!   off the write path (newest version of a key wins;
//!   [`LsmStore::compact_blocking`] runs the same merges inline for
//!   deterministic tests and benches),
//! * block reads go through a **sharded LRU block cache** shared behind
//!   an `Arc` (per-shard mutex, O(1) eviction),
//! * every flush, compaction and WAL rotation is committed by an
//!   `fsync`ed record in the append-only **manifest** ([`manifest`]),
//!   written strictly *after* the files it references are durable,
//! * reads go through one private read view (`read.rs`) over one
//!   published state — the store's own reads and a [`StorePin`]'s build
//!   the same view, each charging its own counters — that consults the
//!   frozen memtable generations, newest first, then tables newest-first;
//!   range scans k-way-merge the sources,
//! * a request only reaches the sources whose key range admits it:
//!   every frozen generation and every SSTable carries a resident key
//!   fence (first and last key), and a key, a sorted batch or a scan
//!   range outside it skips the source for two integer compares. Keys
//!   are `(t, oid)` and ingest runs in time order, so the fences are
//!   disjoint and a probe reaches the one table that can hold its key —
//!   there is no bloom filter. Within an admitted table the lookup order
//!   is **fence → block in hand → sparse index → block cache → disk**:
//!   the keys of a sorted batch (`multi_get_into`) that fall in the
//!   block the previous key used are answered from it, so a batch
//!   requests each block once.
//!
//! # MVCC state swap
//!
//! [`LsmStore`] is one `Send + Sync` store whose methods all take
//! `&self`, after mini-lsm's `LsmStorageInner`: a published
//! `RwLock<Arc<LsmState>>` (frozen memtable generations plus the ordered
//! table list, the classic state-swap idiom) beside a writer-only mutex.
//! Every structural change builds a fresh state and swaps the pointer —
//! once per [`LsmStore::insert_batch`] (a flush or compaction commit
//! falling inside it is held back to its end, so no reader sees part of
//! a batch), and at each flush and compaction commit outside one.
//! Every reader reads a published state: the store's own reads, its
//! gauges, and [`LsmStore::pin`], whose [`StorePin`] serves a whole
//! mining run without blocking ingest (retired SSTables stay readable
//! through the pin's open descriptors; pinned reads share the block
//! cache but account into per-pin counters). Only acknowledged single
//! inserts not yet published send a reader through the writer lock, to
//! freeze them in. A panicked writer poisons the lock, and every later
//! write fails closed. Threads share the store through an `Arc` — the
//! serving substrate `k2-server` builds on.
//!
//! Opening a store runs recovery: fold the manifest (dropping a torn
//! tail), delete orphaned files from crashed flushes/compactions, open
//! the live tables (footer and every index row are validated; a table
//! that fails is [`StoreError::Corrupt`](crate::StoreError),
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
//! the key fences and batched per block.

mod compaction;
pub mod manifest;
mod pin;
mod read;
mod sstable;
mod store;
pub mod wal;

pub use compaction::CompactionController;
pub use manifest::{Manifest, ManifestRecord};
pub use pin::StorePin;
pub use sstable::{BlockCache, SsTableReader, SsTableWriter};
pub use store::{LsmConfig, LsmStore};

/// The store's former name, from when it was a mutex-wrapped handle.
/// Kept only until the benchmark harness's callers are renamed to
/// [`LsmStore`]; delete it with [`LsmStore::lock`].
pub type SharedLsm = LsmStore;
pub use wal::{replay_wal, WalReplay, WalSyncPolicy, WalWriter, WAL_FRAME_SIZE};
