//! I/O accounting and memory budgeting.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters describing the I/O behaviour of a storage engine.
///
/// The experiments of §6 attribute the k2-RDBMS / k2-LSMT performance
/// differences to disk access patterns; these counters make those patterns
/// observable without depending on wall-clock noise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Non-contiguous repositioning of the read head (or, for the LSM
    /// engine, block fetches that jump files/offsets).
    pub seeks: u64,
    /// Fixed-size blocks/pages fetched from disk (cache misses).
    pub blocks_read: u64,
    /// Block/page requests satisfied by a cache (buffer pool / block
    /// cache). `cache_hits + cache_misses` is the number of block
    /// requests. An LSM `multi_get_into` batch makes one per distinct
    /// block it needs, not one per key: keys answered from the block
    /// already in hand request nothing, so they are neither hits nor
    /// misses.
    pub cache_hits: u64,
    /// Block/page requests that had to go to disk because the cache did
    /// not hold them (or caching is disabled); always equal to
    /// `blocks_read`. `cache_hits / (cache_hits + cache_misses)` is the
    /// hit rate — of block requests, so batching away repeat requests
    /// of one block lowers it without a single extra read.
    pub cache_misses: u64,
    /// Total bytes read from disk.
    pub bytes_read: u64,
    /// Point queries served (`(t, oid)` lookups).
    pub point_queries: u64,
    /// Range/snapshot scans served.
    pub range_queries: u64,
    /// Snapshot scans served zero-copy, as shared views of resident
    /// storage (`scan_snapshot_ref` on an in-memory engine).
    pub snapshots_shared: u64,
    /// Snapshot scans that materialised records into the caller's
    /// buffer (any disk-engine `scan_snapshot_ref`).
    pub snapshots_copied: u64,
    /// Records appended to the write-ahead log (LSM only).
    pub wal_appends: u64,
    /// Records replayed from the write-ahead log during recovery
    /// (LSM only).
    pub wal_replayed: u64,
    /// Compactions committed (LSM only) — background or blocking.
    pub compactions: u64,
    /// Logical bytes rewritten by compaction (entries merged into output
    /// tables × entry width). `bytes_compacted / bytes ingested` is the
    /// compaction component of write amplification.
    pub bytes_compacted: u64,
}

impl IoStats {
    /// Difference of two snapshots (`self - earlier`), element-wise.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            seeks: self.seeks - earlier.seeks,
            blocks_read: self.blocks_read - earlier.blocks_read,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            bytes_read: self.bytes_read - earlier.bytes_read,
            point_queries: self.point_queries - earlier.point_queries,
            range_queries: self.range_queries - earlier.range_queries,
            snapshots_shared: self.snapshots_shared - earlier.snapshots_shared,
            snapshots_copied: self.snapshots_copied - earlier.snapshots_copied,
            wal_appends: self.wal_appends - earlier.wal_appends,
            wal_replayed: self.wal_replayed - earlier.wal_replayed,
            compactions: self.compactions - earlier.compactions,
            bytes_compacted: self.bytes_compacted - earlier.bytes_compacted,
        }
    }
}

/// Shared counter cell used by a store and its sub-components.
///
/// The counters are relaxed atomics, so an `Arc<IoCounters>` can be
/// shared across threads — the background compaction worker and any
/// future concurrent readers account into the same instance the store
/// snapshots. (Relaxed ordering is enough: each counter is an
/// independent monotonic tally, never used to synchronise other data.)
#[derive(Debug, Default)]
pub struct IoCounters {
    seeks: AtomicU64,
    blocks_read: AtomicU64,
    /// Cache hits and misses packed into one word — hits in the high 32
    /// bits, misses in the low 32 — so [`IoCounters::snapshot`] reads the
    /// pair with a single atomic load. Snapshotting two independent
    /// counters mid-flight could observe a hit that its paired miss
    /// accounting had not caught up with (or vice versa); per-request
    /// stats served under concurrent readers need `hits + misses` to be
    /// exactly the number of block requests observed. 2^32 events per
    /// side is orders of magnitude beyond any bench run between resets.
    cache_hits_misses: AtomicU64,
    bytes_read: AtomicU64,
    point_queries: AtomicU64,
    range_queries: AtomicU64,
    snapshots_shared: AtomicU64,
    snapshots_copied: AtomicU64,
    wal_appends: AtomicU64,
    wal_replayed: AtomicU64,
    compactions: AtomicU64,
    bytes_compacted: AtomicU64,
}

#[inline]
fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

impl IoCounters {
    /// New zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn add_seek(&self) {
        bump(&self.seeks, 1);
    }

    pub(crate) fn add_block_read(&self, bytes: u64) {
        bump(&self.blocks_read, 1);
        bump(&self.bytes_read, bytes);
    }

    pub(crate) fn add_cache_hit(&self) {
        bump(&self.cache_hits_misses, 1 << 32);
    }

    pub(crate) fn add_cache_miss(&self) {
        bump(&self.cache_hits_misses, 1);
    }

    /// Counts `n` point queries — one atomic round-trip for a whole
    /// sorted-probe `multi_get_into` batch.
    pub(crate) fn add_point_queries(&self, n: u64) {
        bump(&self.point_queries, n);
    }

    pub(crate) fn add_range_query(&self) {
        bump(&self.range_queries, 1);
    }

    pub(crate) fn add_snapshot_shared(&self) {
        bump(&self.snapshots_shared, 1);
    }

    pub(crate) fn add_snapshot_copied(&self) {
        bump(&self.snapshots_copied, 1);
    }

    /// Counts `n` records appended to the write-ahead log — one atomic
    /// round-trip for a whole batch run.
    pub(crate) fn add_wal_appends(&self, n: u64) {
        bump(&self.wal_appends, n);
    }

    pub(crate) fn add_wal_replayed(&self, records: u64) {
        bump(&self.wal_replayed, records);
    }

    pub(crate) fn add_compaction(&self, bytes: u64) {
        bump(&self.compactions, 1);
        bump(&self.bytes_compacted, bytes);
    }

    /// Snapshot of the counters.
    ///
    /// The hit/miss pair is read with one atomic load of the packed
    /// word, so `cache_hits + cache_misses` is exactly the number of
    /// block requests accounted at that instant — consistent even while
    /// concurrent readers are bumping both sides. The remaining fields
    /// are independent monotonic tallies sampled individually.
    pub fn snapshot(&self) -> IoStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let hm = self.cache_hits_misses.load(Ordering::Relaxed);
        IoStats {
            seeks: get(&self.seeks),
            blocks_read: get(&self.blocks_read),
            cache_hits: hm >> 32,
            cache_misses: hm & u32::MAX as u64,
            bytes_read: get(&self.bytes_read),
            point_queries: get(&self.point_queries),
            range_queries: get(&self.range_queries),
            snapshots_shared: get(&self.snapshots_shared),
            snapshots_copied: get(&self.snapshots_copied),
            wal_appends: get(&self.wal_appends),
            wal_replayed: get(&self.wal_replayed),
            compactions: get(&self.compactions),
            bytes_compacted: get(&self.bytes_compacted),
        }
    }

    /// Zeroes all counters.
    pub fn reset(&self) {
        let zero = |c: &AtomicU64| c.store(0, Ordering::Relaxed);
        zero(&self.seeks);
        zero(&self.blocks_read);
        zero(&self.cache_hits_misses);
        zero(&self.bytes_read);
        zero(&self.point_queries);
        zero(&self.range_queries);
        zero(&self.snapshots_shared);
        zero(&self.snapshots_copied);
        zero(&self.wal_appends);
        zero(&self.wal_replayed);
        zero(&self.compactions);
        zero(&self.bytes_compacted);
    }
}

/// An upper bound on in-memory loading, in bytes.
///
/// `MemoryBudget::unlimited()` disables the check. A bounded budget makes
/// `FlatFileStore::load_in_memory` (and the VCoDA baselines that load whole
/// datasets) fail deterministically, reproducing the paper's crash rows for
/// the Brinkhoff-scale dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    limit: Option<u64>,
}

impl MemoryBudget {
    /// No limit.
    pub fn unlimited() -> Self {
        Self { limit: None }
    }

    /// Limit of `bytes`.
    pub fn bytes(bytes: u64) -> Self {
        Self { limit: Some(bytes) }
    }

    /// Limit expressed in MiB.
    pub fn mib(mib: u64) -> Self {
        Self::bytes(mib * 1024 * 1024)
    }

    /// Checks whether `needed` bytes fit; returns the budget error if not.
    pub fn check(&self, needed: u64) -> Result<(), crate::StoreError> {
        match self.limit {
            Some(budget) if needed > budget => {
                Err(crate::StoreError::MemoryBudgetExceeded { needed, budget })
            }
            _ => Ok(()),
        }
    }

    /// The configured limit, if any.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }
}

impl Default for MemoryBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let c = IoCounters::new();
        c.add_seek();
        c.add_block_read(4096);
        c.add_block_read(4096);
        c.add_cache_hit();
        c.add_cache_miss();
        c.add_point_queries(1);
        c.add_range_query();
        c.add_snapshot_shared();
        c.add_snapshot_copied();
        c.add_wal_appends(1);
        c.add_wal_replayed(3);
        c.add_compaction(96);
        let s = c.snapshot();
        assert_eq!(s.seeks, 1);
        assert_eq!(s.blocks_read, 2);
        assert_eq!(s.bytes_read, 8192);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.point_queries, 1);
        assert_eq!(s.range_queries, 1);
        assert_eq!(s.snapshots_shared, 1);
        assert_eq!(s.snapshots_copied, 1);
        assert_eq!(s.wal_appends, 1);
        assert_eq!(s.wal_replayed, 3);
        assert_eq!(s.compactions, 1);
        assert_eq!(s.bytes_compacted, 96);
        c.reset();
        assert_eq!(c.snapshot(), IoStats::default());
    }

    #[test]
    fn since_subtracts() {
        let c = IoCounters::new();
        c.add_block_read(100);
        c.add_compaction(10);
        let early = c.snapshot();
        c.add_block_read(100);
        c.add_seek();
        c.add_compaction(30);
        let diff = c.snapshot().since(&early);
        assert_eq!(diff.blocks_read, 1);
        assert_eq!(diff.bytes_read, 100);
        assert_eq!(diff.seeks, 1);
        assert_eq!(diff.compactions, 1);
        assert_eq!(diff.bytes_compacted, 30);
    }

    #[test]
    fn counters_are_shareable_across_threads() {
        let c = std::sync::Arc::new(IoCounters::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.add_cache_hit();
                        c.add_compaction(2);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = c.snapshot();
        assert_eq!(s.cache_hits, 4000);
        assert_eq!(s.compactions, 4000);
        assert_eq!(s.bytes_compacted, 8000);
    }

    #[test]
    fn hit_miss_snapshot_is_consistent_under_concurrent_bumps() {
        // Each writer records a hit strictly before its paired miss, so
        // in every consistent snapshot hits >= misses and the lead is at
        // most the number of writers caught between the two bumps. With
        // two independently loaded atomics a sampler could read the hit
        // word, lose the race for a while, then read a miss word that
        // had overtaken it — the packed single-word counter makes that
        // impossible.
        let c = std::sync::Arc::new(IoCounters::new());
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..20_000 {
                        c.add_cache_hit();
                        c.add_cache_miss();
                    }
                })
            })
            .collect();
        for _ in 0..10_000 {
            let s = c.snapshot();
            assert!(
                s.cache_hits >= s.cache_misses,
                "miss overtook its preceding hit: {} hits, {} misses",
                s.cache_hits,
                s.cache_misses
            );
            assert!(
                s.cache_hits - s.cache_misses <= 4,
                "hit/miss lead exceeds writer count: {} hits, {} misses",
                s.cache_hits,
                s.cache_misses
            );
        }
        for w in writers {
            w.join().unwrap();
        }
        let s = c.snapshot();
        assert_eq!(s.cache_hits, 80_000);
        assert_eq!(s.cache_misses, 80_000);
    }

    #[test]
    fn memory_budget_enforced() {
        assert!(MemoryBudget::unlimited().check(u64::MAX).is_ok());
        let b = MemoryBudget::bytes(1000);
        assert!(b.check(1000).is_ok());
        assert!(b.check(1001).is_err());
        assert_eq!(MemoryBudget::mib(2).limit(), Some(2 * 1024 * 1024));
    }
}
