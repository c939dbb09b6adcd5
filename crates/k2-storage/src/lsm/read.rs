//! The LSM read path: [`ReadView`], the one place where lookup order,
//! merge ranking and read I/O accounting are decided, and [`MergeIter`],
//! the k-way merge its scans (and the flush and compaction writers) run
//! on.
//!
//! A view borrows one published state — its frozen generations and
//! SSTables — plus the counters its reads are charged to. Every reader
//! builds one over a published `LsmState`: [`LsmStore`](super::LsmStore)
//! charging its own counters, [`StorePin`](super::StorePin) its pin's;
//! nothing else reads the tree.
//!
//! A request only reaches the sources whose key range admits it. Every
//! immutable source carries a key fence — a frozen generation's is
//! recorded when it is frozen, an SSTable's is read at `open` — and a
//! key, a batch or a scan range outside it skips the source at the cost
//! of two integer compares. Inside an admitted SSTable the order is:
//! block in hand (the block the batch's previous key used) → sparse
//! index → block cache → disk, so a sorted batch requests each block it
//! needs once.

use super::pin::LsmState;
use super::sstable::{overlaps, BlockInHand, Fence, SsTableIter, SsTableReader};
use super::store::{key_of, key_parts, val_parts, Memtable};
use crate::iostats::IoCounters;
use crate::keys::VAL_SIZE;
use crate::StoreResult;
use k2_model::{ObjPos, Oid, Time};
use std::sync::Arc;

/// One frozen memtable generation: the entries and their key fence,
/// recorded once, when the generation becomes immutable.
#[derive(Debug)]
pub(crate) struct Frozen {
    pub(crate) entries: Memtable,
    fence: Fence,
}

impl Frozen {
    /// Freezes a non-empty memtable.
    pub(crate) fn new(entries: Memtable) -> Self {
        let first = entries.first_key_value().map(|(&k, _)| k);
        let last = entries.last_key_value().map(|(&k, _)| k);
        Self {
            fence: first
                .zip(last)
                .expect("only a non-empty memtable is frozen"),
            entries,
        }
    }

    /// Can the generation hold a key of `[lo, hi]`?
    fn admits(&self, lo: u64, hi: u64) -> bool {
        overlaps(self.fence, lo, hi)
    }
}

/// Everything one reader sees, newest source first: `frozen` from its
/// last generation back, then `tables` from the last back.
pub(crate) struct ReadView<'a> {
    /// Frozen memtable generations, oldest first.
    frozen: &'a [Arc<Frozen>],
    /// Open SSTable readers, oldest first (index = recency rank).
    tables: &'a [Arc<SsTableReader>],
    /// Where this view's reads are accounted.
    io: &'a IoCounters,
}

impl<'a> ReadView<'a> {
    /// A view of `state` whose reads are charged to `io`.
    pub(crate) fn new(state: &'a LsmState, io: &'a IoCounters) -> Self {
        Self {
            frozen: &state.frozen,
            tables: &state.tables,
            io,
        }
    }

    /// Newest version of one key: frozen generations newest to oldest,
    /// then SSTables newest to oldest, asking only those whose fence
    /// admits the key. `hand` carries the SSTable block in hand from one
    /// key of a sorted batch to the next.
    fn get(&self, key: u64, hand: &mut Option<BlockInHand>) -> StoreResult<Option<[u8; VAL_SIZE]>> {
        for generation in self.frozen.iter().rev().filter(|g| g.admits(key, key)) {
            if let Some(v) = generation.entries.get(&key) {
                return Ok(Some(*v));
            }
        }
        for table in self.tables.iter().rev().filter(|t| t.admits(key, key)) {
            if let Some(v) = table.probe(key, hand, self.io)? {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    /// Merged range scan over `[lo, hi]`, newest version winning; each
    /// entry is fed to `visit` straight off the merge (no intermediate
    /// entry buffer, so callers can decode into their own storage). Only
    /// sources that can hold a key of the range join the merge.
    fn scan_merged_with(
        &self,
        lo: u64,
        hi: u64,
        mut visit: impl FnMut(u64, [u8; VAL_SIZE]),
    ) -> StoreResult<()> {
        let mut merge = MergeIter::over_tables(self.tables, lo, hi, self.io)?;
        for generation in self.frozen.iter().filter(|g| g.admits(lo, hi)) {
            merge.add_mem(generation.entries.range(lo..=hi));
        }
        while let Some((k, v)) = merge.next()? {
            if k > hi {
                break;
            }
            visit(k, v);
        }
        Ok(())
    }

    /// `SnapshotSource::multi_get_into`: §5.2's "for fetching the data
    /// for HWMT, a point query is issued for each (timestamp, oid) pair."
    /// Each probe goes straight from the memtable / SSTable blocks into
    /// the caller's buffer — the k/2-hop probe loops call this thousands
    /// of times on tiny candidate sets, so nothing here allocates.
    ///
    /// The batch's keys ascend (fixed `t`, sorted oids), so consecutive
    /// keys are answered from the one SSTable block in hand for as long
    /// as they fall inside it.
    pub(crate) fn multi_get_into(
        &self,
        t: Time,
        oids: &[Oid],
        out: &mut Vec<ObjPos>,
    ) -> StoreResult<()> {
        debug_assert!(oids.windows(2).all(|w| w[0] < w[1]));
        out.clear();
        self.io.add_point_queries(oids.len() as u64);
        let mut hand = None;
        for &oid in oids {
            if let Some(v) = self.get(key_of(t, oid), &mut hand)? {
                let (x, y) = val_parts(&v);
                out.push(ObjPos::new(oid, x, y));
            }
        }
        Ok(())
    }

    /// `SnapshotSource::scan_snapshot_ref`: merged entries decode
    /// straight into the caller's reused buffer (one copy, no
    /// intermediate entry vector, no per-scan allocation).
    pub(crate) fn scan_into(&self, t: Time, out: &mut Vec<ObjPos>) -> StoreResult<()> {
        self.io.add_range_query();
        self.io.add_snapshot_copied();
        out.clear();
        self.scan_merged_with(key_of(t, 0), key_of(t, Oid::MAX), |k, v| {
            let (_, oid) = key_parts(k);
            let (x, y) = val_parts(&v);
            out.push(ObjPos::new(oid, x, y));
        })
    }

    /// `SnapshotSource::num_points`. Counts versions, not unique keys;
    /// exact for the append-only workloads of the experiments.
    pub(crate) fn num_points(&self) -> u64 {
        let buffered = self.frozen.iter().map(|m| m.entries.len()).sum::<usize>();
        self.tables.iter().map(|t| t.num_entries()).sum::<u64>() + buffered as u64
    }
}

type Entry = (u64, [u8; VAL_SIZE]);
type MemRange<'a> = std::collections::btree_map::Range<'a, u64, [u8; VAL_SIZE]>;

/// K-way merging cursor over SSTable iterators plus any number of
/// memtable ranges. Sources are ranked by recency (higher = newer); for
/// duplicate keys only the newest version is emitted. Tables rank below
/// every memtable range; memtable ranges rank in the order they are
/// added (add frozen generations oldest first, the active memtable
/// last). Shared with the flush and compaction writers, whose merges
/// rank inputs the same way.
pub(crate) struct MergeIter<'a> {
    /// `(rank, head, cursor)` per table, ranks `0..tables.len()`.
    tables: Vec<(usize, Option<Entry>, SsTableIter<'a>)>,
    /// `(rank, cursor, head)` per memtable range, ranks continuing
    /// upward in add order.
    mems: Vec<(usize, MemRange<'a>, Option<Entry>)>,
    next_rank: usize,
}

impl<'a> MergeIter<'a> {
    /// Cursor starting at `from` over those of `tables` (oldest first)
    /// that can hold a key of `[from, to]`, with block fetches accounted
    /// into `io`. A table's rank is its index in `tables` whether or not
    /// its neighbours take part.
    pub(crate) fn over_tables(
        tables: &'a [Arc<SsTableReader>],
        from: u64,
        to: u64,
        io: &'a IoCounters,
    ) -> StoreResult<Self> {
        let mut v = Vec::new();
        let admitted = tables
            .iter()
            .enumerate()
            .filter(|(_, t)| t.admits(from, to));
        for (rank, t) in admitted {
            let mut it = t.iter_from_with(from, io);
            let head = it.next()?;
            v.push((rank, head, it));
        }
        Ok(Self {
            next_rank: tables.len(),
            tables: v,
            mems: Vec::new(),
        })
    }

    /// Cursor over whole memtables alone, oldest first.
    pub(crate) fn over_memtables(generations: impl Iterator<Item = &'a Memtable>) -> Self {
        let mut merge = Self {
            tables: Vec::new(),
            mems: Vec::new(),
            next_rank: 0,
        };
        for generation in generations {
            merge.add_mem(generation.range(..));
        }
        merge
    }

    /// Adds a memtable range outranking the tables and every range
    /// added before it; an empty range adds nothing.
    pub(crate) fn add_mem(&mut self, mut range: MemRange<'a>) {
        let Some((&k, v)) = range.next() else {
            return;
        };
        self.mems.push((self.next_rank, range, Some((k, *v))));
        self.next_rank += 1;
    }

    pub(crate) fn next(&mut self) -> StoreResult<Option<Entry>> {
        // Minimum key across all heads.
        let mut min_key: Option<u64> = None;
        for (_, head, _) in &self.tables {
            if let Some((k, _)) = head {
                min_key = Some(min_key.map_or(*k, |m: u64| m.min(*k)));
            }
        }
        for (_, _, head) in &self.mems {
            if let Some((k, _)) = head {
                min_key = Some(min_key.map_or(*k, |m: u64| m.min(*k)));
            }
        }
        let Some(key) = min_key else {
            return Ok(None);
        };
        // Newest version wins: every source holding the key advances,
        // the highest rank keeps the value.
        let mut best: Option<(usize, [u8; VAL_SIZE])> = None;
        for (rank, head, it) in &mut self.tables {
            if head.map(|(k, _)| k) == Some(key) {
                let (_, v) = head.expect("checked above");
                if best.is_none_or(|(r, _)| *rank > r) {
                    best = Some((*rank, v));
                }
                *head = it.next()?;
            }
        }
        for (rank, range, head) in &mut self.mems {
            if head.map(|(k, _)| k) == Some(key) {
                let (_, v) = head.expect("checked above");
                if best.is_none_or(|(r, _)| *rank > r) {
                    best = Some((*rank, v));
                }
                *head = range.next().map(|(&k, v)| (k, *v));
            }
        }
        Ok(best.map(|(_, v)| (key, v)))
    }
}
