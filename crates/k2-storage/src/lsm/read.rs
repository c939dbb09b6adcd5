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

/// One input of a [`MergeIter`]: an SSTable cursor or a memtable range.
enum Source<'a> {
    Table(SsTableIter<'a>),
    Mem(MemRange<'a>),
}

impl Source<'_> {
    fn next(&mut self) -> StoreResult<Option<Entry>> {
        match self {
            Source::Table(it) => it.next(),
            Source::Mem(range) => Ok(range.next().map(|(&k, v)| (k, *v))),
        }
    }
}

/// One merge input with its recency rank and its next entry.
struct Input<'a> {
    rank: usize,
    head: Option<Entry>,
    source: Source<'a>,
}

impl Input<'_> {
    /// Returns the head and moves on to the source's next entry.
    fn pop(&mut self) -> StoreResult<Option<Entry>> {
        let head = self.head;
        if head.is_some() {
            self.head = self.source.next()?;
        }
        Ok(head)
    }
}

/// K-way merging cursor over SSTable iterators plus any number of
/// memtable ranges. Sources are ranked by recency (higher = newer); for
/// duplicate keys only the newest version is emitted. Tables rank below
/// every memtable range; memtable ranges rank in the order they are
/// added (add frozen generations oldest first, the active memtable
/// last). Shared with the flush and compaction writers, whose merges
/// rank inputs the same way.
///
/// The merge emits runs. A full step scans every head for the minimum
/// key; when exactly one source holds it, that source becomes the
/// *leader*, and the smallest other head its *bound*. Until the leader's
/// head reaches the bound, no other source can hold a key as small, so
/// later steps pop the leader without looking at the others. Ingest runs
/// in time order, so generation and table fences are mostly disjoint and
/// a flush or compaction is one run per input.
pub(crate) struct MergeIter<'a> {
    inputs: Vec<Input<'a>>,
    /// `(index into inputs, bound)` while one input leads.
    leader: Option<(usize, u64)>,
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
        let mut merge = Self {
            inputs: Vec::new(),
            leader: None,
        };
        let admitted = tables
            .iter()
            .enumerate()
            .filter(|(_, t)| t.admits(from, to));
        for (rank, t) in admitted {
            merge.add(rank, Source::Table(t.iter_from_with(from, io)))?;
        }
        Ok(merge)
    }

    /// Cursor over whole memtables alone, oldest first.
    pub(crate) fn over_memtables(generations: impl Iterator<Item = &'a Memtable>) -> Self {
        let mut merge = Self {
            inputs: Vec::new(),
            leader: None,
        };
        for generation in generations {
            merge.add_mem(generation.range(..));
        }
        merge
    }

    /// Adds a memtable range outranking the tables and every range
    /// added before it; an empty range adds nothing.
    pub(crate) fn add_mem(&mut self, range: MemRange<'a>) {
        let rank = self.inputs.last().map_or(0, |i| i.rank + 1);
        self.add(rank, Source::Mem(range))
            .expect("a memtable range cannot fail");
    }

    fn add(&mut self, rank: usize, mut source: Source<'a>) -> StoreResult<()> {
        if let Some(head) = source.next()? {
            self.inputs.push(Input {
                rank,
                head: Some(head),
                source,
            });
        }
        Ok(())
    }

    pub(crate) fn next(&mut self) -> StoreResult<Option<Entry>> {
        if let Some((i, bound)) = self.leader {
            let input = &mut self.inputs[i];
            if input.head.is_some_and(|(k, _)| k < bound) {
                return input.pop();
            }
            self.leader = None;
        }
        // Full step: the minimum key, how many sources hold it, and the
        // smallest larger head.
        let (mut min, mut holder, mut holders, mut bound) = (u64::MAX, 0, 0, u64::MAX);
        for (i, input) in self.inputs.iter().enumerate() {
            let Some((k, _)) = input.head else { continue };
            if holders == 0 || k < min {
                (bound, min, holder, holders) = (min, k, i, 1);
            } else if k == min {
                holders += 1;
            } else {
                bound = bound.min(k);
            }
        }
        if holders == 0 {
            return Ok(None);
        }
        if holders == 1 {
            self.leader = Some((holder, bound));
            return self.inputs[holder].pop();
        }
        // Newest version wins: every source holding the key advances,
        // the highest rank keeps the value.
        let mut best: Option<(usize, [u8; VAL_SIZE])> = None;
        for input in &mut self.inputs {
            if input.head.is_some_and(|(k, _)| k == min) {
                let (_, v) = input.pop()?.expect("holds the minimum");
                if best.is_none_or(|(r, _)| input.rank > r) {
                    best = Some((input.rank, v));
                }
            }
        }
        Ok(best.map(|(_, v)| (min, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsm::sstable::{BlockCache, SsTableWriter};
    use crate::temp_dir::TempDir;
    use std::collections::BTreeMap;
    use std::path::Path;

    /// A merge input under test: `(entries, written as an SSTable?)`.
    type Layout = Vec<(Memtable, bool)>;

    /// Runs `MergeIter` over `layout` (oldest first; tables rank below
    /// memtables, as in the store) on `[lo, hi]`, and the reference: a
    /// `BTreeMap` fold of every source oldest to newest, so the newest
    /// version of a key is the one left.
    fn check(dir: &Path, layout: &Layout, lo: u64, hi: u64) {
        let cache = Arc::new(BlockCache::new(16));
        let io = IoCounters::new();
        let mut tables = Vec::new();
        for (n, (entries, _)) in layout.iter().filter(|(_, t)| *t).enumerate() {
            let path = dir.join(format!("t{n}.k2ss"));
            let mut w = SsTableWriter::create(&path, entries.len()).unwrap();
            for (&k, v) in entries {
                w.add(k, v).unwrap();
            }
            w.finish().unwrap();
            tables.push(Arc::new(
                SsTableReader::open(&path, n as u64, cache.clone()).unwrap(),
            ));
        }
        let mut merge = MergeIter::over_tables(&tables, lo, hi, &io).unwrap();
        let mems = layout.iter().filter(|(_, t)| !*t);
        for (entries, _) in mems.clone() {
            merge.add_mem(entries.range(lo..=hi));
        }
        let mut got = Vec::new();
        while let Some((k, v)) = merge.next().unwrap() {
            if k > hi {
                break;
            }
            got.push((k, v));
        }
        let mut want = BTreeMap::new();
        let newest_last = layout.iter().filter(|(_, t)| *t).chain(mems);
        for (entries, _) in newest_last {
            want.extend(entries.range(lo..=hi).map(|(&k, &v)| (k, v)));
        }
        let want: Vec<Entry> = want.into_iter().collect();
        assert_eq!(got, want, "[{lo}, {hi}] over {} sources", layout.len());
        for t in 0..tables.len() {
            let _ = std::fs::remove_file(dir.join(format!("t{t}.k2ss")));
        }
    }

    fn val(source: usize, key: u64) -> [u8; VAL_SIZE] {
        let mut v = [source as u8; VAL_SIZE];
        v[..8].copy_from_slice(&key.to_le_bytes());
        v
    }

    fn source(id: usize, keys: impl Iterator<Item = u64>) -> Memtable {
        keys.map(|k| (k, val(id, k))).collect()
    }

    #[test]
    fn merge_equals_a_newest_wins_fold() {
        let dir = TempDir::new("merge");
        // A duplicate at a leader's run boundary: the older source leads
        // over 0..100 with bound 100, the first key of the newer one,
        // which holds it too.
        for tables in [0, 1, 2] {
            let layout: Layout = vec![
                (source(0, 0..=100), tables >= 1),
                (source(1, 100..200), tables >= 2),
                (source(2, [50, 150, 199, 250].into_iter()), false),
            ];
            check(&dir, &layout, 0, u64::MAX);
            check(&dir, &layout, 50, 150);
            check(&dir, &layout, 100, 100);
        }
        // Random layouts.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut rand = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for _ in 0..150 {
            let sources = 1 + rand(6) as usize;
            let mut layout = Layout::new();
            let mut base = 0u64;
            for id in 0..sources {
                // Disjoint fences (time-ordered ingest), fences that touch
                // at one key, or fences that overlap their predecessor.
                let span = 1 + rand(400);
                base = match rand(3) {
                    0 => base + 400 + rand(50),
                    1 => base + 399,
                    _ => base.saturating_sub(rand(200)),
                };
                let count = 1 + rand(span);
                let keys: Vec<u64> = (0..count).map(|_| base + rand(span)).collect();
                let mut entries = source(id, keys.into_iter());
                if rand(2) == 0 {
                    entries.insert(base + span - 1, val(id, 0));
                }
                layout.push((entries, rand(2) == 0));
            }
            // Tables rank below memtables whatever their place in `layout`.
            layout.sort_by_key(|(_, table)| !*table);
            check(&dir, &layout, 0, u64::MAX);
            let (a, b) = (rand(base + 800), rand(base + 800));
            check(&dir, &layout, a.min(b), a.max(b));
        }
    }
}
