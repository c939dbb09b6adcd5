//! Immutable sorted-string tables.
//!
//! An SSTable is one sorted run of `(key, value)` entries:
//!
//! ```text
//! ┌──────────────┬──────────────┬────────┐
//! │ data blocks  │ sparse index │ footer │
//! └──────────────┴──────────────┴────────┘
//! data block: up to 4096 bytes of 24-byte entries (key u64 BE-order, x, y)
//! index row:  first_key u64 | offset u64 | len u32
//! footer:     index_off u64 | index_len u64 | num_entries u64 | magic "K2S2"
//! ```
//!
//! The sparse index ends where the footer begins. It is small and held in
//! memory; data blocks are fetched through a shared [`BlockCache`]. The
//! magic names the format, so a table of another layout — such as the
//! bloom-carrying one under magic `"K2SS"` — is rejected as corrupt,
//! never misread.
//!
//! There is no bloom filter. Keys are `(t, oid)` and ingest runs in time
//! order, so the tables' key fences are disjoint and a probe reaches the
//! one table that can hold its key. A lookup is decided as early as it
//! can be: the table's key fence (its first and last key, resident) → the
//! block a batch already has in hand → the sparse index → the block cache
//! → disk. The fence is the caller's check ([`SsTableReader::admits`]);
//! the rest is [`SsTableReader::probe`], the one in-table lookup.

use crate::iostats::IoCounters;
use crate::keys::VAL_SIZE;
use crate::{StoreError, StoreResult};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Data-block payload size in bytes.
pub const BLOCK_SIZE: usize = 4096;
/// Entry width: 8-byte key + 16-byte value.
pub const ENTRY_SIZE: usize = 8 + VAL_SIZE;

const MAGIC: &[u8; 4] = b"K2S2";
const FOOTER_SIZE: usize = 8 * 3 + 4;
/// Index row width: `first_key u64 | offset u64 | len u32`.
const INDEX_ROW: usize = 20;
/// [`SsTableWriter`]'s output buffer: 16 blocks per `write`, where std's
/// 8 KiB default makes two. Kept below glibc's 128 KiB mmap threshold,
/// so the buffer is served from the heap and freeing it does not raise
/// the threshold (see ROADMAP, "RSS is heap layout").
const WRITE_BUFFER: usize = 64 * 1024;

/// Cache key: `(table id, block number)`.
type CacheKey = (u64, u32);

/// Default shard count for [`BlockCache::new`].
const DEFAULT_SHARDS: usize = 8;

/// Sentinel for "no slot" in the intrusive LRU list.
const NIL: usize = usize::MAX;

struct Slot {
    key: CacheKey,
    block: Arc<[u8]>,
    prev: usize,
    next: usize,
}

/// One lock-protected shard: a hash map into an intrusive doubly-linked
/// LRU list stored in a slot arena. Every operation — hit, replace,
/// insert, evict — is O(1); there is no full-map scan anywhere.
struct Shard {
    cap: usize,
    map: HashMap<CacheKey, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl Shard {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            map: HashMap::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: CacheKey) -> Option<Arc<[u8]>> {
        let &i = self.map.get(&key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(self.slots[i].block.clone())
    }

    fn insert(&mut self, key: CacheKey, block: Arc<[u8]>) {
        if let Some(&i) = self.map.get(&key) {
            // Replace in place: refresh the payload and recency. A
            // resident key must never cost another entry its slot.
            self.slots[i].block = block;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        if self.map.len() >= self.cap {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.free.push(victim);
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Slot {
                    key,
                    block,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slots.push(Slot {
                    key,
                    block,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
    }

    fn evict_tables(&mut self, ids: &[u64]) {
        // Collect victims first: can't mutate the list while iterating
        // the map. Work is proportional to this shard's residency, and
        // runs once per compaction — not once per table id ever minted.
        let victims: Vec<usize> = self
            .map
            .iter()
            .filter(|((t, _), _)| ids.contains(t))
            .map(|(_, &i)| i)
            .collect();
        for i in victims {
            self.unlink(i);
            self.map.remove(&self.slots[i].key);
            self.free.push(i);
        }
    }
}

/// Shared LRU cache of decoded data blocks, keyed by `(table id, block #)`.
///
/// The cache is sharded: each key hashes to one of N independently locked
/// shards, so concurrent readers (and the background compaction worker's
/// evictions) contend only when they touch the same shard. Within a shard
/// the LRU order lives in an intrusive doubly-linked list, making hits,
/// inserts and evictions O(1).
///
/// A capacity of `0` genuinely disables caching: every read goes to disk
/// and nothing is retained (there is no hidden minimum). The capacity is
/// split across shards, so the total resident block count never exceeds
/// the requested cap.
pub struct BlockCache {
    shards: Box<[Mutex<Shard>]>,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

impl BlockCache {
    /// Cache holding at most `cap` blocks across the default shard count.
    /// `cap == 0` disables caching entirely.
    pub fn new(cap: usize) -> Self {
        Self::with_shards(cap, DEFAULT_SHARDS)
    }

    /// Cache holding at most `cap` blocks across (up to) `shards` shards.
    /// Exposed so tests can pin LRU behaviour with a single shard.
    pub fn with_shards(cap: usize, shards: usize) -> Self {
        if cap == 0 {
            return Self {
                shards: Box::from([]),
            };
        }
        // Never hand a shard a zero cap: that would make some keys
        // uncacheable. With fewer blocks than shards, shrink the shard
        // count instead.
        let n = shards.clamp(1, cap);
        let shards: Vec<Mutex<Shard>> = (0..n)
            .map(|i| {
                let per = cap / n + usize::from(i < cap % n);
                Mutex::new(Shard::new(per))
            })
            .collect();
        Self {
            shards: shards.into(),
        }
    }

    fn shard_for(&self, key: CacheKey) -> &Mutex<Shard> {
        // Mix table id and block index so consecutive blocks of one
        // table spread across shards (fnv-1a over both words).
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in key.0.to_le_bytes().iter().chain(&key.1.to_le_bytes()) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h as usize) % self.shards.len()]
    }

    fn get(&self, key: CacheKey) -> Option<Arc<[u8]>> {
        if self.shards.is_empty() {
            return None;
        }
        self.shard_for(key)
            .lock()
            .expect("cache shard lock")
            .get(key)
    }

    fn insert(&self, key: CacheKey, block: Arc<[u8]>) {
        if self.shards.is_empty() {
            return;
        }
        self.shard_for(key)
            .lock()
            .expect("cache shard lock")
            .insert(key, block);
    }

    /// Drops every cached block belonging to the given table ids (after a
    /// compaction retires its inputs). Scans each shard's residents once,
    /// regardless of how many ids the store has ever minted.
    pub fn evict_tables(&self, ids: &[u64]) {
        for shard in self.shards.iter() {
            shard.lock().expect("cache shard lock").evict_tables(ids);
        }
    }

    /// Number of blocks currently resident (across all shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").map.len())
            .sum()
    }

    /// Whether the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Streaming writer producing one SSTable from keys fed in ascending order.
pub struct SsTableWriter {
    path: PathBuf,
    out: BufWriter<File>,
    block: Vec<u8>,
    block_first_key: Option<u64>,
    index: Vec<(u64, u64, u32)>,
    offset: u64,
    num_entries: u64,
    last_key: Option<u64>,
}

impl SsTableWriter {
    /// Creates a writer; `expected_entries`, an upper bound on the
    /// entries to come, sizes the index.
    pub fn create(path: impl AsRef<Path>, expected_entries: usize) -> StoreResult<Self> {
        let path = path.as_ref().to_path_buf();
        let out = BufWriter::with_capacity(WRITE_BUFFER, File::create(&path)?);
        Ok(Self {
            path,
            out,
            block: Vec::with_capacity(BLOCK_SIZE),
            block_first_key: None,
            // Sized up front: growing by doubling would shed a trail of
            // dead buffers half the final size.
            index: Vec::with_capacity(expected_entries.div_ceil(BLOCK_SIZE / ENTRY_SIZE)),
            offset: 0,
            num_entries: 0,
            last_key: None,
        })
    }

    /// Appends an entry; keys must arrive in strictly increasing order.
    pub fn add(&mut self, key: u64, val: &[u8; VAL_SIZE]) -> StoreResult<()> {
        if let Some(last) = self.last_key {
            if key <= last {
                return Err(StoreError::Corrupt(format!(
                    "SSTable keys out of order: {key} after {last}"
                )));
            }
        }
        self.last_key = Some(key);
        if self.block_first_key.is_none() {
            self.block_first_key = Some(key);
        }
        self.block.extend_from_slice(&key.to_be_bytes());
        self.block.extend_from_slice(val);
        self.num_entries += 1;
        if self.block.len() + ENTRY_SIZE > BLOCK_SIZE {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> StoreResult<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let first = self.block_first_key.expect("non-empty block");
        self.index
            .push((first, self.offset, self.block.len() as u32));
        self.out.write_all(&self.block)?;
        self.offset += self.block.len() as u64;
        self.block.clear();
        self.block_first_key = None;
        Ok(())
    }

    /// Finishes the table: writes index and footer.
    pub fn finish(mut self) -> StoreResult<PathBuf> {
        self.flush_block()?;
        let index_off = self.offset;
        let index_len = self.index.len() as u64 * INDEX_ROW as u64;
        for (first, off, len) in &self.index {
            self.out.write_all(&first.to_be_bytes())?;
            self.out.write_all(&off.to_le_bytes())?;
            self.out.write_all(&len.to_le_bytes())?;
        }
        let mut footer = Vec::with_capacity(FOOTER_SIZE);
        footer.extend_from_slice(&index_off.to_le_bytes());
        footer.extend_from_slice(&index_len.to_le_bytes());
        footer.extend_from_slice(&self.num_entries.to_le_bytes());
        footer.extend_from_slice(MAGIC);
        self.out.write_all(&footer)?;
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        Ok(self.path)
    }
}

/// Inclusive `(first, last)` key range of a non-empty sorted source — an
/// SSTable or a frozen memtable generation.
pub(crate) type Fence = (u64, u64);

/// Can a source fenced by `(first, last)` hold a key of `[lo, hi]`?
#[inline]
pub(crate) fn overlaps((first, last): Fence, lo: u64, hi: u64) -> bool {
    first <= hi && lo <= last
}

/// The data block a batch's previous key was looked up in, kept across
/// the batch's [`SsTableReader::probe`] calls.
pub(crate) struct BlockInHand {
    /// Id of the table the block belongs to.
    table: u64,
    /// Its block number there.
    idx: usize,
    block: Arc<[u8]>,
    /// Where the previous key's search ended: no later (larger) key of
    /// the batch lies before it.
    pos: usize,
}

/// Entry `i` of a data block, `None` past its end.
#[inline]
fn entry_at(block: &[u8], i: usize) -> Option<(u64, [u8; VAL_SIZE])> {
    let entry = block.get(i * ENTRY_SIZE..(i + 1) * ENTRY_SIZE)?;
    let key = u64::from_be_bytes(entry[..8].try_into().expect("8"));
    Some((key, entry[8..].try_into().expect("val")))
}

/// Index of the first entry of `block`, at or after entry `from`, whose
/// key is `>= key` (the entry count if there is none): the one in-block
/// search, shared by lookups and cursor positioning.
fn lower_bound(block: &[u8], from: usize, key: u64) -> usize {
    let (mut lo, mut hi) = (from, block.len() / ENTRY_SIZE);
    while lo < hi {
        let mid = (lo + hi) / 2;
        let at = mid * ENTRY_SIZE;
        if u64::from_be_bytes(block[at..at + 8].try_into().expect("8")) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Reader over one immutable SSTable.
#[derive(Debug)]
pub struct SsTableReader {
    id: u64,
    file: File,
    index: Vec<(u64, u64, u32)>,
    /// Key of the last entry (meaningless while `index` is empty); with
    /// `index[0]`'s first key, the table's key fence.
    last_key: u64,
    num_entries: u64,
    cache: Arc<BlockCache>,
}

impl SsTableReader {
    /// Opens a table; `id` must be unique per open store (cache keying).
    /// Reads the footer, the index and the last key — the resident
    /// metadata — and no data block.
    pub fn open(path: impl AsRef<Path>, id: u64, cache: Arc<BlockCache>) -> StoreResult<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < FOOTER_SIZE as u64 {
            return Err(StoreError::Corrupt("SSTable too small".into()));
        }
        let mut footer = [0u8; FOOTER_SIZE];
        file.read_exact_at(&mut footer, len - FOOTER_SIZE as u64)?;
        if &footer[24..28] != MAGIC {
            return Err(StoreError::Corrupt("bad SSTable magic".into()));
        }
        let index_off = u64::from_le_bytes(footer[0..8].try_into().expect("8"));
        let index_len = u64::from_le_bytes(footer[8..16].try_into().expect("8"));
        let num_entries = u64::from_le_bytes(footer[16..24].try_into().expect("8"));

        // The footer is input: the index must run exactly up to it before
        // anything is sized by it.
        let body = len - FOOTER_SIZE as u64;
        if index_off.checked_add(index_len) != Some(body) {
            return Err(StoreError::Corrupt(
                "SSTable index does not end at the footer".into(),
            ));
        }
        if index_len % INDEX_ROW as u64 != 0 {
            return Err(StoreError::Corrupt("bad SSTable index length".into()));
        }
        // The index is decoded off the file in small pieces straight into
        // its exact-size resident form: a serialised copy would be a large
        // short-lived allocation per open, and the holes those leave are
        // what later fragments the heap.
        let mut region = &file;
        region.seek(SeekFrom::Start(index_off))?;
        let rows = (index_len / INDEX_ROW as u64) as usize;
        let mut index: Vec<(u64, u64, u32)> = Vec::with_capacity(rows);
        let mut chunk = [0u8; 256 * INDEX_ROW];
        // The rows are input too, and every later read trusts them: the
        // blocks must tile `[0, index_off)` in whole entries, none larger
        // than a block, under strictly ascending first keys.
        let (mut next_off, mut entries) = (0u64, 0u64);
        while index.len() < rows {
            let bytes = &mut chunk[..(rows - index.len()).min(256) * INDEX_ROW];
            region.read_exact(bytes)?;
            for row in bytes.chunks_exact(INDEX_ROW) {
                let first = u64::from_be_bytes(row[0..8].try_into().expect("8"));
                let off = u64::from_le_bytes(row[8..16].try_into().expect("8"));
                let blen = u32::from_le_bytes(row[16..20].try_into().expect("4"));
                let whole = blen != 0 && (blen as usize).is_multiple_of(ENTRY_SIZE);
                let ascending = index.last().is_none_or(|&(prev, _, _)| prev < first);
                if !whole || blen as usize > BLOCK_SIZE || off != next_off || !ascending {
                    return Err(StoreError::Corrupt(format!(
                        "bad SSTable index row {}",
                        index.len()
                    )));
                }
                next_off += u64::from(blen);
                entries += u64::from(blen) / ENTRY_SIZE as u64;
                index.push((first, off, blen));
            }
        }
        if next_off != index_off || entries != num_entries {
            return Err(StoreError::Corrupt(
                "SSTable index does not cover the data blocks".into(),
            ));
        }
        // The upper key fence: the last entry's key, read once. Like the
        // index it is metadata — not a block request, not cached, not
        // counted.
        let mut last_key = 0u64;
        if let Some(&(first, off, blen)) = index.last() {
            let mut key = [0u8; 8];
            file.read_exact_at(&mut key, off + u64::from(blen) - ENTRY_SIZE as u64)?;
            last_key = u64::from_be_bytes(key);
            if last_key < first {
                return Err(StoreError::Corrupt(
                    "SSTable last key precedes its block".into(),
                ));
            }
        }

        Ok(Self {
            id,
            file,
            index,
            last_key,
            num_entries,
            cache,
        })
    }

    /// Number of entries in the table.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Smallest key in the table (`None` for an empty table).
    pub fn min_key(&self) -> Option<u64> {
        self.index.first().map(|&(first, _, _)| first)
    }

    /// Largest key in the table (`None` for an empty table). Resident
    /// since `open`: no I/O.
    pub fn max_key(&self) -> Option<u64> {
        self.min_key().map(|_| self.last_key)
    }

    /// The table's key fence (`None` for an empty table).
    pub(crate) fn fence(&self) -> Option<Fence> {
        self.min_key().zip(self.max_key())
    }

    /// Can the table hold a key of `[lo, hi]`? Two integer compares; a
    /// table that cannot is not asked anything else.
    pub(crate) fn admits(&self, lo: u64, hi: u64) -> bool {
        self.fence().is_some_and(|fence| overlaps(fence, lo, hi))
    }

    /// Index of the block that could contain `key` (last block whose first
    /// key is `<= key`), or `None` if `key` precedes the table.
    fn block_for(&self, key: u64) -> Option<usize> {
        let pos = self.index.partition_point(|&(first, _, _)| first <= key);
        pos.checked_sub(1)
    }

    /// Is block `idx` the one [`block_for`](Self::block_for) names for
    /// `key`, i.e. does `key` lie in `[first_key(idx), first_key(idx + 1))`?
    fn block_spans(&self, idx: usize, key: u64) -> bool {
        self.index[idx].0 <= key
            && self
                .index
                .get(idx + 1)
                .is_none_or(|&(next, _, _)| key < next)
    }

    /// Fetches one data block, accounting the access (cache hit/miss,
    /// seek, bytes) into the caller's `io` (the store's or a pin's). The
    /// block still goes through the shared [`BlockCache`] — a pinned
    /// snapshot reader and the owning store populate and hit the same
    /// cache entries; only the attribution differs.
    fn read_block_with(&self, block_idx: usize, io: &IoCounters) -> StoreResult<Arc<[u8]>> {
        let cache_key = (self.id, block_idx as u32);
        if let Some(b) = self.cache.get(cache_key) {
            io.add_cache_hit();
            return Ok(b);
        }
        io.add_cache_miss();
        let (_, off, len) = self.index[block_idx];
        // Read straight into the block's final, exact-size home: one
        // allocation per miss and no copy out of a staging buffer.
        let mut block: Arc<[u8]> = std::iter::repeat_n(0u8, len as usize).collect();
        let buf = Arc::get_mut(&mut block).expect("a fresh Arc is unshared");
        self.file.read_exact_at(buf, off)?;
        io.add_seek();
        io.add_block_read(len as u64);
        self.cache.insert(cache_key, block.clone());
        Ok(block)
    }

    /// The in-table lookup, for one key or a batch of ascending keys
    /// sharing `hand`. While a key still falls in the key range of the
    /// block in hand it is answered there — present, or absent from this
    /// table for good — by a binary search that starts where the
    /// previous key's ended: no index or cache lookup. Any other key goes
    /// index → cache, and the block it fetches becomes the one in hand. One hand serves every table of a view: where
    /// tables overlap it changes owner back and forth, which costs
    /// block requests, never answers.
    pub(crate) fn probe(
        &self,
        key: u64,
        hand: &mut Option<BlockInHand>,
        io: &IoCounters,
    ) -> StoreResult<Option<[u8; VAL_SIZE]>> {
        let held = hand
            .as_mut()
            .filter(|h| h.table == self.id && self.block_spans(h.idx, key));
        let h = match held {
            Some(h) => h,
            None => {
                let Some(idx) = self.block_for(key) else {
                    return Ok(None);
                };
                let block = self.read_block_with(idx, io)?;
                hand.insert(BlockInHand {
                    table: self.id,
                    idx,
                    block,
                    pos: 0,
                })
            }
        };
        h.pos = lower_bound(&h.block, h.pos, key);
        Ok(entry_at(&h.block, h.pos)
            .filter(|&(k, _)| k == key)
            .map(|(_, val)| val))
    }

    /// Cursor positioned at the first entry with key `>= key`, with block
    /// fetches accounted into `io` (see `read_block_with`).
    pub fn iter_from_with<'a>(&'a self, key: u64, io: &'a IoCounters) -> SsTableIter<'a> {
        let (block_idx, entry_idx) = match self.block_for(key) {
            None => (0, 0),
            Some(bi) => (bi, usize::MAX), // entry index resolved lazily
        };
        SsTableIter {
            table: self,
            io,
            block_idx,
            entry_idx,
            seek_key: key,
            current: None,
        }
    }
}

/// Forward cursor over an SSTable.
pub struct SsTableIter<'a> {
    table: &'a SsTableReader,
    /// Where this cursor's block fetches are accounted (the store's
    /// counters, or a pin's).
    io: &'a IoCounters,
    block_idx: usize,
    entry_idx: usize,
    seek_key: u64,
    current: Option<Arc<[u8]>>,
}

impl SsTableIter<'_> {
    /// Next entry, or `None` at end of table.
    pub fn next(&mut self) -> StoreResult<Option<(u64, [u8; VAL_SIZE])>> {
        loop {
            if self.block_idx >= self.table.index.len() {
                return Ok(None);
            }
            if self.current.is_none() {
                let block = self.table.read_block_with(self.block_idx, self.io)?;
                if self.entry_idx == usize::MAX {
                    // First positioning: the first entry at or after
                    // seek_key.
                    self.entry_idx = lower_bound(&block, 0, self.seek_key);
                }
                self.current = Some(block);
            }
            let block = self.current.as_ref().expect("set above");
            let Some(entry) = entry_at(block, self.entry_idx) else {
                self.block_idx += 1;
                self.entry_idx = 0;
                self.current = None;
                continue;
            };
            self.entry_idx += 1;
            return Ok(Some(entry));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp_dir::TempDir;

    fn fixtures() -> (Arc<BlockCache>, Arc<IoCounters>) {
        (Arc::new(BlockCache::new(64)), Arc::new(IoCounters::new()))
    }

    fn build(dir: &Path, name: &str, keys: impl Iterator<Item = u64>) -> PathBuf {
        let path = dir.join(name);
        let mut w = SsTableWriter::create(&path, 1024).unwrap();
        for k in keys {
            let val = [(k % 251) as u8; VAL_SIZE];
            w.add(k, &val).unwrap();
        }
        w.finish().unwrap()
    }

    fn block(tag: u8) -> Arc<[u8]> {
        Arc::from(vec![tag; 8].into_boxed_slice())
    }

    #[test]
    fn replace_in_place_does_not_evict() {
        // Single shard so both keys share one LRU; the cache is full.
        let c = BlockCache::with_shards(2, 1);
        c.insert((1, 0), block(1));
        c.insert((1, 1), block(2));
        assert_eq!(c.len(), 2);
        // Re-inserting a resident key must replace, not evict a victim.
        c.insert((1, 0), block(3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get((1, 0)).unwrap()[0], 3);
        assert!(c.get((1, 1)).is_some(), "replace evicted an innocent key");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = BlockCache::with_shards(2, 1);
        c.insert((1, 0), block(1));
        c.insert((1, 1), block(2));
        // Touch (1,0) so (1,1) becomes the LRU victim.
        assert!(c.get((1, 0)).is_some());
        c.insert((1, 2), block(3));
        assert_eq!(c.len(), 2);
        assert!(c.get((1, 0)).is_some());
        assert!(c.get((1, 1)).is_none(), "LRU victim not evicted");
        assert!(c.get((1, 2)).is_some());
    }

    #[test]
    fn zero_cap_disables_caching() {
        let c = BlockCache::new(0);
        c.insert((1, 0), block(1));
        assert!(c.get((1, 0)).is_none());
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
        // And nothing in the eviction path panics on the empty shard set.
        c.evict_tables(&[1]);
    }

    #[test]
    fn small_caps_do_not_round_up() {
        // The old implementation silently clamped to >= 8 blocks.
        for cap in 1..=4usize {
            let c = BlockCache::new(cap);
            for i in 0..16u32 {
                c.insert((1, i), block(i as u8));
            }
            assert!(c.len() <= cap, "cap {cap} held {} blocks", c.len());
        }
    }

    #[test]
    fn evict_tables_only_touches_named_ids() {
        let c = BlockCache::with_shards(16, 1);
        for t in 1..=3u64 {
            for b in 0..3u32 {
                c.insert((t, b), block(t as u8));
            }
        }
        c.evict_tables(&[1, 3]);
        assert_eq!(c.len(), 3);
        for b in 0..3u32 {
            assert!(c.get((1, b)).is_none());
            assert!(c.get((2, b)).is_some(), "survivor table evicted");
            assert!(c.get((3, b)).is_none());
        }
        // Freed slots are reused rather than leaked.
        for b in 10..13u32 {
            c.insert((4, b), block(4));
        }
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn cache_is_shared_across_threads() {
        let c = Arc::new(BlockCache::new(128));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for b in 0..64u32 {
                        c.insert((t, b), block(b as u8));
                        let _ = c.get((t, b));
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert!(c.len() <= 128);
    }

    #[test]
    fn write_read_round_trip() {
        let tmp = TempDir::new("sst");
        let path = build(&tmp, "roundtrip.k2ss", (0..5000u64).map(|i| i * 3));
        let (cache, io) = fixtures();
        let r = SsTableReader::open(&path, 1, cache).unwrap();
        assert_eq!(r.num_entries(), 5000);
        assert_eq!(r.min_key(), Some(0));
        for k in [0u64, 3, 2997, 14997] {
            let v = r.probe(k, &mut None, &io).unwrap().unwrap();
            assert_eq!(v[0], (k % 251) as u8);
        }
        assert_eq!(r.probe(1, &mut None, &io).unwrap(), None);
        assert_eq!(r.probe(15000, &mut None, &io).unwrap(), None);
    }

    #[test]
    fn out_of_order_keys_rejected() {
        let tmp = TempDir::new("sst");
        let mut w = SsTableWriter::create(tmp.join("order.k2ss"), 16).unwrap();
        w.add(10, &[0; VAL_SIZE]).unwrap();
        assert!(w.add(10, &[0; VAL_SIZE]).is_err());
        assert!(w.add(5, &[0; VAL_SIZE]).is_err());
    }

    #[test]
    fn iter_from_scans_in_order() {
        let tmp = TempDir::new("sst");
        let path = build(&tmp, "iter.k2ss", (0..1000u64).map(|i| i * 2));
        let (cache, io) = fixtures();
        let r = SsTableReader::open(&path, 2, cache).unwrap();
        // Seek to key 501 -> first entry 502.
        let mut it = r.iter_from_with(501, &io);
        let mut prev = None;
        let mut count = 0;
        while let Some((k, _)) = it.next().unwrap() {
            if let Some(p) = prev {
                assert!(k > p);
            }
            prev = Some(k);
            count += 1;
        }
        assert_eq!(count, 1000 - 251);
        assert_eq!(prev, Some(1998));
    }

    #[test]
    fn iter_from_before_table_start() {
        let tmp = TempDir::new("sst");
        let path = build(&tmp, "iterstart.k2ss", 100..200u64);
        let (cache, io) = fixtures();
        let r = SsTableReader::open(&path, 3, cache).unwrap();
        let mut it = r.iter_from_with(0, &io);
        assert_eq!(it.next().unwrap().unwrap().0, 100);
    }

    #[test]
    fn block_cache_hits_on_repeat_reads() {
        let tmp = TempDir::new("sst");
        let path = build(&tmp, "cache.k2ss", 0..100u64);
        let (cache, io) = fixtures();
        let r = SsTableReader::open(&path, 5, cache).unwrap();
        let _ = r.probe(50, &mut None, &io).unwrap();
        assert_eq!(io.snapshot().cache_misses, 1);
        let before = io.snapshot();
        let _ = r.probe(51, &mut None, &io).unwrap();
        let after = io.snapshot().since(&before);
        assert_eq!(after.blocks_read, 0);
        assert_eq!(after.cache_misses, 0);
        assert!(after.cache_hits >= 1);
    }

    #[test]
    fn disabled_cache_reads_disk_every_time() {
        let tmp = TempDir::new("sst");
        let path = build(&tmp, "nocache.k2ss", 0..100u64);
        let cache = Arc::new(BlockCache::new(0));
        let io = Arc::new(IoCounters::new());
        let r = SsTableReader::open(&path, 7, cache).unwrap();
        let _ = r.probe(50, &mut None, &io).unwrap();
        let _ = r.probe(51, &mut None, &io).unwrap();
        let s = io.snapshot();
        assert_eq!(s.blocks_read, 2, "cache_blocks: 0 must not cache");
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_misses, 2);
    }

    /// Footer field `i` (of the three u64s) of the table bytes.
    fn footer_field(bytes: &[u8], i: usize) -> u64 {
        let at = bytes.len() - FOOTER_SIZE + 8 * i;
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    /// Writes `bytes` as table file `name` and opens it.
    fn open_bytes(dir: &Path, name: &str, bytes: &[u8]) -> StoreResult<SsTableReader> {
        let p = dir.join(name);
        std::fs::write(&p, bytes).unwrap();
        SsTableReader::open(&p, 10, Arc::new(BlockCache::new(64)))
    }

    #[test]
    fn corrupt_index_rows_are_rejected_before_anything_is_sized_by_them() {
        let tmp = TempDir::new("sst");
        let path = build(&tmp, "badindex.k2ss", 0..2000u64);
        let good = std::fs::read(&path).unwrap();
        let index_off = footer_field(&good, 0) as usize;
        let rows = footer_field(&good, 1) as usize / INDEX_ROW;
        assert!(rows >= 6, "the cases below need several blocks");
        let footer_at = good.len() - FOOTER_SIZE;
        // Byte offsets of row `i`'s three fields.
        let first_key = |i: usize| index_off + i * INDEX_ROW;
        let offset = |i: usize| first_key(i) + 8;
        let len = |i: usize| first_key(i) + 16;
        let full = (BLOCK_SIZE / ENTRY_SIZE * ENTRY_SIZE) as u32;
        let entry = ENTRY_SIZE as u64;
        let last_entry_key = index_off - ENTRY_SIZE;

        let cases: Vec<(&str, usize, Vec<u8>)> = vec![
            ("empty block", len(1), 0u32.to_le_bytes().into()),
            (
                "block shorter than an entry",
                len(rows - 1),
                8u32.to_le_bytes().into(),
            ),
            (
                "block of a broken entry",
                len(1),
                (full + 1).to_le_bytes().into(),
            ),
            (
                "block past BLOCK_SIZE",
                len(1),
                (full + 24).to_le_bytes().into(),
            ),
            ("4 GiB block", len(2), 0xFFFF_FFF0u32.to_le_bytes().into()),
            ("one flipped length bit", len(3) + 3, vec![0x80]),
            (
                "first block not at 0",
                offset(0),
                entry.to_le_bytes().into(),
            ),
            (
                "gap between blocks",
                offset(2),
                (2 * u64::from(full) + entry).to_le_bytes().into(),
            ),
            (
                "blocks overlap",
                offset(2),
                u64::from(full).to_le_bytes().into(),
            ),
            (
                "last block ends early",
                len(rows - 1),
                24u32.to_le_bytes().into(),
            ),
            (
                "first keys repeat",
                first_key(2),
                good[first_key(1)..first_key(1) + 8].to_vec(),
            ),
            (
                "first keys descend",
                first_key(3),
                0u64.to_be_bytes().into(),
            ),
            (
                "entry count disagrees",
                footer_at + 16,
                2001u64.to_le_bytes().into(),
            ),
            (
                "last key precedes its block",
                last_entry_key,
                0u64.to_be_bytes().into(),
            ),
        ];
        let open = |bytes: &[u8]| open_bytes(&tmp, "badindex-case.k2ss", bytes);
        assert!(open(&good).is_ok());
        for (what, at, bytes) in cases {
            let mut bad = good.clone();
            bad[at..at + bytes.len()].copy_from_slice(&bytes);
            assert_ne!(bad, good, "{what}: the case must change the file");
            assert!(
                matches!(open(&bad), Err(StoreError::Corrupt(_))),
                "{what} must be Corrupt"
            );
        }
    }

    #[test]
    fn fences_admit_exactly_the_overlapping_ranges() {
        let tmp = TempDir::new("sst");
        // `overlaps` is inclusive at both ends of both ranges.
        for (lo, hi, want) in [
            (0, 9, false),
            (0, 10, true), // hi == first
            (10, 10, true),
            (12, 13, true),
            (0, 100, true),
            (20, 20, true),
            (20, 30, true), // lo == last
            (21, 30, false),
        ] {
            assert_eq!(overlaps((10, 20), lo, hi), want, "[{lo}, {hi}]");
        }
        assert!(overlaps((7, 7), 7, 7));
        assert!(overlaps((0, u64::MAX), u64::MAX, u64::MAX));

        let open = |name: &str, keys: std::ops::Range<u64>| {
            let (cache, io) = fixtures();
            let r = SsTableReader::open(build(&tmp, name, keys), 14, cache.clone()).unwrap();
            (r, cache, io)
        };
        // An empty table admits nothing and answers nothing.
        let (empty, _, io) = open("fence-empty.k2ss", 0..0);
        assert_eq!(
            (empty.min_key(), empty.max_key(), empty.fence()),
            (None, None, None)
        );
        assert!(!empty.admits(0, u64::MAX));
        assert_eq!(empty.probe(5, &mut None, &io).unwrap(), None);
        assert!(empty.iter_from_with(0, &io).next().unwrap().is_none());
        // A single entry: first == last.
        let (one, ..) = open("fence-one.k2ss", 42..43);
        assert_eq!(one.fence(), Some((42, 42)));
        assert!(one.admits(42, 42) && one.admits(0, 42) && one.admits(42, u64::MAX));
        assert!(!one.admits(0, 41) && !one.admits(43, u64::MAX));
        // Several blocks: the upper fence is the last block's last key,
        // known without fetching a block.
        let (many, cache, io) = open("fence-many.k2ss", 100..1100);
        assert!(many.index.len() >= 6);
        assert_eq!(many.fence(), Some((100, 1099)));
        assert_eq!(many.max_key(), Some(1099));
        assert!(many.admits(1099, 5000) && !many.admits(1100, 5000));
        assert!(many.admits(0, 100) && !many.admits(0, 99));
        assert_eq!(
            io.snapshot(),
            crate::IoStats::default(),
            "a fence costs no I/O"
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn a_block_in_hand_answers_ascending_keys_like_single_gets() {
        let tmp = TempDir::new("sst");
        // Keys 1000, 1003, …: gaps between any two, 8 blocks.
        let path = build(&tmp, "hand.k2ss", (0..1200u64).map(|i| 1000 + i * 3));
        let (cache, io) = fixtures();
        let r = SsTableReader::open(&path, 15, cache).unwrap();
        let blocks = r.index.len() as u64;
        assert!(blocks >= 6);
        let per_block = (BLOCK_SIZE / ENTRY_SIZE) as u64;
        let boundary = |b: u64| 1000 + b * per_block * 3; // first key of block b

        // Every key and every gap, from before the first key to past the last.
        let all: Vec<u64> = (990..4620).collect();
        // Sparse: a key or gap every few entries, so most steps change block.
        let sparse: Vec<u64> = (900..4700).step_by(407).collect();
        // The keys either side of each block boundary.
        let straddle: Vec<u64> = (1..blocks)
            .flat_map(|b| (boundary(b) - 4)..=(boundary(b) + 4))
            .collect();
        // Wholly before, wholly after.
        let outside: Vec<u64> = (0..20).chain(5000..5020).collect();

        for (what, batch) in [
            ("all", &all),
            ("sparse", &sparse),
            ("straddle", &straddle),
            ("outside", &outside),
        ] {
            assert!(batch.windows(2).all(|w| w[0] < w[1]));
            let mut hand = None;
            let mut found = 0;
            for &key in batch {
                let got = r.probe(key, &mut hand, &io).unwrap();
                assert_eq!(
                    got,
                    r.probe(key, &mut None, &io).unwrap(),
                    "{what}: key {key}"
                );
                found += usize::from(got.is_some());
            }
            let want = batch
                .iter()
                .filter(|&&k| (1000..4600).contains(&k) && (k - 1000) % 3 == 0)
                .count();
            assert_eq!(found, want, "{what}");
        }

        // A batch over the whole table requests each block exactly once.
        let before = io.snapshot();
        let mut hand = None;
        for &key in &all {
            r.probe(key, &mut hand, &io).unwrap();
        }
        let cost = io.snapshot().since(&before);
        assert_eq!(cost.cache_hits + cost.cache_misses, blocks);
        // Single gets pay one request per key from the first key on,
        // present or not; the ten keys before the table request nothing.
        let before = io.snapshot();
        for &key in &all {
            r.probe(key, &mut None, &io).unwrap();
        }
        let cost = io.snapshot().since(&before);
        assert_eq!(cost.cache_hits + cost.cache_misses, all.len() as u64 - 10);
    }

    #[test]
    fn corrupt_footer_rejected() {
        let tmp = TempDir::new("sst");
        let good = std::fs::read(build(&tmp, "footer.k2ss", 0..2000u64)).unwrap();
        let (index_off, index_len) = (footer_field(&good, 0), footer_field(&good, 1));
        let footer_at = good.len() - FOOTER_SIZE;
        let open = |bytes: &[u8]| open_bytes(&tmp, "footer-case.k2ss", bytes);
        assert!(open(&good).is_ok());
        let patched = |at: usize, bytes: &[u8]| {
            let mut bad = good.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            bad
        };
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("garbage", vec![7u8; 100]),
            ("shorter than a footer", good[footer_at + 1..].to_vec()),
            // The earlier format: a bloom region and two more footer
            // fields, under the old magic.
            ("old magic", patched(footer_at + 24, b"K2SS")),
            (
                "index ends before the footer",
                patched(footer_at + 8, &(index_len - INDEX_ROW as u64).to_le_bytes()),
            ),
            (
                "index reaches past the footer",
                patched(footer_at, &(index_off + 8).to_le_bytes()),
            ),
            (
                "index length overflows",
                patched(footer_at + 8, &u64::MAX.to_le_bytes()),
            ),
        ];
        for (what, bad) in cases {
            assert!(
                matches!(open(&bad), Err(StoreError::Corrupt(_))),
                "{what} must be Corrupt"
            );
        }
    }
}
