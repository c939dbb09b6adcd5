//! Page-based clustered B+tree on the composite key `(t, oid)`.
//!
//! This is the paper's *k2-RDBMS* storage structure (§5.1): "a relational
//! table … with a multi-column clustering index on timestamp and oid".
//! We implement the index itself — a read-optimised, bulk-loaded B+tree
//! with 4 KiB pages and an LRU buffer pool:
//!
//! * benchmark-point scans are `(t, 0) ..= (t, MAX)` range scans over
//!   linked leaves,
//! * hop-window accesses are point lookups that descend the tree (the
//!   upper levels stay hot in the buffer pool).
//!
//! ## File layout
//!
//! Page 0 is the meta page; pages 1.. are leaves (written first, in key
//! order, linked left-to-right) followed by the internal levels, root last.
//!
//! ```text
//! meta:     magic "K2BT" | root: u32 | height: u32 | pages: u32
//!           | points: u64 | t_min: u32 | t_max: u32
//! leaf:     tag 1 | count: u16 | next_leaf: u32 | count × (key 8B, val 16B)
//! internal: tag 2 | count: u16 | (count+1) × child: u32 | count × key 8B
//! ```

use crate::iostats::IoCounters;
use crate::keys::{decode_key, decode_val, encode_key, encode_val, KEY_SIZE, VAL_SIZE};
use crate::{IoStats, SnapshotRef, SnapshotSource, StoreError, StoreResult, TrajectoryStore};
use k2_model::{Dataset, ObjPos, Oid, Time, TimeInterval};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// Page size in bytes.
pub const PAGE_SIZE: usize = 4096;

const MAGIC: &[u8; 4] = b"K2BT";
const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;

/// Entry width in a leaf.
const ENTRY_SIZE: usize = KEY_SIZE + VAL_SIZE;
/// Leaf header: tag (1) + count (2) + next_leaf (4).
const LEAF_HDR: usize = 7;
/// Max entries per leaf.
const LEAF_CAP: usize = (PAGE_SIZE - LEAF_HDR) / ENTRY_SIZE;
/// Internal header: tag (1) + count (2).
const INT_HDR: usize = 3;
/// Max separator keys per internal node: `INT_HDR + 4(c+1) + 8c <= PAGE_SIZE`.
const INT_CAP: usize = (PAGE_SIZE - INT_HDR - 4) / (KEY_SIZE + 4);

/// Tuning knobs for [`RelationalStore`].
#[derive(Debug, Clone, Copy)]
pub struct BTreeConfig {
    /// Buffer-pool capacity in pages.
    pub pool_pages: usize,
}

impl Default for BTreeConfig {
    fn default() -> Self {
        // 256 pages = 1 MiB: enough to pin the internal levels of a
        // multi-million-record tree, small enough that leaf scans still
        // show up as disk traffic.
        Self { pool_pages: 256 }
    }
}

/// A read-only, bulk-loaded clustered B+tree store.
///
/// ```
/// use k2_storage::{RelationalStore, SnapshotSource};
/// use k2_model::{Dataset, Point};
///
/// let dataset = Dataset::from_points(&[
///     Point::new(1, 2.0, 3.0, 0),
///     Point::new(1, 2.5, 3.0, 1),
/// ]).unwrap();
/// let path = std::env::temp_dir().join(format!("btree-doc-{}.k2bt", std::process::id()));
/// let store = RelationalStore::create(&path, &dataset)?;
/// let mut buf = Vec::new();
/// store.multi_get_into(1, &[1], &mut buf)?;
/// assert_eq!(buf[0].x, 2.5);
/// assert_eq!(store.scan_snapshot_ref(0, &mut buf)?.len(), 1);
/// # std::fs::remove_file(&path).ok();
/// # Ok::<(), k2_storage::StoreError>(())
/// ```
#[derive(Debug)]
pub struct RelationalStore {
    path: PathBuf,
    file: File,
    root: u32,
    height: u32,
    num_points: u64,
    span: TimeInterval,
    pool: RefCell<BufferPool>,
    io: IoCounters,
    /// The leaf page the last `multi_get_into` batch ended on. Hop-window
    /// probes ascend across calls as well as within them (same `t` with
    /// later oids, or the next timestamp — adjacent key space), so the
    /// next batch's first key usually lands on this same leaf and the
    /// root-to-leaf descent can be skipped entirely.
    last_leaf: RefCell<Option<Rc<[u8]>>>,
}

/// Simple LRU buffer pool over fixed-size pages.
#[derive(Debug)]
struct BufferPool {
    cap: usize,
    tick: u64,
    pages: HashMap<u32, (Rc<[u8]>, u64)>,
    last_fetched: u32,
}

impl BufferPool {
    fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(8),
            tick: 0,
            pages: HashMap::new(),
            last_fetched: u32::MAX,
        }
    }

    fn get(&mut self, id: u32) -> Option<Rc<[u8]>> {
        self.tick += 1;
        let tick = self.tick;
        self.pages.get_mut(&id).map(|(page, used)| {
            *used = tick;
            page.clone()
        })
    }

    fn insert(&mut self, id: u32, page: Rc<[u8]>) {
        self.tick += 1;
        if self.pages.len() >= self.cap {
            if let Some((&victim, _)) = self.pages.iter().min_by_key(|(_, (_, used))| *used) {
                self.pages.remove(&victim);
            }
        }
        self.pages.insert(id, (page, self.tick));
    }
}

impl RelationalStore {
    /// Bulk-loads `dataset` into a new B+tree file at `path` and opens it.
    pub fn create(path: impl AsRef<Path>, dataset: &Dataset) -> StoreResult<Self> {
        Self::create_with(path, dataset, BTreeConfig::default())
    }

    /// Bulk-load with explicit configuration.
    pub fn create_with(
        path: impl AsRef<Path>,
        dataset: &Dataset,
        config: BTreeConfig,
    ) -> StoreResult<Self> {
        let path = path.as_ref().to_path_buf();
        let mut out: Vec<u8> = Vec::new();
        out.extend_from_slice(&[0u8; PAGE_SIZE]); // meta placeholder

        // ---- Leaves ----
        let mut next_page: u32 = 1;
        let mut leaf_firsts: Vec<([u8; KEY_SIZE], u32)> = Vec::new();
        let mut leaf: Vec<u8> = Vec::with_capacity(PAGE_SIZE);
        let mut leaf_count: u16 = 0;
        let mut leaf_first_key: Option<[u8; KEY_SIZE]> = None;
        let flush_leaf = |buf: &mut Vec<u8>,
                          count: &mut u16,
                          first: &mut Option<[u8; KEY_SIZE]>,
                          out: &mut Vec<u8>,
                          next_page: &mut u32,
                          firsts: &mut Vec<([u8; KEY_SIZE], u32)>,
                          more_coming: bool| {
            if *count == 0 {
                return;
            }
            let id = *next_page;
            *next_page += 1;
            let next_leaf = if more_coming { id + 1 } else { 0 };
            let mut page = vec![0u8; PAGE_SIZE];
            page[0] = TAG_LEAF;
            page[1..3].copy_from_slice(&count.to_le_bytes());
            page[3..7].copy_from_slice(&next_leaf.to_le_bytes());
            page[LEAF_HDR..LEAF_HDR + buf.len()].copy_from_slice(buf);
            out.extend_from_slice(&page);
            firsts.push((first.expect("non-empty leaf has a first key"), id));
            buf.clear();
            *count = 0;
            *first = None;
        };

        let mut points_iter = dataset.iter_points().peekable();
        while let Some(p) = points_iter.next() {
            let key = encode_key(p.t, p.oid);
            if leaf_first_key.is_none() {
                leaf_first_key = Some(key);
            }
            leaf.extend_from_slice(&key);
            leaf.extend_from_slice(&encode_val(p.x, p.y));
            leaf_count += 1;
            if leaf_count as usize == LEAF_CAP {
                let more = points_iter.peek().is_some();
                flush_leaf(
                    &mut leaf,
                    &mut leaf_count,
                    &mut leaf_first_key,
                    &mut out,
                    &mut next_page,
                    &mut leaf_firsts,
                    more,
                );
            }
        }
        flush_leaf(
            &mut leaf,
            &mut leaf_count,
            &mut leaf_first_key,
            &mut out,
            &mut next_page,
            &mut leaf_firsts,
            false,
        );
        if leaf_firsts.is_empty() {
            return Err(StoreError::Corrupt("cannot bulk-load empty dataset".into()));
        }

        // ---- Internal levels ----
        let mut height: u32 = 1;
        let mut level = leaf_firsts;
        while level.len() > 1 {
            height += 1;
            let mut upper: Vec<([u8; KEY_SIZE], u32)> = Vec::new();
            for group in level.chunks(INT_CAP + 1) {
                let id = next_page;
                next_page += 1;
                let count = (group.len() - 1) as u16;
                let mut page = vec![0u8; PAGE_SIZE];
                page[0] = TAG_INTERNAL;
                page[1..3].copy_from_slice(&count.to_le_bytes());
                let mut off = INT_HDR;
                for (_, child) in group {
                    page[off..off + 4].copy_from_slice(&child.to_le_bytes());
                    off += 4;
                }
                for (key, _) in &group[1..] {
                    page[off..off + KEY_SIZE].copy_from_slice(key);
                    off += KEY_SIZE;
                }
                out.extend_from_slice(&page);
                upper.push((group[0].0, id));
            }
            level = upper;
        }
        let root = level[0].1;

        // ---- Meta page ----
        let span = dataset.span();
        let meta = &mut out[0..PAGE_SIZE];
        meta[0..4].copy_from_slice(MAGIC);
        meta[4..8].copy_from_slice(&root.to_le_bytes());
        meta[8..12].copy_from_slice(&height.to_le_bytes());
        meta[12..16].copy_from_slice(&next_page.to_le_bytes());
        meta[16..24].copy_from_slice(&dataset.num_points().to_le_bytes());
        meta[24..28].copy_from_slice(&span.start.to_le_bytes());
        meta[28..32].copy_from_slice(&span.end.to_le_bytes());

        let mut f = File::create(&path)?;
        f.write_all(&out)?;
        f.sync_all()?;
        drop(f);
        Self::open_with(path, config)
    }

    /// Opens an existing B+tree file.
    pub fn open(path: impl AsRef<Path>) -> StoreResult<Self> {
        Self::open_with(path, BTreeConfig::default())
    }

    /// Opens with explicit configuration.
    pub fn open_with(path: impl AsRef<Path>, config: BTreeConfig) -> StoreResult<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let mut meta = [0u8; PAGE_SIZE];
        file.read_exact_at(&mut meta, 0)?;
        if &meta[0..4] != MAGIC {
            return Err(StoreError::Corrupt("bad B+tree magic".into()));
        }
        let root = u32::from_le_bytes(meta[4..8].try_into().expect("4"));
        let height = u32::from_le_bytes(meta[8..12].try_into().expect("4"));
        let num_points = u64::from_le_bytes(meta[16..24].try_into().expect("8"));
        let t_min = u32::from_le_bytes(meta[24..28].try_into().expect("4"));
        let t_max = u32::from_le_bytes(meta[28..32].try_into().expect("4"));
        Ok(Self {
            path,
            file,
            root,
            height,
            num_points,
            span: TimeInterval::new(t_min, t_max),
            pool: RefCell::new(BufferPool::new(config.pool_pages)),
            io: IoCounters::new(),
            last_leaf: RefCell::new(None),
        })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Height of the tree (levels, leaves = 1).
    pub fn height(&self) -> u32 {
        self.height
    }

    fn read_page(&self, id: u32) -> StoreResult<Rc<[u8]>> {
        let mut pool = self.pool.borrow_mut();
        if let Some(page) = pool.get(id) {
            self.io.add_cache_hit();
            return Ok(page);
        }
        let mut buf = vec![0u8; PAGE_SIZE];
        self.file
            .read_exact_at(&mut buf, id as u64 * PAGE_SIZE as u64)?;
        let buf: Rc<[u8]> = buf.into();
        if pool.last_fetched.wrapping_add(1) != id {
            self.io.add_seek();
        }
        pool.last_fetched = id;
        self.io.add_block_read(PAGE_SIZE as u64);
        pool.insert(id, buf.clone());
        Ok(buf)
    }

    /// Descends from the root to the leaf that may contain `key`.
    fn find_leaf(&self, key: &[u8; KEY_SIZE]) -> StoreResult<Rc<[u8]>> {
        let mut page = self.read_page(self.root)?;
        loop {
            match page[0] {
                TAG_LEAF => return Ok(page),
                TAG_INTERNAL => {
                    let count = u16::from_le_bytes(page[1..3].try_into().expect("2")) as usize;
                    let keys_off = INT_HDR + 4 * (count + 1);
                    // Binary search over separator keys: child i covers
                    // keys < key[i]; the last child covers the rest.
                    let mut lo = 0usize;
                    let mut hi = count;
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        let off = keys_off + mid * KEY_SIZE;
                        let sep: &[u8] = &page[off..off + KEY_SIZE];
                        if key[..] < *sep {
                            hi = mid;
                        } else {
                            lo = mid + 1;
                        }
                    }
                    let child_off = INT_HDR + 4 * lo;
                    let child =
                        u32::from_le_bytes(page[child_off..child_off + 4].try_into().expect("4"));
                    page = self.read_page(child)?;
                }
                tag => return Err(StoreError::Corrupt(format!("bad page tag {tag}"))),
            }
        }
    }

    /// Leaf helpers: entry `i` of a leaf page.
    fn leaf_entry(page: &[u8], i: usize) -> (&[u8], &[u8]) {
        let off = LEAF_HDR + i * ENTRY_SIZE;
        (
            &page[off..off + KEY_SIZE],
            &page[off + KEY_SIZE..off + ENTRY_SIZE],
        )
    }

    fn leaf_count(page: &[u8]) -> usize {
        u16::from_le_bytes(page[1..3].try_into().expect("2")) as usize
    }

    fn leaf_next(page: &[u8]) -> u32 {
        u32::from_le_bytes(page[3..7].try_into().expect("4"))
    }

    /// Does this leaf's key range cover `key` (i.e. `key <=` the leaf's
    /// last entry)? Used to keep probing the current leaf instead of
    /// re-descending from the root. Only valid when probe keys ascend —
    /// `key` is already known to be past the leaf's start.
    fn leaf_covers(page: &[u8], key: &[u8; KEY_SIZE]) -> bool {
        let n = Self::leaf_count(page);
        if n == 0 {
            return false;
        }
        let (last, _) = Self::leaf_entry(page, n - 1);
        &key[..] <= last
    }

    /// Does this leaf's key range span `key` on both sides (`first <=
    /// key <= last`)? The check a *retained* leaf needs before serving
    /// an arbitrary new key: an upper bound alone would wrongly claim
    /// keys that belong to earlier leaves.
    fn leaf_spans(page: &[u8], key: &[u8; KEY_SIZE]) -> bool {
        let n = Self::leaf_count(page);
        if n == 0 {
            return false;
        }
        let (first, _) = Self::leaf_entry(page, 0);
        first <= &key[..] && Self::leaf_covers(page, key)
    }

    /// Looks `key` up inside one leaf page, decoding the value on a hit.
    /// The leaf probe behind `multi_get_into`: one key, one leaf.
    fn leaf_lookup(page: &[u8], key: &[u8; KEY_SIZE]) -> Option<(f64, f64)> {
        let idx = Self::leaf_lower_bound(page, key);
        if idx < Self::leaf_count(page) {
            let (k, v) = Self::leaf_entry(page, idx);
            if k == key {
                let val: [u8; VAL_SIZE] = v.try_into().expect("val size");
                return Some(decode_val(&val));
            }
        }
        None
    }

    /// Position of the first entry `>= key` in the leaf.
    fn leaf_lower_bound(page: &[u8], key: &[u8; KEY_SIZE]) -> usize {
        let n = Self::leaf_count(page);
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let (k, _) = Self::leaf_entry(page, mid);
            if k < &key[..] {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Scans all entries with keys in `[lo, hi]`, invoking `visit`.
    fn scan_key_range(
        &self,
        lo: [u8; KEY_SIZE],
        hi: [u8; KEY_SIZE],
        mut visit: impl FnMut(Time, ObjPos),
    ) -> StoreResult<()> {
        let mut page = self.find_leaf(&lo)?;
        let mut idx = Self::leaf_lower_bound(&page, &lo);
        loop {
            let n = Self::leaf_count(&page);
            while idx < n {
                let (k, v) = Self::leaf_entry(&page, idx);
                if k > &hi[..] {
                    return Ok(());
                }
                let key: [u8; KEY_SIZE] = k.try_into().expect("key size");
                let val: [u8; VAL_SIZE] = v.try_into().expect("val size");
                let (t, oid) = decode_key(&key);
                let (x, y) = decode_val(&val);
                visit(t, ObjPos::new(oid, x, y));
                idx += 1;
            }
            let next = Self::leaf_next(&page);
            if next == 0 {
                return Ok(());
            }
            page = self.read_page(next)?;
            idx = 0;
        }
    }
}

impl SnapshotSource for RelationalStore {
    fn span(&self) -> TimeInterval {
        self.span
    }

    fn num_points(&self) -> u64 {
        self.num_points
    }

    fn scan_snapshot_ref<'a>(
        &self,
        t: Time,
        buf: &'a mut Vec<ObjPos>,
    ) -> StoreResult<SnapshotRef<'a>> {
        self.io.add_range_query();
        self.io.add_snapshot_copied();
        // Disk engine: leaf entries decode straight into the caller's
        // reused buffer; one buffer serves every benchmark snapshot a
        // worker scans.
        buf.clear();
        self.scan_key_range(encode_key(t, 0), encode_key(t, Oid::MAX), |_, p| {
            buf.push(p)
        })?;
        Ok(SnapshotRef::Buffered(buf))
    }

    fn multi_get_into(&self, t: Time, oids: &[Oid], out: &mut Vec<ObjPos>) -> StoreResult<()> {
        debug_assert!(oids.windows(2).all(|w| w[0] < w[1]));
        // The paper's RDBMS formulation: one SELECT per (t, oid), filling
        // the caller's buffer directly from the leaf pages. The probed
        // keys are ascending (fixed `t`, sorted oids), so consecutive hits
        // usually land in the same leaf — the descent from the root is
        // repeated only when the current leaf's key range is exhausted.
        // The first key additionally tries the leaf retained from the
        // previous batch: consecutive batches often probe the same
        // timestamp (the candidates of one HWMT level) or the next one
        // (an extension chain), adjacent key space either way — a fifth
        // of a one-thread mine's batches skip the root descent this way.
        out.clear();
        self.io.add_point_queries(oids.len() as u64);
        let mut retained = self.last_leaf.borrow_mut();
        let mut leaf: Option<Rc<[u8]>> = retained.take();
        let mut first = true;
        for &oid in oids {
            let key = encode_key(t, oid);
            let page = match leaf.take() {
                Some(page)
                    if if first {
                        Self::leaf_spans(&page, &key)
                    } else {
                        Self::leaf_covers(&page, &key)
                    } =>
                {
                    if first {
                        self.io.add_cache_hit();
                    }
                    page
                }
                _ => self.find_leaf(&key)?,
            };
            first = false;
            if let Some((x, y)) = Self::leaf_lookup(&page, &key) {
                out.push(ObjPos::new(oid, x, y));
            }
            leaf = Some(page);
        }
        *retained = leaf;
        Ok(())
    }

    fn io_stats(&self) -> IoStats {
        self.io.snapshot()
    }

    fn name(&self) -> &'static str {
        "k2-rdbms"
    }
}

impl TrajectoryStore for RelationalStore {
    fn reset_io_stats(&self) {
        self.io.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp_dir::TempDir;
    use crate::trait_tests::{conformance, get, scan, toy_dataset};
    use k2_model::Point;

    #[test]
    fn conforms_to_trait_contract() {
        let tmp = TempDir::new("btree");
        let d = toy_dataset();
        let store = RelationalStore::create(tmp.join("toy.k2bt"), &d).unwrap();
        conformance(&store, &d);
    }

    #[test]
    fn reopen_preserves_contents() {
        let tmp = TempDir::new("btree");
        let d = toy_dataset();
        let path = tmp.join("reopen.k2bt");
        {
            let _ = RelationalStore::create(&path, &d).unwrap();
        }
        let store = RelationalStore::open(&path).unwrap();
        conformance(&store, &d);
    }

    #[test]
    fn multi_level_tree() {
        let tmp = TempDir::new("btree");
        // Enough records to force height >= 2 (leaf cap is ~170).
        let mut pts = Vec::new();
        for t in 0..100u32 {
            for oid in 0..500u32 {
                pts.push(Point::new(oid, oid as f64, t as f64, t));
            }
        }
        let d = Dataset::from_points(&pts).unwrap();
        let store = RelationalStore::create(tmp.join("big.k2bt"), &d).unwrap();
        assert!(store.height() >= 2, "height = {}", store.height());
        // Spot-check extremes and middles.
        assert_eq!(get(&store, 0, 0), Some(ObjPos::new(0, 0.0, 0.0)));
        assert_eq!(get(&store, 99, 499), Some(ObjPos::new(499, 499.0, 99.0)));
        assert_eq!(get(&store, 50, 500), None);
        assert_eq!(scan(&store, 42).len(), 500);
    }

    #[test]
    fn buffer_pool_caches_hot_pages() {
        let tmp = TempDir::new("btree");
        let d = toy_dataset();
        let store = RelationalStore::create(tmp.join("pool.k2bt"), &d).unwrap();
        let _ = get(&store, 10, 1);
        // A far key between the two probes: the second probe misses the
        // leaf the first one retained, descends from the root and finds
        // every page on its way in the pool.
        let _ = get(&store, 40, 1);
        let cold = store.io_stats();
        let _ = get(&store, 10, 2);
        let warm = store.io_stats().since(&cold);
        assert_eq!(warm.blocks_read, 0, "second probe should hit the pool");
        assert!(warm.cache_hits >= 1);
    }

    #[test]
    fn retained_leaf_serves_next_batch_without_descending() {
        let tmp = TempDir::new("btree");
        let d = toy_dataset();
        let store = RelationalStore::create(tmp.join("retained.k2bt"), &d).unwrap();
        let oids: Vec<Oid> = vec![1, 2, 3];
        let mut out = Vec::new();
        store.multi_get_into(0, &oids, &mut out).unwrap();
        store.reset_io_stats();
        // Same key neighbourhood: the retained leaf spans the first key,
        // so no page is touched at all — not even pool-cached ones.
        store.multi_get_into(0, &oids, &mut out).unwrap();
        let s = store.io_stats();
        assert_eq!(out.len(), oids.len());
        assert_eq!(s.blocks_read, 0, "no disk reads");
        assert_eq!(s.cache_hits, 1, "one retained-leaf hit, no pool probes");

        // A key outside the retained leaf's range must fall back to a
        // root descent and still answer correctly.
        let far: Vec<Oid> = vec![4];
        store.multi_get_into(40, &far, &mut out).unwrap();
        assert_eq!(out, [*d.snapshot(40).unwrap().get(4).unwrap()]);
    }

    #[test]
    fn bad_magic_rejected() {
        let tmp = TempDir::new("btree");
        let path = tmp.join("bad.k2bt");
        std::fs::write(&path, vec![0u8; PAGE_SIZE]).unwrap();
        assert!(matches!(
            RelationalStore::open(&path),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn tiny_pool_still_correct() {
        let tmp = TempDir::new("btree");
        let d = toy_dataset();
        let store = RelationalStore::create_with(
            tmp.join("tinypool.k2bt"),
            &d,
            BTreeConfig { pool_pages: 1 },
        )
        .unwrap();
        conformance(&store, &d);
    }

    #[test]
    fn snapshot_scan_of_absent_timestamp_is_empty() {
        let tmp = TempDir::new("btree");
        let d = toy_dataset();
        let store = RelationalStore::create(tmp.join("absent.k2bt"), &d).unwrap();
        assert!(scan(&store, 9999).is_empty());
    }
}
