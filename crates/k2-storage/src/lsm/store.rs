//! The LSM-tree store: WAL + memtable + SSTables + compaction + manifest,
//! published to concurrent readers as immutable MVCC states.

use super::compaction::{
    run_job, CompactionController, CompactionDone, CompactionHandle, CompactionJob,
};
use super::manifest::{sync_dir, Manifest, ManifestRecord};
use super::pin::{LsmState, StorePin};
use super::read::{Frozen, MergeIter, ReadView};
use super::sstable::{BlockCache, SsTableReader, SsTableWriter};
use super::wal::{replay_wal, WalSyncPolicy, WalWriter};
use crate::iostats::IoCounters;
use crate::keys::VAL_SIZE;
use crate::{IoStats, SnapshotRef, SnapshotSource, StoreError, StoreResult, TrajectoryStore};
use k2_model::{Dataset, ObjPos, Oid, Point, Time, TimeInterval};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// Tuning knobs for [`LsmStore`].
#[derive(Debug, Clone, Copy)]
pub struct LsmConfig {
    /// Memtable capacity in entries before an automatic flush. Counts
    /// everything buffered in memory: the active memtable plus the
    /// generations frozen into the published state.
    pub memtable_entries: usize,
    /// Compaction trigger: compact when the number of SSTables exceeds
    /// this.
    pub max_tables: usize,
    /// Shared block-cache capacity in blocks. `0` genuinely disables
    /// caching — every block read goes to disk and nothing is retained —
    /// so cache A/B benchmarks measure the real uncached cost (there is
    /// no hidden minimum capacity).
    pub cache_blocks: usize,
    /// Run compactions on a background worker thread: `flush()` only
    /// enqueues, and the write path never pays the merge. With `false`
    /// the merge runs inline at the trigger point — fully deterministic,
    /// which is what tests, goldens and write-amp benches want.
    pub background_compaction: bool,
    /// Write every `insert` to the write-ahead log before acknowledging
    /// it, so a crash before the next flush loses nothing; an
    /// `insert_batch` writes each of its runs as one group commit. Bulk
    /// loads ([`LsmStore::bulk_load`]) bypass the log during the load and
    /// start it afterwards.
    pub wal: bool,
    /// When the WAL is `fsync`ed (see [`WalSyncPolicy`]); irrelevant
    /// when `wal` is off. A batch run is one append, synced before the
    /// batch is acknowledged under every policy but `OnRotate`.
    pub wal_sync: WalSyncPolicy,
}

impl Default for LsmConfig {
    fn default() -> Self {
        Self {
            memtable_entries: 1 << 16,
            max_tables: 8,
            cache_blocks: 256,
            background_compaction: true,
            wal: true,
            wal_sync: WalSyncPolicy::default(),
        }
    }
}

pub(crate) fn sst_name(seq: u64) -> String {
    format!("sst-{seq:06}.k2ss")
}

fn wal_name(seq: u64) -> String {
    format!("wal-{seq:06}.log")
}

fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Composite key as an integer: ordering equals `(t, oid)` ordering.
#[inline]
pub(crate) fn key_of(t: Time, oid: Oid) -> u64 {
    ((t as u64) << 32) | oid as u64
}

#[inline]
pub(crate) fn key_parts(key: u64) -> (Time, Oid) {
    ((key >> 32) as Time, key as Oid)
}

#[inline]
fn val_of(x: f64, y: f64) -> [u8; VAL_SIZE] {
    crate::keys::encode_val(x, y)
}

#[inline]
pub(crate) fn val_parts(v: &[u8; VAL_SIZE]) -> (f64, f64) {
    crate::keys::decode_val(v)
}

/// One sorted in-memory run of `(t, oid) → (x, y)` entries.
pub(crate) type Memtable = BTreeMap<u64, [u8; VAL_SIZE]>;

/// A log-structured merge-tree over `(t, oid) → (x, y)`.
///
/// See the `k2_storage::lsm` module docs for the design. Writes go to
/// [`LsmStore::insert`] or [`LsmStore::insert_batch`] and are crash-safe:
/// with the default [`LsmConfig`] every insert is appended to a
/// CRC-framed write-ahead log before it is acknowledged (a batch as one
/// synced group commit per memtable run), every flush/compaction is
/// committed by an `fsync`ed record in the append-only manifest, and
/// [`LsmStore::open`] runs a recovery procedure (fold the manifest,
/// drop orphans of crashed flushes/compactions, replay the live WAL
/// tail into the memtable). [`LsmStore::bulk_load`] bypasses the WAL
/// during the load — the paper's workload is bulk load followed by
/// read-only mining, and durability there is established wholesale by
/// the final flush.
///
/// # One `&self` store: a published state and a writer lock
///
/// `LsmStore` is `Send + Sync`, every method takes `&self`, and threads
/// share one store through an `Arc`. Frozen memtable generations and the
/// ordered SSTable list form an immutable `LsmState` behind
/// `RwLock<Arc<LsmState>>`, which every reader reads: the store's own
/// [`SnapshotSource`] methods, [`Self::pin`] and
/// the gauges. The active memtable, the WAL and the compaction machinery
/// sit behind one writer mutex that each write method takes once per
/// call. Writers never mutate a published state: a structural change
/// builds a fresh `Arc<LsmState>` and swaps it in under a short write
/// lock —
///
/// * at the end of each [`LsmStore::insert_batch`], which is published
///   whole: swaps that fall due inside it (a mid-batch flush, a finished
///   compaction) are held back to its end;
/// * at a flush or compaction commit outside a batch;
/// * when a reader finds acknowledged single [`LsmStore::insert`]s not
///   yet published: it takes the writer lock and freezes them in first.
///   A store fed by batches never has such entries.
///
/// A [`StorePin`] is an `Arc` of a published state plus its own I/O
/// counters; it serves a whole mining run without blocking ingest, and
/// reads retired tables through its open descriptors. A panic under the
/// writer lock poisons it, and the store fails closed: every later write
/// returns an error, while reads, pins and gauges keep answering from
/// the last published state. Compaction runs under a
/// [`CompactionController`] (size-tiered by default) and, by default, on
/// a background worker thread — the write path only enqueues.
///
/// ```
/// use k2_storage::{LsmStore, SnapshotSource};
/// use k2_model::Point;
///
/// let dir = std::env::temp_dir().join(format!("lsm-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let store = LsmStore::create(&dir)?;
/// store.insert(Point::new(1, 2.0, 3.0, 0))?;
/// store.insert(Point::new(2, 2.5, 3.0, 0))?;
/// store.flush()?;
/// let mut buf = Vec::new();
/// assert_eq!(store.scan_snapshot_ref(0, &mut buf)?.len(), 2);
/// store.multi_get_into(0, &[1], &mut buf)?;
/// assert_eq!(buf[0].x, 2.0);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), k2_storage::StoreError>(())
/// ```
#[derive(Debug)]
pub struct LsmStore {
    dir: PathBuf,
    /// The published MVCC state every reader reads; see the struct docs.
    state: RwLock<Arc<LsmState>>,
    /// Everything only writers touch. Taken through [`Self::writer`].
    writer: Mutex<Writer>,
    /// True while the active memtable holds acknowledged entries the
    /// published state lacks — the one case in which a reader has to go
    /// through the writer.
    unpublished: AtomicBool,
    /// A background compaction job is queued or running (the store
    /// keeps at most one in flight). Written and read by the writer
    /// under its lock, which orders it; the gauge reads it `Relaxed`, as
    /// a statistic that publishes no other data.
    compacting: AtomicBool,
    /// Live [`StorePin`] count (each pin decrements on drop).
    pins: Arc<AtomicU64>,
    /// Shared with the background compaction worker, which appends its
    /// own commit records.
    manifest: Arc<Mutex<Manifest>>,
    cache: Arc<BlockCache>,
    io: Arc<IoCounters>,
}

/// The writer's half of an [`LsmStore`], behind its writer mutex.
#[derive(Debug)]
struct Writer {
    config: LsmConfig,
    /// Active memtable: inserts land here without touching the published
    /// state, so a swap is only paid when the structure changes, never
    /// per record.
    active: Memtable,
    /// Frozen generations (oldest first) already visible in the
    /// published state; written out together at the next flush.
    frozen: Vec<Arc<Frozen>>,
    /// Cached `sum(frozen.len())` for the flush trigger.
    frozen_entries: usize,
    /// Oldest first; index position is the recency rank. Shared with
    /// the published state and any live pins.
    tables: Vec<Arc<SsTableReader>>,
    /// Sequence numbers of `tables`, same order.
    table_seqs: Vec<u64>,
    span: Option<(Time, Time)>,
    /// Version of the currently published state; bumped on every swap.
    version: u64,
    /// Inside [`LsmStore::insert_batch`]: swaps are held back until the
    /// batch ends, so no reader sees part of it.
    in_batch: bool,
    /// Live WAL appender (present iff `config.wal`).
    wal: Option<WalWriter>,
    /// A live WAL inherited from a previous WAL-enabled incarnation when
    /// this one runs with the WAL off: its contents were replayed into
    /// the memtable and it is retired at the next flush.
    stale_wal: Option<PathBuf>,
    next_seq: u64,
    controller: CompactionController,
    /// Background worker, spawned lazily at the first enqueued job.
    compactor: Option<CompactionHandle>,
}

impl Writer {
    fn new(config: LsmConfig) -> Self {
        Self {
            config,
            active: Memtable::new(),
            frozen: Vec::new(),
            frozen_entries: 0,
            tables: Vec::new(),
            table_seqs: Vec::new(),
            span: None,
            version: 0,
            in_batch: false,
            wal: None,
            stale_wal: None,
            next_seq: 1,
            controller: CompactionController::new(config.max_tables),
            compactor: None,
        }
    }

    /// Puts `p` in the active memtable and widens the span to its time.
    fn put(&mut self, p: Point) {
        self.active.insert(key_of(p.t, p.oid), val_of(p.x, p.y));
        self.span = Some(match self.span {
            None => (p.t, p.t),
            Some((lo, hi)) => (lo.min(p.t), hi.max(p.t)),
        });
    }

    /// Entries buffered in memory, the flush trigger's count: the active
    /// memtable plus the frozen generations. An upper bound on the
    /// distinct keys a flush writes.
    fn buffered(&self) -> usize {
        self.active.len() + self.frozen_entries
    }

    /// Moves the active memtable, if it holds anything, into a new frozen
    /// generation. The caller publishes.
    fn freeze_active(&mut self) -> bool {
        if self.active.is_empty() {
            return false;
        }
        let generation = Arc::new(Frozen::new(std::mem::take(&mut self.active)));
        self.frozen_entries += generation.entries.len();
        self.frozen.push(generation);
        true
    }
}

impl LsmStore {
    /// Creates an empty store in (a fresh or empty) directory `dir`.
    pub fn create(dir: impl AsRef<Path>) -> StoreResult<Self> {
        Self::create_with(dir, LsmConfig::default())
    }

    /// Creates with explicit configuration.
    pub fn create_with(dir: impl AsRef<Path>, config: LsmConfig) -> StoreResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let manifest = Manifest::create(&dir)?;
        let store = Self::assemble(
            dir,
            manifest,
            Writer::new(config),
            Arc::new(BlockCache::new(config.cache_blocks)),
            Arc::new(IoCounters::new()),
        );
        if config.wal {
            store.rotate_wal(&mut *store.writer()?)?;
        }
        Ok(store)
    }

    fn assemble(
        dir: PathBuf,
        manifest: Manifest,
        writer: Writer,
        cache: Arc<BlockCache>,
        io: Arc<IoCounters>,
    ) -> Self {
        Self {
            dir,
            state: RwLock::default(),
            writer: Mutex::new(writer),
            unpublished: AtomicBool::new(false),
            compacting: AtomicBool::new(false),
            pins: Arc::new(AtomicU64::new(0)),
            manifest: Arc::new(Mutex::new(manifest)),
            cache,
            io,
        }
    }

    /// Opens an existing store directory.
    pub fn open(dir: impl AsRef<Path>) -> StoreResult<Self> {
        Self::open_with(dir, LsmConfig::default())
    }

    /// Opens with explicit configuration, running crash recovery:
    ///
    /// 1. fold the manifest log (a torn/corrupt tail is dropped) into
    ///    the live SSTable set and live WAL generation — including
    ///    partial (tiered) compactions, whose outputs splice into the
    ///    first input's position,
    /// 2. delete orphaned SSTables/WALs — files whose flush, compaction
    ///    or rotation crashed before its manifest commit record,
    /// 3. replay the live WAL tail into the memtable (truncating at the
    ///    first torn or corrupt frame), counted in
    ///    [`IoStats::wal_replayed`],
    /// 4. rebuild the time span from the live tables and memtable.
    ///
    /// Every insert acknowledged by a WAL-enabled store before a crash
    /// is visible again after `open_with` — see `tests/lsm_recovery.rs`.
    pub fn open_with(dir: impl AsRef<Path>, config: LsmConfig) -> StoreResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        let (manifest, records) = Manifest::open(&dir)?;

        // 1. Fold the structural history into the live state.
        let mut live: Vec<u64> = Vec::new();
        let mut wal_seq: Option<u64> = None;
        let mut next_seq: u64 = 1;
        for rec in &records {
            match rec {
                ManifestRecord::Flush { seq } => {
                    live.push(*seq);
                    next_seq = next_seq.max(seq + 1);
                }
                ManifestRecord::Compact { inputs, output } => {
                    let pos = live
                        .iter()
                        .position(|s| inputs.contains(s))
                        .unwrap_or(live.len());
                    live.retain(|s| !inputs.contains(s));
                    live.insert(pos.min(live.len()), *output);
                    next_seq = next_seq.max(output + 1);
                }
                ManifestRecord::WalRotate { seq } => {
                    wal_seq = (*seq != 0).then_some(*seq);
                    next_seq = next_seq.max(seq + 1);
                }
            }
        }

        // 2. Sweep orphans; also bump next_seq past every seq ever seen
        //    on disk so fresh files cannot collide with leftovers.
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name == "MANIFEST.tmp" {
                let _ = fs::remove_file(entry.path());
            } else if let Some(seq) = parse_seq(&name, "sst-", ".k2ss") {
                next_seq = next_seq.max(seq + 1);
                if !live.contains(&seq) {
                    let _ = fs::remove_file(entry.path());
                }
            } else if let Some(seq) = parse_seq(&name, "wal-", ".log") {
                next_seq = next_seq.max(seq + 1);
                if wal_seq != Some(seq) {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }

        let cache = Arc::new(BlockCache::new(config.cache_blocks));
        let io = Arc::new(IoCounters::new());
        let mut tables = Vec::new();
        for &seq in &live {
            // The table seq is the cache id: unique per file for the
            // directory's whole history, so a reopened store can never
            // alias cache entries of a retired table.
            let reader = SsTableReader::open(dir.join(sst_name(seq)), seq, cache.clone())?;
            tables.push(Arc::new(reader));
        }

        // 4 (span, table part). The composite key is (t << 32 | oid), so
        // each table's key range bounds its time range.
        let mut span: Option<(Time, Time)> = None;
        let mut widen = |lo: Time, hi: Time| {
            span = Some(match span {
                None => (lo, hi),
                Some((a, b)) => (a.min(lo), b.max(hi)),
            });
        };
        for t in &tables {
            if let Some((lo, hi)) = t.fence() {
                widen((lo >> 32) as Time, (hi >> 32) as Time);
            }
        }

        // 3. Replay the live WAL tail into the memtable.
        let mut active = Memtable::new();
        let mut wal = None;
        let mut stale_wal = None;
        if let Some(seq) = wal_seq {
            let path = dir.join(wal_name(seq));
            let replay = replay_wal(&path, |k, v| {
                active.insert(k, v);
            })?;
            io.add_wal_replayed(replay.frames);
            if config.wal {
                wal = Some(WalWriter::open_append(&path, config.wal_sync, io.clone())?);
            } else if path.exists() {
                stale_wal = Some(path);
            }
        }
        if let (Some((&lo, _)), Some((&hi, _))) =
            (active.first_key_value(), active.last_key_value())
        {
            widen((lo >> 32) as Time, (hi >> 32) as Time);
        }

        let writer = Writer {
            active,
            tables,
            table_seqs: live,
            span,
            wal,
            stale_wal,
            next_seq,
            ..Writer::new(config)
        };
        let store = Self::assemble(dir, manifest, writer, cache, io);
        {
            let mut w = store.writer()?;
            // The replayed tail is published with the tables, so readers
            // of a reopened store never need the writer.
            w.freeze_active();
            store.publish(&mut w);
            // WAL requested but no live generation (fresh store, or one
            // last run with the WAL off): start one now.
            if w.config.wal && w.wal.is_none() {
                store.rotate_wal(&mut w)?;
            }
        }
        Ok(store)
    }

    /// Bulk-loads a dataset: inserts every record and flushes. The WAL
    /// is bypassed during the load (the final flush establishes
    /// durability wholesale) and started afterwards if configured.
    /// Compactions run inline during the load and are fully drained
    /// before returning, so the resulting table layout — and therefore
    /// every downstream I/O counter — is deterministic for goldens and
    /// benches regardless of the configured background mode.
    pub fn bulk_load(dir: impl AsRef<Path>, dataset: &Dataset) -> StoreResult<Self> {
        Self::bulk_load_with(dir, dataset, LsmConfig::default())
    }

    /// Bulk-load with explicit configuration. The writer lock is taken
    /// once for the whole load.
    pub fn bulk_load_with(
        dir: impl AsRef<Path>,
        dataset: &Dataset,
        config: LsmConfig,
    ) -> StoreResult<Self> {
        let store = Self::create_with(
            dir,
            LsmConfig {
                wal: false,
                background_compaction: false,
                ..config
            },
        )?;
        {
            let mut w = store.writer()?;
            for p in dataset.iter_points() {
                store.insert_locked(&mut w, p)?;
            }
            store.flush_locked(&mut w)?;
            w.config.wal = config.wal;
            w.config.background_compaction = config.background_compaction;
            if config.wal {
                store.rotate_wal(&mut w)?;
            }
        }
        Ok(store)
    }

    /// Takes the writer lock — the one place it is taken. A writer that
    /// panicked while holding it may have left the memtable, the WAL or
    /// the table list half-changed, so a poisoned lock is never entered
    /// again: the store fails closed for writes, and readers keep the
    /// last published state.
    fn writer(&self) -> StoreResult<MutexGuard<'_, Writer>> {
        self.writer.lock().map_err(|_| {
            StoreError::Io(io::Error::other(
                "LSM writer poisoned by an earlier panic; the store is read-only",
            ))
        })
    }

    /// A clone of the published state pointer.
    fn published(&self) -> Arc<LsmState> {
        // Writers hold the write lock for a pointer store only, so a
        // poisoned lock still guards a whole state.
        self.state
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The state a reader sees: the published one, once any acknowledged
    /// single inserts it lacks are frozen in. Only that freeze takes the
    /// writer lock (and waits out whatever the writer is doing).
    fn current(&self) -> StoreResult<Arc<LsmState>> {
        // Acquire, paired with the Release stores in `insert_locked` and
        // `publish`: a reader that finds the flag clear also finds the
        // state that published those entries.
        if self.unpublished.load(Ordering::Acquire) {
            let mut w = self.writer()?;
            if w.freeze_active() {
                self.publish(&mut w);
            }
        }
        Ok(self.published())
    }

    /// [`Self::current`] for the readers that cannot fail: on a poisoned
    /// writer they answer from the last published state.
    fn current_or_published(&self) -> Arc<LsmState> {
        self.current().unwrap_or_else(|_| self.published())
    }

    /// Runs one read against the current state, charged to the store's
    /// own counters.
    fn read<R>(&self, read: impl FnOnce(&ReadView<'_>) -> StoreResult<R>) -> StoreResult<R> {
        let state = self.current()?;
        read(&ReadView::new(&state, &self.io))
    }

    /// Builds the published [`LsmState`] from the writer-side fields and
    /// swaps it in. The clone is shallow — vectors of `Arc`s — so a swap
    /// costs a few small allocations, never a data copy; the write lock
    /// is held only for the pointer store.
    fn publish(&self, w: &mut Writer) {
        if w.in_batch {
            return; // `insert_batch` publishes when it is done
        }
        w.version += 1;
        let next = Arc::new(LsmState {
            frozen: w.frozen.clone(),
            tables: w.tables.clone(),
            span: w.span,
            version: w.version,
        });
        *self.state.write().unwrap_or_else(PoisonError::into_inner) = next;
        // Release: see `current`.
        self.unpublished
            .store(!w.active.is_empty(), Ordering::Release);
    }

    /// Pins the store's current contents as an immutable snapshot: every
    /// insert and batch acknowledged before this call, and nothing after
    /// it — in particular no part of a batch in flight.
    ///
    /// Normally a clone of the published state that waits for no writer.
    /// Only when single [`Self::insert`]s have left acknowledged entries
    /// unpublished does it take the writer lock to freeze them in. The
    /// returned [`StorePin`] is a self-contained [`SnapshotSource`]: it
    /// holds `Arc`s to the frozen generations and open SSTable readers
    /// (compaction may unlink a retired table's file, but the open
    /// descriptor keeps it readable), reads through the store's shared
    /// block cache, and accounts its I/O into its own counters. Dropping
    /// the pin releases it; the writer is never blocked either way.
    pub fn pin(&self) -> StoreResult<StorePin> {
        Ok(StorePin::new(self.current()?, self.pins.clone()))
    }

    /// Inserts one record; may trigger an automatic memtable flush.
    ///
    /// With the WAL enabled the record is framed and handed to the OS
    /// before this returns: an acknowledged insert survives a crash at
    /// any later point (see [`LsmConfig::wal_sync`] for the power-
    /// failure window). With background compaction (the default) the
    /// flush only writes the memtable and enqueues any merge work, so
    /// insert latency never includes an O(total data) compaction. The
    /// record lands in the active memtable — no state swap per record.
    /// The next reader freezes it into the published state, taking the
    /// writer lock to do so; feed a served store through
    /// [`Self::insert_batch`], which publishes as it returns and so keeps
    /// readers off the writer altogether.
    pub fn insert(&self, p: Point) -> StoreResult<()> {
        self.insert_locked(&mut *self.writer()?, p)
    }

    fn insert_locked(&self, w: &mut Writer, p: Point) -> StoreResult<()> {
        if let Some(wal) = &mut w.wal {
            wal.append(key_of(p.t, p.oid), &val_of(p.x, p.y))?;
        }
        w.put(p);
        if !w.in_batch {
            // Acknowledged on return, unpublished until the next swap.
            // Release: see `current`.
            self.unpublished.store(true, Ordering::Release);
        }
        if w.buffered() >= w.config.memtable_entries {
            self.flush_locked(w)?;
        }
        Ok(())
    }

    /// Inserts `points` in order as one unit of publication, and returns
    /// the version it published.
    ///
    /// The batch is group-committed in runs split at memtable-fill
    /// boundaries. Each run is one WAL append ([`WalWriter::append_run`]:
    /// one `write`, and one `sync_data` under every [`WalSyncPolicy`] but
    /// `OnRotate`), then goes into the memtable, which flushes if the run
    /// filled it — the flush points of the same records inserted one by
    /// one. So with the default policy every point of an acknowledged
    /// batch is on stable storage.
    ///
    /// The published state moves exactly once, when the last record is
    /// in — the batch is frozen into one generation and swapped in. A
    /// reader of the published state while the batch runs sees none of
    /// it, and does not wait for it, even when the memtable fills and
    /// flushes midway: the flush's swap, and that of any compaction
    /// finishing meanwhile, is held back to the end. A reader after this
    /// returns sees all of it; the returned version is the one its pin
    /// reports.
    ///
    /// If a run fails, the runs before it stay applied (they are in the
    /// WAL, recovery would bring them back) and are published; the error
    /// is returned.
    pub fn insert_batch(&self, points: &[Point]) -> StoreResult<u64> {
        let mut w = self.writer()?;
        self.drain_finished(&mut w)?;
        // Earlier single inserts are acknowledged: publish them now, or a
        // reader would have to come through the writer for them and wait
        // for this batch.
        if w.freeze_active() {
            self.publish(&mut w);
        }
        if points.is_empty() {
            return Ok(w.version);
        }
        w.in_batch = true;
        let result = self.insert_runs(&mut w, points);
        w.in_batch = false;
        // Whatever the batch left in the active memtable becomes one
        // generation; if its last record filled the memtable instead, the
        // flush's swap is still owed.
        w.freeze_active();
        self.publish(&mut w);
        result.map(|()| w.version)
    }

    /// The body of [`Self::insert_batch`]: one group commit per run of
    /// `points` that fits in the memtable.
    fn insert_runs(&self, w: &mut Writer, mut points: &[Point]) -> StoreResult<()> {
        while !points.is_empty() {
            let room = w.config.memtable_entries.saturating_sub(w.buffered());
            let (run, rest) = points.split_at(room.clamp(1, points.len()));
            points = rest;
            if let Some(wal) = &mut w.wal {
                wal.append_run(run.iter().map(|p| (key_of(p.t, p.oid), val_of(p.x, p.y))))?;
            }
            for &p in run {
                w.put(p);
            }
            // A run that repeats keys can leave room; the next run fills it.
            if w.buffered() >= w.config.memtable_entries {
                self.flush_locked(w)?;
            }
        }
        Ok(())
    }

    /// Flushes all buffered entries — frozen generations and the active
    /// memtable, merged newest-wins — to a new SSTable (no-op when
    /// nothing is buffered), retires the WAL generation that covered
    /// them, publishes the new state, then consults the compaction
    /// controller — enqueueing (background mode) or running (blocking
    /// mode) any merge it picks.
    ///
    /// The flush commits in a fixed order: the SSTable is written and
    /// `fsync`ed, the directory entry is `fsync`ed, and only then is the
    /// [`ManifestRecord::Flush`] appended — a crash before the record
    /// leaves an orphan file that recovery ignores, while the WAL still
    /// holds every entry. Pins taken before the flush keep reading the
    /// frozen generations they hold; the swap is invisible to them.
    pub fn flush(&self) -> StoreResult<()> {
        self.flush_locked(&mut *self.writer()?)
    }

    fn flush_locked(&self, w: &mut Writer) -> StoreResult<()> {
        self.drain_finished(w)?;
        if w.active.is_empty() && w.frozen.is_empty() {
            return Ok(());
        }
        let seq = w.next_seq;
        w.next_seq += 1;
        let path = self.dir.join(sst_name(seq));
        // The frozen generations (oldest first) and the active memtable
        // are merged newest-wins straight into the writer — the order
        // MergeIter resolves reads in — without a merged copy. The
        // buffered count bounds the distinct keys, which sizes the index.
        let mut table = SsTableWriter::create(&path, w.buffered())?;
        let generations = w.frozen.iter().map(|g| &g.entries);
        let mut merge = MergeIter::over_memtables(generations.chain(std::iter::once(&w.active)));
        while let Some((k, v)) = merge.next()? {
            table.add(k, &v)?;
        }
        table.finish()?;
        sync_dir(&self.dir)?;
        self.append_manifest(&ManifestRecord::Flush { seq })?;
        let reader = SsTableReader::open(&path, seq, self.cache.clone())?;
        w.tables.push(Arc::new(reader));
        w.table_seqs.push(seq);
        w.active.clear();
        w.frozen.clear();
        w.frozen_entries = 0;
        self.publish(w);
        // The flushed entries are durable in the SSTable; retire the WAL
        // generation that covered them.
        if w.config.wal {
            self.rotate_wal(w)?;
        } else if let Some(stale) = w.stale_wal.take() {
            self.append_manifest(&ManifestRecord::WalRotate { seq: 0 })?;
            let _ = fs::remove_file(stale);
        }
        self.maybe_compact(w)?;
        Ok(())
    }

    /// Merges every SSTable into one run (newest version of each key
    /// wins), inline and deterministically, waiting out any in-flight
    /// background job first. This is the mode tests and goldens use; the
    /// steady-state policy path is [`Self::wait_for_compactions`].
    ///
    /// The [`ManifestRecord::Compact`] append is the commit point: a
    /// crash before it leaves an orphaned output that recovery deletes
    /// (the inputs stay live); a crash after it leaves stale inputs that
    /// recovery deletes (the output is live).
    pub fn compact_blocking(&self) -> StoreResult<()> {
        let mut w = self.writer()?;
        self.wait_locked(&mut w)?;
        if w.tables.len() <= 1 {
            return Ok(());
        }
        let range = 0..w.tables.len();
        self.run_inline(&mut w, range)
    }

    /// Drives compaction to its policy steady state and blocks until no
    /// work remains: any in-flight background job is waited out and
    /// applied, and the controller is re-consulted until it picks
    /// nothing. After this returns `num_tables() <= max_tables`. Holds
    /// the writer lock while it waits; readers do not wait for it.
    pub fn wait_for_compactions(&self) -> StoreResult<()> {
        self.wait_locked(&mut *self.writer()?)
    }

    fn wait_locked(&self, w: &mut Writer) -> StoreResult<()> {
        loop {
            self.drain_finished(w)?;
            if self.compacting.load(Ordering::Relaxed) {
                let res = w
                    .compactor
                    .as_ref()
                    .expect("in-flight job implies a worker")
                    .recv();
                self.compacting.store(false, Ordering::Relaxed);
                if let Some(res) = res {
                    let done = res?;
                    self.apply_compaction(w, done)?;
                }
                continue;
            }
            let sizes: Vec<u64> = w.tables.iter().map(|t| t.num_entries()).collect();
            match w.controller.pick(&sizes) {
                Some(range) => self.start_compaction(w, range)?,
                None => return Ok(()),
            }
        }
    }

    /// Applies finished background jobs and, if the controller picks a
    /// run and none is in flight, starts the next one. Blocking mode
    /// loops inline until the policy is satisfied.
    fn maybe_compact(&self, w: &mut Writer) -> StoreResult<()> {
        self.drain_finished(w)?;
        loop {
            if self.compacting.load(Ordering::Relaxed) {
                return Ok(());
            }
            let sizes: Vec<u64> = w.tables.iter().map(|t| t.num_entries()).collect();
            let Some(range) = w.controller.pick(&sizes) else {
                return Ok(());
            };
            self.start_compaction(w, range)?;
            if w.config.background_compaction {
                return Ok(());
            }
        }
    }

    /// Launches one compaction over the given contiguous table range —
    /// enqueued to the worker in background mode, run inline otherwise.
    fn start_compaction(&self, w: &mut Writer, range: Range<usize>) -> StoreResult<()> {
        if !w.config.background_compaction {
            return self.run_inline(w, range);
        }
        let job = CompactionJob {
            inputs: w.table_seqs[range].to_vec(),
            output: w.next_seq,
        };
        w.next_seq += 1;
        let compactor = w.compactor.get_or_insert_with(|| {
            CompactionHandle::spawn(self.dir.clone(), self.manifest.clone(), self.io.clone())
        });
        compactor.enqueue(job);
        self.compacting.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Runs one compaction inline and splices the result in.
    fn run_inline(&self, w: &mut Writer, range: Range<usize>) -> StoreResult<()> {
        let inputs: Vec<u64> = w.table_seqs[range].to_vec();
        let output = w.next_seq;
        w.next_seq += 1;
        let job = CompactionJob { inputs, output };
        let done = run_job(&self.dir, &self.manifest, &self.io, &job)?;
        self.apply_compaction(w, done)
    }

    /// Applies any background results that are already waiting (never
    /// blocks).
    fn drain_finished(&self, w: &mut Writer) -> StoreResult<()> {
        loop {
            let res = match &w.compactor {
                Some(c) => c.try_recv(),
                None => None,
            };
            let Some(res) = res else { return Ok(()) };
            self.compacting.store(false, Ordering::Relaxed);
            let done = res?;
            self.apply_compaction(w, done)?;
        }
    }

    /// Splices a committed compaction into the table list: the inputs (a
    /// contiguous run) come out, the output goes in at their position —
    /// the same splice recovery applies when folding the manifest — and
    /// the new state is published. Only the input tables' blocks are
    /// evicted from the cache; every other table's cached blocks stay
    /// hot. Pins still holding the input readers keep reading them
    /// through their open descriptors (the worker already unlinked the
    /// files); cache ids are table seqs, unique forever, so a pin
    /// re-caching a retired table's block can never alias the output's.
    fn apply_compaction(&self, w: &mut Writer, done: CompactionDone) -> StoreResult<()> {
        let pos = w
            .table_seqs
            .iter()
            .position(|s| done.inputs.contains(s))
            .expect("compaction inputs must be live tables");
        debug_assert!(
            w.table_seqs[pos..pos + done.inputs.len()]
                .iter()
                .all(|s| done.inputs.contains(s)),
            "compaction inputs must be contiguous in recency order"
        );
        for _ in 0..done.inputs.len() {
            w.tables.remove(pos);
            w.table_seqs.remove(pos);
        }
        self.cache.evict_tables(&done.inputs);
        let reader = SsTableReader::open(
            self.dir.join(sst_name(done.output)),
            done.output,
            self.cache.clone(),
        )?;
        w.tables.insert(pos, Arc::new(reader));
        w.table_seqs.insert(pos, done.output);
        self.publish(w);
        Ok(())
    }

    fn append_manifest(&self, rec: &ManifestRecord) -> StoreResult<()> {
        self.manifest.lock().expect("manifest lock").append(rec)
    }

    /// Starts a fresh WAL generation and retires the previous one: the
    /// new log file is created and made durable, the rotation is
    /// committed to the manifest, then the old file is deleted. A crash
    /// between those steps only ever leaves an orphan file or an
    /// idempotent replay.
    fn rotate_wal(&self, w: &mut Writer) -> StoreResult<()> {
        let seq = w.next_seq;
        w.next_seq += 1;
        let path = self.dir.join(wal_name(seq));
        let writer = WalWriter::create(&path, w.config.wal_sync, self.io.clone())?;
        sync_dir(&self.dir)?;
        self.append_manifest(&ManifestRecord::WalRotate { seq })?;
        if let Some(old) = w.wal.replace(writer) {
            let _ = fs::remove_file(old.path());
        }
        if let Some(stale) = w.stale_wal.take() {
            let _ = fs::remove_file(stale);
        }
        Ok(())
    }

    /// Forces the live WAL (if any) to stable storage, regardless of the
    /// configured [`WalSyncPolicy`].
    pub fn sync_wal(&self) -> StoreResult<()> {
        if let Some(wal) = &mut self.writer()?.wal {
            wal.sync()?;
        }
        Ok(())
    }

    /// Number of on-disk SSTables in the published state.
    pub fn num_tables(&self) -> usize {
        self.published().tables.len()
    }

    /// Entries buffered in memory: the frozen memtable generations of
    /// the current state.
    pub fn memtable_len(&self) -> usize {
        let state = self.current_or_published();
        state.frozen.iter().map(|g| g.entries.len()).sum()
    }

    /// Version of the currently published state; bumped by every swap
    /// (batch end, flush, compaction commit, a reader that had to
    /// freeze single inserts in). `version() - pin.version()` is a pin's
    /// staleness in state swaps.
    pub fn version(&self) -> u64 {
        self.published().version
    }

    /// Number of live [`StorePin`]s.
    pub fn live_pins(&self) -> u64 {
        self.pins.load(Ordering::Relaxed)
    }

    /// Number of compaction jobs currently queued or running in the
    /// background (the store keeps at most one in flight).
    pub fn compaction_queue_depth(&self) -> usize {
        usize::from(self.compacting.load(Ordering::Relaxed))
    }

    /// The store itself. Kept only until the benchmark harness, which
    /// still calls `lock()` on what was a mutex-wrapped handle, is
    /// renamed to the `&self` API; delete it with
    /// [`SharedLsm`](crate::SharedLsm).
    pub fn lock(&self) -> &Self {
        self
    }
}

impl Drop for LsmStore {
    fn drop(&mut self) {
        // Wait out an in-flight background job so its manifest commit
        // and input deletions are not torn by process-level teardown;
        // dropping the handle afterwards joins the worker.
        if std::mem::take(self.compacting.get_mut()) {
            let w = self
                .writer
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(c) = &w.compactor {
                let _ = c.recv();
            }
        }
    }
}

impl SnapshotSource for LsmStore {
    fn span(&self) -> TimeInterval {
        self.current_or_published().time_span()
    }

    fn num_points(&self) -> u64 {
        ReadView::new(&self.current_or_published(), &self.io).num_points()
    }

    fn scan_snapshot_ref<'a>(
        &self,
        t: Time,
        buf: &'a mut Vec<ObjPos>,
    ) -> StoreResult<SnapshotRef<'a>> {
        self.read(|v| v.scan_into(t, buf))?;
        Ok(SnapshotRef::Buffered(buf))
    }

    fn multi_get_into(&self, t: Time, oids: &[Oid], out: &mut Vec<ObjPos>) -> StoreResult<()> {
        self.read(|v| v.multi_get_into(t, oids, out))
    }

    fn io_stats(&self) -> IoStats {
        self.io.snapshot()
    }

    fn name(&self) -> &'static str {
        "k2-lsmt"
    }
}

impl TrajectoryStore for LsmStore {
    fn reset_io_stats(&self) {
        self.io.reset()
    }
}

#[cfg(test)]
impl LsmStore {
    /// Test-only flush variant that skips the compaction consult, so a
    /// test can pin a deliberately un-compacted table layout.
    fn flush_without_compaction_for_tests(&self) -> StoreResult<()> {
        let mut w = self.writer()?;
        let controller =
            std::mem::replace(&mut w.controller, CompactionController::new(usize::MAX));
        let res = self.flush_locked(&mut w);
        w.controller = controller;
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trait_tests::{conformance, get, scan, toy_dataset};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("k2lsm-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// Path of the live write-ahead log, if the WAL is enabled.
    fn wal_path(store: &LsmStore) -> Option<PathBuf> {
        let w = store.writer().unwrap();
        w.wal.as_ref().map(|wal| wal.path().to_path_buf())
    }

    #[test]
    fn lsm_store_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LsmStore>();
        assert_send_sync::<BlockCache>();
        assert_send_sync::<SsTableReader>();
    }

    #[test]
    fn conforms_to_trait_contract() {
        let d = toy_dataset();
        let store = LsmStore::bulk_load(tmpdir("conform"), &d).unwrap();
        conformance(&store, &d);
    }

    /// The toy dataset behind a pin over every layer a reader merges:
    /// timestamps 0–19 and 20–39 in two SSTables, 40–49 in the frozen
    /// generation the pin itself freezes in.
    fn pin_over_two_tables_and_a_frozen_generation(name: &str) -> (Dataset, StorePin) {
        let d = toy_dataset();
        let config = LsmConfig {
            memtable_entries: 1 << 20,
            background_compaction: false,
            wal: false,
            ..LsmConfig::default()
        };
        let store = LsmStore::create_with(tmpdir(name), config).unwrap();
        for (lo, hi) in [(0, 20), (20, 40), (40, 50)] {
            for p in d.iter_points().filter(|p| (lo..hi).contains(&p.t)) {
                store.insert(p).unwrap();
            }
            if hi < 50 {
                store.flush().unwrap();
            }
        }
        let pin = store.pin().unwrap();
        let state = store.published();
        assert_eq!((state.tables.len(), state.frozen.len()), (2, 1));
        (d, pin)
    }

    #[test]
    fn pin_conforms_to_trait_contract() {
        let (d, pin) = pin_over_two_tables_and_a_frozen_generation("pinconform");
        conformance(&pin, &d);
    }

    #[test]
    fn time_range_clamps_a_pin() {
        let (d, pin) = pin_over_two_tables_and_a_frozen_generation("pinclamp");
        let range = crate::TimeRange::new(pin, 10, 45);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        // Inside the clamp — across both tables and the frozen
        // generation — the clamped source reads what the pin reads.
        for t in [10, 19, 20, 39, 40, 45] {
            assert_eq!(scan(&range, t), scan(range.inner(), t), "scan {t}");
            assert_eq!(scan(&range, t), d.snapshot(t).unwrap().positions());
            range.multi_get_into(t, &[1, 3, 999], &mut got).unwrap();
            range
                .inner()
                .multi_get_into(t, &[1, 3, 999], &mut want)
                .unwrap();
            assert_eq!((got.len(), &got), (2, &want), "probe {t}");
        }
        // Outside it, both paths answer empty without reaching the pin.
        let before = range.inner().io_stats();
        for t in [0, 9, 46, 49, 1000] {
            assert!(scan(&range, t).is_empty(), "scan {t}");
            got.push(ObjPos::new(7, 0.0, 0.0));
            range.multi_get_into(t, &[1, 3], &mut got).unwrap();
            assert!(got.is_empty(), "probe {t}");
        }
        assert_eq!(range.inner().io_stats(), before);
    }

    #[test]
    fn reopen_preserves_contents() {
        let d = toy_dataset();
        let dir = tmpdir("reopen");
        // Several tables, so recovery has several key ranges to fold.
        let config = LsmConfig {
            memtable_entries: 100,
            max_tables: 100,
            ..LsmConfig::default()
        };
        let span = {
            let store = LsmStore::bulk_load_with(&dir, &d, config).unwrap();
            assert!(store.num_tables() > 1);
            store.span()
        };
        let store = LsmStore::open_with(&dir, config).unwrap();
        // The span is rebuilt from the tables' resident key fences:
        // reopening requests no data block.
        assert_eq!(store.span(), span);
        let io = store.io_stats();
        assert_eq!((io.blocks_read, io.cache_misses, io.cache_hits), (0, 0, 0));
        assert!(store.cache.is_empty());
        conformance(&store, &d);
    }

    #[test]
    fn small_memtable_forces_many_tables_then_compaction() {
        let d = toy_dataset(); // 1000 points
        let config = LsmConfig {
            memtable_entries: 64,
            max_tables: 4,
            ..LsmConfig::default()
        };
        let store = LsmStore::bulk_load_with(tmpdir("compact"), &d, config).unwrap();
        assert!(
            store.num_tables() <= 4,
            "compaction should bound table count, got {}",
            store.num_tables()
        );
        conformance(&store, &d);
    }

    #[test]
    fn explicit_compaction_to_single_table() {
        let d = toy_dataset();
        let config = LsmConfig {
            memtable_entries: 100,
            max_tables: 100, // no auto-compaction
            ..LsmConfig::default()
        };
        let store = LsmStore::bulk_load_with(tmpdir("explicit"), &d, config).unwrap();
        assert!(store.num_tables() > 1);
        store.compact_blocking().unwrap();
        assert_eq!(store.num_tables(), 1);
        conformance(&store, &d);
    }

    #[test]
    fn tiered_compaction_leaves_settled_tables_alone() {
        let d = toy_dataset(); // 1000 points
        let dir = tmpdir("tiered");
        let config = LsmConfig {
            memtable_entries: 2000,
            max_tables: 3,
            background_compaction: false,
            wal: false,
            ..LsmConfig::default()
        };
        let store = LsmStore::bulk_load_with(&dir, &d, config).unwrap();
        assert_eq!(store.num_tables(), 1); // one settled 1000-entry table
        let settled_bytes = store.io_stats().bytes_compacted;
        // Pour in small flushes: the tiered policy must merge the young
        // runs among themselves, never re-reading the settled table.
        for round in 0..4u32 {
            for i in 0..40u32 {
                let t = 100 + round;
                store
                    .insert(Point::new(2000 + i, i as f64, 1.0, t))
                    .unwrap();
            }
            store.flush().unwrap();
        }
        store.wait_for_compactions().unwrap();
        assert!(store.num_tables() <= 3);
        let compacted = store.io_stats().bytes_compacted - settled_bytes;
        // Full-merge would have rewritten the 1000-entry table every
        // trigger; tiered only rewrites the young 40-entry runs.
        let settled_table_bytes = 1000 * super::super::sstable::ENTRY_SIZE as u64;
        assert!(
            compacted < settled_table_bytes,
            "tiered compaction rewrote settled data: {compacted} bytes"
        );
        // Everything still readable.
        assert_eq!(scan(&store, 100).len(), 40);
        conformance_scan(&store, &d);
    }

    #[test]
    fn sustained_ingest_rewrites_less_than_rewrite_everything() {
        const POINTS: u64 = 75_000;
        let entry = super::super::sstable::ENTRY_SIZE as u64;
        let blocking = LsmConfig {
            memtable_entries: 2048,
            max_tables: 4,
            background_compaction: false,
            wal: false,
            ..LsmConfig::default()
        };
        // Unique `(t, oid)` keys, 300 objects per timestamp.
        let ingest = |name: &str, config: LsmConfig| {
            let dir = tmpdir(name);
            let store = LsmStore::create_with(&dir, config).unwrap();
            for i in 0..POINTS {
                let (oid, t) = ((i % 300) as u32, (i / 300) as u32);
                store
                    .insert(Point::new(oid, (i % 977) as f64, (i % 131) as f64 * 0.5, t))
                    .unwrap();
            }
            store.flush().unwrap();
            store.wait_for_compactions().unwrap();
            let compacted = store.io_stats().bytes_compacted;
            drop(store);
            let _ = fs::remove_dir_all(&dir);
            compacted
        };
        // The cost tiering must beat: every time the table count exceeds
        // `max_tables`, rewrite all entries ingested so far into one table.
        let (mut tables, mut ingested, mut rewritten) = (0usize, 0u64, 0u64);
        while ingested < POINTS {
            ingested += (POINTS - ingested).min(blocking.memtable_entries as u64);
            tables += 1;
            if tables > blocking.max_tables {
                rewritten += ingested;
                tables = 1;
            }
        }
        let rewrite_everything = rewritten * entry;
        assert_eq!(rewrite_everything, 9_271_104);

        // Inline compaction is deterministic: 2.4x write amplification
        // where rewriting everything costs 5.2x.
        let tiered = ingest("amp-blocking", blocking);
        assert_eq!(tiered, 4_276_224);
        assert!(tiered < rewrite_everything);
        // Which runs the worker sees depends on when its jobs finish, so
        // the background leg is held to the ordering only.
        let background = ingest(
            "amp-background",
            LsmConfig {
                background_compaction: true,
                ..blocking
            },
        );
        assert!(
            background < rewrite_everything,
            "background compaction rewrote {background} bytes"
        );
    }

    /// Scan-side subset of `conformance` usable after extra inserts.
    fn conformance_scan(store: &LsmStore, d: &Dataset) {
        for t in [0, 1] {
            let mut want: Vec<ObjPos> = d
                .iter_points()
                .filter(|p| p.t == t)
                .map(|p| ObjPos::new(p.oid, p.x, p.y))
                .collect();
            want.sort_by_key(|o| o.oid);
            let got = scan(store, t);
            assert_eq!(got, want, "snapshot {t} mismatch");
        }
    }

    #[test]
    fn background_compaction_reaches_steady_state() {
        let dir = tmpdir("background");
        let config = LsmConfig {
            memtable_entries: 64,
            max_tables: 4,
            background_compaction: true,
            wal: false,
            ..LsmConfig::default()
        };
        let store = LsmStore::create_with(&dir, config).unwrap();
        for i in 0..2000u32 {
            store
                .insert(Point::new(i % 500, (i % 97) as f64, 2.0, (i / 500) as Time))
                .unwrap();
        }
        store.flush().unwrap();
        store.wait_for_compactions().unwrap();
        assert!(store.num_tables() <= 4, "got {} tables", store.num_tables());
        let s = store.io_stats();
        assert!(s.compactions > 0, "background worker never ran");
        assert!(s.bytes_compacted > 0);
        // Contents identical to what was inserted (newest version wins).
        let snap = scan(&store, 0);
        assert_eq!(snap.len(), 500);
    }

    #[test]
    fn background_and_blocking_agree_on_contents() {
        let build = |dir: PathBuf, background: bool| -> Vec<Vec<ObjPos>> {
            let config = LsmConfig {
                memtable_entries: 32,
                max_tables: 3,
                background_compaction: background,
                wal: false,
                ..LsmConfig::default()
            };
            let store = LsmStore::create_with(&dir, config).unwrap();
            for i in 0..600u32 {
                store
                    .insert(Point::new(
                        i % 100,
                        (i % 13) as f64,
                        (i % 7) as f64,
                        (i / 100) as Time,
                    ))
                    .unwrap();
            }
            store.flush().unwrap();
            store.wait_for_compactions().unwrap();
            (0..6).map(|t| scan(&store, t)).collect()
        };
        let a = build(tmpdir("agree-bg"), true);
        let b = build(tmpdir("agree-bl"), false);
        assert_eq!(a, b);
    }

    #[test]
    fn compaction_keeps_other_tables_cached() {
        let d = toy_dataset(); // 1000 points over t=0,1
        let dir = tmpdir("cachesurvive");
        let config = LsmConfig {
            memtable_entries: 2000,
            max_tables: 3,
            background_compaction: false,
            wal: false,
            ..LsmConfig::default()
        };
        let store = LsmStore::bulk_load_with(&dir, &d, config).unwrap();
        assert_eq!(store.num_tables(), 1);
        // Warm the cache on the settled table.
        let _ = get(&store, 0, 5);
        store.reset_io_stats();
        let _ = get(&store, 0, 5);
        assert_eq!(store.io_stats().blocks_read, 0, "warm read must hit cache");
        // Trigger a tiered compaction of young tables only.
        for round in 0..4u32 {
            for i in 0..20u32 {
                store
                    .insert(Point::new(3000 + i, 1.0, 1.0, 50 + round))
                    .unwrap();
            }
            store.flush().unwrap();
        }
        store.wait_for_compactions().unwrap();
        assert!(store.io_stats().compactions > 0);
        // The settled table was not an input, so its blocks must still
        // be resident.
        store.reset_io_stats();
        let _ = get(&store, 0, 5);
        let s = store.io_stats();
        assert_eq!(
            s.blocks_read, 0,
            "partial compaction evicted a surviving table's blocks"
        );
        assert!(s.cache_hits >= 1);
    }

    #[test]
    fn newest_version_wins_after_overwrite() {
        let dir = tmpdir("overwrite");
        let store = LsmStore::create(&dir).unwrap();
        store.insert(Point::new(1, 1.0, 1.0, 5)).unwrap();
        store.flush().unwrap();
        store.insert(Point::new(1, 9.0, 9.0, 5)).unwrap();
        // Read from memtable over table.
        assert_eq!(get(&store, 5, 1).unwrap().x, 9.0);
        store.flush().unwrap();
        // Read newest table over oldest.
        assert_eq!(get(&store, 5, 1).unwrap().x, 9.0);
        let snap = scan(&store, 5);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].x, 9.0);
        // And compaction collapses to the newest version.
        store.compact_blocking().unwrap();
        assert_eq!(get(&store, 5, 1).unwrap().x, 9.0);
    }

    #[test]
    fn newest_version_wins_across_frozen_generations() {
        let dir = tmpdir("frozenwins");
        let store = LsmStore::create(&dir).unwrap();
        store.insert(Point::new(1, 1.0, 1.0, 5)).unwrap();
        let _pin_a = store.pin().unwrap(); // freezes generation 1
        store.insert(Point::new(1, 2.0, 2.0, 5)).unwrap();
        let _pin_b = store.pin().unwrap(); // freezes generation 2
        store.insert(Point::new(1, 3.0, 3.0, 5)).unwrap();
        // The read freezes a third generation, which beats both others.
        assert_eq!(get(&store, 5, 1).unwrap().x, 3.0);
        assert_eq!(scan(&store, 5)[0].x, 3.0);
        let mut buf = Vec::new();
        store.multi_get_into(5, &[1], &mut buf).unwrap();
        assert_eq!(buf[0].x, 3.0);
        drop(_pin_a);
        drop(_pin_b);
        // Flush folds the generations newest-wins.
        store.flush().unwrap();
        assert_eq!(store.memtable_len(), 0);
        assert_eq!(get(&store, 5, 1).unwrap().x, 3.0);
        let snap = scan(&store, 5);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].x, 3.0);
    }

    #[test]
    fn pin_is_isolated_from_later_writes() {
        let dir = tmpdir("pinisolate");
        let store = LsmStore::create(&dir).unwrap();
        for oid in 0..10u32 {
            store.insert(Point::new(oid, oid as f64, 1.0, 0)).unwrap();
        }
        let pin = store.pin().unwrap();
        assert_eq!(store.live_pins(), 1);
        // Everything inserted before the pin is visible through it…
        assert_eq!(scan(&pin, 0).len(), 10);
        // …and nothing after: inserts, flushes and compactions included.
        for oid in 10..30u32 {
            store.insert(Point::new(oid, oid as f64, 1.0, 0)).unwrap();
        }
        store.flush().unwrap();
        store.insert(Point::new(99, 9.0, 9.0, 1)).unwrap();
        store.compact_blocking().unwrap();
        assert_eq!(scan(&pin, 0).len(), 10);
        assert!(scan(&pin, 1).is_empty());
        assert_eq!(scan(&store, 0).len(), 30);
        // A fresh pin sees the new data.
        let pin2 = store.pin().unwrap();
        assert_eq!(scan(&pin2, 0).len(), 30);
        assert_eq!(scan(&pin2, 1).len(), 1);
        assert!(pin2.version() > pin.version());
        drop(pin);
        drop(pin2);
        assert_eq!(store.live_pins(), 0);
    }

    #[test]
    fn pin_survives_compaction_unlinking_its_tables() {
        let dir = tmpdir("pinunlink");
        let config = LsmConfig {
            memtable_entries: 1000,
            max_tables: 2,
            background_compaction: false,
            wal: false,
            ..LsmConfig::default()
        };
        let store = LsmStore::create_with(&dir, config).unwrap();
        // Three flushed tables (max_tables 2 compacts on the third).
        let mut pinned_tables = Vec::new();
        let mut pin = None;
        for round in 0..3u32 {
            for oid in 0..50u32 {
                store
                    .insert(Point::new(oid + round * 100, 1.0, 1.0, round))
                    .unwrap();
            }
            if round == 1 {
                // Pin while two un-compacted tables are live.
                store.flush_without_compaction_for_tests().unwrap();
                let p = store.pin().unwrap();
                pinned_tables = store.writer().unwrap().table_seqs.clone();
                pin = Some(p);
            } else {
                store.flush().unwrap();
            }
        }
        store.compact_blocking().unwrap();
        assert_eq!(store.num_tables(), 1);
        // The pinned inputs were unlinked by the compaction…
        for seq in &pinned_tables {
            assert!(
                !dir.join(sst_name(*seq)).exists(),
                "table {seq} should be unlinked"
            );
        }
        // …but the pin still reads them through its open descriptors.
        let pin = pin.unwrap();
        assert_eq!(scan(&pin, 0).len(), 50);
        assert_eq!(scan(&pin, 1).len(), 50);
        assert!(scan(&pin, 2).is_empty());
        assert_eq!(get(&pin, 0, 5), Some(ObjPos::new(5, 1.0, 1.0)));
    }

    #[test]
    fn pin_io_is_accounted_separately_but_shares_the_cache() {
        let d = toy_dataset();
        let store = LsmStore::bulk_load(tmpdir("pinio"), &d).unwrap();
        let pin = store.pin().unwrap();
        store.reset_io_stats();
        // A cold pinned scan misses into the shared cache…
        let first = {
            let _ = scan(&pin, 25);
            pin.io_stats()
        };
        assert!(first.range_queries == 1 && first.cache_misses > 0);
        // …the store's own counters saw none of it…
        assert_eq!(store.io_stats().range_queries, 0);
        assert_eq!(store.io_stats().cache_misses, 0);
        // …and a store-side read of the same snapshot now hits the
        // blocks the pin populated.
        let _ = scan(&store, 25);
        let s = store.io_stats();
        assert!(s.cache_hits > 0);
        assert_eq!(s.blocks_read, 0, "pin-warmed blocks must be shared");
        // The pin's second scan also hits.
        let before = pin.io_stats();
        let _ = scan(&pin, 25);
        let diff = pin.io_stats().since(&before);
        assert_eq!(diff.blocks_read, 0);
        assert!(diff.cache_hits > 0);
    }

    #[test]
    fn version_bumps_on_every_swap_only() {
        let dir = tmpdir("version");
        let store = LsmStore::create(&dir).unwrap();
        let v0 = store.version();
        for oid in 0..5u32 {
            store.insert(Point::new(oid, 1.0, 1.0, 0)).unwrap();
        }
        assert_eq!(store.version(), v0, "plain inserts must not swap");
        let pin = store.pin().unwrap();
        assert_eq!(store.version(), v0 + 1, "pin freezes and swaps");
        assert_eq!(pin.version(), store.version());
        store.flush().unwrap();
        assert!(store.version() > pin.version());
        assert_eq!(
            pin.staleness(store.version()),
            store.version() - pin.version()
        );
        // Pinning a quiescent store swaps nothing.
        let v = store.version();
        let pin2 = store.pin().unwrap();
        assert_eq!(store.version(), v);
        assert_eq!(pin2.version(), v);
    }

    #[test]
    fn a_batch_publishes_once_however_many_flushes_it_spans() {
        let dir = tmpdir("batchonce");
        let config = LsmConfig {
            memtable_entries: 32,
            max_tables: 2,
            background_compaction: false,
            ..LsmConfig::default()
        };
        let store = LsmStore::create_with(&dir, config).unwrap();
        store.insert(Point::new(0, 0.0, 0.0, 0)).unwrap();
        let before = store.pin().unwrap();
        let v0 = store.version();
        // 100 records through a 32-entry memtable: three flushes and an
        // inline compaction land inside the batch.
        let batch: Vec<Point> = (1..=100u32)
            .map(|oid| Point::new(oid, oid as f64, 1.0, 0))
            .collect();
        store.insert_batch(&batch).unwrap();
        assert!(store.num_tables() >= 1, "the batch must have flushed");
        assert_eq!(store.version(), v0 + 1, "one swap per batch");
        assert_eq!(scan(&before, 0).len(), 1);
        let after = store.pin().unwrap();
        assert_eq!(after.version(), v0 + 1, "nothing left to freeze");
        assert_eq!(scan(&after, 0).len(), 101);
        // An empty batch publishes nothing.
        store.insert_batch(&[]).unwrap();
        assert_eq!(store.version(), v0 + 1);
        // Singles before a batch are published ahead of it, the batch
        // after it: two swaps.
        store.insert(Point::new(500, 5.0, 5.0, 1)).unwrap();
        store.insert_batch(&[Point::new(501, 5.0, 5.0, 1)]).unwrap();
        assert_eq!(store.version(), v0 + 3);
        // The WAL covered every record of the batch.
        assert_eq!(store.io_stats().wal_appends, 103);
    }

    #[test]
    fn an_acknowledged_batch_is_synced() {
        let store = LsmStore::create(tmpdir("batchsynced")).unwrap();
        let batch: Vec<Point> = (0..100u32)
            .map(|oid| Point::new(oid, 1.0, 1.0, 0))
            .collect();
        store.insert_batch(&batch).unwrap();
        // One group commit under the default policy: every point is
        // written and synced before the batch is acknowledged.
        assert_eq!(store.writer().unwrap().wal.as_ref().unwrap().unsynced(), 0);
        assert_eq!(store.io_stats().wal_appends, 100);
    }

    #[test]
    fn batch_runs_flush_where_single_inserts_do() {
        let config = LsmConfig {
            memtable_entries: 64,
            max_tables: 100,
            background_compaction: false,
            ..LsmConfig::default()
        };
        // 300 points, every tenth a repeat of the point before it, so
        // some runs leave room the next run has to fill.
        let points: Vec<Point> = (0..300u32)
            .map(|i| {
                let oid = if i % 10 == 9 { i - 1 } else { i };
                Point::new(oid, f64::from(i), 1.0, 0)
            })
            .collect();
        let singles = LsmStore::create_with(tmpdir("runs-single"), config).unwrap();
        for &p in &points {
            singles.insert(p).unwrap();
        }
        let batched = LsmStore::create_with(tmpdir("runs-batch"), config).unwrap();
        batched.insert_batch(&points).unwrap();
        let tables = |s: &LsmStore| -> Vec<u64> {
            s.published()
                .tables
                .iter()
                .map(|t| t.num_entries())
                .collect()
        };
        assert_eq!(tables(&batched), tables(&singles));
        assert_eq!(tables(&batched).len(), 4);
        assert_eq!(scan(&batched, 0), scan(&singles, 0));
        assert_eq!(batched.io_stats().wal_appends, 300);
    }

    #[test]
    fn insert_batch_returns_the_version_it_published() {
        let store = LsmStore::create(tmpdir("batchversion")).unwrap();
        let mut last = store.version();
        for round in 0..4u32 {
            let batch: Vec<Point> = (0..10u32)
                .map(|oid| Point::new(oid, 1.0, 1.0, round))
                .collect();
            let version = store.insert_batch(&batch).unwrap();
            assert_eq!(version, store.pin().unwrap().version());
            assert!(version > last, "round {round}: {version} after {last}");
            last = version;
        }
    }

    #[test]
    fn concurrent_ingest_under_live_pin() {
        let config = LsmConfig {
            memtable_entries: 128,
            wal: false,
            ..LsmConfig::default()
        };
        let store = Arc::new(LsmStore::create_with(tmpdir("concurrent"), config).unwrap());
        for oid in 0..64u32 {
            store.insert(Point::new(oid, oid as f64, 0.0, 0)).unwrap();
        }
        let pin = store.pin().unwrap();
        assert_eq!(store.live_pins(), 1);
        // Four writer threads ingest past several flush boundaries while
        // the pin is live on this thread.
        let writers: Vec<_> = (0..4u32)
            .map(|w| {
                let store = store.clone();
                std::thread::spawn(move || {
                    for i in 0..256u32 {
                        let t = 1 + (i % 4) as Time;
                        store
                            .insert(Point::new(1000 + w * 1000 + i, 1.0, 1.0, t))
                            .unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        store.flush().unwrap();
        store.wait_for_compactions().unwrap();
        // The pin's view is exactly the pre-ingest state.
        assert_eq!(scan(&pin, 0).len(), 64);
        assert!(scan(&pin, 1).is_empty());
        // The store sees everything.
        assert_eq!(store.num_points(), 64 + 4 * 256);
        drop(pin);
        assert_eq!(store.live_pins(), 0);
    }

    #[test]
    fn poisoned_writer_fails_closed_and_readers_keep_answering() {
        let store = LsmStore::create(tmpdir("poison")).unwrap();
        let batch: Vec<Point> = (0..20u32).map(|oid| Point::new(oid, 1.0, 1.0, 0)).collect();
        let version = store.insert_batch(&batch).unwrap();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _w = store.writer().unwrap();
                panic!("writer panics while holding the lock");
            })
            .join()
        });
        assert!(panicked.is_err());
        // Every write is refused, none panics.
        assert!(store.insert_batch(&batch).is_err());
        assert!(store.insert(Point::new(99, 1.0, 1.0, 1)).is_err());
        assert!(store.flush().is_err());
        // Reads, pins and gauges answer from the last published state.
        let pin = store.pin().unwrap();
        assert_eq!(pin.version(), version);
        assert_eq!(scan(&pin, 0).len(), 20);
        assert_eq!(scan(&store, 0).len(), 20);
        assert_eq!(store.num_points(), 20);
        assert_eq!(store.version(), version);
        assert_eq!(store.memtable_len(), 20);
    }

    /// Writes `entries` the way the pre-streaming flush and compaction
    /// did — from one fully merged map — and returns the file's bytes.
    fn reference_table(dir: &Path, entries: &Memtable) -> Vec<u8> {
        let path = dir.join("reference.k2ss");
        let mut w = SsTableWriter::create(&path, entries.len()).unwrap();
        for (&k, v) in entries {
            w.add(k, v).unwrap();
        }
        w.finish().unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::remove_file(&path).unwrap();
        bytes
    }

    #[test]
    fn streaming_flush_and_compaction_write_the_same_bytes() {
        let dir = tmpdir("bytes");
        let config = LsmConfig {
            memtable_entries: 1 << 20,
            max_tables: 100,
            background_compaction: false,
            wal: false,
            ..LsmConfig::default()
        };
        let store = LsmStore::create_with(&dir, config).unwrap();
        let mut all_tables: Vec<Memtable> = Vec::new();
        // Three flushes; each folds three overlapping frozen generations
        // (freeze points set by pins) under a live active memtable. The
        // last flush has no frozen generation at all.
        for round in 0..3u32 {
            let mut folded = Memtable::new();
            let generations = if round == 2 { 1 } else { 4 };
            for generation in 0..generations {
                for i in 0..700u32 {
                    // Keys recur across generations and rounds, so both
                    // the flush and the compaction have versions to drop.
                    let oid = (i * (generation + 2) + round) % 1500;
                    let p = Point::new(oid, f64::from(i), f64::from(generation), round / 2);
                    store.insert(p).unwrap();
                    folded.insert(key_of(p.t, p.oid), val_of(p.x, p.y));
                }
                if generation + 1 < generations {
                    drop(store.pin().unwrap());
                }
            }
            store.flush().unwrap();
            let seq = *store.writer().unwrap().table_seqs.last().unwrap();
            assert_eq!(
                fs::read(dir.join(sst_name(seq))).unwrap(),
                reference_table(&dir, &folded),
                "flush {round} differs from the folded-copy table"
            );
            all_tables.push(folded);
        }
        // Compaction: newest table wins.
        let total: usize = all_tables.iter().map(|t| t.len()).sum();
        let mut merged = Memtable::new();
        for table in &all_tables {
            merged.extend(table.iter().map(|(&k, &v)| (k, v)));
        }
        assert!(merged.len() < total, "the inputs must share keys");
        store.compact_blocking().unwrap();
        assert_eq!(store.num_tables(), 1);
        let out = dir.join(sst_name(store.writer().unwrap().table_seqs[0]));
        assert_eq!(
            fs::read(&out).unwrap(),
            reference_table(&dir, &merged),
            "compaction output differs from the full-reader merge"
        );
    }

    #[test]
    fn unflushed_memtable_is_readable() {
        let dir = tmpdir("memread");
        let store = LsmStore::create(&dir).unwrap();
        store.insert(Point::new(7, 3.0, 4.0, 2)).unwrap();
        assert_eq!(store.memtable_len(), 1);
        assert_eq!(get(&store, 2, 7), Some(ObjPos::new(7, 3.0, 4.0)));
        assert_eq!(scan(&store, 2).len(), 1);
        assert_eq!(store.span(), TimeInterval::instant(2));
    }

    #[test]
    fn empty_store_is_sane() {
        let store = LsmStore::create(tmpdir("empty")).unwrap();
        assert_eq!(store.num_points(), 0);
        assert!(scan(&store, 0).is_empty());
        assert_eq!(get(&store, 0, 0), None);
    }

    #[test]
    fn corrupt_manifest_rejected() {
        use crate::StoreError;
        let dir = tmpdir("badmanifest");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(super::super::manifest::MANIFEST_FILE), "WRONG\n").unwrap();
        assert!(matches!(LsmStore::open(&dir), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn wal_recovers_unflushed_inserts_on_reopen() {
        let dir = tmpdir("walrecover");
        {
            let store = LsmStore::create(&dir).unwrap();
            for oid in 0..10u32 {
                store.insert(Point::new(oid, oid as f64, 1.0, 3)).unwrap();
            }
            assert_eq!(store.memtable_len(), 10);
            assert_eq!(store.num_tables(), 0);
            // Dropped without flush: the memtable is gone, the WAL is not.
        }
        let store = LsmStore::open(&dir).unwrap();
        assert_eq!(store.memtable_len(), 10);
        assert_eq!(store.io_stats().wal_replayed, 10);
        assert_eq!(store.span(), TimeInterval::instant(3));
        for oid in 0..10u32 {
            assert_eq!(get(&store, 3, oid), Some(ObjPos::new(oid, oid as f64, 1.0)));
        }
    }

    #[test]
    fn wal_covers_frozen_generations_until_flush() {
        let dir = tmpdir("walfrozen");
        {
            let store = LsmStore::create(&dir).unwrap();
            for oid in 0..5u32 {
                store.insert(Point::new(oid, oid as f64, 1.0, 0)).unwrap();
            }
            let _pin = store.pin().unwrap(); // freeze, no flush
            for oid in 5..8u32 {
                store.insert(Point::new(oid, oid as f64, 1.0, 0)).unwrap();
            }
            assert_eq!(store.memtable_len(), 8);
            // Crash (drop without flush): frozen + active both live only
            // in the WAL generation.
        }
        let store = LsmStore::open(&dir).unwrap();
        assert_eq!(store.memtable_len(), 8);
        assert_eq!(scan(&store, 0).len(), 8);
    }

    #[test]
    fn flush_retires_the_wal_generation() {
        let dir = tmpdir("walretire");
        let store = LsmStore::create(&dir).unwrap();
        store.insert(Point::new(1, 1.0, 1.0, 0)).unwrap();
        let before = wal_path(&store).unwrap().to_path_buf();
        store.flush().unwrap();
        let after = wal_path(&store).unwrap().to_path_buf();
        assert_ne!(before, after, "flush must rotate to a fresh WAL");
        assert!(!before.exists(), "retired WAL file must be deleted");
        // Reopen replays nothing: everything lives in the SSTable.
        drop(store);
        let store = LsmStore::open(&dir).unwrap();
        assert_eq!(store.io_stats().wal_replayed, 0);
        assert_eq!(store.memtable_len(), 0);
        assert_eq!(get(&store, 0, 1).unwrap().x, 1.0);
    }

    #[test]
    fn wal_disabled_store_round_trips() {
        let dir = tmpdir("nowal");
        let config = LsmConfig {
            wal: false,
            ..LsmConfig::default()
        };
        let store = LsmStore::create_with(&dir, config).unwrap();
        store.insert(Point::new(1, 1.0, 2.0, 0)).unwrap();
        assert_eq!(wal_path(&store), None);
        assert_eq!(store.io_stats().wal_appends, 0);
        store.flush().unwrap();
        drop(store);
        let store = LsmStore::open_with(&dir, config).unwrap();
        assert_eq!(get(&store, 0, 1).unwrap().y, 2.0);
    }

    #[test]
    fn bulk_load_bypasses_wal_then_starts_one() {
        let d = toy_dataset();
        let store = LsmStore::bulk_load(tmpdir("bulkwal"), &d).unwrap();
        // No per-record WAL traffic during the load…
        assert_eq!(store.io_stats().wal_appends, 0);
        // …but the store is WAL-protected afterwards.
        assert!(wal_path(&store).is_some());
    }

    #[test]
    fn disabled_cache_still_serves_reads() {
        let d = toy_dataset();
        let config = LsmConfig {
            cache_blocks: 0,
            ..LsmConfig::default()
        };
        let store = LsmStore::bulk_load_with(tmpdir("nocache"), &d, config).unwrap();
        conformance(&store, &d);
        // Re-reading the same snapshot never hits: nothing is retained.
        store.reset_io_stats();
        let _ = scan(&store, 25);
        let _ = scan(&store, 25);
        let s = store.io_stats();
        assert_eq!(s.cache_hits, 0, "cache_blocks: 0 must disable caching");
        assert!(s.cache_misses > 0);
        assert_eq!(s.blocks_read, s.cache_misses, "every miss goes to disk");
    }
}
