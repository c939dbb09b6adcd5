//! Fault-injection recovery suite for the LSM engine's crash-safe write
//! path (WAL + append-only manifest).
//!
//! Each scenario builds a store by streaming inserts or batches (the
//! WAL-protected paths, not bulk load), simulates a crash by reproducing
//! the exact on-disk state a kill would leave — torn files, orphaned SSTables,
//! corrupt record tails, stale compaction inputs — via the [`TornWriter`]
//! crash-point layer, then reopens the store, re-mines it through
//! [`MiningSession`], and asserts the convoy output is byte-identical to
//! the committed golden file (`tests/golden/trucks.golden`, the same
//! bytes `tests/golden_convoys.rs` pins for the intact dataset).
//!
//! Crash points covered:
//!
//! 1. kill before any flush (every acknowledged insert must survive,
//!    single or batched), and kill after a batch whose group-committed
//!    runs straddle a flush,
//! 2. kill mid-insert (torn WAL tail — the in-flight frame was never
//!    acknowledged and is dropped),
//! 3. kill mid-flush (orphaned partial SSTable, no manifest record),
//! 4. kill mid-compaction (orphaned partial output, inputs still live),
//! 5. kill after the compaction commit record but before input cleanup
//!    (stale input files),
//! 6. corrupt manifest tail (bit rot / torn final record),
//! 7. kill between two committed *partial* (tiered) compactions, with
//!    the earlier one's stale inputs and the next one's torn output both
//!    on disk,
//! 8. kill of a store running compactions on the background worker,
//! 9. bit rot inside a live SSTable's index (open reports `Corrupt`; it
//!    neither panics nor sizes a buffer by the rotten row).

use k2hop::datagen::trucks::TrucksConfig;
use k2hop::model::{Convoy, Dataset, ObjPos, Point};
use k2hop::prelude::*;
use k2hop::storage::{
    LsmConfig, LsmStore, SnapshotSource, StoreError, WalSyncPolicy, WAL_FRAME_SIZE,
};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

mod common;
use common::TempDir;

// ---------------------------------------------------------------- harness

/// Crash-point layer: edits a file the way a kill would leave it —
/// truncated mid-write or with flipped bits — at chosen byte offsets.
struct TornWriter {
    path: PathBuf,
}

impl TornWriter {
    fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    fn len(&self) -> u64 {
        fs::metadata(&self.path).unwrap().len()
    }

    /// Cuts the file to `len` bytes — a write torn mid-frame.
    fn truncate_to(&self, len: u64) {
        let f = fs::OpenOptions::new().write(true).open(&self.path).unwrap();
        f.set_len(len).unwrap();
    }

    /// Flips the bits of `mask` at `offset` — media corruption.
    fn bit_flip(&self, offset: u64, mask: u8) {
        let mut bytes = fs::read(&self.path).unwrap();
        bytes[offset as usize] ^= mask;
        fs::write(&self.path, &bytes).unwrap();
    }
}

/// One record, read as a one-oid `multi_get_into`.
fn get(store: &LsmStore, t: u32, oid: u32) -> Option<ObjPos> {
    let mut buf = Vec::new();
    store.multi_get_into(t, &[oid], &mut buf).unwrap();
    buf.pop()
}

/// The Trucks golden workload of `tests/golden_convoys.rs`: same dataset
/// seed and mining parameters, so recovered stores must reproduce the
/// committed `tests/golden/trucks.golden` bytes.
fn golden_workload() -> (Dataset, K2Config, String) {
    let dataset = TrucksConfig {
        days: 2,
        trucks_per_day: 12,
        samples_per_day: 400,
        ..TrucksConfig::default()
    }
    .seed(5)
    .generate();
    let cfg = K2Config::new(2, 30, 6.0e-4).unwrap();
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trucks.golden");
    let expected = fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("cannot read {} ({e})", golden.display()));
    (dataset, cfg, expected)
}

/// Canonical text form, identical to `tests/golden_convoys.rs`.
fn render(convoys: &[Convoy]) -> String {
    let mut s = String::new();
    for c in convoys {
        let _ = write!(s, "{}-{}:", c.start(), c.end());
        for (i, oid) in c.objects.iter().enumerate() {
            let _ = write!(s, "{}{oid}", if i == 0 { " " } else { "," });
        }
        s.push('\n');
    }
    s
}

/// Re-mines a recovered store through the session front door and asserts
/// byte-identical golden output.
fn assert_mines_golden(store: &LsmStore, cfg: K2Config, expected: &str, scenario: &str) {
    let outcome = MiningSession::new(cfg)
        .threads(2)
        .mine(store)
        .unwrap_or_else(|e| panic!("{scenario}: mining the recovered store failed: {e}"));
    assert_eq!(
        render(&outcome.convoys),
        expected,
        "{scenario}: recovered store must re-mine to byte-identical golden convoys"
    );
}

/// Small-memtable config so the workload exercises flushes (and, with
/// `max_tables` left at default 8, stays shy of auto-compaction).
fn flushing_config() -> LsmConfig {
    LsmConfig {
        memtable_entries: 2000,
        wal_sync: WalSyncPolicy::Batched(256),
        ..LsmConfig::default()
    }
}

/// Streams every dataset point through the WAL-protected insert path.
fn stream_insert(store: &LsmStore, dataset: &Dataset) {
    for p in dataset.iter_points() {
        store.insert(p).unwrap();
    }
}

/// Feeds every dataset point through the group-committed batch path, in
/// batches of `batch` points, and returns the batches it acknowledged.
fn batch_insert(store: &LsmStore, dataset: &Dataset, batch: usize) -> Vec<Vec<Point>> {
    let points: Vec<Point> = dataset.iter_points().collect();
    let batches: Vec<Vec<Point>> = points.chunks(batch).map(<[Point]>::to_vec).collect();
    for b in &batches {
        store.insert_batch(b).unwrap();
    }
    batches
}

fn wal_file(dir: &Path) -> PathBuf {
    let mut wals: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    wals.sort();
    assert_eq!(wals.len(), 1, "expected exactly one live WAL in {dir:?}");
    wals.pop().unwrap()
}

fn sst_files(dir: &Path) -> Vec<PathBuf> {
    let mut ssts: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("sst-") && n.ends_with(".k2ss"))
        })
        .collect();
    ssts.sort();
    ssts
}

// -------------------------------------------------------------- scenarios

/// Crash point 1 — the headline durability guarantee: a WAL-enabled
/// store killed before any flush recovers every acknowledged insert on
/// open, whether single inserts or group-committed batches fed it. Zero
/// lost points, verified record by record.
#[test]
fn kill_before_flush_recovers_every_acknowledged_insert() {
    let (dataset, cfg, expected) = golden_workload();
    let unique: BTreeSet<(u32, u32)> = dataset.iter_points().map(|p| (p.t, p.oid)).collect();
    for mode in ["stream", "batch"] {
        let dir = TempDir::new("lsmrec");
        {
            // Default config: memtable holds the whole workload, nothing
            // is flushed — the WAL is the only durable copy.
            let store = LsmStore::create(&dir).unwrap();
            if mode == "stream" {
                stream_insert(&store, &dataset);
            } else {
                batch_insert(&store, &dataset, 1000);
            }
            assert_eq!(
                store.num_tables(),
                0,
                "{mode}: workload must stay unflushed"
            );
            // Killed here: dropped without flush.
        }
        let store = LsmStore::open(&dir).unwrap();
        assert_eq!(
            store.memtable_len(),
            unique.len(),
            "{mode}: every acknowledged insert must be recovered"
        );
        assert_eq!(store.io_stats().wal_replayed, dataset.num_points());
        // Record-by-record: no point was lost, positions intact.
        for p in dataset.iter_points() {
            let got = get(&store, p.t, p.oid)
                .unwrap_or_else(|| panic!("{mode}: lost acknowledged insert ({}, {})", p.t, p.oid));
            assert_eq!((got.x, got.y), (p.x, p.y));
        }
        assert_eq!(store.span(), dataset.span());
        assert_mines_golden(
            &store,
            cfg,
            &expected,
            &format!("kill-before-flush ({mode})"),
        );
    }
}

/// Crash point 1b — a batch larger than the memtable: its runs are group-
/// committed to two WAL generations, one on each side of the flush the
/// first run triggers. Killed after the ack, the store recovers every
/// point of every acknowledged batch — the flushed runs from their
/// SSTables, the last run from the live WAL — and re-mines the golden
/// output.
#[test]
fn kill_after_a_batch_spanning_a_flush_recovers_every_run() {
    const MEMTABLE: usize = 4096;
    const BATCH: usize = 10_000;
    let (dataset, cfg, expected) = golden_workload();
    let n = dataset.num_points() as usize;
    assert!(n > MEMTABLE * 2, "the workload must span two flushes");
    let dir = TempDir::new("lsmrec");
    let config = LsmConfig {
        memtable_entries: MEMTABLE,
        ..LsmConfig::default()
    };
    let batches = {
        let store = LsmStore::create_with(&dir, config).unwrap();
        let batches = batch_insert(&store, &dataset, BATCH);
        assert!(
            batches[0].len() > MEMTABLE,
            "a batch must outgrow the memtable"
        );
        assert_eq!(store.num_tables(), n / MEMTABLE);
        batches
        // Killed here: dropped without flush.
    };
    let store = LsmStore::open_with(&dir, config).unwrap();
    // The flushed runs are in tables; only the last run is replayed.
    assert_eq!(store.num_tables(), n / MEMTABLE);
    assert_eq!(store.io_stats().wal_replayed, (n % MEMTABLE) as u64);
    for p in batches.iter().flatten() {
        let got = get(&store, p.t, p.oid)
            .unwrap_or_else(|| panic!("lost acknowledged batch point ({}, {})", p.t, p.oid));
        assert_eq!((got.x, got.y), (p.x, p.y));
    }
    assert_eq!(store.num_points(), dataset.num_points());
    assert_eq!(store.span(), dataset.span());
    assert_mines_golden(&store, cfg, &expected, "kill-after-batch-spanning-flush");
}

/// Crash point 2 — kill mid-insert: the WAL tail holds a torn frame.
/// The torn frame was never acknowledged (the write didn't complete), so
/// recovery drops exactly that frame and keeps every whole one before it.
#[test]
fn kill_mid_insert_drops_only_the_torn_frame() {
    let (dataset, cfg, expected) = golden_workload();
    let dir = TempDir::new("lsmrec");
    let last = dataset.iter_points().last().unwrap();
    {
        let store = LsmStore::create(&dir).unwrap();
        stream_insert(&store, &dataset);
    }
    // Tear the final frame mid-write: 13 bytes of it never hit the disk.
    let wal = TornWriter::new(wal_file(&dir));
    wal.truncate_to(wal.len() - 13);

    let store = LsmStore::open(&dir).unwrap();
    assert_eq!(
        store.io_stats().wal_replayed,
        dataset.num_points() - 1,
        "exactly the torn frame is dropped"
    );
    assert_eq!(
        get(&store, last.t, last.oid),
        None,
        "the unacknowledged in-flight insert must not resurface"
    );
    // The WAL was truncated to its last whole frame, so the client's
    // retry of the unacknowledged write continues the log cleanly.
    store.insert(last).unwrap();
    assert_mines_golden(&store, cfg, &expected, "kill-mid-insert");

    // And the recovered+retried state itself survives another crash.
    drop(store);
    let store = LsmStore::open(&dir).unwrap();
    assert_mines_golden(&store, cfg, &expected, "kill-mid-insert (reopen)");
}

/// Crash point 3 — kill mid-flush: the SSTable was partially written but
/// the manifest Flush record never committed. Recovery must ignore the
/// orphan and serve everything from the still-live WAL.
#[test]
fn kill_mid_flush_ignores_orphan_sstable_and_replays_wal() {
    let (dataset, cfg, expected) = golden_workload();
    let dir = TempDir::new("lsmrec");
    {
        let store = LsmStore::create(&dir).unwrap();
        stream_insert(&store, &dataset);
    }
    // A flush died after writing half an SSTable: fabricate the orphan
    // from a torn copy of real table bytes (here: garbage prefix — the
    // file is unreferenced either way).
    let orphan = dir.join("sst-999999.k2ss");
    fs::write(&orphan, vec![0xABu8; 1531]).unwrap();

    let store = LsmStore::open(&dir).unwrap();
    assert!(
        !orphan.exists(),
        "recovery must delete the orphaned mid-flush SSTable"
    );
    assert_eq!(store.num_tables(), 0);
    assert_eq!(store.io_stats().wal_replayed, dataset.num_points());
    assert_mines_golden(&store, cfg, &expected, "kill-mid-flush");
}

/// Crash point 4 — kill mid-compaction: the merged output was partially
/// written but the Compact record never committed. The inputs must stay
/// live and the torn output must be swept.
#[test]
fn kill_mid_compaction_keeps_inputs_drops_torn_output() {
    let (dataset, cfg, expected) = golden_workload();
    let dir = TempDir::new("lsmrec");
    {
        let store = LsmStore::create_with(&dir, flushing_config()).unwrap();
        stream_insert(&store, &dataset);
        store.flush().unwrap();
        assert!(store.num_tables() > 1, "need several tables to compact");
    }
    let inputs = sst_files(&dir);
    // The compaction output died mid-write: a torn prefix of real
    // SSTable bytes under the next sequence number.
    let torn_output = dir.join("sst-999999.k2ss");
    let donor = fs::read(&inputs[0]).unwrap();
    fs::write(&torn_output, &donor[..donor.len() / 2]).unwrap();

    let store = LsmStore::open(&dir).unwrap();
    assert!(
        !torn_output.exists(),
        "recovery must delete the orphaned compaction output"
    );
    assert_eq!(
        store.num_tables(),
        inputs.len(),
        "every compaction input must stay live"
    );
    assert_mines_golden(&store, cfg, &expected, "kill-mid-compaction");
}

/// Crash point 5 — kill after the Compact record committed but before
/// the input files were deleted: recovery serves from the output and
/// sweeps the stale inputs.
#[test]
fn kill_after_compaction_commit_sweeps_stale_inputs() {
    let (dataset, cfg, expected) = golden_workload();
    let dir = TempDir::new("lsmrec");
    let stale: Vec<(PathBuf, Vec<u8>)>;
    {
        let store = LsmStore::create_with(&dir, flushing_config()).unwrap();
        stream_insert(&store, &dataset);
        store.flush().unwrap();
        assert!(store.num_tables() > 1);
        // Snapshot the input files, run the real compaction, then put
        // the inputs back — the exact disk state of a crash between the
        // manifest commit and the input deletion.
        stale = sst_files(&dir)
            .into_iter()
            .map(|p| {
                let bytes = fs::read(&p).unwrap();
                (p, bytes)
            })
            .collect();
        store.compact_blocking().unwrap();
        assert_eq!(store.num_tables(), 1);
    }
    for (path, bytes) in &stale {
        fs::write(path, bytes).unwrap();
    }

    let store = LsmStore::open(&dir).unwrap();
    assert_eq!(store.num_tables(), 1, "only the merged output is live");
    for (path, _) in &stale {
        assert!(!path.exists(), "stale input {path:?} must be swept");
    }
    assert_mines_golden(&store, cfg, &expected, "kill-post-compaction-commit");
}

/// Crash point 6 — corrupt manifest tail: the final record (the WAL
/// rotation of the last flush) is bit-flipped. Recovery truncates the
/// manifest to its last whole record and the fold still reaches every
/// flushed table; the dropped rotation only points at a retired WAL,
/// which replays idempotently or not at all.
#[test]
fn corrupt_manifest_tail_truncates_to_last_whole_record() {
    let (dataset, cfg, expected) = golden_workload();
    let dir = TempDir::new("lsmrec");
    {
        let store = LsmStore::create_with(&dir, flushing_config()).unwrap();
        stream_insert(&store, &dataset);
        store.flush().unwrap();
    }
    let manifest = TornWriter::new(dir.join("MANIFEST"));
    manifest.bit_flip(manifest.len() - 2, 0x20);

    let store = LsmStore::open(&dir).unwrap();
    assert_mines_golden(&store, cfg, &expected, "corrupt-manifest-tail");

    // The truncation persisted: a second recovery sees a clean log and
    // the same state.
    drop(store);
    let store = LsmStore::open(&dir).unwrap();
    assert_mines_golden(&store, cfg, &expected, "corrupt-manifest-tail (reopen)");
}

/// Torn manifest tail (truncation rather than bit rot): same guarantee.
#[test]
fn torn_manifest_tail_truncates_to_last_whole_record() {
    let (dataset, cfg, expected) = golden_workload();
    let dir = TempDir::new("lsmrec");
    {
        let store = LsmStore::create_with(&dir, flushing_config()).unwrap();
        stream_insert(&store, &dataset);
        store.flush().unwrap();
    }
    let manifest = TornWriter::new(dir.join("MANIFEST"));
    manifest.truncate_to(manifest.len() - 7);

    let store = LsmStore::open(&dir).unwrap();
    assert_mines_golden(&store, cfg, &expected, "torn-manifest-tail");
}

/// Tiered config that triggers several *partial* compactions over the
/// golden workload's ~5 flushes, run inline so the crash point is exact.
fn tiered_config() -> LsmConfig {
    LsmConfig {
        memtable_entries: 1000,
        max_tables: 3,
        background_compaction: false,
        wal_sync: WalSyncPolicy::Batched(256),
        ..LsmConfig::default()
    }
}

/// Crash point 7 — kill between two committed partial compactions. The
/// manifest holds several `Compact{inputs, output}` records whose inputs
/// are *subsets* of the live set; the disk additionally holds a stale
/// input of an earlier partial compaction (commit landed, deletion
/// didn't) and a torn output of the next one (never committed). The
/// recovery fold must splice every committed output into its first
/// input's position, sweep both kinds of debris, and replay the WAL
/// tail.
#[test]
fn kill_between_partial_compactions_folds_both_commits() {
    let (dataset, cfg, expected) = golden_workload();
    let dir = TempDir::new("lsmrec");
    let mid_run: Vec<(PathBuf, Vec<u8>)>;
    {
        let store = LsmStore::create_with(&dir, tiered_config()).unwrap();
        let points: Vec<Point> = dataset.iter_points().collect();
        let half = points.len() / 2;
        for p in &points[..half] {
            store.insert(*p).unwrap();
        }
        store.flush().unwrap();
        // Snapshot the live tables mid-run: any of these files that a
        // later partial compaction retires becomes our stale input.
        mid_run = sst_files(&dir)
            .into_iter()
            .map(|p| (p.clone(), fs::read(&p).unwrap()))
            .collect();
        for p in &points[half..] {
            store.insert(*p).unwrap();
        }
        assert!(
            store.io_stats().compactions >= 2,
            "workload must commit at least two partial compactions, got {}",
            store.io_stats().compactions
        );
        assert!(
            store.memtable_len() > 0,
            "crash must catch an unflushed memtable tail"
        );
        // Killed here: dropped with the tail still only in the WAL.
    }
    // Re-materialise one stale input from an earlier partial compaction.
    let stale: Vec<&(PathBuf, Vec<u8>)> = mid_run.iter().filter(|(p, _)| !p.exists()).collect();
    assert!(
        !stale.is_empty(),
        "a partial compaction must have retired a mid-run table"
    );
    let (stale_path, stale_bytes) = stale[0];
    fs::write(stale_path, stale_bytes).unwrap();
    // And a torn output of the compaction that never committed.
    let torn = dir.join("sst-999999.k2ss");
    fs::write(&torn, &stale_bytes[..stale_bytes.len() / 3]).unwrap();

    let store = LsmStore::open_with(&dir, tiered_config()).unwrap();
    assert!(
        !stale_path.exists(),
        "stale partial-compaction input must be swept"
    );
    assert!(!torn.exists(), "torn next-compaction output must be swept");
    assert_mines_golden(&store, cfg, &expected, "kill-between-partial-compactions");
}

/// Crash point 8 — kill a store whose compactions run on the background
/// worker. Drop waits out the in-flight job (its manifest commit is
/// never torn by teardown), the memtable tail survives in the WAL, and
/// the recovered store re-mines to golden bytes.
#[test]
fn kill_with_background_compactions_recovers_to_golden() {
    let (dataset, cfg, expected) = golden_workload();
    let dir = TempDir::new("lsmrec");
    let config = LsmConfig {
        background_compaction: true,
        ..tiered_config()
    };
    {
        let store = LsmStore::create_with(&dir, config).unwrap();
        stream_insert(&store, &dataset);
        // Killed here: in-flight background work + unflushed tail.
    }
    let store = LsmStore::open_with(&dir, config).unwrap();
    assert_mines_golden(&store, cfg, &expected, "kill-background-compaction");
}

/// Crash point 9 — bit rot in a live SSTable's sparse index. The rows
/// size every later block read, so recovery must refuse the table with
/// `Corrupt` while it opens it: a 2 GiB "block" is never allocated, and a
/// block shorter than one entry does not panic the span rebuild. Nothing
/// is swept or rewritten on the way out — with the bytes restored the
/// same directory opens and re-mines to golden output.
#[test]
fn corrupt_sstable_index_row_is_reported_not_panicked_on() {
    let (dataset, cfg, expected) = golden_workload();
    let dir = TempDir::new("lsmrec");
    {
        let store = LsmStore::create_with(&dir, flushing_config()).unwrap();
        stream_insert(&store, &dataset);
        store.flush().unwrap();
        assert!(store.num_tables() > 1);
    }
    let victim = sst_files(&dir).pop().unwrap();
    let good = fs::read(&victim).unwrap();
    // Footer: index_off u64 | index_len u64 | … (28 bytes, at the end);
    // index row: first_key u64 | offset u64 | len u32.
    let word = |at: usize| u64::from_le_bytes(good[at..at + 8].try_into().unwrap()) as usize;
    let (index_off, index_len) = (word(good.len() - 28), word(good.len() - 20));
    let last_row_len = index_off + index_len - 4;

    // One flipped bit: the last block claims 2 GiB.
    TornWriter::new(&victim).bit_flip(last_row_len as u64 + 3, 0x80);
    assert!(matches!(LsmStore::open(&dir), Err(StoreError::Corrupt(_))));
    // A block shorter than one entry (the last block is the one the
    // span rebuild used to fetch and index into).
    let mut short = good.clone();
    short[last_row_len..last_row_len + 4].copy_from_slice(&8u32.to_le_bytes());
    fs::write(&victim, &short).unwrap();
    assert!(matches!(LsmStore::open(&dir), Err(StoreError::Corrupt(_))));

    fs::write(&victim, &good).unwrap();
    let store = LsmStore::open(&dir).unwrap();
    assert_eq!(store.span(), dataset.span());
    assert_mines_golden(&store, cfg, &expected, "corrupt-index-row (restored)");
}

/// Golden parity across compaction modes and mining thread counts: the
/// same workload stored with inline (`compact_blocking`-style) and
/// background compaction must re-mine to byte-identical golden convoys
/// at every thread count — table layout is timing-dependent in
/// background mode, the key-value state (and thus the mining output) is
/// not.
#[test]
fn background_and_blocking_compaction_mine_identical_goldens() {
    let (dataset, cfg, expected) = golden_workload();
    for background in [false, true] {
        let dir = TempDir::new("lsmrec");
        let config = LsmConfig {
            background_compaction: background,
            ..tiered_config()
        };
        let store = LsmStore::create_with(&dir, config).unwrap();
        stream_insert(&store, &dataset);
        store.flush().unwrap();
        store.wait_for_compactions().unwrap();
        for threads in [1, 2, 4] {
            let outcome = MiningSession::new(cfg)
                .threads(threads)
                .mine(&store)
                .unwrap();
            assert_eq!(
                render(&outcome.convoys),
                expected,
                "background={background} threads={threads}: golden mismatch"
            );
        }
    }
}

/// Sweep of torn-WAL offsets: for any cut inside frame `i`, recovery
/// keeps exactly the `i` whole frames before it (the WAL analogue of
/// the proptest in `tests/storage_props.rs`, here end-to-end through
/// the store).
#[test]
fn torn_wal_tail_recovers_longest_whole_prefix() {
    let dir = TempDir::new("lsmrec");
    let points: Vec<Point> = (0..64u32)
        .map(|i| Point::new(i % 8, i as f64, 0.5, i / 8))
        .collect();
    {
        let store = LsmStore::create(&dir).unwrap();
        for p in &points {
            store.insert(*p).unwrap();
        }
    }
    let wal_path = wal_file(&dir);
    let frame = WAL_FRAME_SIZE as u64;
    let full = TornWriter::new(&wal_path).len();
    assert_eq!(full, frame * points.len() as u64);
    // Cut at a clean boundary, one byte in, mid-frame, one byte short.
    for (cut, whole_frames) in [
        (frame * 64, 64u64),
        (frame * 61 + 1, 61),
        (frame * 40 + 17, 40),
        (frame * 33 - 1, 32),
        (7, 0),
        (0, 0),
    ] {
        let work = TempDir::new("lsmrec");
        fs::create_dir_all(&work).unwrap();
        for entry in fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), work.join(entry.file_name())).unwrap();
        }
        TornWriter::new(work.join(wal_path.file_name().unwrap())).truncate_to(cut);
        let store = LsmStore::open(&work).unwrap();
        assert_eq!(
            store.io_stats().wal_replayed,
            whole_frames,
            "cut at byte {cut}"
        );
        for (i, p) in points.iter().enumerate() {
            let got = get(&store, p.t, p.oid);
            if (i as u64) < whole_frames {
                assert_eq!(got.unwrap().x, p.x, "cut {cut}: frame {i} must survive");
            }
        }
    }
}
