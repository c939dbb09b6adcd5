//! Flat-file store: sorted fixed-width records, sequential access only.

use crate::iostats::IoCounters;
use crate::{
    InMemoryStore, IoStats, MemoryBudget, SnapshotRef, SnapshotSource, StoreError, StoreResult,
    TrajectoryStore,
};
use k2_model::codec::{decode_record, RECORD_SIZE};
use k2_model::{codec, Dataset, ObjPos, Oid, Point, Time, TimeInterval};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// Read granularity for sequential scans (a generous readahead window, as
/// an OS would give a sequential reader).
const SCAN_CHUNK: usize = 64 * 1024;

/// A flat file of 24-byte records sorted by `(t, oid)`.
///
/// Flat files are "good for scans but not suitable for random access"
/// (§5): there is no index, so *every* query — snapshot scan or probe —
/// is a sequential scan from the start of the file until the target
/// timestamp block has passed. The sortedness only allows early
/// termination, not skipping.
///
/// The paper's *k2-File* algorithm instead loads the entire file into
/// memory first; use [`FlatFileStore::load_in_memory`] for that, which
/// checks a [`MemoryBudget`] (the Brinkhoff-size dataset is where this
/// fails in the paper).
#[derive(Debug)]
pub struct FlatFileStore {
    file: RefCell<File>,
    num_points: u64,
    span: TimeInterval,
    io: IoCounters,
    /// Sequential-scan resume point. A probe for a timestamp *strictly
    /// after* `done_t` can resume the scan at `offset` instead of
    /// rewinding — the tape head stays where the last probe, ascending
    /// or rewound, left it — and a probe that repeats `done_t` resumes
    /// where that timestamp's records begin. This is still
    /// sequential-only access (no index, no binary search, exactly the
    /// §5 flat-file characterization); it only stops an ascending probe
    /// sequence — step 1's benchmark scans, one per ⌊k/2⌋-th timestamp
    /// in time order, and the probes of a hop-window or an extension
    /// after a step back — from re-reading the file prefix once per
    /// timestamp.
    cursor: RefCell<ScanCursor>,
}

/// Where the last sequential scan stopped.
///
/// Invariant: every record before byte `block` has timestamp `< done_t`,
/// every record from `block` to `offset` has timestamp `done_t`, and
/// `buf` holds whole records already read from the file starting at
/// exactly `offset` but not yet consumed (the tail of the last read
/// chunk). A later probe resumes at `offset`, a repeat of `done_t` at
/// `block` — the same kind of resume from one more remembered offset.
/// Resuming at `offset` first drains `buf`, then continues reading the
/// file at `offset + buf.len()` — so an ascending probe sweep reads each
/// file byte once.
#[derive(Debug, Default)]
struct ScanCursor {
    done_t: Time,
    block: u64,
    offset: u64,
    buf: Vec<u8>,
}

impl FlatFileStore {
    /// Writes `dataset` to `path` in flat binary format and opens it.
    pub fn create(path: impl AsRef<Path>, dataset: &Dataset) -> StoreResult<Self> {
        let path = path.as_ref();
        let file = File::create(path)?;
        codec::write_binary(dataset, file)?;
        Self::open(path)
    }

    /// Opens an existing flat file, validating its size and reading the
    /// first and last record to learn the time span (two seeks — the only
    /// non-sequential access this engine ever performs).
    pub fn open(path: impl AsRef<Path>) -> StoreResult<Self> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if len == 0 || len % RECORD_SIZE as u64 != 0 {
            return Err(StoreError::Corrupt(format!(
                "flat file size {len} is not a positive multiple of {RECORD_SIZE}"
            )));
        }
        let num_points = len / RECORD_SIZE as u64;
        let mut buf = [0u8; RECORD_SIZE];
        file.read_exact(&mut buf)?;
        let first = decode_record(&buf);
        file.seek(SeekFrom::End(-(RECORD_SIZE as i64)))?;
        file.read_exact(&mut buf)?;
        let last = decode_record(&buf);
        if first.t > last.t {
            return Err(StoreError::Corrupt("records not sorted by time".into()));
        }
        Ok(Self {
            file: RefCell::new(file),
            num_points,
            span: TimeInterval::new(first.t, last.t),
            io: IoCounters::new(),
            // Vacuously valid: no record lives before offset 0.
            cursor: RefCell::new(ScanCursor::default()),
        })
    }

    /// Loads the whole file into an [`InMemoryStore`] (the k2-File mode).
    ///
    /// Fails with [`StoreError::MemoryBudgetExceeded`] if the resident size
    /// would exceed `budget`.
    pub fn load_in_memory(&self, budget: MemoryBudget) -> StoreResult<InMemoryStore> {
        budget.check(self.num_points * RECORD_SIZE as u64)?;
        let points = self.scan_all()?;
        let dataset = Dataset::from_points(&points)
            .ok_or_else(|| StoreError::Corrupt("empty flat file".into()))?;
        Ok(InMemoryStore::new(dataset))
    }

    /// Reads every record sequentially.
    pub fn scan_all(&self) -> StoreResult<Vec<Point>> {
        self.io.add_range_query();
        let mut out = Vec::with_capacity(self.num_points as usize);
        self.scan_from_start(|p| {
            out.push(p);
            true
        })?;
        Ok(out)
    }

    /// Sequentially scans from the start, feeding each record to `visit`
    /// until it returns `false` or EOF.
    fn scan_from_start(&self, visit: impl FnMut(Point) -> bool) -> StoreResult<()> {
        self.scan_spill(0, &mut Vec::new(), visit).map(|_| ())
    }

    /// Sequentially scans from record-aligned byte offset `start`,
    /// feeding each record to `visit` until it returns `false` or EOF.
    /// Counts one seek (reposition) plus one block read per chunk.
    ///
    /// Returns the byte offset of the record that stopped the scan (the
    /// file length if the scan reached EOF). On an early stop, `spill`
    /// receives the already-read-but-unconsumed whole records starting
    /// with the stopping one — a later scan that only needs records from
    /// the stopping one onward can drain `spill` before touching the
    /// file again, so the stop chunk is not re-read.
    fn scan_spill(
        &self,
        start: u64,
        spill: &mut Vec<u8>,
        mut visit: impl FnMut(Point) -> bool,
    ) -> StoreResult<u64> {
        debug_assert_eq!(start % RECORD_SIZE as u64, 0);
        spill.clear();
        let mut file = self.file.borrow_mut();
        file.seek(SeekFrom::Start(start))?;
        self.io.add_seek();
        let mut chunk = vec![0u8; SCAN_CHUNK];
        let mut carry: Vec<u8> = Vec::with_capacity(RECORD_SIZE);
        let mut seen = 0u64;
        loop {
            let n = file.read(&mut chunk)?;
            if n == 0 {
                if !carry.is_empty() {
                    return Err(StoreError::Corrupt("trailing partial record".into()));
                }
                return Ok(start + seen * RECORD_SIZE as u64);
            }
            self.io.add_block_read(n as u64);
            let mut data: &[u8] = &chunk[..n];
            // Complete a record split across chunk boundaries.
            if !carry.is_empty() {
                let need = RECORD_SIZE - carry.len();
                let take = need.min(data.len());
                carry.extend_from_slice(&data[..take]);
                data = &data[take..];
                if carry.len() == RECORD_SIZE {
                    let rec: [u8; RECORD_SIZE] = carry[..].try_into().expect("record size");
                    seen += 1;
                    if !visit(decode_record(&rec)) {
                        spill.extend_from_slice(&rec);
                        let whole = data.len() / RECORD_SIZE * RECORD_SIZE;
                        spill.extend_from_slice(&data[..whole]);
                        return Ok(start + (seen - 1) * RECORD_SIZE as u64);
                    }
                    carry.clear();
                }
            }
            let whole = data.len() / RECORD_SIZE * RECORD_SIZE;
            let mut pos = 0;
            while pos < whole {
                let rec: [u8; RECORD_SIZE] = data[pos..pos + RECORD_SIZE]
                    .try_into()
                    .expect("record size");
                seen += 1;
                if !visit(decode_record(&rec)) {
                    spill.extend_from_slice(&data[pos..whole]);
                    return Ok(start + (seen - 1) * RECORD_SIZE as u64);
                }
                pos += RECORD_SIZE;
            }
            carry.extend_from_slice(&data[whole..]);
        }
    }

    /// Scans the block of records at timestamp `t`, resuming from the
    /// sequential cursor when the probe is later than the one before it
    /// or repeats it (counted as a cache hit: the prefix was not
    /// re-read), rewinding to the start of the file otherwise. Either way
    /// the cursor moves to wherever this scan stopped.
    fn scan_at(&self, t: Time, mut on_match: impl FnMut(Point)) -> StoreResult<()> {
        let mut cur = self.cursor.borrow_mut();
        let start = match t.cmp(&cur.done_t) {
            Ordering::Greater => cur.offset,
            Ordering::Equal => cur.block,
            // Rewind: the scan from the start of the file then becomes
            // the cursor, and the later probes it precedes (right
            // extension, the next hop-window) resume.
            Ordering::Less => 0,
        };
        let buffered = start == cur.offset;
        if start > 0 || (buffered && !cur.buf.is_empty()) {
            self.io.add_cache_hit();
        }
        // Records read before `t`'s: every one precedes `t`'s block.
        let mut before = 0u64;
        let mut emit = |p: Point| {
            if p.t > t {
                return false;
            }
            if p.t == t {
                on_match(p);
            } else {
                before += 1;
            }
            true
        };
        let mut buf = std::mem::take(&mut cur.buf);
        let mut stop = None;
        if buffered {
            // Drain the buffered chunk tail first; if the scan stops
            // inside it, keep the stopping record onward for the next
            // probe.
            for (i, rec) in buf.chunks_exact(RECORD_SIZE).enumerate() {
                let rec: [u8; RECORD_SIZE] = rec.try_into().expect("record size");
                if !emit(decode_record(&rec)) {
                    stop = Some(i * RECORD_SIZE);
                    break;
                }
            }
        }
        let offset = match stop {
            Some(cut) => {
                buf.drain(..cut);
                start + cut as u64
            }
            None => {
                let resume_at = if buffered {
                    start + buf.len() as u64
                } else {
                    start
                };
                self.scan_spill(resume_at, &mut buf, &mut emit)?
            }
        };
        *cur = ScanCursor {
            done_t: t,
            block: start + before * RECORD_SIZE as u64,
            offset,
            buf,
        };
        Ok(())
    }
}

impl SnapshotSource for FlatFileStore {
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
        // Disk engine: the record scan decodes straight into the caller's
        // reused buffer — a benchmark-clustering worker reuses one buffer
        // for every snapshot this engine serves it — resuming from the
        // sequential cursor on ascending scans (the benchmark-point
        // pattern).
        buf.clear();
        self.scan_at(t, |p| buf.push(p.pos()))?;
        Ok(SnapshotRef::Buffered(buf))
    }

    fn multi_get_into(&self, t: Time, oids: &[Oid], out: &mut Vec<ObjPos>) -> StoreResult<()> {
        debug_assert!(oids.windows(2).all(|w| w[0] < w[1]));
        self.io.add_point_queries(oids.len() as u64);
        // The caller's buffer is filled straight from the record scan —
        // no intermediate allocation per probe — resuming from the
        // sequential cursor when probes ascend past it.
        out.clear();
        self.scan_at(t, |p| {
            if oids.binary_search(&p.oid).is_ok() {
                out.push(p.pos());
            }
        })?;
        Ok(())
    }

    fn io_stats(&self) -> IoStats {
        self.io.snapshot()
    }

    fn name(&self) -> &'static str {
        "k2-file"
    }
}

impl TrajectoryStore for FlatFileStore {
    fn reset_io_stats(&self) {
        self.io.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp_dir::TempDir;
    use crate::trait_tests::{conformance, scan, toy_dataset};

    #[test]
    fn conforms_to_trait_contract() {
        let tmp = TempDir::new("flat");
        let d = toy_dataset();
        let store = FlatFileStore::create(tmp.join("toy.bin"), &d).unwrap();
        conformance(&store, &d);
    }

    #[test]
    fn load_in_memory_round_trips() {
        let tmp = TempDir::new("flat");
        let d = toy_dataset();
        let store = FlatFileStore::create(tmp.join("mem.bin"), &d).unwrap();
        let mem = store.load_in_memory(MemoryBudget::unlimited()).unwrap();
        assert_eq!(mem.dataset(), &d);
    }

    #[test]
    fn memory_budget_blocks_large_load() {
        let tmp = TempDir::new("flat");
        let d = toy_dataset();
        let store = FlatFileStore::create(tmp.join("budget.bin"), &d).unwrap();
        let err = store.load_in_memory(MemoryBudget::bytes(10)).unwrap_err();
        assert!(matches!(err, StoreError::MemoryBudgetExceeded { .. }));
    }

    #[test]
    fn corrupt_size_rejected() {
        let tmp = TempDir::new("flat");
        let p = tmp.join("corrupt.bin");
        std::fs::write(&p, [0u8; 25]).unwrap();
        assert!(matches!(
            FlatFileStore::open(&p),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_file_rejected() {
        let tmp = TempDir::new("flat");
        let p = tmp.join("empty.bin");
        std::fs::write(&p, []).unwrap();
        assert!(FlatFileStore::open(&p).is_err());
    }

    #[test]
    fn scans_are_counted_as_sequential_io() {
        let tmp = TempDir::new("flat");
        let d = toy_dataset();
        let store = FlatFileStore::create(tmp.join("io.bin"), &d).unwrap();
        store.reset_io_stats();
        let _ = scan(&store, 49);
        let s = store.io_stats();
        // One rewind seek; whole file read in chunks.
        assert_eq!(s.seeks, 1);
        assert!(s.bytes_read >= d.num_points() * RECORD_SIZE as u64);
    }

    #[test]
    fn early_termination_reads_less_for_early_timestamps() {
        let tmp = TempDir::new("flat");
        let d = toy_dataset();
        // Fresh store per probe so the sequential cursor cannot help:
        // this pins the underlying early-termination property.
        let p = tmp.join("early.bin");
        let store = FlatFileStore::create(&p, &d).unwrap();
        let _ = scan(&store, 0);
        let early = store.io_stats().bytes_read;
        let store = FlatFileStore::open(&p).unwrap();
        let _ = scan(&store, 49);
        let late = store.io_stats().bytes_read;
        assert!(early <= late);
    }

    /// A dataset whose flat file spans several scan chunks, so chunk
    /// granularity cannot mask prefix re-reads.
    fn big_dataset() -> Dataset {
        let mut pts = Vec::new();
        for t in 0..40u32 {
            for oid in 0..100u32 {
                pts.push(Point::new(oid, oid as f64, t as f64, t));
            }
        }
        Dataset::from_points(&pts).unwrap()
    }

    #[test]
    fn ascending_probes_resume_instead_of_rescanning() {
        let tmp = TempDir::new("flat");
        let d = big_dataset();
        let file_bytes = d.num_points() * RECORD_SIZE as u64;
        assert!(file_bytes > SCAN_CHUNK as u64, "test premise");
        let store = FlatFileStore::create(tmp.join("cursor.bin"), &d).unwrap();
        store.reset_io_stats();
        let oids: Vec<Oid> = (0..100).step_by(7).collect();
        let mut out = Vec::new();
        for t in d.span().iter() {
            store.multi_get_into(t, &oids, &mut out).unwrap();
            assert_eq!(out.len(), oids.len(), "t {t}");
        }
        let s = store.io_stats();
        // One sequential pass — not a from-the-start rescan per
        // timestamp (which would be ~30x the file size here). The slop
        // term covers chunk-boundary partial records re-read on resume.
        let sweep_bytes = s.bytes_read;
        assert!(
            sweep_bytes <= file_bytes + SCAN_CHUNK as u64,
            "ascending sweep re-read the prefix: {sweep_bytes} bytes for a {file_bytes}-byte file"
        );
        assert!(s.cache_hits >= d.span().len() as u64 - 1, "resumes counted");

        // A descending probe rewinds and still answers correctly.
        store.multi_get_into(0, &oids, &mut out).unwrap();
        assert_eq!(out.len(), oids.len());
        assert!(out.iter().all(|p| oids.contains(&p.oid)));
    }

    #[test]
    fn cursor_probes_match_memory_store_in_any_order() {
        let tmp = TempDir::new("flat");
        let d = big_dataset();
        let store = FlatFileStore::create(tmp.join("order.bin"), &d).unwrap();
        let mem = InMemoryStore::new(d.clone());
        let oids: Vec<Oid> = vec![0, 3, 13, 50, 99, 250];
        let (mut flat_out, mut mem_out) = (Vec::new(), Vec::new());
        // Ascending, descending, and zig-zag probe orders all agree with
        // the resident engine despite the shared cursor state.
        let probes: Vec<Time> = (0..40)
            .chain((0..40).rev())
            .chain([5, 30, 4, 31, 17, 17, 39, 0])
            .collect();
        for t in probes {
            store.multi_get_into(t, &oids, &mut flat_out).unwrap();
            mem.multi_get_into(t, &oids, &mut mem_out).unwrap();
            assert_eq!(flat_out, mem_out, "t {t}");
        }
    }
}
