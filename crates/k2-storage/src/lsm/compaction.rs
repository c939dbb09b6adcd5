//! Compaction: the *what to merge* policy and the *where it runs* worker.
//!
//! [`CompactionController`] picks a contiguous run of SSTables to merge
//! from the table sizes alone; [`run_job`] executes one merge and commits
//! it through the shared manifest; [`CompactionHandle`] owns the
//! background thread that drains a job queue so `flush()` never pays an
//! O(total data) merge on the write path.
//!
//! Correctness leans on two invariants the rest of the LSM already
//! provides:
//!
//! * a compaction's inputs are a **contiguous run in recency order**, so
//!   replacing them with their merge (newest version of a key winning
//!   *within* the run) preserves the store-wide newest-wins order;
//! * the [`ManifestRecord::Compact`] append is the commit point, and
//!   recovery folds partial compactions by splicing the output into the
//!   first input's position — exactly the splice [`LsmStore`] applies in
//!   memory.
//!
//! [`LsmStore`]: super::LsmStore

use super::manifest::{sync_dir, Manifest, ManifestRecord};
use super::read::MergeIter;
use super::sstable::{BlockCache, SsTableReader, SsTableWriter, ENTRY_SIZE};
use super::store::sst_name;
use crate::iostats::IoCounters;
use crate::StoreResult;
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

/// A table joins the merge run while it is at most this many times the
/// combined size of the younger tables already in the run.
const TIER_SIZE_RATIO: f64 = 2.0;

/// Fewest tables a tiered run must hold before it is merged; a shorter
/// run falls back to the cheapest adjacent pair.
const TIER_MIN_MERGE: usize = 2;

/// Decides which contiguous run of tables to merge, from sizes alone.
///
/// Size-tiered: merge the longest newest-first run of similarly sized
/// tables (each table at most `TIER_SIZE_RATIO` times the combined size
/// of the younger tables already in the run). Large settled tables are
/// left alone, so sustained ingest never re-pays a merge of the whole
/// store.
///
/// Sizes are listed oldest first (the store's recency order); the
/// returned range indexes into that slice. Deterministic: same sizes,
/// same pick — the property the crash/replay proptests lean on.
#[derive(Debug, Clone, Copy)]
pub struct CompactionController {
    max_tables: usize,
}

impl CompactionController {
    /// Controller triggering when the table count exceeds `max_tables`.
    pub fn new(max_tables: usize) -> Self {
        Self {
            max_tables: max_tables.max(1),
        }
    }

    /// The contiguous run to merge next, or `None` when the store is
    /// within policy. Always returns a range of at least 2 tables, so
    /// every compaction strictly reduces the table count.
    pub fn pick(&self, sizes: &[u64]) -> Option<Range<usize>> {
        if sizes.len() <= self.max_tables || sizes.len() < 2 {
            return None;
        }
        // Grow the run from the newest table backwards while the
        // next-older table is within TIER_SIZE_RATIO of the run so far.
        let mut start = sizes.len() - 1;
        let mut run: u64 = sizes[start];
        while start > 0 && sizes[start - 1] as f64 <= TIER_SIZE_RATIO * run as f64 {
            start -= 1;
            run += sizes[start];
        }
        if sizes.len() - start >= TIER_MIN_MERGE {
            return Some(start..sizes.len());
        }
        // The newest table sits alone under a much larger neighbour;
        // merge the cheapest adjacent pair so the trigger still makes
        // progress.
        let (mut best_i, mut best) = (0usize, u64::MAX);
        for i in 0..sizes.len() - 1 {
            let s = sizes[i].saturating_add(sizes[i + 1]);
            if s < best {
                best = s;
                best_i = i;
            }
        }
        Some(best_i..best_i + 2)
    }
}

/// One merge to execute: input table seqs (contiguous, oldest first) and
/// the pre-assigned output seq.
#[derive(Debug)]
pub(crate) struct CompactionJob {
    pub inputs: Vec<u64>,
    pub output: u64,
}

/// A committed merge, ready to splice into the store's table list.
#[derive(Debug)]
pub(crate) struct CompactionDone {
    pub inputs: Vec<u64>,
    pub output: u64,
}

/// Executes one compaction job to its manifest commit point and deletes
/// the input files. Used inline by `compact_blocking()` and on the
/// worker thread by [`CompactionHandle`]; both paths are byte-identical.
///
/// The inputs are read through private readers with caching disabled
/// and scratch counters: a compaction streams every input block exactly
/// once, so routing it through the shared cache would evict the read
/// path's hot blocks, and charging its sequential sweep to the shared
/// seek counters would drown the read-pattern stats the experiments
/// report. Only the logical compaction work (`compactions`,
/// `bytes_compacted`) lands in the shared counters.
pub(crate) fn run_job(
    dir: &Path,
    manifest: &Mutex<Manifest>,
    io: &IoCounters,
    job: &CompactionJob,
) -> StoreResult<CompactionDone> {
    let scratch_io = IoCounters::new();
    let no_cache = Arc::new(BlockCache::new(0));
    let mut readers = Vec::with_capacity(job.inputs.len());
    for &seq in &job.inputs {
        readers.push(Arc::new(SsTableReader::open(
            dir.join(sst_name(seq)),
            seq,
            no_cache.clone(),
        )?));
    }
    let total: u64 = readers.iter().map(|t| t.num_entries()).sum();
    let path = dir.join(sst_name(job.output));
    let mut w = SsTableWriter::create(&path, total as usize)?;
    let mut written: u64 = 0;
    {
        let mut merge = MergeIter::over_tables(&readers, 0, u64::MAX, &scratch_io)?;
        while let Some((k, v)) = merge.next()? {
            w.add(k, &v)?;
            written += 1;
        }
    }
    w.finish()?;
    sync_dir(dir)?;
    // The commit point: after this record is durable the inputs are dead.
    manifest
        .lock()
        .expect("manifest lock")
        .append(&ManifestRecord::Compact {
            inputs: job.inputs.clone(),
            output: job.output,
        })?;
    io.add_compaction(written * ENTRY_SIZE as u64);
    // Unlink the inputs. The owning store may still hold open readers on
    // them — unix keeps the data reachable through those fds, and their
    // content is (logically) identical to the output, so reads stay
    // correct until the store splices in the merged table.
    for &seq in &job.inputs {
        let _ = fs::remove_file(dir.join(sst_name(seq)));
    }
    Ok(CompactionDone {
        inputs: job.inputs.clone(),
        output: job.output,
    })
}

/// Owns the background compaction thread: jobs go down one channel,
/// committed results come back on another. At most one job is in flight
/// per store (the store enqueues the next only after draining a result),
/// so the worker never races itself over the table set.
#[derive(Debug)]
pub(crate) struct CompactionHandle {
    jobs: Option<mpsc::Sender<CompactionJob>>,
    results: mpsc::Receiver<StoreResult<CompactionDone>>,
    worker: Option<thread::JoinHandle<()>>,
}

impl CompactionHandle {
    /// Spawns the worker thread for a store rooted at `dir`.
    pub fn spawn(dir: PathBuf, manifest: Arc<Mutex<Manifest>>, io: Arc<IoCounters>) -> Self {
        let (jobs_tx, jobs_rx) = mpsc::channel::<CompactionJob>();
        let (results_tx, results_rx) = mpsc::channel();
        let worker = thread::Builder::new()
            .name("k2-lsm-compact".into())
            .spawn(move || {
                while let Ok(job) = jobs_rx.recv() {
                    let res = run_job(&dir, &manifest, &io, &job);
                    if results_tx.send(res).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn compaction worker");
        Self {
            jobs: Some(jobs_tx),
            results: results_rx,
            worker: Some(worker),
        }
    }

    /// Hands a job to the worker (never blocks).
    pub fn enqueue(&self, job: CompactionJob) {
        let _ = self
            .jobs
            .as_ref()
            .expect("job queue open until drop")
            .send(job);
    }

    /// A finished job's result, if one is waiting (never blocks).
    pub fn try_recv(&self) -> Option<StoreResult<CompactionDone>> {
        self.results.try_recv().ok()
    }

    /// Blocks for the next finished job; `None` if the worker died.
    pub fn recv(&self) -> Option<StoreResult<CompactionDone>> {
        self.results.recv().ok()
    }
}

impl Drop for CompactionHandle {
    fn drop(&mut self) {
        // Hang up the queue; the worker finishes its current job (its
        // manifest commit must not be torn mid-run by process teardown
        // ordering) and exits, then we join it.
        self.jobs.take();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_pick_within_policy() {
        let c = CompactionController::new(4);
        assert_eq!(c.pick(&[]), None);
        assert_eq!(c.pick(&[10]), None);
        assert_eq!(c.pick(&[10, 10, 10, 10]), None);
    }

    #[test]
    fn similar_sizes_merge_fully() {
        let c = CompactionController::new(3);
        assert_eq!(c.pick(&[64, 64, 64, 64]), Some(0..4));
    }

    #[test]
    fn large_settled_table_is_left_alone() {
        let c = CompactionController::new(3);
        // 1000 dwarfs the young run (64+64+64 = 192; 1000 > 2*192).
        assert_eq!(c.pick(&[1000, 64, 64, 64]), Some(1..4));
        // Two settled giants, both untouched.
        assert_eq!(c.pick(&[5000, 1000, 64, 64, 64]), Some(2..5));
    }

    #[test]
    fn lone_small_table_falls_back_to_cheapest_pair() {
        let c = CompactionController::new(1);
        // The newest table can't absorb its 100x neighbour; progress is
        // still made by merging the cheapest adjacent pair.
        assert_eq!(c.pick(&[100, 900, 3]), Some(1..3));
        assert_eq!(c.pick(&[3, 900, 100]), Some(0..2));
    }

    #[test]
    fn picks_always_merge_at_least_two() {
        let c = CompactionController::new(1);
        for sizes in [
            vec![1u64, 1000],
            vec![1000, 1],
            vec![1, 1],
            vec![7, 7, 7],
            vec![0, 0],
        ] {
            let r = c.pick(&sizes).expect("over budget must pick");
            assert!(r.len() >= 2, "pick {r:?} for {sizes:?}");
            assert!(r.end <= sizes.len());
        }
    }

    #[test]
    fn pick_is_deterministic() {
        let c = CompactionController::new(2);
        let sizes = [512, 128, 96, 64];
        let first = c.pick(&sizes);
        for _ in 0..10 {
            assert_eq!(c.pick(&sizes), first);
        }
    }
}
