//! The pipeline's work engine: a self-scheduled, order-preserving
//! parallel map, the [`ProbeReader`] that says where the probe phases
//! read from and on how many workers, and the batched, zero-copy
//! benchmark-snapshot fetcher.

use crate::record::IntactRuns;
use crate::{probe_of, Probe, ProbeScratch};
use k2_cluster::{dbscan_labelling_with, DbscanParams, GridCounters, GridScratch};
use k2_model::{Convoy, ConvoySet, Dataset, ObjPos, Oid, Time};
use k2_storage::{SnapshotRef, SnapshotSource, StoreResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// What the benchmark-clustering phase hands back to the pipeline: the
/// per-benchmark labellings (in `bench` order), the number of points
/// scanned, and the grid-reuse counters harvested from every worker's
/// [`GridScratch`].
pub(crate) struct BenchClusters {
    /// Each benchmark snapshot's clusters as `(oid, cluster)` pairs,
    /// ascending by oid ([`dbscan_labelling_with`]), in `bench` order —
    /// the form step 2 merge-joins (see [`crate::candidates`]).
    pub labellings: Vec<Vec<(Oid, u32)>>,
    /// Total points scanned across the benchmark snapshots.
    pub points: u64,
    /// Summed grid build/patch counters of the phase.
    pub grid: GridCounters,
}

/// Maps `f` over `items` on up to `threads` workers, preserving order.
///
/// Work is self-scheduled: each worker atomically claims the next
/// unprocessed index, so skewed items (hop-windows whose candidates die at
/// the root probe vs. windows that probe every timestamp, dense vs. sparse
/// benchmark snapshots) cannot strand one thread with all the slow work
/// the way static `chunks()` partitioning would. Results are re-placed by
/// index, so the output order is identical to the sequential map.
///
/// Every worker builds one context with `make_ctx` and reuses it across
/// all the items it claims — this is how per-worker scratch
/// (`GridScratch`, probe buffers, candidate buffers) is threaded through
/// without any locking.
pub(crate) fn self_scheduled_map<T, R, C>(
    threads: usize,
    items: &[T],
    make_ctx: impl Fn() -> C + Sync,
    f: impl Fn(&mut C, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    if threads <= 1 || items.len() <= 1 {
        let mut ctx = make_ctx();
        return items.iter().map(|item| f(&mut ctx, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let workers = threads.min(items.len());
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (f, make_ctx, next) = (&f, &make_ctx, &next);
                scope.spawn(move || {
                    let mut ctx = make_ctx();
                    let mut produced: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        produced.push((i, f(&mut ctx, item)));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("worker panicked") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|o| o.expect("every index was claimed"))
        .collect()
}

/// Where the per-probe phases (HWMT without a prefetch, extension,
/// validation) read `DB[t]|O` from, and how many workers may read at
/// once — the two values in which the engines differ. Phase code maps
/// its items through [`ProbeReader::map`] and never looks inside.
pub(crate) enum ProbeReader<'a> {
    /// Any source, probed through its `multi_get_into` (the paper's §5.2
    /// formulation) on the calling thread only: engines keep buffer
    /// pools and I/O counters behind interior mutability and need not be
    /// `Sync`. One scratch serves every map over the run.
    Source(&'a dyn SnapshotSource, Box<ProbeScratch>),
    /// A resident dataset. Its `multi_get_into` is its own restriction,
    /// and it is immutable and `Sync`, so `workers` threads probe it at
    /// once.
    Resident {
        /// The dataset behind the source (`SnapshotSource::as_dataset`).
        dataset: &'a Dataset,
        /// Threads a probe phase may use.
        workers: usize,
    },
}

/// What one chain of probes — an extension seed, a validation
/// candidate — hands back to the calling thread.
#[derive(Debug, Default)]
pub(crate) struct Chain {
    /// The convoys it emitted, in emission order.
    pub emitted: Vec<Convoy>,
    /// Points its probes examined.
    pub points: u64,
    /// Where a probe of exactly a set returned that set intact
    /// (extension; validation only reads the record).
    pub intact: IntactRuns,
}

/// Outcome of a pass of probe chains (extension, validation).
#[derive(Debug)]
pub(crate) struct PassResult {
    /// What the chains emitted, maximal under `update()` subsumption.
    pub convoys: ConvoySet,
    /// Points the probes examined.
    pub points_fetched: u64,
    /// Every chain's intact reclusters, in item order.
    pub intact: IntactRuns,
}

impl PassResult {
    /// Folds chains, in order, as a pass does: their emissions into one
    /// maximal set, their points into one total, their intact runs into
    /// one list.
    pub(crate) fn fold(chains: impl IntoIterator<Item = Chain>) -> Self {
        let mut result = PassResult {
            convoys: ConvoySet::new(),
            points_fetched: 0,
            intact: IntactRuns::new(),
        };
        for chain in chains {
            result.points_fetched += chain.points;
            result.intact.extend(chain.intact);
            for v in chain.emitted {
                result.convoys.update(v);
            }
        }
        result
    }
}

impl<'a> ProbeReader<'a> {
    /// A reader that probes `source` itself on the calling thread.
    pub(crate) fn source(source: &'a dyn SnapshotSource) -> Self {
        ProbeReader::Source(source, Box::default())
    }

    /// Maps `f` over `items`, preserving order. Each call gets the probe
    /// into this reader's data and a worker-local [`ProbeScratch`];
    /// the first error ends the map.
    pub(crate) fn map<T: Sync, R: Send>(
        &mut self,
        items: &[T],
        f: impl Fn(&T, &mut dyn Probe, &mut ProbeScratch) -> StoreResult<R> + Sync,
    ) -> StoreResult<Vec<R>> {
        match self {
            ProbeReader::Source(source, scratch) => {
                let mut probe = probe_of(*source);
                items
                    .iter()
                    .map(|item| f(item, &mut probe, scratch))
                    .collect()
            }
            &mut ProbeReader::Resident { dataset, workers } => {
                self_scheduled_map(workers, items, ProbeScratch::default, |scratch, item| {
                    f(item, &mut probe_of(dataset), scratch)
                })
                .into_iter()
                .collect()
            }
        }
    }
}

/// Splits `0..len` into at most `shards` contiguous index ranges of
/// near-equal size (the first `len % shards` ranges are one longer) —
/// the temporal sharding of the hop-window list. Never produces an
/// empty range; returns fewer ranges when `len < shards`.
pub(crate) fn shard_ranges(len: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let shards = shards.clamp(1, len.max(1));
    let (base, extra) = (len / shards, len % shards);
    let mut out = Vec::with_capacity(shards);
    let mut lo = 0usize;
    for i in 0..shards {
        let size = base + usize::from(i < extra);
        if size == 0 {
            break;
        }
        out.push(lo..lo + size);
        lo += size;
    }
    out
}

/// Benchmark clustering over a fetched snapshot stream — step 1 of the
/// pipeline.
///
/// `fetch` resolves one benchmark timestamp to a [`SnapshotRef`], filling
/// the passed buffer only when the engine cannot share its storage (see
/// `SnapshotSource::scan_snapshot_ref`). Fetching stays on the calling
/// thread (store I/O and its statistics are single-threaded, so stores
/// need not be `Sync`); clustering fans out over `threads` workers off an
/// atomic counter, one [`GridScratch`] per worker.
///
/// The parallel work unit is a contiguous **run** of benchmark snapshots,
/// not a single snapshot: consecutive benchmark points are adjacent in
/// time, so a worker that clusters its run in order lets its scratch's
/// [`GridState`](k2_cluster::GridState) keep one snapshot's grid geometry
/// for the next and only re-scatter the points (the same contiguous
/// split as the store path's temporal shards). Output is identical either
/// way — DBSCAN depends only on the exact eps-pairs, which the
/// re-scattered and the rebuilt grid both emit — so the thread-count
/// invariance the goldens pin is untouched.
///
/// Two regimes, switched on what the engine actually returns:
///
/// * **Resident engines** ([`SnapshotRef::Shared`]): each ref is an O(1)
///   `Arc` clone with no memory-bounding reason to batch, so the Arcs are
///   collected up front and the whole benchmark list fans out in a
///   *single* map — no per-batch synchronization barrier, one scratch
///   per worker for the entire phase, and *no benchmark snapshot is ever
///   cloned*.
/// * **Materialising engines** ([`SnapshotRef::Buffered`]): records are
///   decoded into a bounded ring of reused buffers and fanned out batch
///   by batch, keeping peak memory at O(batch × population) instead of
///   holding every benchmark snapshot of a disk-backed dataset at once.
///
/// Returns a [`BenchClusters`]: labellings in `bench` order (clustering
/// is deterministic, so the result is identical at every thread count),
/// points scanned, and the phase's grid-reuse counters.
pub(crate) fn cluster_benchmark_snapshots<F>(
    threads: usize,
    bench: &[Time],
    params: DbscanParams,
    mut fetch: F,
) -> StoreResult<BenchClusters>
where
    F: for<'a> FnMut(Time, &'a mut Vec<ObjPos>) -> StoreResult<SnapshotRef<'a>>,
{
    let mut points = 0u64;
    let mut grid = GridCounters::default();
    let mut labellings = Vec::with_capacity(bench.len());
    if threads <= 1 {
        // Sequential: cluster each snapshot while it is still hot in
        // cache, reusing one scratch and one scan buffer across all —
        // one long run, so every adjacent pair is a patch candidate.
        let mut scratch = GridScratch::new();
        let mut buf = Vec::new();
        for &b in bench {
            let snapshot = fetch(b, &mut buf)?;
            points += snapshot.len() as u64;
            labellings.push(labelling(&snapshot, params, &mut scratch));
        }
        return Ok(BenchClusters {
            labellings,
            points,
            grid: scratch.grid_counters(),
        });
    }

    // Shared prefix: take ownership of the Arcs immediately, releasing
    // the probe buffer between fetches. Engines are in practice all-
    // Shared or all-Buffered, so for resident stores this loop covers
    // the whole list; a mixed engine just switches paths mid-stream.
    let mut shared: Vec<Arc<[ObjPos]>> = Vec::new();
    let mut probe_buf: Vec<ObjPos> = Vec::new();
    let mut rest: &[Time] = bench;
    let mut carry = false;
    while let Some((&b, tail)) = rest.split_first() {
        match fetch(b, &mut probe_buf)? {
            SnapshotRef::Shared(arc) => {
                points += arc.len() as u64;
                shared.push(arc);
                rest = tail;
            }
            // An absent timestamp borrows nothing from the buffer and has
            // nothing to cluster; it does not force the buffered path.
            SnapshotRef::Buffered([]) => {
                shared.push(Arc::from(&[][..]));
                rest = tail;
            }
            SnapshotRef::Buffered(_) => {
                // The records are in `probe_buf` (the contract of
                // `Buffered`); hand them to the ring below unscanned
                // rather than paying the engine for a refetch.
                carry = true;
                break;
            }
        }
    }
    // Fan out contiguous runs (one per worker): each worker walks its
    // run in time order, patching its grid between adjacent snapshots.
    let runs = shard_ranges(shared.len(), threads);
    for (run_labellings, delta) in self_scheduled_map(
        threads,
        &runs,
        GridScratch::new,
        |scratch, range: &std::ops::Range<usize>| {
            // A worker can claim several runs; the per-run delta keeps the
            // harvest correct regardless of which worker ran what.
            let before = scratch.grid_counters();
            let out: Vec<Vec<(Oid, u32)>> = shared[range.clone()]
                .iter()
                .map(|snapshot| labelling(snapshot, params, scratch))
                .collect();
            (out, scratch.grid_counters().since(before))
        },
    ) {
        labellings.extend(run_labellings);
        grid.add(delta);
    }
    if rest.is_empty() {
        return Ok(BenchClusters {
            labellings,
            points,
            grid,
        });
    }

    // Buffered remainder: bounded ring of reused buffers.
    let batch = threads * 8;
    let mut bufs: Vec<Vec<ObjPos>> = Vec::new();
    bufs.resize_with(batch.min(rest.len()), Vec::new);
    if carry {
        std::mem::swap(&mut bufs[0], &mut probe_buf);
    }
    for chunk in rest.chunks(batch) {
        let mut snapshots: Vec<SnapshotRef> = Vec::with_capacity(chunk.len());
        for (&b, buf) in chunk.iter().zip(bufs.iter_mut()) {
            let snapshot = if std::mem::take(&mut carry) {
                SnapshotRef::Buffered(&buf[..])
            } else {
                fetch(b, buf)?
            };
            points += snapshot.len() as u64;
            snapshots.push(snapshot);
        }
        // Runs within the ring batch: shorter than the shared path's (the
        // ring bounds resident memory to O(batch)), but still contiguous,
        // so adjacent snapshots within a run patch instead of rebuild.
        let runs = shard_ranges(snapshots.len(), threads);
        for (run_labellings, delta) in self_scheduled_map(
            threads,
            &runs,
            GridScratch::new,
            |scratch, range: &std::ops::Range<usize>| {
                let before = scratch.grid_counters();
                let out: Vec<Vec<(Oid, u32)>> = snapshots[range.clone()]
                    .iter()
                    .map(|snapshot| labelling(snapshot, params, scratch))
                    .collect();
                (out, scratch.grid_counters().since(before))
            },
        ) {
            labellings.extend(run_labellings);
            grid.add(delta);
        }
    }
    Ok(BenchClusters {
        labellings,
        points,
        grid,
    })
}

/// One benchmark snapshot's labelling, in a vector of its own.
fn labelling(
    snapshot: &[ObjPos],
    params: DbscanParams,
    scratch: &mut GridScratch,
) -> Vec<(Oid, u32)> {
    let mut out = Vec::new();
    dbscan_labelling_with(snapshot, params, scratch, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_for_any_thread_count() {
        let items: Vec<u32> = (0..97).collect();
        let expect: Vec<u32> = items.iter().map(|x| x * 3).collect();
        for threads in [1usize, 2, 4, 16, 128] {
            let got = self_scheduled_map(threads, &items, || (), |_, &x| x * 3);
            assert_eq!(got, expect, "{threads} threads");
        }
    }

    #[test]
    fn context_is_reused_within_a_worker() {
        // Sequential path: one context sees every item.
        let items = [1u32, 2, 3, 4];
        let sums = self_scheduled_map(
            1,
            &items,
            || 0u32,
            |acc, &x| {
                *acc += x;
                *acc
            },
        );
        assert_eq!(sums, vec![1, 3, 6, 10]);
    }

    #[test]
    fn benchmark_clustering_is_thread_count_invariant_and_zero_copy() {
        use k2_model::{Dataset, Point};
        use k2_storage::{InMemoryStore, SnapshotSource};

        let mut pts = Vec::new();
        for t in 0..30u32 {
            for oid in 0..12u32 {
                // Two tight groups plus wanderers.
                let (x, y) = match oid {
                    0..=3 => (t as f64, oid as f64 * 0.3),
                    4..=7 => (300.0 + t as f64, oid as f64 * 0.3),
                    _ => (oid as f64 * 50.0 + t as f64 * (oid - 6) as f64, 900.0),
                };
                pts.push(Point::new(oid, x, y, t));
            }
        }
        let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
        let params = DbscanParams::new(2, 1.0);
        let bench: Vec<Time> = (0..30).step_by(3).collect();

        let res = cluster_benchmark_snapshots(1, &bench, params, |t, buf| {
            store.scan_snapshot_ref(t, buf)
        })
        .unwrap();
        let (seq, seq_points) = (res.labellings, res.points);
        assert_eq!(seq.len(), bench.len());
        assert!(seq.iter().any(|c| !c.is_empty()));
        for threads in [2usize, 4, 64] {
            let par = cluster_benchmark_snapshots(threads, &bench, params, |t, buf| {
                store.scan_snapshot_ref(t, buf)
            })
            .unwrap();
            assert_eq!(par.labellings, seq, "{threads} threads");
            assert_eq!(par.points, seq_points, "{threads} threads");
        }
        // Every fetch above was served from shared storage: the in-memory
        // benchmark path performs zero snapshot copies.
        let io = store.io_stats();
        assert_eq!(io.snapshots_copied, 0);
        assert_eq!(io.snapshots_shared as usize, 4 * bench.len());

        // The buffered regime (disk-engine shape: records decoded into
        // the caller's buffer) and a mixed engine (shared prefix, then
        // buffered) must produce identical clusters — including when the
        // benchmark list spans several ring batches (97 > threads * 8).
        let dataset = store.dataset();
        let long_bench: Vec<Time> = (0..30).cycle().take(97).collect();
        let res = cluster_benchmark_snapshots(2, &long_bench, params, |t, buf| {
            store.scan_snapshot_ref(t, buf)
        })
        .unwrap();
        let (shared_labellings, shared_points) = (res.labellings, res.points);
        let buffered = cluster_benchmark_snapshots(2, &long_bench, params, |t, buf| {
            buf.clear();
            buf.extend_from_slice(dataset.snapshot(t).map(|s| s.positions()).unwrap_or(&[]));
            Ok(k2_storage::SnapshotRef::Buffered(buf))
        })
        .unwrap();
        assert_eq!(buffered.labellings, shared_labellings);
        assert_eq!(buffered.points, shared_points);
        for switch_at in [0usize, 1, 40, 96] {
            let mut fetches = 0usize;
            let mixed = cluster_benchmark_snapshots(2, &long_bench, params, |t, buf| {
                fetches += 1;
                if fetches <= switch_at {
                    store.scan_snapshot_ref(t, buf)
                } else {
                    buf.clear();
                    buf.extend_from_slice(
                        dataset.snapshot(t).map(|s| s.positions()).unwrap_or(&[]),
                    );
                    Ok(k2_storage::SnapshotRef::Buffered(buf))
                }
            })
            .unwrap();
            assert_eq!(mixed.labellings, shared_labellings, "switch at {switch_at}");
            assert_eq!(mixed.points, shared_points, "switch at {switch_at}");
            assert_eq!(fetches, long_bench.len(), "no refetch at {switch_at}");
        }
    }

    #[test]
    fn shard_ranges_partition_exactly() {
        for len in [0usize, 1, 2, 7, 16, 97] {
            for shards in [1usize, 2, 3, 4, 16, 200] {
                let ranges = shard_ranges(len, shards);
                assert!(ranges.len() <= shards.max(1));
                assert!(ranges.iter().all(|r| !r.is_empty()), "{len}/{shards}");
                let covered: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(covered, len, "{len}/{shards}");
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "{len}/{shards}");
                }
                if let (Some(first), Some(last)) = (ranges.first(), ranges.last()) {
                    assert_eq!(first.start, 0);
                    assert_eq!(last.end, len);
                    // Near-equal: sizes differ by at most one.
                    let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(max - min <= 1, "{len}/{shards}: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(self_scheduled_map(8, &empty, || (), |_, &x: &u32| x).is_empty());
        assert_eq!(
            self_scheduled_map(8, &[7u32], || (), |_, &x| x + 1),
            vec![8]
        );
    }
}
