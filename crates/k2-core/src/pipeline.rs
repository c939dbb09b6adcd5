//! The k/2-hop pipeline (Algorithm 1) — orchestrated here and nowhere
//! else — and the [`K2Hop`] engine that runs it per-probe.
//!
//! Steps 3–5 (HWMT, the DCM merge, extension) run as one sweep over the
//! hop-windows in time order, a step of windows at a time: each step's
//! windows are mined, merged, and the convoys the merge retires are
//! extended right and left at once, while the blocks the step read are
//! still in the store's cache. On a disk engine a step is one
//! hop-window; over a resident dataset it is the whole window list, so
//! the three phases run one after another as the paper lists them.
//! Extension chains are kept by seed and folded only for the final
//! seeds, so the convoys and every counter are the same for any step.
//! Validation (step 6) runs after the sweep: it needs the final left set.

use crate::benchpoints::{benchmark_points, hwmt_order};
use crate::candidates::{object_id_union, CandidateScratch};
use crate::config::K2Config;
use crate::extend::{Chains, Direction};
use crate::hwmt::{mine_window_with, WindowResult, WindowSlab};
use crate::merge::SpanningMerger;
use crate::par::{cluster_benchmark_snapshots, self_scheduled_map, shard_ranges, ProbeReader};
use crate::record::{IntactRecord, IntactRuns};
use crate::stats::{GridStats, PhaseTimings, PrefetchStats, PruningStats};
use crate::validate::validate_pass;
use crate::{MineError, MineOutcome, MineStats, ProbeScratch};
use k2_cluster::DbscanParams;
use k2_model::{Convoy, ConvoySet, ObjectSet, Oid, Time};
use k2_storage::{SnapshotSource, StoreResult};
use std::time::Instant;

/// The k/2-hop miner. Construct with a validated [`K2Config`], then mine
/// any [`SnapshotSource`] (a storage engine or a bare dataset) through
/// [`ConvoyMiner::mine`](crate::ConvoyMiner).
///
/// Benchmark clustering — the only full-snapshot work in the algorithm and
/// the largest phase of a mine over dense traffic — is sharded across
/// worker threads: snapshots are fetched from the store sequentially (I/O
/// and statistics stay on the calling thread; stores use interior
/// mutability and need not be `Sync`), then DBSCANed off an atomic work
/// counter with one `GridScratch` per worker, each into an oid-sorted
/// labelling that step 2 merge-joins with its neighbour. Every later
/// phase probes the source point by point on the calling thread.
/// [`K2Hop::new`] sizes the worker pool to the machine;
/// [`K2Hop::with_threads`] pins it (1 = fully sequential). Clustering is
/// deterministic, so the mined convoys are identical at every thread
/// count.
#[derive(Debug, Clone, Copy)]
pub struct K2Hop {
    config: K2Config,
    threads: usize,
}

impl K2Hop {
    /// Creates a miner with one clustering worker per available core.
    pub fn new(config: K2Config) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(config, threads)
    }

    /// Creates a miner with an explicit benchmark-clustering worker count
    /// (≥ 1; 1 runs the whole pipeline on the calling thread).
    pub fn with_threads(config: K2Config, threads: usize) -> Self {
        Self {
            config,
            threads: threads.max(1),
        }
    }
}

impl crate::ConvoyMiner for K2Hop {
    fn engine_name(&self) -> &'static str {
        "k2hop"
    }

    fn mine(&self, source: &dyn SnapshotSource) -> Result<MineOutcome, MineError> {
        Pipeline {
            config: self.config,
            engine: self.engine_name(),
            threads: self.threads,
            fan_out_probes: false,
        }
        .run(source)
    }
}

/// One configured run of Algorithm 1. Both engines build one of these
/// and call [`Pipeline::run`]; everything they differ in is in the two
/// last fields.
pub(crate) struct Pipeline {
    pub(crate) config: K2Config,
    /// [`ConvoyMiner::engine_name`](crate::ConvoyMiner::engine_name) of
    /// the engine this run reports as.
    pub(crate) engine: &'static str,
    /// Benchmark-clustering workers; reported as `MineStats::threads`.
    pub(crate) threads: usize,
    /// Whether the hop-window phases use the workers too
    /// ([`K2HopParallel`](crate::K2HopParallel)): every probe phase over
    /// the resident dataset when the source has one, otherwise HWMT over
    /// prefetched [`WindowSlab`]s. When false ([`K2Hop`]) every probe
    /// goes to the source on the calling thread.
    pub(crate) fan_out_probes: bool,
}

impl Pipeline {
    /// Algorithm 1 end to end:
    ///
    /// 1. cluster benchmark snapshots into labellings,
    /// 2. merge-join adjacent labellings into candidates,
    /// 3. HWMT every hop-window (spanning convoys),
    /// 4. DCM-merge into maximal spanning convoys,
    /// 5. extend right then left (discarding convoys shorter than `k`),
    /// 6. validate into maximal fully-connected convoys.
    ///
    /// Steps 3–5 sweep the hop-windows a step at a time (see the module
    /// doc); validation runs after the sweep.
    pub(crate) fn run(&self, source: &dyn SnapshotSource) -> Result<MineOutcome, MineError> {
        let cfg = self.config;
        let params = cfg.dbscan();
        let mut stats = MineStats {
            engine: self.engine,
            threads: self.threads,
            timings: PhaseTimings::default(),
            pruning: PruningStats {
                total_points: source.num_points(),
                ..PruningStats::default()
            },
            prefetch: PrefetchStats::default(),
            grid: GridStats::default(),
        };
        let outcome = |convoys, stats| MineOutcome {
            convoys,
            stats,
            io: source.io_stats(),
        };
        let span = source.span();
        if span.len() < cfg.k {
            // No convoy of length k fits in the dataset.
            return Ok(outcome(Vec::new(), stats));
        }
        let MineStats {
            timings,
            pruning,
            prefetch,
            grid,
            ..
        } = &mut stats;

        // The two values the engines differ in: where the probe phases
        // read from, and how many workers they may use.
        let workers = if self.fan_out_probes { self.threads } else { 1 };
        let (mut reader, prefetched) = match source.as_dataset() {
            Some(dataset) if self.fan_out_probes => {
                (ProbeReader::Resident { dataset, workers }, false)
            }
            _ => (ProbeReader::source(source), self.fan_out_probes),
        };

        // Step 1: benchmark clusters (the only full-snapshot scans),
        // through the shared zero-copy fetcher: resident sources hand
        // out Arc-backed snapshot views (no clone per benchmark point),
        // disk engines decode into a bounded ring of reused buffers.
        let t0 = Instant::now();
        let bench = benchmark_points(span, cfg.hop());
        let bench_res = cluster_benchmark_snapshots(self.threads, &bench, params, |t, buf| {
            source.scan_snapshot_ref(t, buf)
        })?;
        pruning.benchmark_points = bench_res.points;
        pruning.benchmark_timestamps = bench.len() as u32;
        *grid = GridStats::from(bench_res.grid);
        timings.benchmark = t0.elapsed();

        // Step 2: candidate clusters per hop-window, merge-joined from
        // adjacent labellings.
        let t0 = Instant::now();
        let pairs: Vec<&[Vec<(Oid, u32)>]> = bench_res.labellings.windows(2).collect();
        let ccs: Vec<Vec<ObjectSet>> = self_scheduled_map(
            workers,
            &pairs,
            CandidateScratch::default,
            |scratch, pair| scratch.candidates(&pair[0], &pair[1], cfg.m),
        );
        pruning.candidate_clusters = ccs.iter().map(|cc| cc.len() as u32).sum();
        timings.intersect = t0.elapsed();

        // Steps 3–5, a step of hop-windows at a time. A resident source
        // has no block cache to keep warm, so its step is the whole list
        // and each phase fans out once over all of it; over prefetched
        // slabs the step is one temporal shard; otherwise one window.
        // Every hop-window and extension chain hands back where a probe
        // of exactly a set returned it intact; validation reads that
        // record instead of probing again.
        let mut intact = IntactRuns::new();
        let windows: Vec<Window<'_>> = bench
            .windows(2)
            .zip(&ccs)
            .map(|(b, cc)| Window {
                left: b[0],
                right: b[1],
                cc,
            })
            .collect();
        let shards = match source.as_dataset() {
            Some(_) => 1,
            None => windows.len().div_ceil(workers),
        };
        let steps = shard_ranges(windows.len(), shards);
        let mut slabs: Vec<WindowSlab> = Vec::new();
        let mut merger = SpanningMerger::new(cfg.m);
        let mut merged = ConvoySet::new();
        let mut rights = Chains::new(Direction::Right { end: span.end });
        let mut lefts = Chains::new(Direction::Left {
            start: span.start,
            min_len: cfg.k,
        });
        for (i, range) in steps.iter().enumerate() {
            // Step 3: HWMT per window.
            let t0 = Instant::now();
            let step = &windows[range.clone()];
            let mined = if prefetched {
                hwmt_over_slabs(source, params, step, workers, &mut slabs, prefetch)?
            } else {
                reader.map(step, |w, probe, scratch| w.mine(params, probe, scratch))?
            };
            let spanning: Vec<Vec<Convoy>> = mined
                .into_iter()
                .map(|res| {
                    pruning.hwmt_points += res.points_fetched;
                    intact.extend(res.intact);
                    res.spanning
                })
                .collect();
            pruning.spanning_convoys += spanning.iter().map(|s| s.len() as u32).sum::<u32>();
            timings.hwmt += t0.elapsed();

            // Step 4: merge into maximal spanning convoys.
            let t0 = Instant::now();
            let mut retired: Vec<Convoy> = spanning.iter().flat_map(|s| merger.push(s)).collect();
            if i + 1 == steps.len() {
                retired.extend(merger.finish());
            }
            for v in &retired {
                merged.update(v.clone());
            }
            // A convoy already subsumed can never be a seed.
            retired.retain(|v| merged.contains(v));
            timings.merge += t0.elapsed();

            // Step 5, speculatively: the chains of what this step retired.
            let t0 = Instant::now();
            let emitted = rights.run(&mut reader, params, &retired)?;
            timings.extend_right += t0.elapsed();
            let t0 = Instant::now();
            lefts.run(&mut reader, params, &emitted)?;
            timings.extend_left += t0.elapsed();
        }
        pruning.merged_convoys = merged.len() as u32;

        // Step 5: extension (right, then left with the k filter) of the
        // final seeds, from the chains the sweep ran.
        let t0 = Instant::now();
        let mut right = rights.pass(&mut reader, params, &merged.drain())?;
        pruning.extend_points += right.points_fetched;
        intact.append(&mut right.intact);
        timings.extend_right += t0.elapsed();

        let t0 = Instant::now();
        let mut left = lefts.pass(&mut reader, params, &right.convoys.drain())?;
        pruning.extend_points += left.points_fetched;
        pruning.pre_validation_convoys = left.convoys.len() as u32;
        intact.append(&mut left.intact);
        timings.extend_left += t0.elapsed();

        // Step 6: validation to fully-connected convoys, once the left
        // set is final.
        let t0 = Instant::now();
        let record = IntactRecord::new(intact);
        let validated = validate_pass(&mut reader, params, cfg.k, left.convoys, &record)?;
        pruning.validation_points = validated.points_fetched;
        timings.validation = t0.elapsed();

        Ok(outcome(validated.convoys.into_sorted_vec(), stats))
    }
}

/// One hop-window: its bordering benchmark points and its candidate
/// cluster set `CCᵢ`.
struct Window<'a> {
    left: Time,
    right: Time,
    cc: &'a [ObjectSet],
}

impl Window<'_> {
    /// HWMT over this window in the paper's binary-tree order.
    fn mine(
        &self,
        params: DbscanParams,
        probe: impl crate::Probe,
        scratch: &mut ProbeScratch,
    ) -> StoreResult<WindowResult> {
        mine_window_with(
            params, self.left, self.right, self.cc, hwmt_order, probe, scratch,
        )
    }
}

/// Step 3 over prefetched slabs, for one temporal shard of the
/// hop-window list — the memory discipline of
/// [`K2HopParallel`](crate::K2HopParallel) on a source that is not
/// resident. Store I/O never leaves the calling thread (engines need not
/// be `Sync`), and no more than one temporal shard of the data is ever
/// materialised.
///
/// The pipeline steps through contiguous **temporal shards** of
/// `workers` windows. Per shard, the calling thread fetches one
/// [`WindowSlab`] per window — `DB[t]|union(CCᵢ)` for the window's open
/// timestamps, via sorted-probe `multi_get_into` into `slabs`, reused
/// shard to shard — then the shard's windows fan out to the workers,
/// each probing its own slab. Peak resident slab bytes are
/// `O(window span × workers)`, not `O(full span × union)`;
/// [`PrefetchStats`] reports the measured peak. Each window's
/// `points_fetched` is what its slab fetched.
fn hwmt_over_slabs(
    source: &dyn SnapshotSource,
    params: DbscanParams,
    shard: &[Window<'_>],
    workers: usize,
    slabs: &mut Vec<WindowSlab>,
    prefetch: &mut PrefetchStats,
) -> StoreResult<Vec<WindowResult>> {
    prefetch.shards += 1;
    slabs.resize_with(shard.len().max(slabs.len()), WindowSlab::default);
    let mut fetched = Vec::with_capacity(shard.len());
    let mut shard_bytes = 0u64;
    for (w, slab) in shard.iter().zip(slabs.iter_mut()) {
        let union: Vec<Oid> = object_id_union(w.cc);
        fetched.push(slab.fill(source, w.left, w.right, &union)?);
        shard_bytes += slab.bytes();
        prefetch.windows_fetched += u32::from(!slab.is_empty());
    }
    prefetch.prefetch_bytes_peak = prefetch.prefetch_bytes_peak.max(shard_bytes);
    let inputs: Vec<(&Window<'_>, &WindowSlab)> = shard.iter().zip(slabs.iter()).collect();
    self_scheduled_map(
        workers,
        &inputs,
        ProbeScratch::default,
        |scratch, &(w, slab)| {
            w.mine(
                params,
                |t, oids: &[Oid], out: &mut _| slab.probe(t, oids, out),
                scratch,
            )
        },
    )
    .into_iter()
    .zip(fetched)
    .map(|(res, points)| {
        res.map(|res| WindowResult {
            points_fetched: points,
            ..res
        })
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConvoyMiner;
    use k2_model::{Dataset, ObjectSet, Point, TimeInterval};
    use k2_storage::InMemoryStore;

    fn store_of(pts: Vec<Point>) -> InMemoryStore {
        InMemoryStore::new(Dataset::from_points(&pts).unwrap())
    }

    /// One clean convoy of three objects over the full span, two noise
    /// objects wandering.
    fn simple_convoy(len: u32) -> InMemoryStore {
        let mut pts = Vec::new();
        for t in 0..len {
            for oid in 0..3u32 {
                pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
            }
            for oid in 10..12u32 {
                pts.push(Point::new(
                    oid,
                    500.0 + oid as f64 * 100.0 + (t as f64 * (oid as f64 - 9.0) * 3.0),
                    700.0,
                    t,
                ));
            }
        }
        store_of(pts)
    }

    fn mine(store: &InMemoryStore, m: usize, k: u32, eps: f64) -> MineOutcome {
        K2Hop::new(K2Config::new(m, k, eps).unwrap())
            .mine(store)
            .unwrap()
    }

    #[test]
    fn finds_a_full_span_convoy() {
        let store = simple_convoy(20);
        let res = mine(&store, 3, 8, 1.0);
        assert_eq!(res.convoys.len(), 1);
        let c = &res.convoys[0];
        assert_eq!(c.objects, ObjectSet::from([0, 1, 2]));
        assert_eq!(c.lifespan, TimeInterval::new(0, 19));
    }

    #[test]
    fn k_larger_than_span_yields_nothing() {
        let store = simple_convoy(5);
        let res = mine(&store, 3, 10, 1.0);
        assert!(res.convoys.is_empty());
    }

    #[test]
    fn m_larger_than_group_yields_nothing() {
        let store = simple_convoy(20);
        let res = mine(&store, 4, 8, 1.0);
        assert!(res.convoys.is_empty());
    }

    #[test]
    fn convoy_with_interior_bounds() {
        // Objects together only during [5, 16] of a span [0, 29].
        let mut pts = Vec::new();
        for t in 0..30u32 {
            for oid in 0..4u32 {
                let (x, y) = if (5..=16).contains(&t) {
                    (t as f64, oid as f64 * 0.4)
                } else {
                    (oid as f64 * 100.0 + t as f64 * (oid + 2) as f64, 300.0)
                };
                pts.push(Point::new(oid, x, y, t));
            }
        }
        let store = store_of(pts);
        let res = mine(&store, 4, 6, 1.0);
        assert_eq!(res.convoys.len(), 1);
        assert_eq!(res.convoys[0].lifespan, TimeInterval::new(5, 16));
        assert_eq!(res.convoys[0].objects.len(), 4);
    }

    #[test]
    fn two_disjoint_convoys() {
        let mut pts = Vec::new();
        for t in 0..24u32 {
            for oid in 0..3u32 {
                pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
            }
            for oid in 5..8u32 {
                pts.push(Point::new(oid, t as f64, 1000.0 + oid as f64 * 0.4, t));
            }
        }
        let store = store_of(pts);
        let res = mine(&store, 3, 10, 1.0);
        assert_eq!(res.convoys.len(), 2);
    }

    #[test]
    fn odd_k_works() {
        let store = simple_convoy(21);
        let res = mine(&store, 3, 7, 1.0);
        assert_eq!(res.convoys.len(), 1);
        assert_eq!(res.convoys[0].len(), 21);
    }

    #[test]
    fn k_equals_two_degenerate_hop() {
        let store = simple_convoy(6);
        let res = mine(&store, 3, 2, 1.0);
        assert_eq!(res.convoys.len(), 1);
        assert_eq!(res.convoys[0].len(), 6);
    }

    #[test]
    fn pruning_stats_reflect_benchmark_only_scans() {
        let store = simple_convoy(40);
        let res = mine(&store, 3, 20, 1.0);
        // hop = 10: benchmarks at 0, 10, 20, 30 — 4 timestamps of 5 points.
        assert_eq!(res.stats.pruning.benchmark_timestamps, 4);
        assert_eq!(res.stats.pruning.benchmark_points, 20);
        // Noise objects never enter HWMT: 3 candidate objects per probe.
        assert!(res.stats.pruning.hwmt_points <= 3 * 36);
    }

    #[test]
    fn pruning_dominates_on_noise_heavy_data() {
        // 3 convoy objects, 60 noise objects: the pruning ratio must be
        // high because only the convoy objects are ever fetched outside
        // benchmark timestamps.
        let mut pts = Vec::new();
        for t in 0..40u32 {
            for oid in 0..3u32 {
                pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
            }
            for oid in 100..160u32 {
                pts.push(Point::new(
                    oid,
                    1000.0 + oid as f64 * 50.0 + t as f64 * (oid % 7 + 2) as f64,
                    oid as f64 * 17.0,
                    t,
                ));
            }
        }
        let store = store_of(pts);
        let res = mine(&store, 3, 20, 1.0);
        assert_eq!(res.convoys.len(), 1);
        assert!(
            res.stats.pruning.pruning_ratio() > 0.7,
            "pruning ratio {} too low",
            res.stats.pruning.pruning_ratio()
        );
    }

    #[test]
    fn convoy_shorter_than_k_not_reported() {
        // Together for 7 timestamps, k = 8.
        let mut pts = Vec::new();
        for t in 0..20u32 {
            for oid in 0..3u32 {
                let (x, y) = if (5..12).contains(&t) {
                    (t as f64, oid as f64 * 0.4)
                } else {
                    (oid as f64 * 90.0 + t as f64 * (oid + 1) as f64, 500.0)
                };
                pts.push(Point::new(oid, x, y, t));
            }
        }
        let store = store_of(pts);
        let res = mine(&store, 3, 8, 1.0);
        assert!(res.convoys.is_empty(), "got {:?}", res.convoys);
    }

    #[test]
    fn bridge_object_breaks_full_connectivity() {
        // Five objects in a chain where object 2 is the middle link; when
        // it leaves at t >= 10, {0,1} and {3,4} remain as separate pairs
        // (never FC with each other without 2).
        let mut pts = Vec::new();
        for t in 0..20u32 {
            for oid in 0..5u32 {
                let (x, y) = if t < 10 || oid != 2 {
                    (oid as f64 * 0.9, t as f64 * 0.01)
                } else {
                    (300.0, 300.0) // bridge leaves
                };
                pts.push(Point::new(oid, x, y, t));
            }
        }
        let store = store_of(pts);
        let res = mine(&store, 2, 12, 1.0);
        // FC convoys of length >= 12: {0,1} [0,19] and {3,4} [0,19].
        assert!(res.convoys.contains(&Convoy::from_parts([0u32, 1], 0, 19)));
        assert!(res.convoys.contains(&Convoy::from_parts([3u32, 4], 0, 19)));
        // {0,1,3,4} over the full span is NOT fully connected.
        assert!(!res
            .convoys
            .iter()
            .any(|c| c.objects == ObjectSet::from([0, 1, 3, 4])));
    }

    #[test]
    fn timings_are_populated() {
        let store = simple_convoy(30);
        let res = mine(&store, 3, 10, 1.0);
        assert!(res.stats.timings.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn offset_time_range() {
        // Dataset starting at t = 1000.
        let mut pts = Vec::new();
        for t in 1000..1030u32 {
            for oid in 0..3u32 {
                pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
            }
        }
        let store = store_of(pts);
        let res = mine(&store, 3, 10, 1.0);
        assert_eq!(res.convoys.len(), 1);
        assert_eq!(res.convoys[0].lifespan, TimeInterval::new(1000, 1029));
    }
}
