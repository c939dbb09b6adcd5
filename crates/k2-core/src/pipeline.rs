//! The k/2-hop pipeline (Algorithm 1) — orchestrated here and nowhere
//! else — run by the [`K2Hop`] engine.
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
//!
//! The pattern is the engine's [`Grouping`]: the same orchestration
//! mines convoys (DBSCAN) and flocks (radius-`r` disks, which skip
//! step 6).

use crate::benchpoints::{benchmark_points, hwmt_order};
use crate::candidates::CandidateScratch;
use crate::config::K2Config;
use crate::extend::{Chains, Direction};
use crate::hwmt::{mine_window_with, WindowResult};
use crate::merge::SpanningMerger;
use crate::par::{group_benchmark_snapshots, self_scheduled_map, ProbeReader};
use crate::record::{IntactRecord, IntactRuns};
use crate::stats::{GridStats, PhaseTimings, PruningStats};
use crate::validate::validate_pass;
use crate::{Grouping, MineError, MineOutcome, MineStats, ProbeScratch};
use k2_cluster::DbscanParams;
use k2_model::{Convoy, ConvoySet, ObjectSet, Time};
use k2_storage::{SnapshotSource, StoreResult};
use std::time::Instant;

/// The k/2-hop miner. Construct with a validated [`K2Config`], then mine
/// any [`SnapshotSource`] (a storage engine or a bare dataset) through
/// [`ConvoyMiner::mine`](crate::ConvoyMiner).
///
/// What it mines is its [`Grouping`]: DBSCAN with `min_pts = m` and the
/// config's `eps` unless [`with_grouping`](Self::with_grouping) swaps in
/// another. Every pattern runs the one orchestration below.
///
/// Benchmark grouping — the only full-snapshot work in the algorithm and
/// the largest phase of a mine over dense traffic — is sharded across
/// worker threads: snapshots are fetched from the store sequentially (I/O
/// and statistics stay on the calling thread), then grouped off an
/// atomic work counter with one `GridScratch` per worker; for convoys
/// each becomes an oid-sorted labelling that step 2 merge-joins with its
/// neighbour.
///
/// The later phases use the workers too when the source is resident
/// ([`SnapshotSource::as_dataset`]: a bare `Dataset`, an
/// `InMemoryStore`): §4.3 observes that each hop-window can be mined on
/// its own, so candidate intersection, hop-windows, extension seeds and
/// validation candidates fan out as independent tasks probing the
/// dataset's own storage — nothing is copied and no point query is
/// issued. Every other mine probes the source point by point on the
/// calling thread.
///
/// [`K2Hop::new`] sizes the worker pool to the machine;
/// [`K2Hop::with_threads`] pins it (1 = fully sequential). Every phase is
/// deterministic, so the mined convoys and the pruning counters are
/// identical at every thread count.
#[derive(Debug, Clone, Copy)]
pub struct K2Hop<G = DbscanParams> {
    config: K2Config,
    grouping: G,
    threads: usize,
}

impl K2Hop {
    /// Creates a miner with one worker per available core.
    pub fn new(config: K2Config) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(config, threads)
    }

    /// Creates a miner with an explicit worker count (≥ 1; 1 runs the
    /// whole pipeline on the calling thread).
    pub fn with_threads(config: K2Config, threads: usize) -> Self {
        Self {
            config,
            grouping: config.dbscan(),
            threads: threads.max(1),
        }
    }
}

/// The former multi-threaded engine's constructor, kept only because the
/// benchmark harness still compiles against it; ROADMAP item 1(d3)
/// deletes it. `K2HopParallel::new(c, n)` is [`K2Hop::with_threads`].
#[derive(Debug)]
pub struct K2HopParallel;

impl K2HopParallel {
    /// `K2Hop::with_threads(config, threads)`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(config: K2Config, threads: usize) -> K2Hop {
        K2Hop::with_threads(config, threads)
    }
}

/// Convoys. The impl is not generic, so the DBSCAN pipeline is compiled
/// in this crate, beside the phase code it calls.
impl crate::ConvoyMiner for K2Hop {
    fn engine_name(&self) -> &'static str {
        DbscanParams::ENGINE
    }

    fn mine(&self, source: &dyn SnapshotSource) -> Result<MineOutcome, MineError> {
        self.run(source)
    }
}

impl<G: Grouping> K2Hop<G> {
    /// The same miner with `grouping` in place of its own: the pattern it
    /// mines changes, its configuration and worker count do not.
    pub fn with_grouping<H: Grouping>(self, grouping: H) -> K2Hop<H> {
        K2Hop {
            config: self.config,
            grouping,
            threads: self.threads,
        }
    }

    /// The configuration the miner was built with.
    pub fn config(&self) -> K2Config {
        self.config
    }

    /// Algorithm 1 end to end, with the miner's grouping:
    ///
    /// 1. group benchmark snapshots,
    /// 2. join adjacent groupings into candidates,
    /// 3. HWMT every hop-window (spanning convoys),
    /// 4. DCM-merge into maximal spanning convoys,
    /// 5. extend right then left (discarding convoys shorter than `k`),
    /// 6. validate into maximal fully-connected convoys, if the grouping
    ///    asks for it ([`Grouping::VALIDATES`]).
    ///
    /// Steps 3–5 sweep the hop-windows a step at a time (see the module
    /// doc); validation runs after the sweep. The `ConvoyMiner::mine` of
    /// every grouping's engine is this.
    pub fn run(&self, source: &dyn SnapshotSource) -> Result<MineOutcome, MineError> {
        let cfg = self.config;
        let grouping = self.grouping;
        let mut stats = MineStats {
            engine: G::ENGINE,
            threads: self.threads,
            timings: PhaseTimings::default(),
            pruning: PruningStats {
                total_points: source.num_points(),
                ..PruningStats::default()
            },
            prefetch: Default::default(),
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
            grid,
            ..
        } = &mut stats;

        // Where steps 2–6 read from, and on how many workers: the
        // resident dataset on all of them, or the source itself on the
        // calling thread.
        let resident = source.as_dataset();
        let (mut reader, workers) = match resident {
            Some(dataset) if self.threads > 1 => (
                ProbeReader::Resident {
                    dataset,
                    workers: self.threads,
                },
                self.threads,
            ),
            _ => (ProbeReader::source(source), 1),
        };

        // Step 1: benchmark groups (the only full-snapshot scans),
        // through the shared zero-copy fetcher: resident sources hand
        // out Arc-backed snapshot views (no clone per benchmark point),
        // disk engines decode into a bounded ring of reused buffers.
        let t0 = Instant::now();
        let bench = benchmark_points(span, cfg.hop());
        let bench_res = group_benchmark_snapshots(self.threads, &bench, grouping, |t, buf| {
            source.scan_snapshot_ref(t, buf)
        })?;
        pruning.benchmark_points = bench_res.points;
        pruning.benchmark_timestamps = bench.len() as u32;
        *grid = GridStats::from(bench_res.grid);
        timings.benchmark = t0.elapsed();

        // Step 2: candidate groups per hop-window, joined from adjacent
        // benchmark groupings.
        let t0 = Instant::now();
        let pairs: Vec<&[G::Groups]> = bench_res.groups.windows(2).collect();
        let ccs: Vec<Vec<ObjectSet>> = self_scheduled_map(
            workers,
            &pairs,
            CandidateScratch::default,
            |scratch, pair| grouping.join(&pair[0], &pair[1], scratch),
        );
        pruning.candidate_clusters = ccs.iter().map(|cc| cc.len() as u32).sum();
        timings.intersect = t0.elapsed();

        // Steps 3–5, a step of hop-windows at a time. A resident source
        // has no block cache to keep warm, so its step is the whole list
        // and each phase maps over all of it at once; otherwise a step is
        // one window. Every hop-window and extension chain hands back
        // where a probe of exactly a set returned it intact; validation
        // reads that record instead of probing again.
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
        let step_len = match resident {
            Some(_) => windows.len().max(1),
            None => 1,
        };
        let steps = windows.chunks(step_len);
        let last_step = steps.len().saturating_sub(1);
        let mut merger = SpanningMerger::new(cfg.m);
        let mut merged = ConvoySet::new();
        let mut rights = Chains::new(Direction::Right { end: span.end });
        let mut lefts = Chains::new(Direction::Left {
            start: span.start,
            min_len: cfg.k,
        });
        for (i, step) in steps.enumerate() {
            // Step 3: HWMT per window.
            let t0 = Instant::now();
            let mined = reader.map(step, |w, probe, scratch| w.mine(grouping, probe, scratch))?;
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
            if i == last_step {
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
            let emitted = rights.run(&mut reader, grouping, &retired)?;
            timings.extend_right += t0.elapsed();
            let t0 = Instant::now();
            lefts.run(&mut reader, grouping, &emitted)?;
            timings.extend_left += t0.elapsed();
        }
        pruning.merged_convoys = merged.len() as u32;

        // Step 5: extension (right, then left with the k filter) of the
        // final seeds, from the chains the sweep ran.
        let t0 = Instant::now();
        let mut right = rights.pass(&mut reader, grouping, &merged.drain())?;
        pruning.extend_points += right.points_fetched;
        intact.append(&mut right.intact);
        timings.extend_right += t0.elapsed();

        let t0 = Instant::now();
        let mut left = lefts.pass(&mut reader, grouping, &right.convoys.drain())?;
        pruning.extend_points += left.points_fetched;
        pruning.pre_validation_convoys = left.convoys.len() as u32;
        intact.append(&mut left.intact);
        timings.extend_left += t0.elapsed();
        if !G::VALIDATES {
            return Ok(outcome(left.convoys.into_sorted_vec(), stats));
        }

        // Step 6: validation to fully-connected convoys, once the left
        // set is final.
        let t0 = Instant::now();
        let record = IntactRecord::new(intact);
        let validated = validate_pass(&mut reader, grouping, cfg.k, left.convoys, &record)?;
        pruning.validation_points = validated.points_fetched;
        timings.validation = t0.elapsed();

        Ok(outcome(validated.convoys.into_sorted_vec(), stats))
    }
}

/// One hop-window: its bordering benchmark points and its candidate
/// set `CCᵢ`.
struct Window<'a> {
    left: Time,
    right: Time,
    cc: &'a [ObjectSet],
}

impl Window<'_> {
    /// HWMT over this window in the paper's binary-tree order.
    fn mine(
        &self,
        grouping: impl Grouping,
        probe: impl crate::Probe,
        scratch: &mut ProbeScratch,
    ) -> StoreResult<WindowResult> {
        mine_window_with(
            grouping, self.left, self.right, self.cc, hwmt_order, probe, scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConvoyMiner;
    use k2_model::{Dataset, ObjectSet, Point, TimeInterval};
    use k2_storage::{InMemoryStore, TimeRange};

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

    /// Deterministic pseudo-random walkers plus a convoy of four
    /// planted over `[8, 30]`.
    fn random_dataset(seed: u64) -> Dataset {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pts = Vec::new();
        for t in 0..40u32 {
            for oid in 0..20u32 {
                let x = (next() % 400) as f64 / 4.0;
                let y = (next() % 400) as f64 / 4.0;
                pts.push(Point::new(oid, x, y, t));
            }
            for oid in 100..104u32 {
                let (x, y) = if (8..=30).contains(&t) {
                    (t as f64, (oid - 100) as f64 * 0.4)
                } else {
                    (500.0 + oid as f64 * 40.0, t as f64 * 3.0)
                };
                pts.push(Point::new(oid, x, y, t));
            }
        }
        Dataset::from_points(&pts).unwrap()
    }

    #[test]
    fn thread_count_changes_neither_convoys_nor_counters() {
        for seed in 0..5u64 {
            let d = random_dataset(seed);
            let cfg = K2Config::new(3, 8, 1.5).unwrap();
            let store = InMemoryStore::new(d.clone());
            // Hides `as_dataset`, so every probe goes to the store.
            let opaque = TimeRange::new(InMemoryStore::new(d.clone()), 0, Time::MAX);
            let sequential = K2Hop::with_threads(cfg, 1).mine(&store).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let miner = K2Hop::with_threads(cfg, threads);
                for source in [&d as &dyn SnapshotSource, &store, &opaque] {
                    let got = miner.mine(source).unwrap();
                    let at = format!("seed {seed}, {threads} threads, {}", source.name());
                    assert_eq!(got.convoys, sequential.convoys, "{at}");
                    assert_eq!(got.stats.pruning, sequential.stats.pruning, "{at}");
                    assert_eq!(got.stats.threads, threads, "{at}");
                }
            }
        }
        let found = K2Hop::with_threads(K2Config::new(4, 20, 1.0).unwrap(), 4)
            .mine(&random_dataset(1))
            .unwrap()
            .convoys;
        assert!(found.contains(&Convoy::from_parts([100u32, 101, 102, 103], 8, 30)));
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
