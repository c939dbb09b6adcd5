//! Multi-threaded k/2-hop — the paper's §7 future work ("we would also
//! like to parallelize k/2-hop").
//!
//! §4.3 observes that HWMT "operates on a hop-window independently of
//! other hop-windows, [which] makes the HWMT algorithm a good candidate
//! for distributed execution". [`K2HopParallel`] exploits exactly that.
//! It runs the same pipeline as [`K2Hop`](crate::K2Hop) — same phases,
//! same order — with the probe phases fanned out as well:
//!
//! * benchmark-point clustering is sharded over worker threads (as in
//!   `K2Hop`), and so is the candidate intersection,
//! * over a **resident** source ([`SnapshotSource::as_dataset`]: a bare
//!   [`Dataset`](k2_model::Dataset), an `InMemoryStore`) hop-windows,
//!   extension seeds and validation candidates are independent tasks
//!   probing the dataset's own storage — nothing is copied and no point
//!   query is issued,
//! * over **any other** source, store I/O stays on the calling thread
//!   (engines use interior mutability and need not be `Sync`): HWMT runs
//!   over hop-window slabs prefetched one temporal shard of `threads`
//!   windows at a time — exactly the points k/2-hop's pruning would
//!   fetch anyway, never more than `O(window × threads)` of them
//!   resident ([`PrefetchStats`](crate::PrefetchStats)) — and extension
//!   of what each shard's merge retired, then validation, probe the
//!   source point by point,
//! * only the cheap DCM merge (and final maximality) runs sequentially.
//!
//! Either way the output is *identical* to `K2Hop`'s — the unit tests
//! and the workspace integration tests enforce this.

use crate::config::K2Config;
use crate::pipeline::Pipeline;
use k2_storage::SnapshotSource;

/// Parallel k/2-hop miner over an in-memory dataset or any storage
/// engine.
///
/// ```
/// use k2_core::{ConvoyMiner, K2Config, K2HopParallel};
/// use k2_model::{Dataset, Point};
///
/// let mut pts = Vec::new();
/// for t in 0..12u32 {
///     for oid in 0..3u32 {
///         pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
///     }
/// }
/// let d = Dataset::from_points(&pts).unwrap();
/// let miner = K2HopParallel::new(K2Config::new(3, 6, 1.0).unwrap(), 4);
/// let outcome = ConvoyMiner::mine(&miner, &d).unwrap();
/// assert_eq!(outcome.convoys.len(), 1);
/// assert_eq!(outcome.convoys[0].len(), 12);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct K2HopParallel {
    config: K2Config,
    threads: usize,
}

impl K2HopParallel {
    /// Creates a parallel miner with the given worker count (≥ 1).
    pub fn new(config: K2Config, threads: usize) -> Self {
        Self {
            config,
            threads: threads.max(1),
        }
    }
}

impl crate::ConvoyMiner for K2HopParallel {
    fn engine_name(&self) -> &'static str {
        "k2hop-parallel"
    }

    fn mine(&self, source: &dyn SnapshotSource) -> Result<crate::MineOutcome, crate::MineError> {
        Pipeline {
            config: self.config,
            engine: self.engine_name(),
            threads: self.threads,
            fan_out_probes: true,
        }
        .run(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchpoints::benchmark_points;
    use crate::{ConvoyMiner, K2Hop, PrefetchStats};
    use k2_model::{Convoy, Dataset, Point, Time};
    use k2_storage::{InMemoryStore, TimeRange};

    fn mine(cfg: K2Config, threads: usize, source: &dyn SnapshotSource) -> crate::MineOutcome {
        K2HopParallel::new(cfg, threads).mine(source).unwrap()
    }

    /// Hop-windows of a run over `d`.
    fn num_windows(d: &Dataset, cfg: K2Config) -> usize {
        benchmark_points(d.span(), cfg.hop()).len() - 1
    }

    fn random_dataset(seed: u64) -> Dataset {
        // Deterministic pseudo-random walkers + a planted convoy, with no
        // rand dependency in the lib crate.
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
            // Planted convoy over [8, 30].
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
    fn parallel_equals_sequential() {
        for seed in 0..5u64 {
            let d = random_dataset(seed);
            let cfg = K2Config::new(3, 8, 1.5).unwrap();
            let sequential = K2Hop::new(cfg)
                .mine(&InMemoryStore::new(d.clone()))
                .unwrap()
                .convoys;
            for threads in [1usize, 2, 4, 8] {
                let parallel = mine(cfg, threads, &d).convoys;
                assert_eq!(parallel, sequential, "seed {seed} threads {threads}");
            }
        }
    }

    /// Hides the resident dataset behind a full-range clamp — forces the
    /// slab prefetch the disk engines get.
    fn opaque(d: Dataset) -> TimeRange<InMemoryStore> {
        TimeRange::new(InMemoryStore::new(d), 0, Time::MAX)
    }

    #[test]
    fn store_generic_mine_equals_dataset_mine() {
        for seed in 0..3u64 {
            let d = random_dataset(seed);
            let cfg = K2Config::new(3, 8, 1.5).unwrap();
            let from_dataset = mine(cfg, 4, &d).convoys;
            let resident = InMemoryStore::new(d.clone());
            let opaque = opaque(d);
            let per_probe = K2Hop::with_threads(cfg, 1).mine(&resident).unwrap();
            for threads in [1usize, 4] {
                // Resident source: probes read the dataset directly — no
                // prefetch, and the same points as the per-probe engine.
                let res = mine(cfg, threads, &resident);
                assert_eq!(res.convoys, from_dataset, "seed {seed} threads {threads}");
                assert_eq!(
                    res.stats.prefetch,
                    PrefetchStats::default(),
                    "resident path must not prefetch"
                );
                assert_eq!(
                    res.stats.pruning, per_probe.stats.pruning,
                    "resident probes are counted like any other"
                );
                // Opaque source: restriction prefetch, identical output.
                let res = mine(cfg, threads, &opaque);
                assert_eq!(res.convoys, from_dataset, "seed {seed} threads {threads}");
                assert!(
                    res.stats.pruning.hwmt_points > 0,
                    "restriction prefetch must be accounted"
                );
                assert!(
                    res.stats.pruning.points_processed() < res.stats.pruning.total_points,
                    "the restricted prefetch must not defeat pruning"
                );
            }
        }
    }

    #[test]
    fn shard_size_does_not_change_output() {
        for seed in 0..3u64 {
            let d = random_dataset(seed);
            let cfg = K2Config::new(3, 8, 1.5).unwrap();
            let opaque = opaque(d.clone());
            let expected = mine(cfg, 4, &d).convoys;
            // One shard holds `threads` windows, so the thread count
            // moves the shard boundaries.
            for threads in [1usize, 2, 4, 7] {
                let res = mine(cfg, threads, &opaque);
                assert_eq!(res.convoys, expected, "seed {seed} threads {threads}");
                assert_eq!(
                    res.stats.prefetch.shards as usize,
                    num_windows(&d, cfg).div_ceil(threads),
                    "seed {seed} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn prefetch_memory_is_bounded_by_window_times_threads() {
        let d = random_dataset(1);
        let cfg = K2Config::new(3, 8, 1.5).unwrap();
        let num_objects = 24u64; // 20 walkers + 4 planted
        let point_bytes = std::mem::size_of::<k2_model::ObjPos>() as u64;
        let threads = 2usize;
        let opaque = opaque(d.clone());
        let res = mine(cfg, threads, &opaque);
        let p = res.stats.prefetch;
        assert!(p.prefetch_bytes_peak > 0, "store path must prefetch");
        assert!(p.windows_fetched > 0);
        assert!(p.shards > 1, "two windows a shard splits this span");
        // The bound the whole design exists for: one shard holds at most
        // `threads` hop windows, each at most `h + 1` open timestamps of
        // at most every tracked object.
        let h = (cfg.k / 2) as u64;
        let bound = threads as u64 * (h + 1) * num_objects * point_bytes;
        assert!(
            p.prefetch_bytes_peak <= bound,
            "peak {} exceeds O(window x threads) bound {bound}",
            p.prefetch_bytes_peak
        );
        // And it is far below the old single-sweep residency of
        // O(span x union).
        let full_span_bytes = d.span().len() as u64 * num_objects * point_bytes;
        assert!(
            p.prefetch_bytes_peak < full_span_bytes / 2,
            "peak {} is not meaningfully below full-span residency {full_span_bytes}",
            p.prefetch_bytes_peak
        );
        // As many workers as windows make one shard, every window
        // resident at once: the peak can only grow, and the convoys
        // still match.
        let one = mine(cfg, num_windows(&d, cfg), &opaque);
        assert_eq!(one.convoys, res.convoys);
        assert_eq!(one.stats.prefetch.shards, 1);
        assert!(one.stats.prefetch.prefetch_bytes_peak >= p.prefetch_bytes_peak);
        // The dataset fast path never prefetches.
        assert_eq!(
            mine(cfg, threads, &d).stats.prefetch,
            PrefetchStats::default()
        );
    }

    #[test]
    fn finds_planted_convoy() {
        let d = random_dataset(1);
        let cfg = K2Config::new(4, 20, 1.0).unwrap();
        let found: Vec<Convoy> = mine(cfg, 4, &d).convoys;
        assert!(found.iter().any(
            |c| c.objects == k2_model::ObjectSet::from([100, 101, 102, 103])
                && c.lifespan == k2_model::TimeInterval::new(8, 30)
        ));
    }

    #[test]
    fn short_dataset_yields_nothing() {
        let d = random_dataset(2)
            .restrict_time(k2_model::TimeInterval::new(0, 3))
            .unwrap();
        let cfg = K2Config::new(3, 10, 1.0).unwrap();
        assert!(mine(cfg, 4, &d).convoys.is_empty());
    }
}
