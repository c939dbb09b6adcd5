//! Instrumentation: phase timings (Figure 8i), pruning statistics
//! (Table 5), and the grid-reuse counters of benchmark clustering.

use k2_cluster::GridCounters;
use std::time::Duration;

/// Wall-clock time spent in each phase of Algorithm 1.
///
/// Figure 8i of the paper plots exactly this breakdown (benchmark
/// clustering and candidate intersection are folded into `benchmark` as in
/// the paper's "rest of the phases take negligible time").
///
/// Steps 3–5 run as one sweep over the hop-windows, a step of windows at
/// a time (one window on a disk engine), so `hwmt`, `merge`,
/// `extend_right` and `extend_left` are each the sum of that phase's
/// durations over the steps, not one contiguous interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Step 1: DBSCAN at the benchmark points.
    pub benchmark: Duration,
    /// Step 2: set-wise intersection into candidate clusters.
    pub intersect: Duration,
    /// Step 3: hop-window mining (HWMT).
    pub hwmt: Duration,
    /// Step 4: DCM merge into maximal spanning convoys.
    pub merge: Duration,
    /// Step 5a: extendRight.
    pub extend_right: Duration,
    /// Step 5b: extendLeft.
    pub extend_left: Duration,
    /// Step 6: HWMT* validation.
    pub validation: Duration,
}

impl PhaseTimings {
    /// Total mining time.
    pub fn total(&self) -> Duration {
        self.benchmark
            + self.intersect
            + self.hwmt
            + self.merge
            + self.extend_right
            + self.extend_left
            + self.validation
    }

    /// `(label, duration)` rows in pipeline order — for reports.
    pub fn rows(&self) -> [(&'static str, Duration); 7] {
        [
            ("benchmark-clustering", self.benchmark),
            ("intersect", self.intersect),
            ("hwmt", self.hwmt),
            ("merge", self.merge),
            ("extend-right", self.extend_right),
            ("extend-left", self.extend_left),
            ("validation", self.validation),
        ]
    }
}

/// How much of the dataset the run actually touched (Table 5: "k/2-hop is
/// able to prune more than 99% of the data in most cases").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruningStats {
    /// Total points in the dataset.
    pub total_points: u64,
    /// Points scanned at benchmark timestamps (full snapshots).
    pub benchmark_points: u64,
    /// Points fetched for HWMT re-clustering.
    pub hwmt_points: u64,
    /// Points fetched during extension.
    pub extend_points: u64,
    /// Points validation examined at every timestamp HWMT\* checked a
    /// set `O` at: the points read there, or `|O|` where the run's record
    /// of intact reclusters already answered `[O]` (which a read would
    /// have returned) — the paper's Table 5 accounting of work done. What
    /// validation actually read shows in the source's
    /// `IoStats::point_queries`.
    pub validation_points: u64,
    /// Number of benchmark timestamps clustered.
    pub benchmark_timestamps: u32,
    /// Candidate clusters after intersection (all windows).
    pub candidate_clusters: u32,
    /// 1st-order spanning convoys (all windows).
    pub spanning_convoys: u32,
    /// Maximal spanning convoys after the merge.
    pub merged_convoys: u32,
    /// Candidates entering validation (Figure 8j's "pre-validation
    /// convoys").
    pub pre_validation_convoys: u32,
}

impl PruningStats {
    /// Total points processed (the paper's "points processed" rows).
    pub fn points_processed(&self) -> u64 {
        self.benchmark_points + self.hwmt_points + self.extend_points + self.validation_points
    }

    /// Fraction of the dataset *pruned* — never fetched. Note that points
    /// fetched twice count twice in `points_processed`, matching the
    /// paper's accounting of work done rather than bytes stored.
    pub fn pruning_ratio(&self) -> f64 {
        if self.total_points == 0 {
            return 0.0;
        }
        let processed = self.points_processed().min(self.total_points);
        1.0 - processed as f64 / self.total_points as f64
    }
}

/// What the benchmark harness still reads as `core.prefetch_bytes_peak`.
/// No engine prefetches, so it is always zero; ROADMAP item 1(d3)
/// deletes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Always 0.
    pub prefetch_bytes_peak: u64,
}

/// Grid-reuse discipline of the benchmark-clustering phase — how often
/// the per-worker [`GridState`](k2_cluster::GridState) served an update by
/// re-scattering under the previous snapshot's grid geometry instead of
/// rebuilding it.
///
/// The counters cover step 1 (benchmark clustering) only: that is the
/// phase whose adjacent-snapshot structure the incremental grid exploits,
/// and scoping them there keeps the numbers comparable across engines.
/// They are deterministic for a fixed workload, configuration and thread
/// count — the patch-or-rebuild decision depends only on the data — so
/// `tests/golden_convoys.rs` pins `(grid_builds, grid_patches)` of the
/// 1-thread run per workload, which keeps the fast path from silently
/// regressing to always-rebuild.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridStats {
    /// Full grid rebuilds (extent retune + counting sort), including the
    /// first build of every run.
    pub grid_builds: u64,
    /// Updates served by a patch: the re-scatter that keeps the box and
    /// cell side but lays every point out again.
    pub grid_patches: u64,
    /// Total cell changes the patches absorbed (points whose cell
    /// changed, plus appended and dropped points).
    pub cells_moved: u64,
}

impl From<GridCounters> for GridStats {
    fn from(c: GridCounters) -> Self {
        GridStats {
            grid_builds: c.builds,
            grid_patches: c.patches,
            cells_moved: c.cells_moved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_stats_from_counters() {
        let s: GridStats = GridCounters {
            builds: 2,
            patches: 17,
            cells_moved: 420,
        }
        .into();
        assert_eq!(
            s,
            GridStats {
                grid_builds: 2,
                grid_patches: 17,
                cells_moved: 420
            }
        );
    }

    #[test]
    fn timings_total_sums_phases() {
        let t = PhaseTimings {
            benchmark: Duration::from_millis(10),
            intersect: Duration::from_millis(1),
            hwmt: Duration::from_millis(50),
            merge: Duration::from_millis(2),
            extend_right: Duration::from_millis(5),
            extend_left: Duration::from_millis(4),
            validation: Duration::from_millis(3),
        };
        assert_eq!(t.total(), Duration::from_millis(75));
        assert_eq!(t.rows().len(), 7);
        assert_eq!(t.rows()[2].0, "hwmt");
    }

    #[test]
    fn pruning_ratio() {
        let s = PruningStats {
            total_points: 1000,
            benchmark_points: 5,
            hwmt_points: 3,
            extend_points: 1,
            validation_points: 1,
            ..Default::default()
        };
        assert_eq!(s.points_processed(), 10);
        assert!((s.pruning_ratio() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn pruning_ratio_clamps_at_zero() {
        let s = PruningStats {
            total_points: 10,
            benchmark_points: 100,
            ..Default::default()
        };
        assert_eq!(s.pruning_ratio(), 0.0);
        let empty = PruningStats::default();
        assert_eq!(empty.pruning_ratio(), 0.0);
    }
}
