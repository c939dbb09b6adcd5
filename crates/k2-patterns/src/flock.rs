//! Flock mining — and the k/2-hop acceleration of it (§7 future work).
//!
//! A *(m, r, k)-flock* (Gudmundsson & van Kreveld) is a set of ≥ `m`
//! objects that stay inside **one disk of radius `r`** for ≥ `k`
//! consecutive timestamps. Flocks differ from convoys in the grouping
//! predicate only; two properties make them an even better fit for
//! benchmark hopping than convoys:
//!
//! * **subset-closure** — any subset of a disk-coverable set is
//!   disk-coverable (the convoy Lemma 2 analogue), and
//! * **self-sufficiency** — whether `O` fits in a disk depends on `O`'s
//!   positions only, never on other objects. Restricted re-checks are
//!   therefore *exact* and the accelerated miner needs **no** final
//!   FC-style validation phase.
//!
//! The accelerated miner is an engine like the convoy miners:
//! [`FlockMiner`] implements [`ConvoyMiner`] and reads a source only
//! through its two §5 access paths — one snapshot scan per benchmark
//! point, restricted `DB[t]|O` probes everywhere else.
//!
//! Per-timestamp maximal disk groups are found with the classic
//! pair-disk enumeration (Vieira et al., "BFE"): every maximal group
//! with ≥ 2 members is contained in a radius-`r` disk whose boundary
//! passes through two of the points, so the two disks through each pair
//! within `2r` are a complete candidate set. Exactness of the disk
//! predicate itself rests on [`min_enclosing_circle`].

use crate::mec::min_enclosing_circle;
use k2_core::benchpoints::{benchmark_points, hop_window, hwmt_order};
use k2_core::merge::merge_spanning;
use k2_core::{ConvoyMiner, MineError, MineOutcome, MineStats};
use k2_model::{Convoy, ConvoySet, Dataset, ObjPos, ObjectSet, Time, TimeInterval};
use k2_storage::{SnapshotSource, StoreResult};
use std::time::Instant;

/// Flock parameters.
#[derive(Debug, Clone, Copy)]
pub struct FlockConfig {
    /// Minimum flock size (≥ 2).
    pub m: usize,
    /// Minimum duration in timestamps (≥ 2).
    pub k: u32,
    /// Disk radius.
    pub r: f64,
}

impl FlockConfig {
    /// Validated constructor.
    pub fn new(m: usize, k: u32, r: f64) -> Self {
        assert!(m >= 2, "flock m must be >= 2");
        assert!(k >= 2, "flock k must be >= 2");
        assert!(r > 0.0 && r.is_finite(), "flock r must be positive");
        Self { m, k, r }
    }
}

/// Flock miner: the k/2-hop-accelerated engine behind [`ConvoyMiner`],
/// plus the exact sweep it is checked against.
///
/// As an engine it reads only the two §5 access paths: one snapshot scan
/// per benchmark point and restricted `DB[t]|O` probes in hop-windows and
/// extension — so it mines a bare [`Dataset`], any store or a clamped
/// pin without copying it.
///
/// ```
/// use k2_core::ConvoyMiner;
/// use k2_patterns::{FlockConfig, FlockMiner};
/// use k2_model::{Dataset, Point};
///
/// // Three objects inside one unit disk for 10 timestamps.
/// let mut pts = Vec::new();
/// for t in 0..10u32 {
///     for oid in 0..3u32 {
///         pts.push(Point::new(oid, t as f64 + oid as f64 * 0.3, 0.0, t));
///     }
/// }
/// let d = Dataset::from_points(&pts).unwrap();
/// let miner = FlockMiner::new(FlockConfig::new(3, 5, 0.5));
/// let flocks = miner.mine(&d).unwrap().convoys;
/// assert_eq!(flocks, miner.mine_sweep(&d)); // the acceleration is exact
/// assert_eq!(flocks.len(), 1);
/// assert_eq!(flocks[0].len(), 10);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FlockMiner {
    config: FlockConfig,
}

impl ConvoyMiner for FlockMiner {
    fn engine_name(&self) -> &'static str {
        "flock-k2hop"
    }

    fn mine(&self, source: &dyn SnapshotSource) -> Result<MineOutcome, MineError> {
        let t0 = Instant::now();
        let convoys = self.flocks(source)?;
        // Pruning counters stay zero: the flock miner does not track its
        // reads, and setting only `total_points` would make
        // `pruning_ratio()` report a false 100%.
        let mut stats = MineStats {
            engine: self.engine_name(),
            threads: 1,
            timings: Default::default(),
            pruning: Default::default(),
            prefetch: Default::default(),
            grid: Default::default(),
        };
        stats.timings.hwmt = t0.elapsed();
        Ok(MineOutcome {
            convoys,
            stats,
            io: source.io_stats(),
        })
    }
}

impl FlockMiner {
    /// Creates a miner.
    pub fn new(config: FlockConfig) -> Self {
        Self { config }
    }

    /// Exact baseline: disk-group every snapshot, sweep left to right
    /// (the BFE join). Returns maximal flocks as [`Convoy`] values.
    pub fn mine_sweep(&self, dataset: &Dataset) -> Vec<Convoy> {
        let FlockConfig { m, k, r } = self.config;
        let mut active: Vec<Convoy> = Vec::new();
        let mut results = ConvoySet::new();
        for (t, snap) in dataset.iter() {
            let groups = disk_groups(snap.positions(), r, m);
            let mut next = ConvoySet::new();
            for v in &active {
                let mut extended_fully = false;
                for g in &groups {
                    let inter = v.objects.intersect(g);
                    if inter.len() >= m {
                        if inter.len() == v.objects.len() {
                            extended_fully = true;
                        }
                        next.update(Convoy::from_parts(inter.ids(), v.start(), t));
                    }
                }
                if !extended_fully && v.len() >= k {
                    results.update(v.clone());
                }
            }
            for g in &groups {
                next.update(Convoy::new(g.clone(), TimeInterval::instant(t)));
            }
            active = next.drain();
        }
        for v in active {
            if v.len() >= k {
                results.update(v);
            }
        }
        results.into_sorted_vec()
    }

    /// k/2-hop-accelerated flock mining: disk-group only the benchmark
    /// snapshots, intersect, validate hop-windows in farthest-first
    /// order, merge, extend. No validation phase is needed (see module
    /// docs). Output is identical to [`FlockMiner::mine_sweep`].
    fn flocks(&self, source: &dyn SnapshotSource) -> StoreResult<Vec<Convoy>> {
        let FlockConfig { m, k, r } = self.config;
        let span = source.span();
        if span.len() < k {
            return Ok(Vec::new());
        }
        let bench = benchmark_points(span, k / 2);

        // Benchmark disk groups.
        let mut buf = Vec::new();
        let mut bench_groups: Vec<Vec<ObjectSet>> = Vec::with_capacity(bench.len());
        for &b in &bench {
            let snap = source.scan_snapshot_ref(b, &mut buf)?;
            bench_groups.push(disk_groups(snap.positions(), r, m));
        }

        // Candidate groups per window (pairwise intersection + maximality;
        // disk groups may overlap, so the inverted-index trick of the
        // convoy pipeline does not apply).
        let mut windows: Vec<Vec<Convoy>> = Vec::with_capacity(bench.len().saturating_sub(1));
        for (w, pair) in bench_groups.windows(2).enumerate() {
            let mut cc: Vec<ObjectSet> = Vec::new();
            for l in &pair[0] {
                for rg in &pair[1] {
                    let inter = l.intersect(rg);
                    if inter.len() >= m && !cc.iter().any(|c| inter.is_subset(c)) {
                        cc.retain(|c| !c.is_subset(&inter));
                        cc.push(inter);
                    }
                }
            }
            windows.push(self.mine_window(source, bench[w], bench[w + 1], &cc)?);
        }

        // Merge and extend (shared with the convoy pipeline).
        let merged = merge_spanning(&windows, m);
        let mut results = ConvoySet::new();
        for v in merged {
            for rightward in self.extend(source, v, true)? {
                for full in self.extend(source, rightward, false)? {
                    if full.len() >= k {
                        results.update(full);
                    }
                }
            }
        }
        Ok(results.into_sorted_vec())
    }

    /// HWMT with the disk predicate: survivors of every window timestamp
    /// in farthest-first order.
    fn mine_window(
        &self,
        source: &dyn SnapshotSource,
        b_left: Time,
        b_right: Time,
        cc: &[ObjectSet],
    ) -> StoreResult<Vec<Convoy>> {
        let FlockConfig { m, r, .. } = self.config;
        if cc.is_empty() {
            return Ok(Vec::new());
        }
        let mut survivors: Vec<ObjectSet> = cc.to_vec();
        let mut positions = Vec::new();
        if let Some(window) = hop_window(b_left, b_right) {
            for t in hwmt_order(window) {
                let mut next: Vec<ObjectSet> = Vec::new();
                for candidate in &survivors {
                    source.multi_get_into(t, candidate.ids(), &mut positions)?;
                    for g in disk_groups(&positions, r, m) {
                        if !next.iter().any(|c| g.is_subset(c)) {
                            next.retain(|c| !c.is_subset(&g));
                            next.push(g);
                        }
                    }
                }
                if next.is_empty() {
                    return Ok(Vec::new());
                }
                survivors = next;
            }
        }
        Ok(survivors
            .into_iter()
            .map(|objects| Convoy::new(objects, TimeInterval::new(b_left, b_right)))
            .collect())
    }

    /// Directed extension with the disk predicate (subset-closure makes
    /// emitted shrunken flocks valid without re-checking the past).
    fn extend(
        &self,
        source: &dyn SnapshotSource,
        seed: Convoy,
        rightward: bool,
    ) -> StoreResult<Vec<Convoy>> {
        let FlockConfig { m, r, .. } = self.config;
        let span = source.span();
        let mut result = ConvoySet::new();
        let mut prev = vec![seed];
        let mut positions = Vec::new();
        loop {
            let frontier = if rightward {
                let te = prev[0].end();
                if te >= span.end {
                    break;
                }
                te + 1
            } else {
                let ts = prev[0].start();
                if ts <= span.start {
                    break;
                }
                ts - 1
            };
            let mut next = ConvoySet::new();
            for v in &prev {
                source.multi_get_into(frontier, v.objects.ids(), &mut positions)?;
                let groups = disk_groups(&positions, r, m);
                if groups.is_empty() {
                    result.update(v.clone());
                    continue;
                }
                let mut intact = false;
                for g in groups {
                    if g == v.objects {
                        intact = true;
                    }
                    let (s, e) = if rightward {
                        (v.start(), frontier)
                    } else {
                        (frontier, v.end())
                    };
                    next.update(Convoy::new(g, TimeInterval::new(s, e)));
                }
                if !intact {
                    result.update(v.clone());
                }
            }
            if next.is_empty() {
                prev.clear();
                break;
            }
            prev = next.drain();
        }
        for v in prev {
            result.update(v);
        }
        Ok(result.into_sorted_vec())
    }
}

/// Maximal sets of ≥ `m` objects coverable by a radius-`r` disk at one
/// snapshot (pair-disk enumeration + MEC verification).
pub fn disk_groups(points: &[ObjPos], r: f64, m: usize) -> Vec<ObjectSet> {
    if points.len() < m {
        return Vec::new();
    }
    let four_r2 = 4.0 * r * r;
    let mut candidates: Vec<ObjectSet> = Vec::new();
    let push_maximal = |set: ObjectSet, candidates: &mut Vec<ObjectSet>| {
        if set.len() >= m && !candidates.iter().any(|c| set.is_subset(c)) {
            candidates.retain(|c| !c.is_subset(&set));
            candidates.push(set);
        }
    };
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            let (p, q) = (&points[i], &points[j]);
            let d2 = p.dist2(q);
            if d2 > four_r2 {
                continue;
            }
            for centre in pair_disk_centres(p, q, r) {
                let members: Vec<u32> = points
                    .iter()
                    .filter(|o| {
                        let dx = o.x - centre.0;
                        let dy = o.y - centre.1;
                        dx * dx + dy * dy <= r * r + 1e-9 * (1.0 + r * r)
                    })
                    .map(|o| o.oid)
                    .collect();
                // Verify exactly with the minimal enclosing circle (the
                // candidate disk over-approximates only by the tolerance).
                let set = largest_coverable(points, members, r, m);
                if let Some(set) = set {
                    push_maximal(set, &mut candidates);
                }
            }
        }
    }
    candidates.sort_by(|a, b| a.ids().cmp(b.ids()));
    candidates
}

/// The two centres of radius-`r` disks whose boundaries pass through `p`
/// and `q` (one centre when `d(p, q) = 2r`).
fn pair_disk_centres(p: &ObjPos, q: &ObjPos, r: f64) -> Vec<(f64, f64)> {
    let (mx, my) = ((p.x + q.x) / 2.0, (p.y + q.y) / 2.0);
    let d = p.dist(q);
    if d < 1e-12 {
        return vec![(p.x, p.y)];
    }
    let h2 = r * r - (d / 2.0) * (d / 2.0);
    if h2 <= 0.0 {
        return vec![(mx, my)];
    }
    let h = h2.sqrt();
    let (ux, uy) = ((q.y - p.y) / d, (p.x - q.x) / d); // unit normal
    vec![(mx + ux * h, my + uy * h), (mx - ux * h, my - uy * h)]
}

/// Confirms (via MEC) that the candidate members fit a radius-`r` disk,
/// dropping the farthest member until they do.
fn largest_coverable(
    points: &[ObjPos],
    mut member_ids: Vec<u32>,
    r: f64,
    m: usize,
) -> Option<ObjectSet> {
    loop {
        if member_ids.len() < m {
            return None;
        }
        let coords: Vec<(f64, f64)> = points
            .iter()
            .filter(|p| member_ids.contains(&p.oid))
            .map(|p| (p.x, p.y))
            .collect();
        let mec = min_enclosing_circle(&coords);
        if mec.r <= r + 1e-9 {
            return Some(ObjectSet::new(member_ids));
        }
        // Drop the member farthest from the MEC centre and retry.
        let farthest = points
            .iter()
            .filter(|p| member_ids.contains(&p.oid))
            .max_by(|a, b| {
                let da = (a.x - mec.x).powi(2) + (a.y - mec.y).powi(2);
                let db = (b.x - mec.x).powi(2) + (b.y - mec.y).powi(2);
                da.partial_cmp(&db).expect("no NaN")
            })
            .map(|p| p.oid)?;
        member_ids.retain(|&o| o != farthest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use k2_model::Point;

    fn pts(coords: &[(u32, f64, f64)]) -> Vec<ObjPos> {
        coords
            .iter()
            .map(|&(oid, x, y)| ObjPos::new(oid, x, y))
            .collect()
    }

    #[test]
    fn disk_groups_basic() {
        // Three points in a unit disk, one far away.
        let points = pts(&[(1, 0.0, 0.0), (2, 0.5, 0.0), (3, 0.0, 0.5), (9, 50.0, 50.0)]);
        let groups = disk_groups(&points, 0.5, 2);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0], ObjectSet::from([1, 2, 3]));
    }

    #[test]
    fn disk_groups_respects_radius_exactly() {
        // Two points exactly 2r apart fit; slightly more do not.
        let fit = pts(&[(1, 0.0, 0.0), (2, 1.0, 0.0)]);
        assert_eq!(disk_groups(&fit, 0.5, 2).len(), 1);
        let no_fit = pts(&[(1, 0.0, 0.0), (2, 1.01, 0.0)]);
        assert!(disk_groups(&no_fit, 0.5, 2).is_empty());
    }

    #[test]
    fn disk_groups_can_overlap() {
        // A chain 0-1-2 where {0,1} and {1,2} each fit a disk but
        // {0,1,2} does not: two maximal overlapping groups.
        let points = pts(&[(0, 0.0, 0.0), (1, 0.9, 0.0), (2, 1.8, 0.0)]);
        let groups = disk_groups(&points, 0.5, 2);
        assert_eq!(groups.len(), 2);
        assert!(groups.contains(&ObjectSet::from([0, 1])));
        assert!(groups.contains(&ObjectSet::from([1, 2])));
    }

    #[test]
    fn disk_vs_density_semantics() {
        // The §2 motivation: a convoy can be an arbitrarily long chain,
        // a flock cannot. A 5-point chain with 0.9-spacing forms one
        // DBSCAN cluster at eps=1 but no single flock disk of radius 1.
        let chain: Vec<ObjPos> = (0..5)
            .map(|i| ObjPos::new(i, i as f64 * 0.9, 0.0))
            .collect();
        let clusters = k2_cluster::dbscan(&chain, k2_cluster::DbscanParams::new(2, 1.0));
        assert_eq!(clusters.len(), 1, "density chain is one cluster");
        assert_eq!(clusters[0].len(), 5);
        let groups = disk_groups(&chain, 1.0, 5);
        assert!(groups.is_empty(), "but no radius-1 disk covers all five");
    }

    fn flock_dataset() -> Dataset {
        // Objects 0,1,2 inside a small disk over [5, 25] of a [0, 39]
        // span; objects 10..13 always far apart.
        let mut out = Vec::new();
        for t in 0..40u32 {
            for oid in 0..3u32 {
                let (x, y) = if (5..=25).contains(&t) {
                    (t as f64 + (oid as f64) * 0.3, (oid % 2) as f64 * 0.3)
                } else {
                    (100.0 + oid as f64 * 30.0, t as f64 * 2.0)
                };
                out.push(Point::new(oid, x, y, t));
            }
            for oid in 10..13u32 {
                out.push(Point::new(oid, oid as f64 * 70.0, 500.0 - t as f64, t));
            }
        }
        Dataset::from_points(&out).unwrap()
    }

    #[test]
    fn sweep_finds_the_flock() {
        let d = flock_dataset();
        let flocks = FlockMiner::new(FlockConfig::new(3, 10, 0.6)).mine_sweep(&d);
        assert_eq!(flocks.len(), 1);
        assert_eq!(flocks[0].objects, ObjectSet::from([0, 1, 2]));
        assert_eq!(flocks[0].lifespan, TimeInterval::new(5, 25));
    }

    /// The engine's flocks over `source`.
    fn hop(miner: &FlockMiner, source: &dyn SnapshotSource) -> Vec<Convoy> {
        miner.mine(source).unwrap().convoys
    }

    #[test]
    fn hop_matches_sweep_on_fixture() {
        let d = flock_dataset();
        let miner = FlockMiner::new(FlockConfig::new(3, 10, 0.6));
        assert_eq!(hop(&miner, &d), miner.mine_sweep(&d));
    }

    #[test]
    fn hop_matches_sweep_on_pseudo_random_data() {
        // Deterministic jittery workload with several parameter choices.
        let mut state = 777u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut out = Vec::new();
        for t in 0..30u32 {
            for oid in 0..12u32 {
                let cell = (next() % 9) as f64;
                out.push(Point::new(oid, cell, ((next() % 9) / 3) as f64, t));
            }
        }
        let d = Dataset::from_points(&out).unwrap();
        for (m, k, r) in [(2usize, 4u32, 1.0), (3, 5, 1.5), (2, 8, 0.8)] {
            let miner = FlockMiner::new(FlockConfig::new(m, k, r));
            assert_eq!(hop(&miner, &d), miner.mine_sweep(&d), "m={m} k={k} r={r}");
        }
    }

    #[test]
    fn flock_shorter_than_k_rejected() {
        let d = flock_dataset();
        let miner = FlockMiner::new(FlockConfig::new(3, 30, 0.6));
        assert!(miner.mine_sweep(&d).is_empty());
        assert!(hop(&miner, &d).is_empty());
    }

    #[test]
    #[should_panic(expected = "m must be >= 2")]
    fn invalid_config_panics() {
        let _ = FlockConfig::new(1, 5, 1.0);
    }
}
