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
//! So [`FlockMiner`] is `k2-core`'s [`K2Hop`] with a disk grouping in
//! place of DBSCAN: the same Algorithm 1, its thread fan-out, its
//! one-window sweep over disk stores and its counters. The grouping
//! says four things. A snapshot, or a `DB[t]|O` probe, is grouped into
//! its maximal disk groups ([`disk_groups`]). Disk groups overlap, so
//! step 2 intersects two benchmark groupings pair by pair and keeps the
//! maximal intersections, and HWMT keeps its survivors maximal. And
//! step 6 does not run.
//!
//! Per-timestamp maximal disk groups are found with the classic
//! pair-disk enumeration (Vieira et al., "BFE"): every maximal group
//! with ≥ 2 members is contained in a radius-`r` disk whose boundary
//! passes through two of the points, so the two disks through each pair
//! within `2r` are a complete candidate set. Exactness of the disk
//! predicate itself rests on [`min_enclosing_circle`].

use crate::mec::min_enclosing_circle;
use k2_cluster::GridScratch;
use k2_core::candidates::CandidateScratch;
use k2_core::{ConvoyMiner, Grouping, K2Config, K2Hop, MineError, MineOutcome};
use k2_model::{Convoy, ConvoySet, Dataset, ObjPos, ObjectSet, TimeInterval};
use k2_storage::SnapshotSource;

/// Flock miner: [`K2Hop`] over radius-`r` disks, plus the exact sweep
/// it is checked against.
///
/// It reads the [`K2Config`] as `m`, `k` and the disk radius `r = eps`.
/// As an engine it reads only the two §5 access paths — one snapshot
/// scan per benchmark point and restricted `DB[t]|O` probes in
/// hop-windows and extension — so it mines a bare [`Dataset`], any store
/// or a clamped pin without copying it.
///
/// ```
/// use k2_core::{ConvoyMiner, K2Config};
/// use k2_patterns::FlockMiner;
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
/// let miner = FlockMiner::new(K2Config::new(3, 5, 0.5).unwrap());
/// let flocks = miner.mine(&d).unwrap().convoys;
/// assert_eq!(flocks, miner.mine_sweep(&d)); // the acceleration is exact
/// assert_eq!(flocks.len(), 1);
/// assert_eq!(flocks[0].len(), 10);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FlockMiner(K2Hop<Disks>);

impl ConvoyMiner for FlockMiner {
    fn engine_name(&self) -> &'static str {
        Disks::ENGINE
    }

    fn mine(&self, source: &dyn SnapshotSource) -> Result<MineOutcome, MineError> {
        self.0.run(source)
    }
}

impl FlockMiner {
    /// A miner with one worker per available core.
    pub fn new(config: K2Config) -> Self {
        Self::over_disks(K2Hop::new(config))
    }

    /// A miner with an explicit worker count (≥ 1; 1 runs the whole
    /// pipeline on the calling thread).
    pub fn with_threads(config: K2Config, threads: usize) -> Self {
        Self::over_disks(K2Hop::with_threads(config, threads))
    }

    /// `miner` grouping by disks of radius `eps` instead of DBSCAN.
    fn over_disks(miner: K2Hop) -> Self {
        let K2Config { m, eps: r, .. } = miner.config();
        Self(miner.with_grouping(Disks { r, m }))
    }

    /// Exact baseline: disk-group every snapshot, sweep left to right
    /// (the BFE join). Returns maximal flocks as [`Convoy`] values.
    pub fn mine_sweep(&self, dataset: &Dataset) -> Vec<Convoy> {
        let K2Config { m, k, eps: r } = self.0.config();
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
}

/// The flock grouping: maximal sets of ≥ `m` objects inside one
/// radius-`r` disk.
#[derive(Debug, Clone, Copy)]
struct Disks {
    r: f64,
    m: usize,
}

impl Grouping for Disks {
    type Groups = Vec<ObjectSet>;

    const ENGINE: &'static str = "flock-k2hop";
    const OVERLAPPING: bool = true;
    const VALIDATES: bool = false;

    fn min_size(&self) -> usize {
        self.m
    }

    fn group(&self, snapshot: &[ObjPos], _: &mut GridScratch) -> Self::Groups {
        disk_groups(snapshot, self.r, self.m)
    }

    /// Pairwise intersection, kept maximal: disk groups overlap, so the
    /// merge-join of disjoint labellings does not apply.
    fn join(
        &self,
        left: &Self::Groups,
        right: &Self::Groups,
        _: &mut CandidateScratch,
    ) -> Vec<ObjectSet> {
        let mut cc = Vec::new();
        for l in left {
            for g in right {
                push_maximal(&mut cc, l.intersect(g), self.m);
            }
        }
        cc
    }

    fn regroup(&self, positions: &[ObjPos], _: &mut GridScratch) -> Vec<ObjectSet> {
        disk_groups(positions, self.r, self.m)
    }
}

/// Adds `set` to `sets` if it has at least `m` objects and no member of
/// `sets` contains it, dropping the members it contains.
fn push_maximal(sets: &mut Vec<ObjectSet>, set: ObjectSet, m: usize) {
    if set.len() >= m && !sets.iter().any(|c| set.is_subset(c)) {
        sets.retain(|c| !c.is_subset(&set));
        sets.push(set);
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
                    push_maximal(&mut candidates, set, m);
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
        let flocks = FlockMiner::new(K2Config::new(3, 10, 0.6).unwrap()).mine_sweep(&d);
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
        let miner = FlockMiner::new(K2Config::new(3, 10, 0.6).unwrap());
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
            let miner = FlockMiner::new(K2Config::new(m, k, r).unwrap());
            assert_eq!(hop(&miner, &d), miner.mine_sweep(&d), "m={m} k={k} r={r}");
        }
    }

    #[test]
    fn flock_shorter_than_k_rejected() {
        let d = flock_dataset();
        let miner = FlockMiner::new(K2Config::new(3, 30, 0.6).unwrap());
        assert!(miner.mine_sweep(&d).is_empty());
        assert!(hop(&miner, &d).is_empty());
    }
}
