//! # k2-cluster — density-based clustering for convoy mining
//!
//! A from-scratch DBSCAN implementation (Ester et al., KDD 1996) tuned for
//! the access pattern of convoy mining:
//!
//! * [`dbscan`] clusters one snapshot of object positions with parameters
//!   `(m, eps)` — the paper's *(m, eps)-clusters* (Def. 2). Neighbours
//!   come from a uniform grid with cells of side ≥ `eps` ([`GridState`]),
//!   giving expected `O(n)` total work instead of the naive `O(n²)`.
//! * [`recluster`] is the restricted variant `DBSCAN(DB[t]|O)` that the
//!   HWMT, extension and validation phases of k/2-hop call thousands of
//!   times on tiny candidate sets.
//!
//! Clusters are returned as sorted [`ObjectSet`]s of size ≥ `m`; noise
//! points are omitted. [`dbscan_labelling_with`] hands back the same
//! clusters as oid-sorted `(oid, cluster)` pairs instead, for callers
//! that only intersect them (benchmark snapshots).
//!
//! DBSCAN semantics used throughout (matching §3.1 of the paper):
//! the eps-neighbourhood `NH(p, eps)` *includes `p` itself*, a point is a
//! core point iff `|NH(p, eps)| ≥ m`, and a cluster is the maximal set of
//! density-connected points reachable from a core point (border points
//! included). A point with a non-finite coordinate is within eps of
//! nothing, itself included, so it is noise at every `m`.
//!
//! Two labellings, each with one neighbour source:
//!
//! * Sets of more than 24 points are labelled by the core-point graph
//!   formulation of DBSCAN (Gan & Tao, SIGMOD 2015): one sweep over the
//!   grid's eps-pairs ([`GridState::eps_pairs`], each pair exactly once)
//!   counts neighbourhoods, core–core pairs are unioned, and each border
//!   point joins one adjacent core's cluster.
//! * Sets of at most 24 points — the typical `reCluster` probe — skip the
//!   grid: the classic seed-and-expand loop runs over a pairwise scan
//!   ([`dist2_filter_chunked`] over every point). That loop is also the
//!   reference the labelling is tested against
//!   ([`dbscan_reference_with`]).
//!
//! Both assign every point alike, so the output never depends on which
//! one ran.

mod grid;
mod grid_state;

pub use grid::dist2_filter_chunked;
pub use grid_state::{GridCounters, GridState};

use k2_model::{ObjPos, ObjectSet, Oid};

/// Point sets up to this size skip the grid entirely: a direct `O(n²)`
/// pairwise scan beats building any index for the tiny `reCluster`
/// candidates (size ≈ m) that dominate the k/2-hop probe loop.
const SMALL_SNAPSHOT_CUTOFF: usize = 24;

/// Parameters of a `(m, eps)` density clustering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanParams {
    /// Minimum number of points in an eps-neighbourhood for a core point —
    /// and therefore the minimum cluster size. The paper reuses the convoy
    /// size parameter `m` here.
    pub min_pts: usize,
    /// Distance threshold.
    pub eps: f64,
}

impl DbscanParams {
    /// Creates clustering parameters. `min_pts` must be ≥ 1 and `eps`
    /// must be a positive, finite number.
    pub fn new(min_pts: usize, eps: f64) -> Self {
        assert!(min_pts >= 1, "min_pts must be >= 1");
        assert!(eps > 0.0 && eps.is_finite(), "eps must be positive finite");
        Self { min_pts, eps }
    }
}

/// Runs DBSCAN over one snapshot of positions.
///
/// Returns the `(m, eps)`-clusters as sorted object sets, ordered by their
/// smallest member id. Points whose object ids repeat produce unspecified
/// (but deterministic) results — snapshots deduplicate upstream.
///
/// ```
/// use k2_cluster::{dbscan, DbscanParams};
/// use k2_model::{ObjPos, ObjectSet};
///
/// let snapshot = vec![
///     ObjPos::new(1, 0.0, 0.0),
///     ObjPos::new(2, 0.5, 0.0),
///     ObjPos::new(3, 1.0, 0.0),
///     ObjPos::new(9, 50.0, 50.0), // noise
/// ];
/// let clusters = dbscan(&snapshot, DbscanParams::new(3, 0.6));
/// assert_eq!(clusters, vec![ObjectSet::from([1, 2, 3])]);
/// ```
pub fn dbscan(points: &[ObjPos], params: DbscanParams) -> Vec<ObjectSet> {
    dbscan_with(points, params, &mut GridScratch::new())
}

/// Reusable working memory for [`dbscan_with`] / [`recluster_with`].
///
/// One `GridScratch` amortises every allocation of the clustering hot
/// path — the grid's CSR arrays, the visit labels, the BFS frontier and
/// the cluster-gather buffers — across the thousands of `reCluster`
/// probes the HWMT, extension and validation phases issue. Create one per
/// worker (it is cheap and empty until first use) and pass it to every
/// call.
///
/// The grid inside is a reusable [`GridState`]: when consecutive calls
/// cluster *adjacent* snapshots of the same moving population (benchmark
/// clustering, streaming hop boundaries), it re-scatters the points under
/// the previous box and cell side instead of retuning them — see the
/// [`GridState`] docs for the rebuild-or-re-scatter rule. Unrelated point
/// sets simply fail the geometry test and rebuild, so reuse is always
/// safe. [`grid_counters`](Self::grid_counters) reports how often each
/// path ran.
#[derive(Debug, Default)]
pub struct GridScratch {
    grid: GridState,
    label: Vec<u32>,
    neighbours: Vec<u32>,
    frontier: Vec<u32>,
    /// Counting-sort buffers for the final cluster gather; the offsets
    /// double as cluster sizes for [`dbscan_labelling_with`].
    cluster_offsets: Vec<u32>,
    member_oids: Vec<u32>,
    /// Identity candidate list (`0, 1, 2, …`) for the gridless small
    /// path, so it shares the chunked distance kernel (grown on demand,
    /// never shrunk).
    identity: Vec<u32>,
    /// The grid's eps-pairs, kept from the sweep that counts degrees for
    /// the union and attach passes of the labelling.
    pairs: Vec<(u32, u32)>,
    /// Neighbourhood size (self included) per point, same labelling.
    degree: Vec<u32>,
    /// Union-find forest over the core points; a border point's entry
    /// holds the smallest root among its adjacent cores instead.
    parent: Vec<u32>,
}

impl GridScratch {
    /// Creates an empty scratch (no allocation until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Grid-reuse counters of the scratch's [`GridState`], cumulative
    /// since creation (see [`GridCounters`]).
    pub fn grid_counters(&self) -> GridCounters {
        self.grid.counters()
    }
}

/// [`dbscan`] with caller-provided scratch buffers — the allocation-free
/// hot path. Steady state performs no heap allocation beyond the returned
/// clusters themselves (and none at all when no cluster survives, the
/// common outcome of a failed HWMT probe).
pub fn dbscan_with(
    points: &[ObjPos],
    params: DbscanParams,
    scratch: &mut GridScratch,
) -> Vec<ObjectSet> {
    dbscan_impl(points, params, scratch, true)
}

/// [`dbscan_with`] pinned to the seed-and-expand labeling loop over the
/// pairwise scan — no grid and no union-find labelling, whatever the
/// input size. The output is identical; only the cost profile differs
/// (`O(n²)` distance tests).
///
/// This is the reference the labelling is tested against:
/// `tests/properties.rs::union_find_labelling_equals_seed_expand`
/// asserts both return the same clusters on arbitrary snapshots, NaN and
/// ±∞ points included, at every `min_pts` from 1 to 7.
pub fn dbscan_reference_with(
    points: &[ObjPos],
    params: DbscanParams,
    scratch: &mut GridScratch,
) -> Vec<ObjectSet> {
    dbscan_impl(points, params, scratch, false)
}

/// Path-halving find over a forest whose roots only ever point at
/// smaller indices, so every root is the minimum of its tree.
fn find(parent: &mut [u32], mut i: u32) -> u32 {
    loop {
        let p = parent[i as usize];
        if p == i {
            return i;
        }
        let g = parent[p as usize];
        parent[i as usize] = g;
        i = g;
    }
}

/// [`dbscan_with`]'s labelling handed back as `(oid, cluster)` pairs
/// instead of gathered sets: `out` is cleared, then receives one pair per
/// clustered point, ascending by oid. Grouping the pairs by cluster gives
/// exactly [`dbscan_with`]'s clusters — the same labelling runs, and the
/// same size bound drops the same clusters — but no set is gathered or
/// sorted. Cluster numbers are below `points.len()` and otherwise opaque:
/// a cluster the size bound drops leaves a gap.
///
/// This is the form two adjacent benchmark snapshots are intersected in
/// (§4.2): both labellings are oid-sorted, so a merge-join pairs them in
/// one linear pass. Snapshots are oid-ascending, and then the output
/// needs no sort; any other input order is sorted once at the end.
pub fn dbscan_labelling_with(
    points: &[ObjPos],
    params: DbscanParams,
    scratch: &mut GridScratch,
    out: &mut Vec<(Oid, u32)>,
) {
    out.clear();
    let clusters = label_points(points, params, scratch, true);
    if clusters == 0 {
        return;
    }
    let sizes = &mut scratch.cluster_offsets;
    sizes.clear();
    sizes.resize(clusters as usize, 0);
    for &l in &scratch.label {
        if l < NOISE {
            sizes[l as usize] += 1;
        }
    }
    let min_pts = params.min_pts as u32;
    out.reserve(sizes.iter().filter(|&&s| s >= min_pts).sum::<u32>() as usize);
    out.extend(
        points
            .iter()
            .zip(&scratch.label)
            .filter(|&(_, &l)| l < NOISE && sizes[l as usize] >= min_pts)
            .map(|(p, &l)| (p.oid, l)),
    );
    if !out.windows(2).all(|w| w[0].0 < w[1].0) {
        out.sort_unstable_by_key(|&(oid, _)| oid);
    }
}

/// `label` entry of a point not yet reached by seed-and-expand.
const UNVISITED: u32 = u32::MAX;
/// `label` entry of a noise point; cluster numbers are below it.
const NOISE: u32 = u32::MAX - 1;

fn dbscan_impl(
    points: &[ObjPos],
    params: DbscanParams,
    scratch: &mut GridScratch,
    union_find: bool,
) -> Vec<ObjectSet> {
    let cluster_count = label_points(points, params, scratch, union_find);
    if cluster_count == 0 {
        return Vec::new();
    }
    let label = &scratch.label;

    // Gather clusters by counting sort over the labels (no per-cluster
    // Vec allocations); enforce the (m, eps)-cluster size bound. (Every
    // cluster contains a core point whose neighbourhood has >= m members,
    // but at m >= 4 border points an earlier cluster claimed can leave a
    // later one short, and duplicate oids collapse in the dedup below.)
    let offsets = &mut scratch.cluster_offsets;
    offsets.clear();
    offsets.resize(cluster_count as usize + 1, 0);
    for &l in label.iter() {
        if l < NOISE {
            offsets[l as usize + 1] += 1;
        }
    }
    let mut acc = 0u32;
    for o in offsets.iter_mut() {
        acc += *o;
        *o = acc;
    }
    let members = &mut scratch.member_oids;
    members.clear();
    members.resize(acc as usize, 0);
    // Scatter, advancing each cluster's cursor; afterwards `offsets[c]`
    // holds the *end* of cluster c, read shifted as in the CSR grid.
    for (i, &l) in label.iter().enumerate() {
        if l < NOISE {
            let slot = offsets[l as usize];
            members[slot as usize] = points[i].oid;
            offsets[l as usize] += 1;
        }
    }
    let mut out: Vec<ObjectSet> = Vec::with_capacity(cluster_count as usize);
    for c in 0..cluster_count as usize {
        let start = if c == 0 { 0 } else { offsets[c - 1] as usize };
        let slice = &members[start..offsets[c] as usize];
        if slice.len() >= params.min_pts {
            // Members follow the input point order; snapshots and probe
            // restrictions are oid-sorted, so the slice is almost always
            // already strictly ascending. Arbitrary caller input falls
            // back to a sort + dedup.
            out.push(if slice.windows(2).all(|w| w[0] < w[1]) {
                ObjectSet::from_sorted(slice.to_vec())
            } else {
                ObjectSet::new(slice.to_vec())
            });
        }
    }
    out.sort_by(|a, b| a.ids().cmp(b.ids()));
    out
}

/// The one labelling behind every entry point: fills `scratch.label`
/// with a cluster number, or `NOISE`, per point and returns the number
/// of clusters — by union-find over the grid's eps-pairs when
/// `union_find` is set and the set is past the gridless cutoff,
/// otherwise by seed-and-expand over the pairwise scan.
fn label_points(
    points: &[ObjPos],
    params: DbscanParams,
    scratch: &mut GridScratch,
    union_find: bool,
) -> u32 {
    if points.len() < params.min_pts {
        return 0;
    }
    let eps2 = params.eps * params.eps;
    let mut cluster_count: u32 = 0;

    // Tiny probes skip the index entirely (see `SMALL_SNAPSHOT_CUTOFF`).
    if union_find && points.len() > SMALL_SNAPSHOT_CUTOFF {
        // One sweep over the eps-pairs counts every neighbourhood and
        // keeps the pairs; core–core pairs then union toward the smaller
        // root, and each border point joins the adjacent core cluster
        // with the smallest root. This is seed-and-expand's labelling:
        // that loop discovers a cluster from its smallest core index —
        // the root here — and a border point is claimed by the first
        // cluster expanded beside it, i.e. the one with the smallest
        // root. It filters each candidate pair once, where the loop
        // below filters every candidate from both ends.
        let GridScratch {
            grid,
            label,
            neighbours,
            pairs,
            degree,
            parent,
            ..
        } = scratch;
        // Adjacent snapshots of the same population re-scatter under the
        // previous grid's geometry (see `GridState`).
        grid.update(points, params.eps);
        let n = points.len();
        pairs.clear();
        degree.clear();
        if grid.all_finite() {
            degree.resize(n, 1);
        } else {
            // A non-finite point is not its own neighbour.
            degree.extend(points.iter().map(|p| u32::from(p.dist2(p) <= eps2)));
        }
        grid.eps_pairs(points, eps2, neighbours, |a, b| {
            pairs.push((a, b));
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        });
        let min_pts = params.min_pts as u32;
        let is_core = |i: u32| degree[i as usize] >= min_pts;
        // Cores start as their own roots, the rest unattached.
        parent.clear();
        parent.extend((0..n as u32).map(|i| if is_core(i) { i } else { UNVISITED }));
        for &(a, b) in pairs.iter() {
            if is_core(a) && is_core(b) {
                let (ra, rb) = (find(parent, a), find(parent, b));
                if ra != rb {
                    parent[ra.max(rb) as usize] = ra.min(rb);
                }
            }
        }
        // Roots are final now: attach each border point to its smallest
        // adjacent root (`find` never walks a border point's entry).
        for &(a, b) in pairs.iter() {
            let (core, border) = match (is_core(a), is_core(b)) {
                (true, false) => (a, b),
                (false, true) => (b, a),
                _ => continue,
            };
            let r = find(parent, core);
            let slot = &mut parent[border as usize];
            *slot = (*slot).min(r);
        }
        label.clear();
        label.resize(n, NOISE);
        for i in 0..n as u32 {
            if is_core(i) {
                // A root precedes the rest of its cluster, so its label
                // is set by the time a member reads it.
                let r = find(parent, i);
                label[i as usize] = if r == i {
                    cluster_count += 1;
                    cluster_count - 1
                } else {
                    label[r as usize]
                };
            }
        }
        for i in 0..n {
            let r = parent[i];
            if !is_core(i as u32) && r != UNVISITED {
                label[i] = label[r as usize];
            }
        }
    } else {
        let identity = &mut scratch.identity;
        while identity.len() < points.len() {
            identity.push(identity.len() as u32);
        }
        let everyone = &identity[..points.len()];
        let neighbours_of = |idx: usize, out: &mut Vec<u32>| {
            out.clear();
            dist2_filter_chunked(points, everyone, &points[idx], eps2, out);
        };

        let label = &mut scratch.label;
        label.clear();
        label.resize(points.len(), UNVISITED);

        let neighbours = &mut scratch.neighbours;
        let frontier = &mut scratch.frontier;
        frontier.clear();

        for start in 0..points.len() {
            if label[start] != UNVISITED {
                continue;
            }
            neighbours_of(start, neighbours);
            if neighbours.len() < params.min_pts {
                label[start] = NOISE;
                continue;
            }
            // `start` is a core point: expand a new cluster from it.
            let cid = cluster_count;
            cluster_count += 1;
            label[start] = cid;
            frontier.clear();
            for &n in neighbours.iter() {
                let l = label[n as usize];
                if l == UNVISITED || l == NOISE {
                    if l == UNVISITED {
                        frontier.push(n);
                    }
                    label[n as usize] = cid;
                }
            }
            while let Some(q) = frontier.pop() {
                neighbours_of(q as usize, neighbours);
                if neighbours.len() < params.min_pts {
                    continue; // border point: belongs to the cluster, no expansion
                }
                for &n in neighbours.iter() {
                    let l = label[n as usize];
                    if l == UNVISITED || l == NOISE {
                        if l == UNVISITED {
                            frontier.push(n);
                        }
                        label[n as usize] = cid;
                    }
                }
            }
        }
    }
    cluster_count
}

/// The paper's `reCluster`: DBSCAN over a snapshot restricted to the
/// objects of a candidate (`DBSCAN(DB[t]|O)`).
///
/// `restricted` must already be the restriction — this function is a thin
/// semantic alias kept separate so call sites read like the pseudo-code.
#[inline]
pub fn recluster(restricted: &[ObjPos], params: DbscanParams) -> Vec<ObjectSet> {
    dbscan(restricted, params)
}

/// [`recluster`] with caller-provided scratch — the form every hot loop
/// (HWMT, extension, validation) uses.
#[inline]
pub fn recluster_with(
    restricted: &[ObjPos],
    params: DbscanParams,
    scratch: &mut GridScratch,
) -> Vec<ObjectSet> {
    dbscan_with(restricted, params, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(u32, f64, f64)]) -> Vec<ObjPos> {
        coords
            .iter()
            .map(|&(oid, x, y)| ObjPos::new(oid, x, y))
            .collect()
    }

    #[test]
    fn two_well_separated_clusters() {
        let points = pts(&[
            (1, 0.0, 0.0),
            (2, 0.5, 0.0),
            (3, 1.0, 0.0),
            (10, 100.0, 0.0),
            (11, 100.5, 0.0),
            (12, 101.0, 0.0),
        ]);
        let clusters = dbscan(&points, DbscanParams::new(3, 0.6));
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0], ObjectSet::from([1, 2, 3]));
        assert_eq!(clusters[1], ObjectSet::from([10, 11, 12]));
    }

    #[test]
    fn chain_is_density_connected() {
        // A chain of points each within eps of the next: one cluster,
        // even though the endpoints are far apart (shape-free clusters are
        // the motivation for convoys over flocks).
        let points: Vec<ObjPos> = (0..20)
            .map(|i| ObjPos::new(i, i as f64 * 0.9, 0.0))
            .collect();
        let clusters = dbscan(&points, DbscanParams::new(3, 1.0));
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 20);
    }

    #[test]
    fn noise_is_dropped() {
        let points = pts(&[
            (1, 0.0, 0.0),
            (2, 0.1, 0.0),
            (3, 0.2, 0.0),
            (99, 50.0, 50.0),
        ]);
        let clusters = dbscan(&points, DbscanParams::new(3, 0.5));
        assert_eq!(clusters.len(), 1);
        assert!(!clusters[0].contains(99));
    }

    #[test]
    fn too_few_points_returns_nothing() {
        let points = pts(&[(1, 0.0, 0.0), (2, 0.1, 0.0)]);
        assert!(dbscan(&points, DbscanParams::new(3, 1.0)).is_empty());
        assert!(dbscan(&[], DbscanParams::new(1, 1.0)).is_empty());
    }

    #[test]
    fn min_pts_one_makes_every_point_a_cluster() {
        let points = pts(&[(1, 0.0, 0.0), (2, 10.0, 0.0)]);
        let clusters = dbscan(&points, DbscanParams::new(1, 1.0));
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn border_point_joins_exactly_one_cluster() {
        // Object 50 is within eps of both groups' edges; DBSCAN assigns it
        // to whichever cluster claims it first, but it must appear once.
        let points = pts(&[
            (1, 0.0, 0.0),
            (2, 0.4, 0.0),
            (3, 0.8, 0.0),
            (50, 1.2, 0.0), // border, reachable from 3 and 60
            (60, 1.6, 0.0),
            (61, 2.0, 0.0),
            (62, 2.4, 0.0),
        ]);
        let clusters = dbscan(&points, DbscanParams::new(3, 0.45));
        let total: usize = clusters.iter().map(|c| c.len()).sum();
        let appears: usize = clusters.iter().filter(|c| c.contains(50)).count();
        assert_eq!(appears, 1, "border point must be in exactly one cluster");
        assert_eq!(total, 7);
    }

    #[test]
    fn border_point_between_two_clusters_joins_the_first_discovered() {
        // Object 50 reaches one core of each square (0.95 away) but has
        // only three points in its neighbourhood, so at m = 4 it is a
        // border point both clusters can claim: seed-and-expand gives it
        // to the cluster whose smallest core index comes first, and so
        // must the gridded labelling (20 far-apart noise points push the
        // snapshot past the gridless cutoff).
        let a = [
            (1, -0.3, 0.0),
            (2, 0.0, 0.1),
            (3, 0.0, -0.1),
            (4, 0.05, 0.0),
        ];
        let b = [
            (60, 1.95, 0.0),
            (61, 2.0, 0.1),
            (62, 2.0, -0.1),
            (63, 2.3, 0.0),
        ];
        let noise: Vec<(u32, f64, f64)> = (0..20)
            .map(|i| (100 + i, 100.0 + 10.0 * i as f64, 100.0))
            .collect();
        let params = DbscanParams::new(4, 1.0);
        for (first, second, want) in [
            (&a, &b, [vec![1, 2, 3, 4, 50], vec![60, 61, 62, 63]]),
            (&b, &a, [vec![1, 2, 3, 4], vec![50, 60, 61, 62, 63]]),
        ] {
            let mut coords = first.to_vec();
            coords.push((50, 1.0, 0.0));
            coords.extend_from_slice(second);
            coords.extend_from_slice(&noise);
            let points = pts(&coords);
            let want: Vec<ObjectSet> = want.into_iter().map(ObjectSet::new).collect();
            assert_eq!(dbscan(&points, params), want);
            let reference = dbscan_reference_with(&points, params, &mut GridScratch::new());
            assert_eq!(reference, want);
        }
    }

    #[test]
    fn eps_boundary_is_inclusive() {
        // d(p, q) == eps must count (NH uses <=).
        let points = pts(&[(1, 0.0, 0.0), (2, 1.0, 0.0), (3, 2.0, 0.0)]);
        let clusters = dbscan(&points, DbscanParams::new(3, 1.0));
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 3);
    }

    #[test]
    fn neighbourhood_includes_self() {
        // Two coincident points with min_pts = 2: each sees {self, other}.
        let points = pts(&[(1, 5.0, 5.0), (2, 5.0, 5.0)]);
        let clusters = dbscan(&points, DbscanParams::new(2, 0.1));
        assert_eq!(clusters.len(), 1);
    }

    #[test]
    fn paper_figure6_t0_clusters() {
        // Figure 6 of the paper, timestamp 0: clusters {a..j}, {x,y,z},
        // {m,n,o} (letters mapped to ids). Objects in each group are placed
        // within eps of each other; groups far apart.
        let mut coords = Vec::new();
        for i in 0..10u32 {
            coords.push((i, i as f64 * 0.5, 0.0)); // a..j chained
        }
        for (j, i) in (20..23u32).enumerate() {
            coords.push((i, 100.0 + j as f64 * 0.5, 0.0)); // x, y, z
        }
        for (j, i) in (30..33u32).enumerate() {
            coords.push((i, 200.0 + j as f64 * 0.5, 0.0)); // m, n, o
        }
        let clusters = dbscan(&pts(&coords), DbscanParams::new(3, 0.6));
        assert_eq!(clusters.len(), 3);
        assert_eq!(clusters[0].len(), 10);
        assert_eq!(clusters[1], ObjectSet::from([20, 21, 22]));
        assert_eq!(clusters[2], ObjectSet::from([30, 31, 32]));
    }

    #[test]
    fn recluster_restriction_splits_bridge() {
        // {1,2,3} are connected only through 2. Restricting to {1,3}
        // (dropping the bridge) must yield no cluster — the property FC
        // validation relies on.
        let all = pts(&[(1, 0.0, 0.0), (2, 1.0, 0.0), (3, 2.0, 0.0)]);
        let full = dbscan(&all, DbscanParams::new(2, 1.0));
        assert_eq!(full.len(), 1);
        let restricted = pts(&[(1, 0.0, 0.0), (3, 2.0, 0.0)]);
        let sub = recluster(&restricted, DbscanParams::new(2, 1.0));
        assert!(sub.is_empty());
    }

    #[test]
    fn deterministic_output_order() {
        let points = pts(&[(9, 0.0, 0.0), (8, 0.1, 0.0), (3, 5.0, 5.0), (4, 5.1, 5.0)]);
        let a = dbscan(&points, DbscanParams::new(2, 0.5));
        let b = dbscan(&points, DbscanParams::new(2, 0.5));
        assert_eq!(a, b);
        assert_eq!(a[0], ObjectSet::from([3, 4])); // sorted by smallest member
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        // One scratch across wildly different point sets (tiny, large,
        // negative coords) must give identical results to fresh calls.
        let mut scratch = GridScratch::new();
        let small = pts(&[(1, 0.0, 0.0), (2, 0.5, 0.0), (3, 1.0, 0.0)]);
        let large: Vec<ObjPos> = (0..200)
            .map(|i| ObjPos::new(i, (i % 20) as f64 * 0.8 - 7.0, (i / 20) as f64 * 0.8 - 3.0))
            .collect();
        for points in [&small, &large, &small] {
            let params = DbscanParams::new(3, 1.0);
            assert_eq!(
                dbscan_with(points, params, &mut scratch),
                dbscan(points, params)
            );
        }
    }

    #[test]
    fn labelling_is_oid_sorted_and_groups_into_the_clusters() {
        // Two clusters and noise, past the gridless cutoff, fed in
        // descending oid order so the labelling has to sort.
        let mut points: Vec<ObjPos> = (0..30u32)
            .map(|i| match i {
                0..=9 => ObjPos::new(i, i as f64 * 0.5, 0.0),
                10..=19 => ObjPos::new(i, i as f64 * 0.5, 100.0),
                _ => ObjPos::new(i, i as f64 * 10.0, 500.0),
            })
            .collect();
        points.reverse();
        let params = DbscanParams::new(3, 0.6);
        let mut out = vec![(99, 99)]; // stale content is cleared
        dbscan_labelling_with(&points, params, &mut GridScratch::new(), &mut out);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(out.len(), 20);
        let (a, b) = (out[0].1, out[10].1);
        assert_ne!(a, b);
        assert!(out[..10].iter().all(|&(_, l)| l == a));
        assert!(out[10..].iter().all(|&(_, l)| l == b));
    }

    #[test]
    fn a_core_whose_borders_were_claimed_is_dropped_from_both_outputs() {
        // At m = 4, core point 15 at the origin has three neighbours
        // (12–14), each a border point that an earlier square already
        // claimed, so its own cluster is {15} — below the size bound in
        // the gathered sets and in the labelling alike. Twenty far-apart
        // noise points push the set past the gridless cutoff.
        let mut points = Vec::new();
        for (i, (dx, dy)) in [(1.0f64, 0.0f64), (-1.0, 0.0), (0.0, 1.0)]
            .into_iter()
            .enumerate()
        {
            for (j, (ox, oy)) in [(1.8, 0.0), (2.3, 0.0), (2.2, 0.4), (2.2, -0.4)]
                .into_iter()
                .enumerate()
            {
                let oid = (4 * i + j) as u32;
                points.push(ObjPos::new(oid, ox * dx - oy * dy, ox * dy + oy * dx));
            }
        }
        for (oid, (x, y)) in [(12, (0.9, 0.0)), (13, (-0.9, 0.0)), (14, (0.0, 0.9))] {
            points.push(ObjPos::new(oid, x, y));
        }
        points.push(ObjPos::new(15, 0.0, 0.0));
        points.extend((0..20).map(|n| ObjPos::new(100 + n, 500.0 + 10.0 * n as f64, 500.0)));
        let params = DbscanParams::new(4, 1.0);
        let want: Vec<ObjectSet> = [[0, 1, 2, 3, 12], [4, 5, 6, 7, 13], [8, 9, 10, 11, 14]]
            .into_iter()
            .map(ObjectSet::from)
            .collect();
        assert_eq!(dbscan(&points, params), want);
        let mut out = Vec::new();
        dbscan_labelling_with(&points, params, &mut GridScratch::new(), &mut out);
        let oids: Vec<u32> = out.iter().map(|&(oid, _)| oid).collect();
        assert_eq!(oids, (0..15).collect::<Vec<u32>>());
    }

    #[test]
    fn small_and_grid_paths_agree_at_the_cutoff() {
        // n = cutoff uses the pairwise scan, n = cutoff + 1 the grid; both
        // must produce the same clusters on the same geometry.
        for n in [SMALL_SNAPSHOT_CUTOFF, SMALL_SNAPSHOT_CUTOFF + 1] {
            let points: Vec<ObjPos> = (0..n)
                .map(|i| ObjPos::new(i as u32, (i % 5) as f64 * 0.9, (i / 5) as f64 * 0.9))
                .collect();
            let params = DbscanParams::new(3, 1.0);
            let clusters = dbscan(&points, params);
            assert_eq!(clusters.len(), 1, "n = {n}");
            assert_eq!(clusters[0].len(), n, "n = {n}");
        }
    }

    #[test]
    fn non_finite_points_are_noise_at_every_min_pts() {
        // A row of points 0.5 apart with NaN and ±∞ members, below and
        // above the gridless cutoff: the non-finite ones join no cluster,
        // not even a singleton at min_pts = 1.
        for n in [SMALL_SNAPSHOT_CUTOFF, 3 * SMALL_SNAPSHOT_CUTOFF] {
            let mut points: Vec<ObjPos> = (0..n as u32)
                .map(|i| ObjPos::new(i, i as f64 * 0.5, 0.0))
                .collect();
            points[3].x = f64::NAN;
            points[8].y = f64::INFINITY;
            points[9].x = f64::NEG_INFINITY;
            for min_pts in 1..4 {
                let params = DbscanParams::new(min_pts, 1.0);
                let clusters = dbscan(&points, params);
                for oid in [3, 8, 9] {
                    assert!(clusters.iter().all(|c| !c.contains(oid)), "n {n}");
                }
                let members: usize = clusters.iter().map(|c| c.len()).sum();
                assert_eq!(members, n - 3, "n {n}, min_pts {min_pts}");
                let reference = dbscan_reference_with(&points, params, &mut GridScratch::new());
                assert_eq!(clusters, reference, "n {n}, min_pts {min_pts}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "eps")]
    fn invalid_eps_panics() {
        let _ = DbscanParams::new(3, 0.0);
    }

    #[test]
    #[should_panic(expected = "min_pts")]
    fn invalid_min_pts_panics() {
        let _ = DbscanParams::new(0, 1.0);
    }
}
