//! CuTS — Convoy discovery using Trajectory Simplification
//! (Jeung et al., VLDB 2008).
//!
//! The filter-and-refine baseline:
//!
//! 1. **Simplify**: each object's sub-trajectory inside a `λ`-timestamp
//!    partition is simplified with Douglas–Peucker at tolerance `δ`
//!    (`O(T²)` worst case per trajectory — the cost §2 of the k/2-hop
//!    paper calls out).
//! 2. **Filter**: per partition, density-cluster the simplified
//!    sub-trajectories under the *trajectory distance* (minimum distance
//!    between the two polylines) with the widened threshold
//!    `eps' = eps + 2δ`. Widening by twice the tolerance guarantees no
//!    false dismissals: each polyline strays at most `δ` from its source
//!    points, so two objects ever within `eps` have polylines within
//!    `eps + 2δ`.
//! 3. **Refine**: run the exact snapshot sweep (PCCD) on the dataset
//!    restricted to objects that survived the filter in each partition.
//!
//! Output semantics match CMC/PCCD: partially-connected convoys.

use crate::sweep::{snapshot_sweep, SeedRule};
use k2_cluster::{DbscanParams, GridState};
use k2_core::PruningStats;
use k2_model::{ConvoySet, Dataset, ObjPos, Oid, Snapshot};
use k2_storage::{InMemoryStore, SnapshotSource, StoreResult};
use std::collections::{HashMap, HashSet};

/// CuTS tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct CutsParams {
    /// Temporal partition length λ (timestamps).
    pub lambda: u32,
    /// Douglas–Peucker tolerance δ (same unit as coordinates).
    pub delta: f64,
}

impl Default for CutsParams {
    fn default() -> Self {
        Self {
            lambda: 32,
            delta: 0.0,
        }
    }
}

/// Runs CuTS end to end; every point either phase reads counts in
/// `pruning.benchmark_points`.
pub(crate) fn mine(
    store: &dyn SnapshotSource,
    params: DbscanParams,
    k: u32,
    cuts: CutsParams,
    pruning: &mut PruningStats,
) -> StoreResult<ConvoySet> {
    let span = store.span();
    let lambda = cuts.lambda.max(1);
    let (m, eps) = (params.min_pts, params.eps);

    // Filter phase, one λ-partition at a time.
    let mut retained: Vec<Snapshot> = Vec::with_capacity(span.len() as usize);
    let mut scan_buf = Vec::new();
    let mut window_start = span.start;
    loop {
        let window_end = window_start.saturating_add(lambda - 1).min(span.end);
        let mut snapshots: Vec<Vec<ObjPos>> = Vec::new();
        let mut trajectories: HashMap<Oid, Vec<(f64, f64)>> = HashMap::new();
        for t in window_start..=window_end {
            let snap = store.scan_snapshot_ref(t, &mut scan_buf)?.to_vec();
            pruning.benchmark_points += snap.len() as u64;
            for p in &snap {
                trajectories.entry(p.oid).or_default().push((p.x, p.y));
            }
            snapshots.push(snap);
        }
        let mut oids: Vec<Oid> = trajectories.keys().copied().collect();
        oids.sort_unstable();
        let polylines: Vec<Vec<(f64, f64)>> = oids
            .iter()
            .map(|oid| douglas_peucker(&trajectories[oid], cuts.delta))
            .collect();
        let eps_prime = eps + 2.0 * cuts.delta;
        let survivors = cluster_trajectories(&polylines, m, eps_prime);
        let keep: HashSet<Oid> = survivors.into_iter().map(|i| oids[i]).collect();
        for snap in snapshots {
            let filtered: Vec<ObjPos> =
                snap.into_iter().filter(|p| keep.contains(&p.oid)).collect();
            retained.push(Snapshot::from_sorted(filtered));
        }
        if window_end == span.end {
            break;
        }
        window_start = window_end + 1;
    }

    // Refinement on the filtered dataset.
    let filtered = Dataset::from_snapshots(span.start, retained);
    let filtered_store = InMemoryStore::new(filtered);
    snapshot_sweep(&filtered_store, params, k, SeedRule::EveryCluster, pruning)
}

/// Douglas–Peucker polyline simplification with tolerance `delta`.
///
/// `delta = 0` keeps every point (lossless, slower filter).
pub fn douglas_peucker(points: &[(f64, f64)], delta: f64) -> Vec<(f64, f64)> {
    if points.len() <= 2 || delta <= 0.0 {
        return points.to_vec();
    }
    let mut keep = vec![false; points.len()];
    keep[0] = true;
    keep[points.len() - 1] = true;
    let mut stack = vec![(0usize, points.len() - 1)];
    while let Some((lo, hi)) = stack.pop() {
        if hi <= lo + 1 {
            continue;
        }
        let (mut max_d2, mut max_i) = (0.0f64, lo + 1);
        for (i, p) in points.iter().enumerate().take(hi).skip(lo + 1) {
            let d2 = point_segment_dist2(*p, points[lo], points[hi]);
            if d2 > max_d2 {
                max_d2 = d2;
                max_i = i;
            }
        }
        if max_d2 > delta * delta {
            keep[max_i] = true;
            stack.push((lo, max_i));
            stack.push((max_i, hi));
        }
    }
    points
        .iter()
        .zip(&keep)
        .filter(|(_, &kept)| kept)
        .map(|(p, _)| *p)
        .collect()
}

/// Density clustering over polylines with the min-distance metric;
/// returns the indices of polylines in clusters of size ≥ `m`.
///
/// Candidate pairs come from a grid over polyline vertices plus an
/// eps-inflated bounding-box overlap test; only candidates pay the exact
/// polyline distance.
fn cluster_trajectories(polylines: &[Vec<(f64, f64)>], m: usize, eps: f64) -> Vec<usize> {
    let n = polylines.len();
    if n < m {
        return Vec::new();
    }
    let mut vertex_points: Vec<ObjPos> = Vec::new();
    for (i, poly) in polylines.iter().enumerate() {
        for &(x, y) in poly {
            vertex_points.push(ObjPos::new(i as Oid, x, y));
        }
    }
    let mut grid = GridState::new();
    grid.update(&vertex_points, eps.max(f64::MIN_POSITIVE));
    let mut vertex_near: Vec<HashSet<u32>> = vec![HashSet::new(); n];
    grid.eps_pairs(&vertex_points, eps * eps, &mut Vec::new(), |a, b| {
        let (oa, ob) = (vertex_points[a as usize].oid, vertex_points[b as usize].oid);
        if oa != ob {
            vertex_near[oa as usize].insert(ob);
            vertex_near[ob as usize].insert(oa);
        }
    });
    let boxes: Vec<(f64, f64, f64, f64)> = polylines.iter().map(|p| bbox(p)).collect();
    let eps2 = eps * eps;
    let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            let near = vertex_near[i].contains(&(j as u32))
                || (boxes_overlap(boxes[i], boxes[j], eps)
                    && polyline_dist2(&polylines[i], &polylines[j]) <= eps2);
            if near {
                adjacency[i].push(j as u32);
                adjacency[j].push(i as u32);
            }
        }
    }
    // DBSCAN over the trajectory-proximity graph (neighbourhood includes
    // the trajectory itself).
    let mut survivors = Vec::new();
    let mut visited = vec![false; n];
    for start in 0..n {
        if visited[start] || adjacency[start].len() + 1 < m {
            continue;
        }
        let mut component = Vec::new();
        let mut stack = vec![start as u32];
        visited[start] = true;
        while let Some(u) = stack.pop() {
            component.push(u as usize);
            if adjacency[u as usize].len() + 1 < m {
                continue; // border trajectory: joins but does not expand
            }
            for &v in &adjacency[u as usize] {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        if component.len() >= m {
            survivors.extend(component);
        }
    }
    survivors
}

fn bbox(poly: &[(f64, f64)]) -> (f64, f64, f64, f64) {
    let mut b = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
    for &(x, y) in poly {
        b.0 = b.0.min(x);
        b.1 = b.1.min(y);
        b.2 = b.2.max(x);
        b.3 = b.3.max(y);
    }
    b
}

fn boxes_overlap(a: (f64, f64, f64, f64), b: (f64, f64, f64, f64), eps: f64) -> bool {
    a.0 - eps <= b.2 && b.0 - eps <= a.2 && a.1 - eps <= b.3 && b.1 - eps <= a.3
}

/// Segment list of a polyline; a single point yields one degenerate
/// segment.
fn segments(poly: &[(f64, f64)]) -> impl Iterator<Item = ((f64, f64), (f64, f64))> + '_ {
    let n = poly.len();
    (0..n.max(2) - 1).map(move |i| {
        let a = poly[i.min(n - 1)];
        let b = poly[(i + 1).min(n - 1)];
        (a, b)
    })
}

/// Squared minimum distance between two polylines.
pub fn polyline_dist2(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let mut best = f64::MAX;
    for (p1, p2) in segments(a) {
        for (q1, q2) in segments(b) {
            best = best.min(segment_segment_dist2(p1, p2, q1, q2));
            if best == 0.0 {
                return 0.0;
            }
        }
    }
    best
}

/// Squared distance from point `p` to segment `[a, b]`.
fn point_segment_dist2(p: (f64, f64), a: (f64, f64), b: (f64, f64)) -> f64 {
    let (dx, dy) = (b.0 - a.0, b.1 - a.1);
    let len2 = dx * dx + dy * dy;
    let t = if len2 == 0.0 {
        0.0
    } else {
        (((p.0 - a.0) * dx + (p.1 - a.1) * dy) / len2).clamp(0.0, 1.0)
    };
    let (ex, ey) = (p.0 - (a.0 + t * dx), p.1 - (a.1 + t * dy));
    ex * ex + ey * ey
}

/// Squared minimum distance between segments `[p1,p2]` and `[q1,q2]`.
fn segment_segment_dist2(p1: (f64, f64), p2: (f64, f64), q1: (f64, f64), q2: (f64, f64)) -> f64 {
    if segments_intersect(p1, p2, q1, q2) {
        return 0.0;
    }
    point_segment_dist2(p1, q1, q2)
        .min(point_segment_dist2(p2, q1, q2))
        .min(point_segment_dist2(q1, p1, p2))
        .min(point_segment_dist2(q2, p1, p2))
}

fn orient(a: (f64, f64), b: (f64, f64), c: (f64, f64)) -> f64 {
    (b.0 - a.0) * (c.1 - a.1) - (b.1 - a.1) * (c.0 - a.0)
}

fn segments_intersect(p1: (f64, f64), p2: (f64, f64), q1: (f64, f64), q2: (f64, f64)) -> bool {
    let d1 = orient(q1, q2, p1);
    let d2 = orient(q1, q2, p2);
    let d3 = orient(p1, p2, q1);
    let d4 = orient(p1, p2, q2);
    ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, Algorithm};
    use k2_model::{Dataset, Point};

    #[test]
    fn dp_keeps_endpoints_and_straight_lines_collapse() {
        let line: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 0.0)).collect();
        let simp = douglas_peucker(&line, 0.5);
        assert_eq!(simp, vec![(0.0, 0.0), (9.0, 0.0)]);
    }

    #[test]
    fn dp_keeps_significant_corners() {
        let pts = vec![(0.0, 0.0), (5.0, 5.0), (10.0, 0.0)];
        let simp = douglas_peucker(&pts, 1.0);
        assert_eq!(simp, pts);
    }

    #[test]
    fn dp_zero_tolerance_is_identity() {
        let pts = vec![(0.0, 0.0), (1.0, 0.2), (2.0, -0.1)];
        assert_eq!(douglas_peucker(&pts, 0.0), pts);
    }

    #[test]
    fn dp_error_bounded_by_delta() {
        // Noisy sine-ish path: every original point must lie within delta
        // of the simplified polyline.
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| (i as f64, (i as f64 * 0.7).sin() * 3.0))
            .collect();
        let delta = 0.8;
        let simp = douglas_peucker(&pts, delta);
        for p in &pts {
            let d2 = polyline_dist2(&[*p], &simp);
            assert!(
                d2.sqrt() <= delta + 1e-9,
                "point {p:?} is {} from the polyline",
                d2.sqrt()
            );
        }
    }

    #[test]
    fn segment_distance_basics() {
        let d = segment_segment_dist2((0.0, 0.0), (2.0, 0.0), (0.0, 1.0), (2.0, 1.0));
        assert!((d - 1.0).abs() < 1e-12);
        let d = segment_segment_dist2((0.0, 0.0), (2.0, 2.0), (0.0, 2.0), (2.0, 0.0));
        assert_eq!(d, 0.0);
    }

    #[test]
    fn polyline_distance_of_point_polylines() {
        let a = vec![(0.0, 0.0)];
        let b = vec![(3.0, 4.0)];
        assert!((polyline_dist2(&a, &b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn cuts_matches_pccd_on_convoy_data() {
        // Convoy of 3 + noise; CuTS (filter + refine) must find the same
        // convoys as plain PCCD.
        let mut pts = Vec::new();
        for t in 0..40u32 {
            for oid in 0..3u32 {
                pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
            }
            for oid in 10..14u32 {
                pts.push(Point::new(
                    oid,
                    300.0 + oid as f64 * 40.0 + t as f64 * (oid % 3 + 1) as f64,
                    900.0 - t as f64,
                    t,
                ));
            }
        }
        let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
        let exact = run(Algorithm::Pccd, &store, 3, 10, 1.0);
        let cuts = run(
            Algorithm::Cuts(CutsParams {
                lambda: 16,
                delta: 0.2,
            }),
            &store,
            3,
            10,
            1.0,
        );
        assert_eq!(cuts.convoys, exact.convoys);
        assert_eq!(cuts.convoys.len(), 1);
    }

    #[test]
    fn cuts_filter_drops_isolated_wanderers() {
        let mut pts = Vec::new();
        for t in 0..32u32 {
            for oid in 0..3u32 {
                pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
            }
            pts.push(Point::new(99, 5000.0 + t as f64 * 10.0, -4000.0, t));
        }
        let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
        let res = run(
            Algorithm::Cuts(CutsParams {
                lambda: 8,
                delta: 0.1,
            }),
            &store,
            3,
            8,
            1.0,
        );
        assert_eq!(res.convoys.len(), 1);
        // Refinement never sees the wanderer: strictly fewer points than
        // two full scans.
        assert!(res.stats.pruning.points_processed() < 2 * store.num_points());
    }
}
