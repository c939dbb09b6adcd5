//! Benchmark clustering and candidate clusters (§4.1–§4.2).

use k2_cluster::{dbscan, DbscanParams};
use k2_model::{ObjectSet, Oid, SetPool, Time};
use k2_storage::{SnapshotSource, StoreResult};
use std::collections::HashMap;

/// Clusters the full snapshot at one benchmark point.
///
/// Returns the benchmark cluster set `Cᵢ` and the number of points
/// scanned (every point of the snapshot — benchmark points are the only
/// timestamps where k/2-hop touches the whole population).
///
/// This is the stateless one-shot entry: each call builds a fresh grid.
/// The mining pipelines instead go through `dbscan_with` with a
/// persistent `GridScratch`, so adjacent benchmark snapshots re-scatter
/// into the previous grid's geometry instead of retuning it (see
/// [`k2_cluster::GridState`]).
pub fn cluster_benchmark<S: SnapshotSource + ?Sized>(
    store: &S,
    params: DbscanParams,
    b: Time,
) -> StoreResult<(Vec<ObjectSet>, u64)> {
    // Borrowed scan: in-memory stores serve the snapshot zero-copy; disk
    // engines decode into the local buffer.
    let mut buf = Vec::new();
    let snapshot = store.scan_snapshot_ref(b, &mut buf)?;
    let scanned = snapshot.len() as u64;
    Ok((dbscan(&snapshot, params), scanned))
}

/// The candidate clusters of a hop-window (§4.2):
///
/// `CCᵢ = { cᵢ ∩ cᵢ₊₁ | cᵢ ∈ Cᵢ, cᵢ₊₁ ∈ Cᵢ₊₁, |cᵢ ∩ cᵢ₊₁| ≥ m }`
///
/// Every object belongs to at most one cluster per timestamp, so instead
/// of the quadratic pairwise intersection we bucket each left cluster's
/// members by their right-cluster id — `O(Σ|cᵢ|)` total.
pub fn candidate_clusters(left: &[ObjectSet], right: &[ObjectSet], m: usize) -> Vec<ObjectSet> {
    candidate_clusters_with(left, right, m, &mut |ids| {
        ObjectSet::from_sorted(ids.to_vec())
    })
}

/// [`candidate_clusters`] interning the emitted sets through `pool`.
///
/// Candidate clusters are intersections of benchmark clusters; a cluster
/// that survives a hop intact produces a candidate *equal* to it, and
/// adjacent windows repeat candidates wholesale — interning makes those
/// repeats share storage with the cluster sets already in the pool, so
/// every downstream equality/subsumption check starts with a pointer
/// compare.
pub(crate) fn candidate_clusters_pooled(
    left: &[ObjectSet],
    right: &[ObjectSet],
    m: usize,
    pool: &mut SetPool,
) -> Vec<ObjectSet> {
    candidate_clusters_with(left, right, m, &mut |ids| {
        let id = pool.intern_sorted(ids);
        pool.handle(id)
    })
}

/// Sorted union of the object ids across `sets` — the id list one
/// hop-window's slab fetch asks the store for (every object HWMT can
/// probe in that window belongs to one of its candidate clusters).
pub(crate) fn object_id_union(sets: &[ObjectSet]) -> Vec<Oid> {
    let mut ids: Vec<Oid> = sets.iter().flat_map(|s| s.iter()).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn candidate_clusters_with(
    left: &[ObjectSet],
    right: &[ObjectSet],
    m: usize,
    make_set: &mut dyn FnMut(&[Oid]) -> ObjectSet,
) -> Vec<ObjectSet> {
    if left.is_empty() || right.is_empty() {
        return Vec::new();
    }
    // oid -> index of its cluster in `right`.
    let right_len: usize = right.iter().map(|c| c.len()).sum();
    let mut assignment: HashMap<Oid, u32> = HashMap::with_capacity(right_len);
    for (j, c) in right.iter().enumerate() {
        for oid in c.iter() {
            assignment.insert(oid, j as u32);
        }
    }
    let mut out = Vec::new();
    let mut buckets: HashMap<u32, Vec<Oid>> = HashMap::new();
    for c in left {
        buckets.clear();
        for oid in c.iter() {
            if let Some(&j) = assignment.get(&oid) {
                buckets.entry(j).or_default().push(oid);
            }
        }
        for ids in buckets.values() {
            if ids.len() >= m {
                // Members iterated in ascending oid order per cluster, so
                // each bucket is already sorted.
                out.push(make_set(ids));
            }
        }
    }
    out.sort_by(|a, b| a.ids().cmp(b.ids()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets(groups: &[&[Oid]]) -> Vec<ObjectSet> {
        groups.iter().map(|g| ObjectSet::from(*g)).collect()
    }

    #[test]
    fn paper_section_4_2_example() {
        // C1 = {{a,b,c,d},{e,f,g,h},{i,j,k}}
        // C2 = {{a,b,c},{d,e},{f,g,h},{i,j}}
        // With m = 3 the candidate clusters are {{a,b,c},{f,g,h}}.
        // Letters a..k -> 0..10.
        let c1 = sets(&[&[0, 1, 2, 3], &[4, 5, 6, 7], &[8, 9, 10]]);
        let c2 = sets(&[&[0, 1, 2], &[3, 4], &[5, 6, 7], &[8, 9]]);
        let cc = candidate_clusters(&c1, &c2, 3);
        assert_eq!(cc, sets(&[&[0, 1, 2], &[5, 6, 7]]));
    }

    #[test]
    fn full_elementwise_intersection_without_size_filter() {
        // Same example with m = 1 recovers the full element-wise
        // intersection {{a,b,c},{d},{e},{f,g,h},{i,j}} of §4.2.
        let c1 = sets(&[&[0, 1, 2, 3], &[4, 5, 6, 7], &[8, 9, 10]]);
        let c2 = sets(&[&[0, 1, 2], &[3, 4], &[5, 6, 7], &[8, 9]]);
        let cc = candidate_clusters(&c1, &c2, 1);
        assert_eq!(cc, sets(&[&[0, 1, 2], &[3], &[4], &[5, 6, 7], &[8, 9]]));
    }

    #[test]
    fn disjoint_benchmark_clusters_yield_nothing() {
        let c1 = sets(&[&[1, 2, 3]]);
        let c2 = sets(&[&[4, 5, 6]]);
        assert!(candidate_clusters(&c1, &c2, 2).is_empty());
    }

    #[test]
    fn empty_side_yields_nothing() {
        let c = sets(&[&[1, 2, 3]]);
        assert!(candidate_clusters(&c, &[], 2).is_empty());
        assert!(candidate_clusters(&[], &c, 2).is_empty());
    }

    #[test]
    fn one_left_cluster_split_across_two_right_clusters() {
        let c1 = sets(&[&[1, 2, 3, 4, 5, 6]]);
        let c2 = sets(&[&[1, 2, 3], &[4, 5, 6]]);
        let cc = candidate_clusters(&c1, &c2, 3);
        assert_eq!(cc, sets(&[&[1, 2, 3], &[4, 5, 6]]));
    }

    #[test]
    fn output_is_deterministically_sorted() {
        let c1 = sets(&[&[7, 8, 9], &[1, 2, 3]]);
        let c2 = sets(&[&[7, 8, 9], &[1, 2, 3]]);
        let cc = candidate_clusters(&c1, &c2, 3);
        assert_eq!(cc[0], ObjectSet::from([1, 2, 3]));
        assert_eq!(cc[1], ObjectSet::from([7, 8, 9]));
    }
}
