//! Benchmark clustering and candidate clusters (§4.1–§4.2).
//!
//! The pipeline never intersects benchmark clusters as sets. Each
//! benchmark snapshot comes back from clustering as a *labelling* — its
//! clustered objects as `(oid, cluster)` pairs, ascending by oid
//! ([`k2_cluster::dbscan_labelling_with`]) — and the candidate clusters
//! of a hop-window are read off two adjacent labellings in linear time:
//!
//! 1. a merge-join of the two oid-sorted labellings yields one
//!    `(left cluster, right cluster, oid)` hit per object clustered at
//!    both benchmarks, in oid order;
//! 2. two stable counting-sort passes over the hits, by right cluster and
//!    then by left cluster, make every `(left, right)` group contiguous
//!    and keep it oid-ascending — each group *is* one `cᵢ ∩ cᵢ₊₁`;
//! 3. every group of at least `m` objects is emitted as an [`ObjectSet`],
//!    and the output is sorted by members.
//!
//! Nothing is hashed and nothing is allocated per window beyond the
//! emitted sets: the join and sort buffers live in per-worker scratch.
//! [`candidate_clusters`] runs the same algorithm on clusters given as
//! sets.

use k2_cluster::{dbscan, DbscanParams};
use k2_model::{ObjectSet, Oid, Time};
use k2_storage::{SnapshotSource, StoreResult};

/// Clusters the full snapshot at one benchmark point.
///
/// Returns the benchmark cluster set `Cᵢ` and the number of points
/// scanned (every point of the snapshot — benchmark points are the only
/// timestamps where k/2-hop touches the whole population).
///
/// This is the stateless one-shot entry: each call builds a fresh grid
/// and gathers sets. The mining pipelines instead keep one `GridScratch`
/// per worker, so adjacent benchmark snapshots re-scatter into the
/// previous grid's geometry (see [`k2_cluster::GridState`]), and take
/// each snapshot's clustering as a labelling (see the module docs).
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
/// `CCᵢ = { cᵢ ∩ cᵢ₊₁ | cᵢ ∈ Cᵢ, cᵢ₊₁ ∈ Cᵢ₊₁, |cᵢ ∩ cᵢ₊₁| ≥ m }`,
/// sorted by members.
///
/// The clusters on each side must be disjoint, as DBSCAN's are. Each side
/// is numbered by position into an oid-sorted labelling and the two are
/// intersected by the module's merge-join — `O(Σ|cᵢ| log Σ|cᵢ|)` for the
/// numbering, linear after it, never the quadratic pairing.
pub fn candidate_clusters(left: &[ObjectSet], right: &[ObjectSet], m: usize) -> Vec<ObjectSet> {
    let labelling = |sets: &[ObjectSet]| {
        let mut pairs: Vec<(Oid, u32)> = sets
            .iter()
            .enumerate()
            .flat_map(|(i, set)| set.iter().map(move |oid| (oid, i as u32)))
            .collect();
        pairs.sort_unstable();
        pairs
    };
    CandidateScratch::default().candidates(&labelling(left), &labelling(right), m)
}

/// One object clustered at both benchmarks of a hop-window.
#[derive(Debug, Clone, Copy, Default)]
struct Hit {
    left: u32,
    right: u32,
    oid: Oid,
}

/// A worker's working memory for candidate clusters: the join and
/// counting-sort buffers, reused window after window. Step 2 lends one
/// to every [`Grouping::join`](crate::Grouping::join).
#[derive(Debug, Default)]
pub struct CandidateScratch {
    hits: Vec<Hit>,
    sorted: Vec<Hit>,
    counts: Vec<u32>,
}

impl CandidateScratch {
    /// The candidate clusters of two adjacent benchmark labellings, each
    /// `(oid, cluster)` pairs strictly ascending by oid (see the module
    /// docs for the algorithm).
    pub(crate) fn candidates(
        &mut self,
        left: &[(Oid, u32)],
        right: &[(Oid, u32)],
        m: usize,
    ) -> Vec<ObjectSet> {
        let Self {
            hits,
            sorted,
            counts,
        } = self;
        hits.clear();
        let (mut left_keys, mut right_keys) = (0u32, 0u32);
        let (mut i, mut j) = (0, 0);
        while let (Some(&(a, l)), Some(&(b, r))) = (left.get(i), right.get(j)) {
            match a.cmp(&b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    hits.push(Hit {
                        left: l,
                        right: r,
                        oid: a,
                    });
                    left_keys = left_keys.max(l + 1);
                    right_keys = right_keys.max(r + 1);
                    i += 1;
                    j += 1;
                }
            }
        }
        if hits.len() < m {
            return Vec::new();
        }
        counting_sort(hits, sorted, counts, right_keys, |h| h.right);
        counting_sort(sorted, hits, counts, left_keys, |h| h.left);
        let mut out = Vec::new();
        for group in hits.chunk_by(|a, b| (a.left, a.right) == (b.left, b.right)) {
            if group.len() >= m {
                out.push(ObjectSet::from_sorted(
                    group.iter().map(|h| h.oid).collect(),
                ));
            }
        }
        out.sort_by(|a, b| a.ids().cmp(b.ids()));
        out
    }
}

/// Stable counting sort of `src` into `dst` by `key`, whose values are
/// below `keys`.
fn counting_sort(
    src: &[Hit],
    dst: &mut Vec<Hit>,
    counts: &mut Vec<u32>,
    keys: u32,
    key: impl Fn(&Hit) -> u32,
) {
    counts.clear();
    counts.resize(keys as usize + 1, 0);
    for h in src {
        counts[key(h) as usize + 1] += 1;
    }
    for k in 1..counts.len() {
        counts[k] += counts[k - 1];
    }
    // `counts[k]` is now where key `k`'s run starts; scatter in input
    // order, advancing each run's cursor.
    dst.clear();
    dst.resize(src.len(), Hit::default());
    for h in src {
        let slot = &mut counts[key(h) as usize];
        dst[*slot as usize] = *h;
        *slot += 1;
    }
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
    fn interleaved_clusters_group_by_both_labels() {
        // Members of two left and two right clusters alternate in oid
        // order, so no group is contiguous before the counting sorts.
        let c1 = sets(&[&[1, 3, 5, 7], &[2, 4, 6, 8]]);
        let c2 = sets(&[&[1, 2, 5, 6], &[3, 4, 7, 8]]);
        let cc = candidate_clusters(&c1, &c2, 2);
        assert_eq!(cc, sets(&[&[1, 5], &[2, 6], &[3, 7], &[4, 8]]));
    }

    #[test]
    fn output_is_deterministically_sorted() {
        let c1 = sets(&[&[7, 8, 9], &[1, 2, 3]]);
        let c2 = sets(&[&[7, 8, 9], &[1, 2, 3]]);
        let cc = candidate_clusters(&c1, &c2, 3);
        assert_eq!(cc[0], ObjectSet::from([1, 2, 3]));
        assert_eq!(cc[1], ObjectSet::from([7, 8, 9]));
    }

    #[test]
    fn scratch_reuse_across_windows_matches_fresh_runs() {
        let mut scratch = CandidateScratch::default();
        let a = [(1, 0), (2, 0), (3, 0), (9, 1), (10, 1), (11, 1)];
        let b = [(2, 4), (3, 4), (9, 0), (10, 0), (11, 0)];
        let c = [(1, 0), (2, 0), (3, 0)];
        for (l, r) in [(&a[..], &b[..]), (&b[..], &c[..]), (&a[..], &b[..])] {
            let fresh = CandidateScratch::default().candidates(l, r, 2);
            assert_eq!(scratch.candidates(l, r, 2), fresh);
        }
        assert_eq!(
            scratch.candidates(&a, &b, 2),
            sets(&[&[2, 3], &[9, 10, 11]])
        );
    }
}
