//! Hop-Window Mining Tree (§4.3, Algorithm 2).

use crate::benchpoints::hop_window;
use crate::record::{push_runs, IntactRuns};
use crate::{probe_of, regroup_at, Grouping, Probe, ProbeScratch};
use k2_cluster::DbscanParams;
use k2_model::{Convoy, ObjectSet, Time, TimeInterval};
use k2_storage::{SnapshotSource, StoreResult};

/// Outcome of mining one hop-window.
#[derive(Debug)]
pub struct WindowResult {
    /// 1st-order spanning convoys, lifespan `[b_left, b_right]`.
    pub spanning: Vec<Convoy>,
    /// Points the probes read while re-grouping.
    pub points_fetched: u64,
    /// Timestamps actually probed (≤ window length thanks to early exit).
    pub timestamps_probed: u32,
    /// Where a probe of exactly a set returned that set intact — for the
    /// run's record of intact reclusters.
    pub(crate) intact: IntactRuns,
}

/// Mines the 1st-order spanning convoys of the hop-window between
/// benchmark points `b_left` and `b_right` (Algorithm 2), probing
/// `store` point by point in `order` — the ablation hook for comparing
/// the paper's binary-tree order,
/// [`hwmt_order`](crate::benchpoints::hwmt_order), against
/// [`linear_order`](crate::benchpoints::linear_order) (§4.3's
/// coincidental-togetherness heuristic).
pub fn mine_window_ordered<S: SnapshotSource + ?Sized>(
    store: &S,
    params: DbscanParams,
    b_left: Time,
    b_right: Time,
    cc: &[ObjectSet],
    order: impl Fn(TimeInterval) -> Vec<Time>,
) -> StoreResult<WindowResult> {
    let scratch = &mut ProbeScratch::default();
    mine_window_with(params, b_left, b_right, cc, order, probe_of(store), scratch)
}

/// Algorithm 2, reading `DB[t]|O` through `probe`.
///
/// `cc` is the window's candidate set `CCᵢ`. The candidates are
/// re-grouped at each window timestamp in `order`; candidates that fail
/// to group are shed, and the whole window is abandoned as soon as no
/// candidate survives. Each surviving group becomes a spanning convoy
/// with lifespan `[b_left, b_right]` (the window's bordering benchmark
/// points, line 11 of Algorithm 2). When the grouping's groups may
/// overlap ([`Grouping::OVERLAPPING`]), the survivors are kept maximal.
///
/// The pipeline passes one `scratch` (clustering and probe buffers)
/// across all the hop-windows a worker mines, so the steady state of the
/// probe loop allocates only the clusters it returns. The candidate
/// reclusters inside each probe filter distances through the chunked
/// kernel (`k2_cluster::dist2_filter_chunked`), the same four-lane path
/// the benchmark clustering uses.
pub(crate) fn mine_window_with<G: Grouping>(
    grouping: G,
    b_left: Time,
    b_right: Time,
    cc: &[ObjectSet],
    order: impl Fn(TimeInterval) -> Vec<Time>,
    mut probe: impl Probe,
    scratch: &mut ProbeScratch,
) -> StoreResult<WindowResult> {
    let lifespan = TimeInterval::new(b_left, b_right);
    let mut result = WindowResult {
        spanning: Vec::new(),
        points_fetched: 0,
        timestamps_probed: 0,
        intact: IntactRuns::new(),
    };
    if cc.is_empty() {
        return Ok(result);
    }
    // Degenerate window (h = 1, adjacent benchmarks): nothing to probe,
    // the candidate clusters themselves already span.
    let order = hop_window(b_left, b_right).map(order).unwrap_or_default();
    // Each survivor carries the position in `order` of its first probe:
    // it stays one survivor exactly while its probes return it intact, so
    // it was confirmed at `order[first..now]` when it breaks up.
    let mut survivors: Vec<(ObjectSet, usize)> = cc.iter().map(|c| (c.clone(), 0)).collect();
    let mut sort_buf = Vec::new();
    for (pos, &t) in order.iter().enumerate() {
        result.timestamps_probed += 1;
        let mut next = Vec::with_capacity(survivors.len());
        for (candidate, first) in survivors {
            let (groups, fetched) = regroup_at(&mut probe, grouping, t, &candidate, scratch)?;
            result.points_fetched += fetched;
            let intact = groups.len() == 1 && groups[0] == candidate;
            let first = if intact {
                first
            } else {
                push_runs(
                    &mut result.intact,
                    &candidate,
                    &order[first..pos],
                    &mut sort_buf,
                );
                pos + 1
            };
            for g in groups {
                if G::OVERLAPPING {
                    if next.iter().any(|(c, _)| g.is_subset(c)) {
                        continue;
                    }
                    next.retain(|(c, _)| !c.is_subset(&g));
                }
                next.push((g, first));
            }
        }
        if next.is_empty() {
            // Line 7–8: no groups at this timestamp — no convoy can
            // span the window; stop descending the tree.
            return Ok(result);
        }
        survivors = next;
    }
    for (objects, first) in survivors {
        push_runs(&mut result.intact, &objects, &order[first..], &mut sort_buf);
        result.spanning.push(Convoy::new(objects, lifespan));
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchpoints::{hwmt_order, linear_order};
    use k2_model::{Dataset, Point};
    use k2_storage::InMemoryStore;

    /// Builds the paper's Figure 6 dataset: benchmarks at t = 0 and t = 8,
    /// window [1, 7]. Objects a,b,c,d (0..3) stay together the whole time;
    /// x,y,z (20..22) are together at the benchmarks but scatter inside
    /// the window (coincidental togetherness).
    fn figure6() -> InMemoryStore {
        let mut pts = Vec::new();
        for t in 0..=8u32 {
            for oid in 0..4u32 {
                pts.push(Point::new(oid, t as f64 * 10.0, oid as f64 * 0.5, t));
            }
            for (i, oid) in (20..23u32).enumerate() {
                // Together at t = 0 and t = 8 only.
                let spread = if t == 0 || t == 8 { 0.5 } else { 50.0 };
                pts.push(Point::new(
                    oid,
                    500.0 + i as f64 * spread,
                    t as f64 * 3.0,
                    t,
                ));
            }
        }
        InMemoryStore::new(Dataset::from_points(&pts).unwrap())
    }

    #[test]
    fn figure6_only_abcd_spans() {
        let store = figure6();
        let params = DbscanParams::new(3, 2.0);
        let cc = vec![ObjectSet::from([0, 1, 2, 3]), ObjectSet::from([20, 21, 22])];
        let res = mine_window_ordered(&store, params, 0, 8, &cc, hwmt_order).unwrap();
        assert_eq!(res.spanning.len(), 1);
        assert_eq!(res.spanning[0].objects, ObjectSet::from([0, 1, 2, 3]));
        assert_eq!(res.spanning[0].lifespan, TimeInterval::new(0, 8));
        assert_eq!(res.timestamps_probed, 7);
        // abcd came back intact at every window timestamp; xyz at none.
        assert_eq!(
            res.intact,
            vec![(ObjectSet::from([0, 1, 2, 3]), TimeInterval::new(1, 7))]
        );
    }

    #[test]
    fn empty_candidates_short_circuit() {
        let store = figure6();
        let res =
            mine_window_ordered(&store, DbscanParams::new(3, 2.0), 0, 8, &[], hwmt_order).unwrap();
        assert!(res.spanning.is_empty());
        assert_eq!(res.timestamps_probed, 0);
        assert_eq!(res.points_fetched, 0);
    }

    #[test]
    fn early_exit_when_nothing_survives_root() {
        // Candidate objects that never cluster inside the window: the root
        // probe (t = 4) kills them and no further timestamp is touched.
        let store = figure6();
        let params = DbscanParams::new(3, 2.0);
        let cc = vec![ObjectSet::from([20, 21, 22])];
        let res = mine_window_ordered(&store, params, 0, 8, &cc, hwmt_order).unwrap();
        assert!(res.spanning.is_empty());
        assert_eq!(res.timestamps_probed, 1, "root probe only");
    }

    #[test]
    fn adjacent_benchmarks_pass_candidates_through() {
        // h = 1: window empty, candidate clusters become spanning convoys.
        let store = figure6();
        let cc = vec![ObjectSet::from([0, 1, 2, 3])];
        let res =
            mine_window_ordered(&store, DbscanParams::new(3, 2.0), 3, 4, &cc, hwmt_order).unwrap();
        assert_eq!(res.spanning.len(), 1);
        assert_eq!(res.spanning[0].lifespan, TimeInterval::new(3, 4));
        assert_eq!(res.timestamps_probed, 0);
    }

    #[test]
    fn candidate_splits_into_two_spanning_convoys() {
        // Six objects clustered at both benchmarks, but inside the window
        // they travel as two separate triples.
        let mut pts = Vec::new();
        for t in 0..=4u32 {
            for oid in 0..6u32 {
                let gap = if t == 0 || t == 4 || oid < 3 {
                    0.4
                } else {
                    100.0 // second triple far away, but internally tight
                };
                let base = if oid < 3 { 0.0 } else { gap };
                pts.push(Point::new(oid, base + (oid % 3) as f64 * 0.4, t as f64, t));
            }
        }
        let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
        let params = DbscanParams::new(3, 0.5);
        let cc = vec![ObjectSet::from([0, 1, 2, 3, 4, 5])];
        let res = mine_window_ordered(&store, params, 0, 4, &cc, hwmt_order).unwrap();
        assert_eq!(res.spanning.len(), 2);
        let mut objs: Vec<_> = res.spanning.iter().map(|c| c.objects.clone()).collect();
        objs.sort_by(|a, b| a.ids().cmp(b.ids()));
        assert_eq!(objs[0], ObjectSet::from([0, 1, 2]));
        assert_eq!(objs[1], ObjectSet::from([3, 4, 5]));
        // The split at the root (t = 2) confirms only the halves, each at
        // the two timestamps probed after it.
        let mut intact = res.intact.clone();
        intact.sort();
        let runs = |set: [u32; 3]| [1, 3].map(|t| (ObjectSet::from(set), TimeInterval::instant(t)));
        assert_eq!(intact, [runs([0, 1, 2]), runs([3, 4, 5])].concat());
    }

    #[test]
    fn binary_order_beats_linear_on_mid_window_breaks() {
        // Candidates cluster everywhere except at the exact middle of the
        // window: the binary order dies at the root probe, the linear
        // order walks half the window first (§4.3's heuristic).
        let mut pts = Vec::new();
        for t in 0..=16u32 {
            let spread = if t == 8 { 60.0 } else { 0.4 };
            for oid in 0..3u32 {
                pts.push(Point::new(oid, oid as f64 * spread, 0.0, t));
            }
        }
        let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
        let params = DbscanParams::new(3, 1.0);
        let cc = vec![ObjectSet::from([0, 1, 2])];
        let binary = mine_window_ordered(&store, params, 0, 16, &cc, hwmt_order).unwrap();
        let linear = mine_window_ordered(&store, params, 0, 16, &cc, linear_order).unwrap();
        assert!(binary.spanning.is_empty());
        assert!(linear.spanning.is_empty());
        assert_eq!(binary.timestamps_probed, 1, "root probe kills it");
        assert_eq!(linear.timestamps_probed, 8, "linear walks to the break");
    }

    #[test]
    fn pruning_counts_only_candidate_points() {
        let store = figure6();
        let params = DbscanParams::new(3, 2.0);
        let cc = vec![ObjectSet::from([0, 1, 2, 3])];
        let res = mine_window_ordered(&store, params, 0, 8, &cc, hwmt_order).unwrap();
        // 7 window timestamps × 4 candidate objects.
        assert_eq!(res.points_fetched, 28);
    }
}
