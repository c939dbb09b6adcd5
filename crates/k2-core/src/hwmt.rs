//! Hop-Window Mining Tree (§4.3, Algorithm 2).

use crate::benchpoints::{hop_window, hwmt_order};
use crate::record::{push_runs, IntactRuns};
use crate::{probe_of, recluster_at, Probe, ProbeScratch};
use k2_cluster::DbscanParams;
use k2_model::{Convoy, ObjPos, ObjectSet, Oid, Time, TimeInterval};
use k2_storage::{SnapshotSource, StoreResult};

/// Outcome of mining one hop-window.
#[derive(Debug)]
pub struct WindowResult {
    /// 1st-order spanning convoys, lifespan `[b_left, b_right]`.
    pub spanning: Vec<Convoy>,
    /// Points the probes read while re-clustering.
    pub points_fetched: u64,
    /// Timestamps actually probed (≤ window length thanks to early exit).
    pub timestamps_probed: u32,
    /// Where a probe of exactly a set returned that set intact — for the
    /// run's record of intact reclusters.
    pub(crate) intact: IntactRuns,
}

/// Mines the 1st-order spanning convoys of the hop-window between
/// benchmark points `b_left` and `b_right` (Algorithm 2), probing
/// `store` point by point in the paper's binary-tree order.
pub fn mine_window<S: SnapshotSource + ?Sized>(
    store: &S,
    params: DbscanParams,
    b_left: Time,
    b_right: Time,
    cc: &[ObjectSet],
) -> StoreResult<WindowResult> {
    mine_window_ordered(store, params, b_left, b_right, cc, hwmt_order)
}

/// [`mine_window`] with an explicit probe order — the ablation hook for
/// comparing the paper's binary-tree order against
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
/// `cc` is the window's candidate cluster set `CCᵢ`. The candidates are
/// re-clustered at each window timestamp in `order`; candidates that
/// fail to cluster are shed, and the whole window is abandoned as soon
/// as no candidate survives. Each surviving cluster becomes a spanning
/// convoy with lifespan `[b_left, b_right]` (the window's bordering
/// benchmark points, line 11 of Algorithm 2).
///
/// The pipeline passes one `scratch` (clustering and probe buffers)
/// across all the hop-windows a worker mines, so the steady state of the
/// probe loop allocates only the clusters it returns. The candidate
/// reclusters inside each probe filter distances through the chunked
/// kernel (`k2_cluster::dist2_filter_chunked`), the same four-lane path
/// the benchmark clustering uses.
pub(crate) fn mine_window_with(
    params: DbscanParams,
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
            let (clusters, fetched) = recluster_at(&mut probe, params, t, &candidate, scratch)?;
            result.points_fetched += fetched;
            let intact = clusters.len() == 1 && clusters[0] == candidate;
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
            next.extend(clusters.into_iter().map(|c| (c, first)));
        }
        if next.is_empty() {
            // Line 7–8: no clusters at this timestamp — no convoy can
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

/// One hop-window's worth of prefetched store data: `DB[t]|union(CCᵢ)`
/// for every *open-window* timestamp `t ∈ (b_left, b_right)`, one
/// oid-sorted column per timestamp.
///
/// [`K2HopParallel`](crate::K2HopParallel) on a non-resident source
/// fills a ring of these on the calling thread (store I/O is
/// single-threaded) and hands them to the HWMT workers; the column
/// buffers are reused across temporal shards, so peak memory is one
/// shard's slabs, never the span.
#[derive(Debug, Default)]
pub(crate) struct WindowSlab {
    /// First open-window timestamp (`b_left + 1`); meaningless while
    /// `cols` is empty (degenerate `h = 1` windows fetch nothing).
    start: Time,
    /// One column per open-window timestamp, ascending from `start`.
    cols: Vec<Vec<ObjPos>>,
}

impl WindowSlab {
    /// Logical bytes resident in this slab's columns.
    pub(crate) fn bytes(&self) -> u64 {
        let points: u64 = self.cols.iter().map(|c| c.len() as u64).sum();
        points * std::mem::size_of::<ObjPos>() as u64
    }

    /// Does the slab hold no column (nothing was fetched for its window)?
    pub(crate) fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Fetches the slab for the window `(b_left, b_right)` restricted to
    /// the sorted id list `union`, reusing this slab's column buffers.
    /// Returns the number of points fetched.
    pub(crate) fn fill<S: SnapshotSource + ?Sized>(
        &mut self,
        store: &S,
        b_left: Time,
        b_right: Time,
        union: &[Oid],
    ) -> StoreResult<u64> {
        let window = match hop_window(b_left, b_right) {
            Some(w) if !union.is_empty() => w,
            _ => {
                self.cols.clear();
                return Ok(0);
            }
        };
        self.start = window.start;
        let n = window.len() as usize;
        self.cols.truncate(n);
        self.cols.resize_with(n, Vec::new);
        let mut fetched = 0u64;
        for (col, t) in self.cols.iter_mut().zip(window.iter()) {
            store.multi_get_into(t, union, col)?;
            fetched += col.len() as u64;
        }
        Ok(fetched)
    }

    /// The probe over this slab: `DB[t]|O` read from the prefetched
    /// column of `t` instead of the store.
    ///
    /// Restricting a column (already `DB[t]|union(CCᵢ)`, oid-sorted) by a
    /// candidate's ids equals restricting the full snapshot, because
    /// every set HWMT probes is a subset of the window's candidate union
    /// — so the clusters are bit-identical to probing the store, with
    /// zero I/O here.
    pub(crate) fn probe(&self, t: Time, oids: &[Oid], out: &mut Vec<ObjPos>) -> StoreResult<()> {
        out.clear();
        k2_model::restrict_sorted_ids_into(&self.cols[(t - self.start) as usize], oids, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let res = mine_window(&store, params, 0, 8, &cc).unwrap();
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
        let res = mine_window(&store, DbscanParams::new(3, 2.0), 0, 8, &[]).unwrap();
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
        let res = mine_window(&store, params, 0, 8, &cc).unwrap();
        assert!(res.spanning.is_empty());
        assert_eq!(res.timestamps_probed, 1, "root probe only");
    }

    #[test]
    fn adjacent_benchmarks_pass_candidates_through() {
        // h = 1: window empty, candidate clusters become spanning convoys.
        let store = figure6();
        let cc = vec![ObjectSet::from([0, 1, 2, 3])];
        let res = mine_window(&store, DbscanParams::new(3, 2.0), 3, 4, &cc).unwrap();
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
        let res = mine_window(&store, params, 0, 4, &cc).unwrap();
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
        let binary = mine_window(&store, params, 0, 16, &cc).unwrap();
        let linear =
            mine_window_ordered(&store, params, 0, 16, &cc, crate::benchpoints::linear_order)
                .unwrap();
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
        let res = mine_window(&store, params, 0, 8, &cc).unwrap();
        // 7 window timestamps × 4 candidate objects.
        assert_eq!(res.points_fetched, 28);
    }
}
