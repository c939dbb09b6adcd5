//! The grouping seam: the one thing a pattern changes in Algorithm 1.
//!
//! Lemma 3 asks one thing of a pattern: a fixed set of objects, grouped
//! together at consecutive timestamps. Which predicate groups them is
//! free. Convoys group by density connection, DBSCAN with
//! [`DbscanParams`]; flocks (in `k2-patterns`) by radius-`r` disks.
//! A [`Grouping`] says how a snapshot or a `DB[t]|O` probe is grouped,
//! how step 2 joins two benchmark groupings, whether one snapshot's
//! groups may overlap, and whether step 6 runs. [`K2Hop`](crate::K2Hop)
//! is generic over it, so every grouping gets a pipeline of its own
//! from the compiler and no hot loop calls through `dyn`.

use crate::candidates::CandidateScratch;
use k2_cluster::{dbscan_labelling_with, recluster_with, DbscanParams, GridScratch};
use k2_model::{ObjPos, ObjectSet, Oid};

/// The grouping predicate k/2-hop mines with.
///
/// Every method is deterministic, so the pipeline's output is the same
/// at every thread count. The scratch arguments are a worker's reusable
/// buffers; a grouping that does not cluster through the grid leaves
/// them untouched.
pub trait Grouping: Copy + Send + Sync {
    /// One benchmark snapshot's groups, in the form [`join`](Self::join)
    /// reads.
    type Groups: Send + Sync;

    /// The engine name a [`K2Hop`](crate::K2Hop) with this grouping
    /// reports.
    const ENGINE: &'static str;

    /// Whether one snapshot's groups may share objects. If they may,
    /// HWMT keeps its survivor list maximal: a group inside another
    /// survivor is dropped.
    const OVERLAPPING: bool;

    /// Whether step 6 (validation into fully-connected convoys) runs.
    /// A grouping whose answer for `O` depends on `O`'s positions only
    /// makes every restricted re-check exact and needs none.
    const VALIDATES: bool;

    /// The fewest objects a group holds (`m`).
    fn min_size(&self) -> usize;

    /// Groups a full benchmark snapshot (step 1).
    fn group(&self, snapshot: &[ObjPos], scratch: &mut GridScratch) -> Self::Groups;

    /// The candidate groups of a hop-window (step 2): the maximal
    /// intersections of a group on the `left` with one on the `right`
    /// that keep at least [`min_size`](Self::min_size) objects.
    fn join(
        &self,
        left: &Self::Groups,
        right: &Self::Groups,
        scratch: &mut CandidateScratch,
    ) -> Vec<ObjectSet>;

    /// Groups the positions of `DB[t]|O`, one candidate's objects at one
    /// timestamp (steps 3, 5 and 6).
    fn regroup(&self, positions: &[ObjPos], scratch: &mut GridScratch) -> Vec<ObjectSet>;
}

/// Convoys: DBSCAN clusters, which are disjoint. A benchmark snapshot's
/// clusters come back as an oid-sorted `(oid, cluster)` labelling, and
/// step 2 merge-joins two of them (see [`crate::candidates`]).
impl Grouping for DbscanParams {
    type Groups = Vec<(Oid, u32)>;

    const ENGINE: &'static str = "k2hop";
    const OVERLAPPING: bool = false;
    const VALIDATES: bool = true;

    fn min_size(&self) -> usize {
        self.min_pts
    }

    fn group(&self, snapshot: &[ObjPos], scratch: &mut GridScratch) -> Self::Groups {
        let mut out = Vec::new();
        dbscan_labelling_with(snapshot, *self, scratch, &mut out);
        out
    }

    fn join(
        &self,
        left: &Self::Groups,
        right: &Self::Groups,
        scratch: &mut CandidateScratch,
    ) -> Vec<ObjectSet> {
        scratch.candidates(left, right, self.min_pts)
    }

    fn regroup(&self, positions: &[ObjPos], scratch: &mut GridScratch) -> Vec<ObjectSet> {
        recluster_with(positions, *self, scratch)
    }
}
