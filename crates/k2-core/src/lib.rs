//! # k2-core — the k/2-hop convoy mining algorithm
//!
//! A faithful implementation of Algorithm 1 of the paper (§4). The six
//! steps map to the modules of this crate:
//!
//! 1. **Benchmark clustering** ([`benchpoints`], [`candidates`]) — DBSCAN
//!    the full snapshots only at every ⌊k/2⌋-th timestamp, each handed
//!    back as an oid-sorted `(oid, cluster)` labelling.
//! 2. **Candidate clusters** ([`candidates`]) — set-wise intersection of
//!    adjacent benchmark cluster sets, discarding sets smaller than `m`:
//!    a merge-join of the two labellings and two counting-sort passes,
//!    linear in the objects clustered.
//! 3. **HWMT** ([`hwmt`]) — per hop-window re-clustering of the candidate
//!    objects in binary-tree (farthest-first) timestamp order, yielding
//!    1st-order spanning convoys.
//! 4. **DCM merge** ([`merge`]) — left-to-right merging of adjacent
//!    spanning convoys into maximal spanning convoys, each active convoy
//!    intersected only with the next window's convoys that share an
//!    object.
//! 5. **Extension** (`extend`) — extendRight / extendLeft to recover the
//!    true convoy endpoints inside the bordering hop-windows.
//! 6. **Validation** (`validate`) — the corrected HWMT\*-based recursive
//!    validation producing maximal *fully connected* convoys.
//!
//! The steps are orchestrated exactly once, by one pipeline that mines
//! any [`SnapshotSource`] (in-memory dataset, flat file, B+tree, or
//! LSM-tree). Steps 3–5 run as one sweep over the hop-windows in time
//! order — on a disk engine one window at a time, extending each convoy
//! the merge retires while the blocks HWMT just read are still cached —
//! and validation runs last. The two engines behind the [`ConvoyMiner`]
//! trait are thin constructors of it and differ only in how the
//! hop-window probes `DB[t]|O` of steps 3, 5 and 6 are fetched:
//!
//! * [`K2Hop`] issues every probe to the source as it needs it (§5.2's
//!   per-probe formulation) on the calling thread, and shards only the
//!   benchmark clustering over its workers;
//! * [`K2HopParallel`] fans the probe phases out as well — over the
//!   resident dataset when the source has one, and for HWMT on any other
//!   source over hop-window slabs prefetched one temporal shard at a
//!   time.
//!
//! Either way a run returns a [`MineOutcome`]: the convoys together with
//! [`PhaseTimings`] (Figure 8i), [`PruningStats`] (Table 5), and the
//! source's I/O profile — identical convoys from both engines at every
//! thread count.
//!
//! [`SnapshotSource`]: k2_storage::SnapshotSource
//!
//! ```
//! use k2_core::{ConvoyMiner, K2Config, K2Hop};
//! use k2_model::{Dataset, Point};
//! use k2_storage::InMemoryStore;
//!
//! // Three objects travelling together for 10 timestamps.
//! let mut pts = Vec::new();
//! for t in 0..10u32 {
//!     for oid in 0..3u32 {
//!         pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
//!     }
//! }
//! let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
//! let miner = K2Hop::new(K2Config::new(3, 5, 1.0).unwrap());
//! let outcome = ConvoyMiner::mine(&miner, &store).unwrap();
//! assert_eq!(outcome.convoys.len(), 1);
//! assert_eq!(outcome.convoys[0].objects.len(), 3);
//! assert_eq!(outcome.convoys[0].len(), 10);
//! ```

pub mod benchpoints;
pub mod candidates;
pub mod hwmt;
pub mod merge;
pub mod stats;

mod config;
mod extend;
mod miner;
mod par;
mod parallel;
mod pipeline;
mod record;
mod validate;

pub use config::{ConfigError, K2Config};
pub use miner::{ConvoyMiner, MineError, MineOutcome, MineStats};
pub use parallel::K2HopParallel;
pub use pipeline::K2Hop;
pub use stats::{GridStats, PhaseTimings, PrefetchStats, PruningStats};

use k2_cluster::{recluster_with, DbscanParams, GridScratch};
use k2_model::{ObjPos, ObjectSet, Oid, Time};
use k2_storage::{SnapshotSource, StoreResult};

/// How a probe loop reads `DB[t]|O`: positions of the sorted ids `O` at
/// timestamp `t` into the buffer (cleared first) — the signature of
/// [`SnapshotSource::multi_get_into`](k2_storage::SnapshotSource::multi_get_into),
/// which is what the closure wraps unless the hop-window was prefetched.
pub(crate) trait Probe: FnMut(Time, &[Oid], &mut Vec<ObjPos>) -> StoreResult<()> {}

impl<F: FnMut(Time, &[Oid], &mut Vec<ObjPos>) -> StoreResult<()>> Probe for F {}

/// The probe that asks `source` itself, point query by point query.
pub(crate) fn probe_of<S: SnapshotSource + ?Sized>(source: &S) -> impl Probe + '_ {
    |t, oids: &[Oid], out: &mut Vec<ObjPos>| source.multi_get_into(t, oids, out)
}

/// Reusable working memory for one `reCluster` probe loop: the fetched
/// `DB[t]|O` positions plus the clustering scratch ([`GridScratch`]).
///
/// Every probe loop (HWMT, extension, validation) reuses one of these
/// across all its probes, so the steady state of the hottest code in the
/// system performs no heap allocation.
#[derive(Debug, Default)]
pub(crate) struct ProbeScratch {
    positions: Vec<ObjPos>,
    cluster: GridScratch,
}

/// Re-clusters the objects of a candidate at timestamp `t` — the paper's
/// `reCluster(v, DB[t])`: fetch `DB[t]|O` through `probe`, then DBSCAN
/// it, reusing `scratch` for both steps.
///
/// Returns the clusters and the number of points fetched (for pruning
/// statistics).
pub(crate) fn recluster_at(
    probe: &mut impl Probe,
    params: DbscanParams,
    t: Time,
    objects: &ObjectSet,
    scratch: &mut ProbeScratch,
) -> StoreResult<(Vec<ObjectSet>, u64)> {
    probe(t, objects.ids(), &mut scratch.positions)?;
    let fetched = scratch.positions.len() as u64;
    let clusters = recluster_with(&scratch.positions, params, &mut scratch.cluster);
    Ok((clusters, fetched))
}
