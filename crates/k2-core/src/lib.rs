//! # k2-core — the k/2-hop mining algorithm
//!
//! A faithful implementation of Algorithm 1 of the paper (§4), for every
//! pattern k/2-hop can mine. The six steps map to the modules of this
//! crate:
//!
//! 1. **Benchmark grouping** ([`benchpoints`], [`candidates`]) — group
//!    the full snapshots only at every ⌊k/2⌋-th timestamp. For convoys
//!    that is DBSCAN, each snapshot handed back as an oid-sorted
//!    `(oid, cluster)` labelling.
//! 2. **Candidate groups** ([`candidates`]) — set-wise intersection of
//!    adjacent benchmark groupings, discarding sets smaller than `m`:
//!    for convoys a merge-join of the two labellings and two
//!    counting-sort passes, linear in the objects clustered.
//! 3. **HWMT** ([`hwmt`]) — per hop-window re-grouping of the candidate
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
//! The steps are orchestrated exactly once, by the one engine behind the
//! [`ConvoyMiner`] trait, [`K2Hop`], which mines any [`SnapshotSource`]
//! (in-memory dataset, flat file, B+tree, or LSM-tree). The pattern is
//! the engine's [`Grouping`]: DBSCAN for convoys by default, radius-`r`
//! disks for the flocks of `k2-patterns`, which skip step 6. Steps 3–5
//! run as one sweep over the hop-windows in time order — on a disk
//! engine one window at a time, extending each convoy the merge retires
//! while the blocks HWMT just read are still cached — and validation
//! runs last. Benchmark grouping is sharded over the engine's workers;
//! the hop-window probes `DB[t]|O` of steps 3, 5 and 6 fan out over them
//! too when the source is a resident dataset, and otherwise go to the
//! source one by one on the calling thread (§5.2's per-probe
//! formulation).
//!
//! A run returns a [`MineOutcome`]: the convoys together with
//! [`PhaseTimings`] (Figure 8i), [`PruningStats`] (Table 5), and the
//! source's I/O profile — identical convoys and pruning counters at
//! every thread count.
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
mod grouping;
mod miner;
mod par;
mod pipeline;
mod record;
mod validate;

pub use config::{ConfigError, K2Config};
pub use grouping::Grouping;
pub use miner::{ConvoyMiner, MineError, MineOutcome, MineStats};
pub use pipeline::{K2Hop, K2HopParallel};
pub use stats::{GridStats, PhaseTimings, PrefetchStats, PruningStats};

use k2_cluster::GridScratch;
use k2_model::{ObjPos, ObjectSet, Oid, Time};
use k2_storage::{SnapshotSource, StoreResult};

/// How a probe loop reads `DB[t]|O`: positions of the sorted ids `O` at
/// timestamp `t` into the buffer (cleared first) — the signature of
/// [`SnapshotSource::multi_get_into`](k2_storage::SnapshotSource::multi_get_into),
/// which is what every probe wraps ([`probe_of`]): over the source, or
/// over the resident dataset when the workers share it.
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

/// Re-groups the objects of a candidate at timestamp `t` — the paper's
/// `reCluster(v, DB[t])`: fetch `DB[t]|O` through `probe`, then group it
/// with `grouping`, reusing `scratch` for both steps.
///
/// Returns the groups and the number of points fetched (for pruning
/// statistics).
pub(crate) fn regroup_at<G: Grouping>(
    probe: &mut impl Probe,
    grouping: G,
    t: Time,
    objects: &ObjectSet,
    scratch: &mut ProbeScratch,
) -> StoreResult<(Vec<ObjectSet>, u64)> {
    probe(t, objects.ids(), &mut scratch.positions)?;
    let fetched = scratch.positions.len() as u64;
    let groups = grouping.regroup(&scratch.positions, &mut scratch.cluster);
    Ok((groups, fetched))
}
