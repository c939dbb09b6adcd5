//! # k2-baselines — every comparator algorithm from the paper
//!
//! The experimental section of the paper compares k/2-hop against a zoo of
//! sequential and parallel convoy miners. This crate implements all of
//! them, from scratch, against the same [`SnapshotSource`](k2_storage::SnapshotSource) interface:
//!
//! | Module | Algorithm | Source | Notes |
//! |---|---|---|---|
//! | [`cmc`] | CMC | Jeung et al., VLDB 2008 | original sweep, **including its documented recall bug** |
//! | [`pccd`] | PCCD | Yoon & Shahabi, ICDMW 2009 | the corrected CMC (partially-connected convoys) |
//! | [`dcval`] | DCVal | Yoon & Shahabi | the *original* validation pass, including the flaw §4.6 of the k/2-hop paper fixes |
//! | [`vcoda`] | VCoDA / VCoDA\* | — | PCCD + DCVal, resp. PCCD + corrected recursive validation |
//! | [`cuts`] | CuTS | Jeung et al. | Douglas-Peucker simplification + filter-and-refine |
//! | [`spare`] | SPARE | Fan et al., PVLDB 2017 | star partitioning + apriori enumerator; sequential and multi-threaded |
//! | [`dcm`] | DCM | Orakzai et al., MDM 2016 | temporal partitioning + distributed merge; multi-"node" via threads |
//! | [`reference`](mod@reference) | brute force | — | exhaustive FC miner used as ground truth in tests |
//!
//! All FC-producing algorithms (`vcoda::vcoda_star`, `reference`) must
//! agree with `k2_core::K2Hop` exactly — the workspace integration tests
//! enforce this on randomized workloads.

pub mod cmc;
pub mod cuts;
pub mod dcm;
pub mod dcval;
pub mod pccd;
pub mod reference;
pub mod spare;
pub mod sweep;
pub mod vcoda;

use k2_model::Convoy;

/// Common result shape for baseline runs.
#[derive(Debug)]
pub struct BaselineResult {
    /// Convoys found (semantics depend on the algorithm: partially or
    /// fully connected).
    pub convoys: Vec<Convoy>,
    /// Points read from the store.
    pub points_processed: u64,
    /// Candidates that entered a validation phase (0 when the algorithm
    /// has none) — Figure 8j's "pre-validation convoys".
    pub pre_validation: u32,
}
