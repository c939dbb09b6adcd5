//! # k2-patterns — movement patterns beyond convoys
//!
//! §7 of the paper: *"The k/2-hop technique can be applied to numerous
//! movement pattern mining algorithms such as moving clusters \[15\] and
//! flock patterns \[9, 24, 22\] … In future, we would like to use k/2-hop
//! to mine different movement patterns like moving clusters and flocks."*
//!
//! This crate delivers that future work:
//!
//! * [`flock`] — flock mining (Gudmundsson & van Kreveld; Vieira et al.):
//!   ≥ `m` objects inside a disk of radius `r` for ≥ `k` consecutive
//!   timestamps. [`FlockMiner`] is a **k/2-hop-accelerated** engine
//!   behind `k2-core`'s `ConvoyMiner` trait (benchmark points +
//!   candidate intersection + hop-window validation), so it mines any
//!   `SnapshotSource` — a dataset, a store, a clamped pin — through the
//!   same two access paths as the convoy miners; its exact full sweep
//!   ([`FlockMiner::mine_sweep`]) is the reference. They provably agree
//!   because Lemma 3 is pattern-agnostic — any group pattern of length
//!   ≥ `k = 2h` crosses two consecutive benchmark points, and the disk
//!   predicate is *self-sufficient* (it never depends on non-member
//!   objects, so restricted re-checks are exact — flocks need no
//!   FC-style final validation).
//! * [`moving_cluster`] — moving clusters (Kalnis et al.): cluster chains
//!   whose consecutive Jaccard overlap is ≥ θ. Identity survives
//!   membership churn, so benchmark hopping does not apply; the exact
//!   sequential miner is provided for completeness.
//! * [`mec`] — Welzl's minimal enclosing circle, the geometric substrate
//!   for the exact flock predicate.
//! * [`swarm`] — swarms (Li et al.): co-clustering at ≥ k *arbitrary*
//!   timestamps. Included to delimit k/2-hop's reach: without
//!   consecutiveness the benchmark-point lemma fails, which is precisely
//!   why convoys admit the k/2 hop and swarms do not.

pub mod flock;
pub mod mec;
pub mod moving_cluster;
pub mod swarm;

pub use flock::{FlockConfig, FlockMiner};
pub use mec::{min_enclosing_circle, Circle};
pub use moving_cluster::{MovingCluster, MovingClusterConfig};
pub use swarm::{Swarm, SwarmConfig};
