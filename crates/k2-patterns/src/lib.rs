//! # k2-patterns — movement patterns beyond convoys
//!
//! §7 of the paper: *"The k/2-hop technique can be applied to numerous
//! movement pattern mining algorithms such as moving clusters \[15\] and
//! flock patterns \[9, 24, 22\] … In future, we would like to use k/2-hop
//! to mine different movement patterns like moving clusters and flocks."*
//!
//! This crate delivers the flock half of that future work. A pattern
//! here is a grouping predicate, and nothing else: `k2-core`'s `K2Hop`
//! runs Algorithm 1 over whichever `Grouping` it is given.
//!
//! * [`flock`] — flock mining (Gudmundsson & van Kreveld; Vieira et al.):
//!   ≥ `m` objects inside a disk of radius `r` for ≥ `k` consecutive
//!   timestamps. [`FlockMiner`] is `K2Hop` with maximal radius-`r` disk
//!   groups in place of DBSCAN clusters, so it mines any
//!   `SnapshotSource` — a dataset, a store, a clamped pin — with the
//!   convoy miner's threads, sweep and counters; its exact full sweep
//!   ([`FlockMiner::mine_sweep`]) is the reference. They provably agree
//!   because Lemma 3 is pattern-agnostic — any group pattern of length
//!   ≥ `k = 2h` crosses two consecutive benchmark points — and the disk
//!   predicate is *self-sufficient* (it never depends on non-member
//!   objects, so restricted re-checks are exact — flocks need no
//!   FC-style final validation).
//! * [`mec`] — Welzl's minimal enclosing circle, the geometric substrate
//!   for the exact flock predicate.
//!
//! ## Where the hop stops
//!
//! Lemma 3 needs one fixed object set over *consecutive* timestamps:
//! only then must a pattern of length ≥ `2h` contain two consecutive
//! benchmark points, with all its members clustered at both. Two
//! neighbouring patterns drop one of those premises, so k/2-hop cannot
//! mine them and this crate does not:
//!
//! * swarms (Li, Ding, Han, Kays — PVLDB 2010) need co-clustering at
//!   ≥ `k` *arbitrary* timestamps. A gapped support set can dodge every
//!   benchmark point, so swarms admit no hop;
//! * moving clusters (Kalnis, Mamoulis, Bakiras — SSTD 2005) chain
//!   snapshot clusters whose consecutive Jaccard overlap is ≥ θ. Members
//!   join and leave while the cluster keeps its identity, so the objects
//!   clustered at one benchmark point need not be those at the next, and
//!   intersecting them would prune true moving clusters.

pub mod flock;
pub mod mec;

pub use flock::FlockMiner;
pub use mec::{min_enclosing_circle, Circle};
