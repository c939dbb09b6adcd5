//! # k2hop — fast mining of convoy patterns with effective pruning
//!
//! A complete, from-scratch Rust reproduction of
//! *Orakzai, Calders, Pedersen. "k/2-hop: Fast Mining of Convoy Patterns
//! With Effective Pruning." PVLDB 12(9), 2019.*
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`model`] — trajectory data model (points, snapshots, datasets, convoys),
//! * [`cluster`] — DBSCAN with a uniform-grid index,
//! * [`storage`] — the paper's three persistent stores (flat file,
//!   clustered B+tree "RDBMS", LSM-tree),
//! * [`core`] — the k/2-hop algorithm itself,
//! * [`baselines`] — CMC, PCCD, VCoDA/VCoDA*, CuTS, SPARE and DCM,
//! * [`datagen`] — seeded synthetic workloads (Brinkhoff-style network
//!   traffic, Trucks-like, T-Drive-like, convoy injection),
//! * [`patterns`] — the paper's §7 future work: flocks (with k/2-hop
//!   acceleration) and moving clusters,
//! * [`server`] — MVCC snapshot serving: concurrent mining under live
//!   ingest over a length-prefixed TCP protocol (plus an in-process
//!   client),
//!
//! and adds the unified entry point: [`MiningSession`], a builder that
//! runs any engine ([`ConvoyMiner`]) over any data source
//! ([`SnapshotSource`]) for any supported [`PatternKind`].
//!
//! ## Quickstart
//!
//! ```
//! use k2hop::prelude::*;
//!
//! // Generate a small synthetic workload with two planted convoys.
//! let dataset = k2hop::datagen::ConvoyInjector::new(500, 60)
//!     .convoys(2, 4, 30)
//!     .seed(7)
//!     .generate();
//!
//! // Mine fully-connected convoys: at least 4 objects together for at
//! // least 10 consecutive timestamps, within eps = 1.5. A session mines
//! // a bare dataset or any storage engine alike.
//! let session = MiningSession::with_params(4, 10, 1.5).expect("valid parameters");
//! let outcome = session.mine(&dataset).expect("in-memory mining");
//!
//! assert!(outcome.convoys.len() >= 2);
//! for convoy in outcome.convoys.iter() {
//!     assert!(convoy.objects.len() >= 4);
//!     assert!(convoy.len() >= 10);
//! }
//! // Run metadata rides along: per-phase timings, pruning counters, I/O.
//! assert_eq!(outcome.stats.engine, "k2hop");
//! assert!(outcome.stats.pruning.pruning_ratio() > 0.5);
//! ```
//!
//! Engines are interchangeable behind [`ConvoyMiner`]:
//!
//! ```
//! use k2hop::core::K2HopParallel;
//! use k2hop::prelude::*;
//!
//! let dataset = k2hop::datagen::ConvoyInjector::new(200, 40)
//!     .convoys(1, 5, 25)
//!     .seed(1)
//!     .generate();
//! let config = K2Config::new(4, 10, 1.5).expect("valid parameters");
//!
//! let sequential = MiningSession::new(config).mine(&dataset).unwrap();
//! let parallel = MiningSession::new(config)
//!     .engine(K2HopParallel::new(config, 4))
//!     .mine(&dataset)
//!     .unwrap();
//! assert_eq!(sequential.convoys, parallel.convoys);
//! ```

#![deny(missing_docs)]

pub use k2_baselines as baselines;
pub use k2_cluster as cluster;
pub use k2_core as core;
pub use k2_datagen as datagen;
pub use k2_model as model;
pub use k2_patterns as patterns;
pub use k2_server as server;
pub use k2_storage as storage;

mod session;

pub use k2_core::{ConvoyMiner, MineError, MineOutcome, MineStats};
pub use k2_storage::SnapshotSource;
pub use session::{MiningSession, PatternKind};

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use crate::session::{MiningSession, PatternKind};
    pub use k2_cluster::{dbscan, DbscanParams};
    pub use k2_core::{ConvoyMiner, K2Config, K2Hop, MineError, MineOutcome, MineStats};
    pub use k2_model::{
        Convoy, ConvoySet, Dataset, DatasetBuilder, ObjPos, ObjectSet, Oid, Point, Snapshot, Time,
        TimeInterval,
    };
    pub use k2_storage::{InMemoryStore, SnapshotSource, TrajectoryStore};
}
