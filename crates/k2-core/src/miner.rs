//! The unified mining API: one object-safe trait ([`ConvoyMiner`]) in
//! front of every engine, one outcome shape ([`MineOutcome`]), one error
//! type ([`MineError`]).
//!
//! The paper's thesis is that a single pruning pipeline serves every
//! convoy-style workload; this module makes the public surface say the
//! same thing. A miner consumes any [`SnapshotSource`] — all four
//! storage engines or a bare in-memory
//! [`Dataset`](k2_model::Dataset) — and returns convoys plus run
//! metadata, never panicking on storage failures:
//!
//! ```
//! use k2_core::{ConvoyMiner, K2Config, K2Hop, K2HopParallel};
//! use k2_model::{Dataset, Point};
//!
//! let mut pts = Vec::new();
//! for t in 0..10u32 {
//!     for oid in 0..3u32 {
//!         pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
//!     }
//! }
//! let dataset = Dataset::from_points(&pts).unwrap();
//! let config = K2Config::new(3, 5, 1.0).unwrap();
//!
//! // Both miners behind the same trait, both straight off the dataset.
//! let miners: [&dyn ConvoyMiner; 2] = [
//!     &K2Hop::new(config),
//!     &K2HopParallel::new(config, 4),
//! ];
//! for miner in miners {
//!     let outcome = miner.mine(&dataset).unwrap();
//!     assert_eq!(outcome.convoys.len(), 1);
//!     assert_eq!(outcome.stats.engine, miner.engine_name());
//! }
//! ```

use crate::config::ConfigError;
use crate::stats::{GridStats, PhaseTimings, PrefetchStats, PruningStats};
use k2_model::Convoy;
use k2_storage::{IoStats, SnapshotSource, StoreError};
use std::fmt;

/// Everything that can go wrong in a mining run — the typed union of
/// parameter validation ([`ConfigError`]) and storage failures
/// ([`StoreError`]).
#[derive(Debug)]
#[non_exhaustive]
pub enum MineError {
    /// The mining parameters failed validation.
    Config(ConfigError),
    /// A storage engine failed underneath the miner.
    Store(StoreError),
    /// The requested engine/pattern combination is not supported (e.g.
    /// a convoy engine asked to mine flocks).
    UnsupportedPattern {
        /// The configured engine.
        engine: &'static str,
        /// The requested pattern kind.
        pattern: &'static str,
    },
}

impl fmt::Display for MineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MineError::Config(e) => write!(f, "invalid mining parameters: {e}"),
            MineError::Store(e) => write!(f, "storage failure while mining: {e}"),
            MineError::UnsupportedPattern { engine, pattern } => {
                write!(f, "engine '{engine}' cannot mine pattern '{pattern}'")
            }
        }
    }
}

impl std::error::Error for MineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MineError::Config(e) => Some(e),
            MineError::Store(e) => Some(e),
            MineError::UnsupportedPattern { .. } => None,
        }
    }
}

impl From<ConfigError> for MineError {
    fn from(e: ConfigError) -> Self {
        MineError::Config(e)
    }
}

impl From<StoreError> for MineError {
    fn from(e: StoreError) -> Self {
        MineError::Store(e)
    }
}

/// Run metadata attached to every [`MineOutcome`].
#[derive(Debug, Clone, Copy)]
pub struct MineStats {
    /// The engine that produced the outcome (see
    /// [`ConvoyMiner::engine_name`]).
    pub engine: &'static str,
    /// Worker threads the engine was configured with.
    pub threads: usize,
    /// Per-phase wall-clock timings (Figure 8i). Engines that do not
    /// follow the k/2-hop phase structure report their total under the
    /// phase that best describes their work and leave the rest zero.
    pub timings: PhaseTimings,
    /// Data-pruning counters (Table 5). Engines fill the counters their
    /// execution strategy tracks; untracked counters stay zero.
    pub pruning: PruningStats,
    /// Memory discipline of the store path's bounded hop-window
    /// prefetch. All-zero for engines (or paths) that never prefetch.
    pub prefetch: PrefetchStats,
    /// Grid-reuse counters of the benchmark-clustering phase (patched vs
    /// rebuilt snapshot grids). All-zero for engines that do not cluster
    /// through the incremental grid.
    pub grid: GridStats,
}

/// Everything one mining run produces: the convoys, the run statistics,
/// and the I/O profile of the source that served it.
#[derive(Debug)]
pub struct MineOutcome {
    /// The mined patterns, canonically sorted (by lifespan, then
    /// objects). For fully-connected engines these are maximal FC
    /// convoys; sweep baselines yield partially-connected convoys and
    /// flock sessions yield flocks — the semantics follow the engine.
    pub convoys: Vec<Convoy>,
    /// Run metadata: engine, threads, timings, pruning counters.
    pub stats: MineStats,
    /// The source's I/O counters, sampled when the run finished
    /// (cumulative since the store's last reset).
    pub io: IoStats,
}

/// A convoy mining engine behind the unified API.
///
/// Object-safe: sessions hold `Box<dyn ConvoyMiner>` and every source is
/// passed as `&dyn SnapshotSource`, so any engine mines from any storage
/// backend. Implemented by [`K2Hop`](crate::K2Hop),
/// [`K2HopParallel`](crate::K2HopParallel), and the baseline miners
/// (e.g. the CMC/PCCD snapshot sweep in `k2-baselines`).
pub trait ConvoyMiner {
    /// Stable engine identifier for reports (e.g. `"k2hop"`).
    fn engine_name(&self) -> &'static str;

    /// Mines `source` end to end.
    ///
    /// The convoy semantics (fully connected, partially connected, …)
    /// are the implementing engine's; every implementation must be
    /// deterministic for a fixed source and configuration.
    fn mine(&self, source: &dyn SnapshotSource) -> Result<MineOutcome, MineError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{K2Config, K2Hop, K2HopParallel};
    use k2_model::{Dataset, Point};
    use k2_storage::InMemoryStore;

    fn dataset() -> Dataset {
        let mut pts = Vec::new();
        for t in 0..20u32 {
            for oid in 0..4u32 {
                pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
            }
            pts.push(Point::new(9, 500.0 + t as f64 * 9.0, 700.0, t));
        }
        Dataset::from_points(&pts).unwrap()
    }

    #[test]
    fn trait_objects_mine_datasets_and_stores() {
        let d = dataset();
        let cfg = K2Config::new(3, 8, 1.0).unwrap();
        let store = InMemoryStore::new(d.clone());
        let miners: [Box<dyn ConvoyMiner>; 2] = [
            Box::new(K2Hop::with_threads(cfg, 2)),
            Box::new(K2HopParallel::new(cfg, 2)),
        ];
        let mut all = Vec::new();
        for miner in &miners {
            let from_dataset = miner.mine(&d).unwrap();
            let from_store = miner.mine(&store).unwrap();
            assert_eq!(from_dataset.convoys, from_store.convoys);
            assert_eq!(from_dataset.stats.engine, miner.engine_name());
            assert_eq!(from_dataset.stats.threads, 2);
            all.push(from_store.convoys);
        }
        assert_eq!(all[0], all[1], "engines agree behind the trait");
        assert_eq!(all[0].len(), 1);
    }

    #[test]
    fn store_io_is_reported() {
        let d = dataset();
        let cfg = K2Config::new(3, 8, 1.0).unwrap();
        let store = InMemoryStore::new(d);
        let outcome = ConvoyMiner::mine(&K2Hop::new(cfg), &store).unwrap();
        assert!(outcome.io.point_queries > 0);
        // A bare dataset has no counters to move.
        let outcome = ConvoyMiner::mine(&K2Hop::new(cfg), store.dataset()).unwrap();
        assert_eq!(outcome.io.point_queries, 0);
    }

    #[test]
    fn error_type_wraps_and_displays_both_sides() {
        let config: MineError = ConfigError::MTooSmall.into();
        assert!(config.to_string().contains("parameters"));
        let store: MineError =
            StoreError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone")).into();
        assert!(store.to_string().contains("storage"));
        assert!(std::error::Error::source(&config).is_some());
        assert!(std::error::Error::source(&store).is_some());
    }
}
