//! The unified front door: [`MiningSession`] builds a configured mining
//! run and executes it against any data source.
//!
//! One session type fronts every engine ([`K2Hop`], the baselines, the
//! flock miner — anything implementing
//! [`ConvoyMiner`]) and every storage backend (all four engines plus
//! bare [`Dataset`](crate::model::Dataset)s, via [`SnapshotSource`]).
//! A pattern is an engine: a flock session is
//! `.engine(FlockMiner::new(config))`, k/2-hop with a disk grouping. This is the API the examples, the
//! CLI, and the bench harness are built on.

use crate::core::{ConvoyMiner, K2Config, K2Hop, MineError, MineOutcome};
use crate::storage::SnapshotSource;

/// Builder for one configured mining run.
///
/// ```
/// use k2hop::prelude::*;
///
/// let dataset = k2hop::datagen::ConvoyInjector::new(200, 60)
///     .convoys(2, 4, 30)
///     .seed(7)
///     .generate();
///
/// let outcome = MiningSession::new(K2Config::new(4, 10, 1.5).unwrap())
///     .threads(2)
///     .mine(&dataset)
///     .unwrap();
/// assert!(outcome.convoys.len() >= 2);
/// ```
///
/// The defaults mine convoys with the [`K2Hop`] engine, one worker per
/// core. Both are overridable:
///
/// * [`threads`](Self::threads) pins the worker count of the default
///   engine,
/// * [`engine`](Self::engine) swaps in any [`ConvoyMiner`] (e.g. a
///   baseline, or the [`FlockMiner`](crate::patterns::FlockMiner), which
///   mines flocks).
///
/// [`mine`](Self::mine) accepts `&dyn SnapshotSource`: a bare
/// [`Dataset`](crate::model::Dataset),
/// [`InMemoryStore`](crate::storage::InMemoryStore), or
/// any of the three disk engines.
pub struct MiningSession {
    config: K2Config,
    threads: Option<usize>,
    engine: Option<Box<dyn ConvoyMiner>>,
}

impl std::fmt::Debug for MiningSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiningSession")
            .field("config", &self.config)
            .field("threads", &self.threads)
            .field(
                "engine",
                &self.engine.as_deref().map(ConvoyMiner::engine_name),
            )
            .finish()
    }
}

impl MiningSession {
    /// Starts a session from a validated configuration.
    pub fn new(config: K2Config) -> Self {
        Self {
            config,
            threads: None,
            engine: None,
        }
    }

    /// Starts a session from raw parameters, validating them (`m ≥ 2`,
    /// `k ≥ 2`, finite positive `eps`).
    pub fn with_params(m: usize, k: u32, eps: f64) -> Result<Self, MineError> {
        Ok(Self::new(K2Config::new(m, k, eps)?))
    }

    /// Pins the worker-thread count of the *default* [`K2Hop`] engine.
    ///
    /// Ignored when an explicit [`engine`](Self::engine) is set — a
    /// custom miner carries its own parallelism.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Replaces the default [`K2Hop`] engine with any [`ConvoyMiner`].
    pub fn engine(mut self, miner: impl ConvoyMiner + 'static) -> Self {
        self.engine = Some(Box::new(miner));
        self
    }

    /// The session's configuration.
    pub fn config(&self) -> K2Config {
        self.config
    }

    /// Runs the session against `source`.
    ///
    /// Deterministic for a fixed source and configuration; the
    /// golden-output and API-parity suites pin the output byte for byte
    /// across engines, storage backends and thread counts.
    pub fn mine(&self, source: &dyn SnapshotSource) -> Result<MineOutcome, MineError> {
        match &self.engine {
            Some(engine) => engine.mine(source),
            None => {
                let miner = match self.threads {
                    Some(n) => K2Hop::with_threads(self.config, n),
                    None => K2Hop::new(self.config),
                };
                ConvoyMiner::mine(&miner, source)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::FlockMiner;
    use crate::prelude::*;
    use crate::storage::TimeRange;

    fn dataset() -> Dataset {
        crate::datagen::ConvoyInjector::new(80, 60)
            .convoys(2, 4, 30)
            .seed(3)
            .generate()
    }

    #[test]
    fn default_session_mines_convoys() {
        let d = dataset();
        let outcome = MiningSession::with_params(3, 10, 1.0)
            .unwrap()
            .mine(&d)
            .unwrap();
        assert!(outcome.convoys.len() >= 2);
        assert_eq!(outcome.stats.engine, "k2hop");
    }

    #[test]
    fn engine_and_threads_are_respected() {
        let d = dataset();
        let cfg = K2Config::new(3, 10, 1.0).unwrap();
        let default = MiningSession::new(cfg).threads(2).mine(&d).unwrap();
        assert_eq!(default.stats.threads, 2);
        // An explicit engine carries its own worker count.
        let explicit = MiningSession::new(cfg)
            .threads(2)
            .engine(K2Hop::with_threads(cfg, 3))
            .mine(&d)
            .unwrap();
        assert_eq!(explicit.stats.engine, "k2hop");
        assert_eq!(explicit.stats.threads, 3);
        assert_eq!(explicit.convoys, default.convoys);
    }

    #[test]
    fn invalid_params_surface_as_typed_errors() {
        let err = MiningSession::with_params(1, 10, 1.0).unwrap_err();
        assert!(matches!(err, MineError::Config(_)));
    }

    #[test]
    fn flock_session_matches_direct_flock_miner() {
        let d = dataset();
        let cfg = K2Config::new(3, 10, 1.5).unwrap();
        let miner = FlockMiner::with_threads(cfg, 2);
        let session = MiningSession::new(cfg).engine(miner);
        let via_session = session.mine(&d).unwrap();
        let sweep = miner.mine_sweep(&d);
        assert_eq!(via_session.convoys, sweep);
        assert_eq!(via_session.stats.engine, "flock-k2hop");
        assert_eq!(via_session.stats.threads, 2);
        // Through a store that is not resident: same flocks.
        let store = TimeRange::new(InMemoryStore::new(d), 0, Time::MAX);
        assert_eq!(session.mine(&store).unwrap().convoys, sweep);
    }
}
