//! The unified front door: [`MiningSession`] builds a configured mining
//! run and executes it against any data source.
//!
//! One session type fronts every engine ([`K2Hop`], [`K2HopParallel`],
//! the baselines — anything implementing [`ConvoyMiner`]), every storage
//! backend (all four engines plus bare
//! [`Dataset`](crate::model::Dataset)s, via [`SnapshotSource`]), and
//! every supported pattern kind ([`PatternKind`]). This is the API the
//! examples, the CLI, and the bench harness are built on.

use crate::core::{ConvoyMiner, K2Config, K2Hop, MineError, MineOutcome};
use crate::patterns::{FlockConfig, FlockMiner};
use crate::storage::SnapshotSource;

/// Which movement pattern a [`MiningSession`] mines.
///
/// The k/2-hop benchmark-point lemma is pattern-agnostic for
/// *consecutive* group patterns (§7 of the paper), which is why one
/// session API covers more than convoys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum PatternKind {
    /// Density-connected groups of ≥ `m` objects for ≥ `k` consecutive
    /// timestamps (the paper's convoys) — mined by the configured
    /// [`ConvoyMiner`] engine.
    #[default]
    Convoy,
    /// Disk-confined groups (radius `eps`) of ≥ `m` objects for ≥ `k`
    /// consecutive timestamps — mined with the k/2-hop-accelerated flock
    /// miner ([`FlockMiner::mine_source`]); the session's `eps` is the
    /// disk radius.
    Flock,
}

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
/// The defaults mine [`PatternKind::Convoy`] with the sequential
/// [`K2Hop`] engine, one clustering worker per core. Everything is
/// overridable:
///
/// * [`threads`](Self::threads) pins the worker count of the default
///   engine,
/// * [`engine`](Self::engine) swaps in any [`ConvoyMiner`] (e.g.
///   [`K2HopParallel`](crate::core::K2HopParallel) or a baseline),
/// * [`pattern`](Self::pattern) switches the pattern kind.
///
/// [`mine`](Self::mine) accepts `&dyn SnapshotSource`: a bare
/// [`Dataset`](crate::model::Dataset),
/// [`InMemoryStore`](crate::storage::InMemoryStore), or
/// any of the three disk engines.
pub struct MiningSession {
    config: K2Config,
    threads: Option<usize>,
    engine: Option<Box<dyn ConvoyMiner>>,
    pattern: PatternKind,
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
            .field("pattern", &self.pattern)
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
            pattern: PatternKind::Convoy,
        }
    }

    /// Starts a session from raw parameters, validating them (`m ≥ 2`,
    /// `k ≥ 2`, finite positive `eps`).
    pub fn with_params(m: usize, k: u32, eps: f64) -> Result<Self, MineError> {
        Ok(Self::new(K2Config::new(m, k, eps)?))
    }

    /// Pins the worker-thread count of the *default* engine (and of the
    /// flock miner's clustering, which is single-threaded today).
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

    /// Selects the pattern kind to mine (default:
    /// [`PatternKind::Convoy`]).
    pub fn pattern(mut self, pattern: PatternKind) -> Self {
        self.pattern = pattern;
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
        match self.pattern {
            PatternKind::Convoy => match &self.engine {
                Some(engine) => engine.mine(source),
                None => {
                    let miner = match self.threads {
                        Some(n) => K2Hop::with_threads(self.config, n),
                        None => K2Hop::new(self.config),
                    };
                    ConvoyMiner::mine(&miner, source)
                }
            },
            PatternKind::Flock => {
                // A convoy engine cannot mine flocks — reject rather
                // than silently ignoring the configured engine.
                if let Some(engine) = &self.engine {
                    return Err(MineError::UnsupportedPattern {
                        engine: engine.engine_name(),
                        pattern: "flock",
                    });
                }
                let cfg = FlockConfig::new(self.config.m, self.config.k, self.config.eps);
                FlockMiner::new(cfg).mine_source(source)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::K2HopParallel;
    use crate::prelude::*;

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
        let parallel = MiningSession::new(cfg)
            .engine(K2HopParallel::new(cfg, 3))
            .mine(&d)
            .unwrap();
        assert_eq!(parallel.stats.engine, "k2hop-parallel");
        assert_eq!(parallel.stats.threads, 3);
        assert_eq!(parallel.convoys, default.convoys);
    }

    #[test]
    fn invalid_params_surface_as_typed_errors() {
        let err = MiningSession::with_params(1, 10, 1.0).unwrap_err();
        assert!(matches!(err, MineError::Config(_)));
    }

    #[test]
    fn convoy_engine_with_flock_pattern_is_rejected() {
        let d = dataset();
        let cfg = K2Config::new(3, 10, 1.0).unwrap();
        let err = MiningSession::new(cfg)
            .engine(K2HopParallel::new(cfg, 2))
            .pattern(PatternKind::Flock)
            .mine(&d)
            .unwrap_err();
        assert!(
            matches!(err, MineError::UnsupportedPattern { .. }),
            "configured engines must not be silently ignored: {err}"
        );
    }

    #[test]
    fn flock_session_matches_direct_flock_miner() {
        let d = dataset();
        let session = MiningSession::with_params(3, 10, 1.5)
            .unwrap()
            .pattern(PatternKind::Flock);
        let via_session = session.mine(&d).unwrap();
        let direct = FlockMiner::new(FlockConfig::new(3, 10, 1.5)).mine_hop(&d);
        assert_eq!(via_session.convoys, direct);
        assert_eq!(via_session.stats.engine, "flock-k2hop");
        // Through a store, incl. materialization: same flocks.
        let store = InMemoryStore::new(d);
        assert_eq!(session.mine(&store).unwrap().convoys, direct);
    }
}
