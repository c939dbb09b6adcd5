//! # k2-baselines — every comparator algorithm from the paper
//!
//! The experimental section of the paper compares k/2-hop against a zoo of
//! sequential and parallel convoy miners. This crate implements all of
//! them, from scratch, against the same [`SnapshotSource`] interface, and
//! runs every one as the same [`ConvoyMiner`]: a [`Baseline`] with the
//! [`Algorithm`] to run.
//!
//! | Module | Algorithm | Source | Notes |
//! |---|---|---|---|
//! | [`sweep`] | CMC | Jeung et al., VLDB 2008 | original sweep, **including its documented recall bug** |
//! | [`sweep`] | PCCD | Yoon & Shahabi, ICDMW 2009 | the corrected CMC (partially-connected convoys) |
//! | [`dcval`] | DCVal | Yoon & Shahabi | the *original* validation pass, including the flaw §4.6 of the k/2-hop paper fixes |
//! | [`vcoda`] | VCoDA / VCoDA\* | — | PCCD + DCVal, resp. PCCD + corrected recursive validation |
//! | [`cuts`] | CuTS | Jeung et al. | Douglas-Peucker simplification + filter-and-refine |
//! | [`spare`] | SPARE | Fan et al., PVLDB 2017 | star partitioning + apriori enumerator; sequential and multi-threaded |
//! | [`dcm`] | DCM | Orakzai et al., MDM 2016 | temporal partitioning + distributed merge; multi-"node" via threads |
//! | [`reference`](mod@reference) | brute force | — | exhaustive FC miner used as ground truth in tests |
//!
//! All FC-producing algorithms ([`Algorithm::VCodaStar`], `reference`)
//! must agree with `k2_core::K2Hop` exactly — the workspace integration
//! tests enforce this on randomized workloads.

pub mod cuts;
pub mod dcm;
pub mod dcval;
pub mod reference;
pub mod spare;
pub mod sweep;
pub mod vcoda;

use cuts::CutsParams;
use k2_core::{
    ConvoyMiner, K2Config, MineError, MineOutcome, MineStats, PhaseTimings, PruningStats,
};
use k2_storage::SnapshotSource;
use std::time::{Duration, Instant};
use sweep::{snapshot_sweep, SeedRule};

/// A comparator algorithm of the paper's §6.
#[derive(Debug, Clone, Copy)]
pub enum Algorithm {
    /// The original CMC sweep (unmatched-only seeding, recall bug and
    /// all).
    Cmc,
    /// The corrected PCCD sweep (every cluster seeds).
    Pccd,
    /// VCoDA: PCCD + original DCVal. May return non-FC convoys.
    VCoda,
    /// VCoDA\*: PCCD + corrected recursive validation. Exact maximal FC
    /// convoys by full scan.
    VCodaStar,
    /// CuTS filter-and-refine with the given λ/δ.
    Cuts(CutsParams),
    /// SPARE on the given number of worker threads.
    Spare(usize),
    /// DCM on the given number of nodes (worker threads).
    Dcm(usize),
}

/// Every comparator behind the [`ConvoyMiner`] API, so the baselines plug
/// into the same sessions, storage engines and harnesses as k/2-hop.
///
/// Every algorithm scans full snapshots, so the points it reads are
/// `benchmark_points` and its run time is `timings.benchmark`. VCoDA and
/// VCoDA\* also validate: their PCCD candidates are
/// `pre_validation_convoys`, and the validation pass's points and time
/// are `validation_points` and `timings.validation`.
///
/// Note the *semantic* difference the paper stresses: CMC, PCCD, CuTS,
/// SPARE and DCM yield **partially-connected** maximal convoys, a
/// superset-ish relative of k/2-hop's fully-connected convoys, not
/// byte-identical to them.
///
/// ```
/// use k2_baselines::{Algorithm, Baseline};
/// use k2_core::{ConvoyMiner, K2Config};
/// use k2_model::{Dataset, Point};
///
/// let mut pts = Vec::new();
/// for t in 0..10u32 {
///     for oid in 0..3u32 {
///         pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
///     }
/// }
/// let d = Dataset::from_points(&pts).unwrap();
/// let miner = Baseline::new(K2Config::new(3, 5, 1.0).unwrap(), Algorithm::Pccd);
/// let outcome = miner.mine(&d).unwrap();
/// assert_eq!(outcome.convoys.len(), 1);
/// assert_eq!(outcome.stats.engine, "pccd-sweep");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Baseline {
    config: K2Config,
    algorithm: Algorithm,
}

impl Baseline {
    /// A miner running `algorithm` with the parameters of `config`.
    pub fn new(config: K2Config, algorithm: Algorithm) -> Self {
        Self { config, algorithm }
    }
}

impl ConvoyMiner for Baseline {
    fn engine_name(&self) -> &'static str {
        match self.algorithm {
            Algorithm::Cmc => "cmc-sweep",
            Algorithm::Pccd => "pccd-sweep",
            Algorithm::VCoda => "vcoda",
            Algorithm::VCodaStar => "vcoda-star",
            Algorithm::Cuts(_) => "cuts",
            Algorithm::Spare(_) => "spare",
            Algorithm::Dcm(_) => "dcm",
        }
    }

    fn mine(&self, source: &dyn SnapshotSource) -> Result<MineOutcome, MineError> {
        let t0 = Instant::now();
        let (params, k) = (self.config.dbscan(), self.config.k);
        let mut pruning = PruningStats {
            total_points: source.num_points(),
            benchmark_timestamps: source.span().len(),
            ..PruningStats::default()
        };
        let mut validation = Duration::ZERO;
        let convoys = match self.algorithm {
            Algorithm::Cmc => {
                snapshot_sweep(source, params, k, SeedRule::UnmatchedOnly, &mut pruning)?
            }
            Algorithm::Pccd => {
                snapshot_sweep(source, params, k, SeedRule::EveryCluster, &mut pruning)?
            }
            Algorithm::VCoda | Algorithm::VCodaStar => {
                let candidates =
                    snapshot_sweep(source, params, k, SeedRule::EveryCluster, &mut pruning)?;
                let t1 = Instant::now();
                let exact = matches!(self.algorithm, Algorithm::VCodaStar);
                let fc = vcoda::validate(source, params, k, candidates, exact, &mut pruning)?;
                validation = t1.elapsed();
                fc
            }
            Algorithm::Cuts(p) => cuts::mine(source, params, k, p, &mut pruning)?,
            Algorithm::Spare(threads) => spare::mine(source, params, k, threads, &mut pruning)?,
            Algorithm::Dcm(nodes) => dcm::mine(source, params, k, nodes, &mut pruning)?,
        };
        let threads = match self.algorithm {
            Algorithm::Spare(n) | Algorithm::Dcm(n) => n.max(1),
            _ => 1,
        };
        let timings = PhaseTimings {
            benchmark: t0.elapsed().saturating_sub(validation),
            validation,
            ..PhaseTimings::default()
        };
        Ok(MineOutcome {
            convoys: convoys.into_sorted_vec(),
            stats: MineStats {
                engine: self.engine_name(),
                threads,
                timings,
                pruning,
                prefetch: Default::default(),
                grid: Default::default(),
            },
            io: source.io_stats(),
        })
    }
}

/// Runs `algorithm` over `source` with `(m, k, eps)`, for the unit tests.
#[cfg(test)]
fn run(
    algorithm: Algorithm,
    source: &dyn SnapshotSource,
    m: usize,
    k: u32,
    eps: f64,
) -> MineOutcome {
    Baseline::new(K2Config::new(m, k, eps).unwrap(), algorithm)
        .mine(source)
        .unwrap()
}
