//! VCoDA — Valid Convoy Discovery (Yoon & Shahabi, 2009) and the corrected
//! VCoDA\* the k/2-hop paper evaluates against ([`Algorithm::VCoda`] and
//! [`Algorithm::VCodaStar`]).
//!
//! Both run PCCD over the full dataset first (the expensive part: every
//! snapshot is scanned and clustered), then validate the candidates into
//! fully-connected convoys:
//!
//! * VCoDA uses the **original DCVal** pass — fast, single sweep per
//!   candidate, but admits the false positives documented in §4.6;
//! * VCoDA\* uses the **corrected recursive validation** and is exact.
//!   Its output must coincide with `k2_core::K2Hop` (enforced by the
//!   integration tests), making it the paper's main baseline (Figures 7a,
//!   7b, 7h, 8a, 8l).
//!
//! [`Algorithm::VCoda`]: crate::Algorithm::VCoda
//! [`Algorithm::VCodaStar`]: crate::Algorithm::VCodaStar

use crate::dcval::dcval_original;
use crate::{reference, Algorithm, Baseline};
use k2_cluster::DbscanParams;
use k2_core::{ConvoyMiner, K2Config, MineError, MineOutcome, PruningStats};
use k2_model::ConvoySet;
use k2_storage::{SnapshotSource, StoreResult};

/// VCoDA\* over `store` with `(m, k, eps)`: the same run as
/// `Baseline::new(K2Config::new(m, k, eps)?, Algorithm::VCodaStar)`.
/// Kept only because the repo benchmark (`benchmark/src/probes.rs`) calls
/// it by this name; everything else builds a [`Baseline`].
pub fn vcoda_star(
    store: &dyn SnapshotSource,
    m: usize,
    k: u32,
    eps: f64,
) -> Result<MineOutcome, MineError> {
    Baseline::new(K2Config::new(m, k, eps)?, Algorithm::VCodaStar).mine(store)
}

/// Validates PCCD's `candidates` into FC convoys: with the corrected
/// recursive validation if `exact` (VCoDA\*), else with the original
/// DCVal (VCoDA). The candidates count as `pre_validation_convoys`, the
/// points read as `validation_points`.
pub(crate) fn validate(
    store: &dyn SnapshotSource,
    params: DbscanParams,
    k: u32,
    candidates: ConvoySet,
    exact: bool,
    pruning: &mut PruningStats,
) -> StoreResult<ConvoySet> {
    pruning.pre_validation_convoys = candidates.len() as u32;
    if exact {
        return reference::validate_all(store, params, k, candidates, pruning);
    }
    let (validated, points) = dcval_original(store, params, k, candidates)?;
    pruning.validation_points += points;
    Ok(validated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use k2_model::{Convoy, Dataset, Point};
    use k2_storage::InMemoryStore;

    /// Scenario where VCoDA's original DCVal produces a false positive but
    /// VCoDA\* stays exact.
    ///
    /// During [0,4] the set X = {0,1,2,3} is internally chained (2 bridges
    /// 3 to the rest). During [5,9] object 2 drifts off, but an *outside*
    /// object 9 bridges it back in the full snapshot, so the PCCD
    /// candidate is (X, [0,9]). DCVal walks the candidate: X is intact
    /// over [0,4], shrinks to {0,1,3} at t = 5 and inherits start 0 —
    /// without re-checking that {0,1,3} alone was never connected in
    /// [0,4] (2 was the bridge). Hence the false positive
    /// ({0,1,3}, [0,9]).
    fn adversarial_store() -> InMemoryStore {
        let mut pts = Vec::new();
        for t in 0..10u32 {
            if t < 5 {
                pts.push(Point::new(0, 0.0, 0.0, t));
                pts.push(Point::new(1, 0.8, 0.0, t));
                pts.push(Point::new(2, 1.6, 0.0, t)); // bridge inside X
                pts.push(Point::new(3, 2.4, 0.0, t));
                pts.push(Point::new(9, 50.0, 50.0, t));
            } else {
                pts.push(Point::new(0, 0.0, 0.0, t));
                pts.push(Point::new(1, 0.5, 0.0, t));
                pts.push(Point::new(3, 1.0, 0.0, t));
                pts.push(Point::new(9, 1.9, 0.0, t)); // outside bridge
                pts.push(Point::new(2, 2.8, 0.0, t));
            }
        }
        InMemoryStore::new(Dataset::from_points(&pts).unwrap())
    }

    #[test]
    fn vcoda_star_is_exact_on_adversarial_data() {
        let store = adversarial_store();
        let res = run(Algorithm::VCodaStar, &store, 2, 6, 1.0);
        // {0,1} is FC throughout [0,9] (adjacent the whole time).
        assert!(res.convoys.contains(&Convoy::from_parts([0u32, 1], 0, 9)));
        // {0,1,3} over [0,9] is NOT fully connected (bridge 2 in [0,4]).
        assert!(!res
            .convoys
            .contains(&Convoy::from_parts([0u32, 1, 3], 0, 9)));
    }

    #[test]
    fn vcoda_original_admits_false_positive() {
        let store = adversarial_store();
        let exact = run(Algorithm::VCodaStar, &store, 2, 6, 1.0);
        let flawed = run(Algorithm::VCoda, &store, 2, 6, 1.0);
        let fp = Convoy::from_parts([0u32, 1, 3], 0, 9);
        assert!(
            flawed.convoys.contains(&fp),
            "flawed output: {:?}",
            flawed.convoys
        );
        assert!(!exact.convoys.contains(&fp));
    }

    #[test]
    fn k2hop_agrees_with_vcoda_star_on_adversarial_data() {
        let store = adversarial_store();
        let exact = run(Algorithm::VCodaStar, &store, 2, 6, 1.0);
        let miner = k2_core::K2Hop::new(k2_core::K2Config::new(2, 6, 1.0).unwrap());
        let k2 = k2_core::ConvoyMiner::mine(&miner, &store).unwrap();
        assert_eq!(exact.convoys, k2.convoys);
    }

    #[test]
    fn both_agree_on_clean_data() {
        let mut pts = Vec::new();
        for t in 0..12u32 {
            for oid in 0..4u32 {
                pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
            }
        }
        let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
        let a = run(Algorithm::VCoda, &store, 4, 6, 1.0);
        let b = run(Algorithm::VCodaStar, &store, 4, 6, 1.0);
        assert_eq!(a.convoys, b.convoys);
        assert_eq!(a.convoys.len(), 1);
    }

    #[test]
    fn pre_validation_counts_reported() {
        let store = adversarial_store();
        let res = run(Algorithm::VCodaStar, &store, 2, 6, 1.0);
        assert!(res.stats.pruning.pre_validation_convoys >= 1);
        assert!(
            res.stats.pruning.points_processed() >= 40,
            "full scan plus validation"
        );
    }
}
