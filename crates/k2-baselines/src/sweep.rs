//! The snapshot sweep of CMC and PCCD ([`Algorithm::Cmc`] and
//! [`Algorithm::Pccd`]).
//!
//! Both algorithms make one pass over the timestamps, clustering every
//! full snapshot and matching the clusters against a set of *candidate
//! convoys* carried forward from the previous timestamp. They differ in
//! one rule — whether a cluster that matched an existing candidate still
//! starts a fresh candidate of its own:
//!
//! * **CMC** (Coherent Moving Cluster, Jeung et al., VLDB 2008) only
//!   starts candidates from *unmatched* clusters. Kept bug-for-bug
//!   faithful: this loses convoys that begin with a superset of a
//!   continuing convoy — the recall bug Yoon & Shahabi documented and §2
//!   of the k/2-hop paper recounts.
//! * **PCCD** (Partially Connected Convoy Discovery, Yoon & Shahabi,
//!   2009) always starts a fresh candidate from every cluster, restoring
//!   full recall. It is the first stage of VCoDA and the refinement stage
//!   of CuTS.
//!
//! The sweep yields *partially-connected* maximal convoys of length ≥ `k`.
//!
//! [`Algorithm::Cmc`]: crate::Algorithm::Cmc
//! [`Algorithm::Pccd`]: crate::Algorithm::Pccd

use k2_cluster::{dbscan, DbscanParams};
use k2_core::PruningStats;
use k2_model::{Convoy, ConvoySet, TimeInterval};
use k2_storage::{SnapshotSource, StoreResult};

/// Which candidate-seeding rule the sweep uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SeedRule {
    /// Only unmatched clusters seed new candidates (original CMC —
    /// incomplete).
    UnmatchedOnly,
    /// Every cluster seeds a new candidate (PCCD correction).
    EveryCluster,
}

/// Runs the sweep over the full time range of `store`; every point it
/// reads counts in `pruning.benchmark_points`.
pub(crate) fn snapshot_sweep(
    store: &dyn SnapshotSource,
    params: DbscanParams,
    k: u32,
    rule: SeedRule,
    pruning: &mut PruningStats,
) -> StoreResult<ConvoySet> {
    let span = store.span();
    let mut active: Vec<Convoy> = Vec::new();
    let mut results = ConvoySet::new();
    let emit = |results: &mut ConvoySet, v: &Convoy| {
        if v.len() >= k {
            results.update(v.clone());
        }
    };
    // Borrowed scans: zero-copy on in-memory stores, one reused buffer on
    // disk engines — the sweep touches every timestamp, so this is the
    // baseline that pays most for per-scan clones.
    let mut scan_buf = Vec::new();
    for t in span.iter() {
        let snapshot = store.scan_snapshot_ref(t, &mut scan_buf)?;
        pruning.benchmark_points += snapshot.len() as u64;
        let clusters = dbscan(&snapshot, params);
        let mut matched = vec![false; clusters.len()];
        let mut next = ConvoySet::new();
        for v in &active {
            let mut extended_fully = false;
            for (ci, c) in clusters.iter().enumerate() {
                let inter = v.objects.intersect(c);
                if inter.len() >= params.min_pts {
                    matched[ci] = true;
                    if inter.len() == v.objects.len() {
                        extended_fully = true;
                    }
                    next.update(Convoy::from_parts(inter, v.start(), t));
                }
            }
            if !extended_fully {
                emit(&mut results, v);
            }
        }
        for (ci, c) in clusters.into_iter().enumerate() {
            let seed = match rule {
                SeedRule::UnmatchedOnly => !matched[ci],
                SeedRule::EveryCluster => true,
            };
            if seed {
                next.update(Convoy::new(c, TimeInterval::instant(t)));
            }
        }
        active = next.drain();
    }
    for v in &active {
        emit(&mut results, v);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use crate::{run, Algorithm};
    use k2_model::{Convoy, Dataset, ObjectSet, Point};
    use k2_storage::InMemoryStore;

    /// The CMC recall-bug scenario: objects {0,1} travel together over
    /// [0,9]; objects {2,3} join them during [4,9]. The convoy
    /// ({0,1,2,3}, [4,9]) starts at t = 4 with a cluster that *matches*
    /// the continuing candidate {0,1} — CMC never seeds it.
    fn bug_store() -> InMemoryStore {
        let mut pts = Vec::new();
        for t in 0..10u32 {
            pts.push(Point::new(0, t as f64 * 3.0, 0.0, t));
            pts.push(Point::new(1, t as f64 * 3.0, 0.8, t));
            let (x2, y2) = if t >= 4 {
                (t as f64 * 3.0, 1.6)
            } else {
                (500.0, 500.0)
            };
            let (x3, y3) = if t >= 4 {
                (t as f64 * 3.0, 2.4)
            } else {
                (800.0, 800.0)
            };
            pts.push(Point::new(2, x2, y2, t));
            pts.push(Point::new(3, x3, y3, t));
        }
        InMemoryStore::new(Dataset::from_points(&pts).unwrap())
    }

    #[test]
    fn pccd_finds_the_late_superset_convoy() {
        let store = bug_store();
        let res = run(Algorithm::Pccd, &store, 2, 5, 1.0);
        assert!(res.convoys.contains(&Convoy::from_parts([0u32, 1], 0, 9)));
        assert!(res
            .convoys
            .contains(&Convoy::from_parts([0u32, 1, 2, 3], 4, 9)));
        assert_eq!(res.convoys.len(), 2);
    }

    #[test]
    fn cmc_misses_the_late_superset_convoy() {
        let store = bug_store();
        let res = run(Algorithm::Cmc, &store, 2, 5, 1.0);
        assert!(res.convoys.contains(&Convoy::from_parts([0u32, 1], 0, 9)));
        // The documented recall bug: {0,1,2,3} over [4,9] is lost.
        assert!(!res
            .convoys
            .contains(&Convoy::from_parts([0u32, 1, 2, 3], 4, 9)));
    }

    #[test]
    fn sweep_scans_every_point() {
        let store = bug_store();
        let res = run(Algorithm::Pccd, &store, 2, 5, 1.0);
        assert_eq!(res.stats.pruning.points_processed(), 40);
    }

    #[test]
    fn short_convoys_filtered_by_k() {
        let store = bug_store();
        let res = run(Algorithm::Pccd, &store, 2, 7, 1.0);
        assert_eq!(res.convoys.len(), 1);
        assert_eq!(res.convoys[0].objects, ObjectSet::from([0, 1]));
    }

    #[test]
    fn empty_snapshots_are_tolerated() {
        let pts = vec![
            Point::new(0, 0.0, 0.0, 0),
            Point::new(1, 0.5, 0.0, 0),
            Point::new(0, 0.0, 0.0, 5),
            Point::new(1, 0.5, 0.0, 5),
        ];
        let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
        let res = run(Algorithm::Pccd, &store, 2, 2, 1.0);
        assert!(res.convoys.is_empty()); // two instants, never consecutive
    }

    // CMC (Jeung et al.) on its own.

    #[test]
    fn simple_convoy_found() {
        let mut pts = Vec::new();
        for t in 0..10u32 {
            for oid in 0..3u32 {
                pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
            }
        }
        let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
        let res = run(Algorithm::Cmc, &store, 3, 5, 1.0);
        assert_eq!(res.convoys, vec![Convoy::from_parts([0u32, 1, 2], 0, 9)]);
        assert_eq!(res.stats.pruning.points_processed(), 30);
    }

    #[test]
    fn no_convoy_when_objects_disperse() {
        let mut pts = Vec::new();
        for t in 0..10u32 {
            for oid in 0..3u32 {
                pts.push(Point::new(oid, oid as f64 * 50.0 + t as f64, 0.0, t));
            }
        }
        let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
        let res = run(Algorithm::Cmc, &store, 3, 5, 1.0);
        assert!(res.convoys.is_empty());
    }

    // PCCD (Yoon & Shahabi) on its own.

    #[test]
    fn partially_connected_convoy_via_bridge_is_reported() {
        // {0,2} connected through bridge 1: PCCD (partially-connected
        // semantics) reports {0,1,2} as one convoy and does not split it.
        let mut pts = Vec::new();
        for t in 0..6u32 {
            pts.push(Point::new(0, 0.0, t as f64 * 0.1, t));
            pts.push(Point::new(1, 0.9, t as f64 * 0.1, t));
            pts.push(Point::new(2, 1.8, t as f64 * 0.1, t));
        }
        let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
        let res = run(Algorithm::Pccd, &store, 2, 4, 1.0);
        assert_eq!(res.convoys, vec![Convoy::from_parts([0u32, 1, 2], 0, 5)]);
    }

    #[test]
    fn convoy_split_and_rejoin_produces_segments() {
        // Objects together on [0,4], apart at 5, together on [6,10]:
        // two maximal convoys with k = 4 (the gap breaks continuity).
        let mut pts = Vec::new();
        for t in 0..=10u32 {
            let spread = if t == 5 { 100.0 } else { 0.5 };
            for oid in 0..3u32 {
                pts.push(Point::new(oid, oid as f64 * spread, 0.0, t));
            }
        }
        let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
        let res = run(Algorithm::Pccd, &store, 3, 4, 1.0);
        assert_eq!(res.convoys.len(), 2);
        assert_eq!(res.convoys[0], Convoy::from_parts([0u32, 1, 2], 0, 4));
        assert_eq!(res.convoys[1], Convoy::from_parts([0u32, 1, 2], 6, 10));
    }
}
