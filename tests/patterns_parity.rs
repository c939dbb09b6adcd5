//! Property tests for the §7 extension patterns: the k/2-hop-accelerated
//! flock miner must agree with the exact sweep on arbitrary data, and
//! pattern semantics must relate to convoys as the literature says.

mod common;

use common::TempDir;
use k2hop::baselines::{Algorithm, Baseline};
use k2hop::patterns::flock::disk_groups;
use k2hop::patterns::{min_enclosing_circle, FlockMiner};
use k2hop::prelude::*;
use k2hop::storage::{FlatFileStore, TimeRange};
use proptest::prelude::*;

/// The flock miner over `m`, `k` and the disk radius `r`.
fn flock_miner(m: usize, k: u32, r: f64) -> FlockMiner {
    FlockMiner::new(K2Config::new(m, k, r).unwrap())
}

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (3usize..8, 6u32..20).prop_flat_map(|(n, ts)| {
        proptest::collection::vec((0u8..10, 0u8..4), n * ts as usize).prop_map(move |cells| {
            let mut pts = Vec::with_capacity(cells.len());
            let mut i = 0;
            for t in 0..ts {
                for oid in 0..n as u32 {
                    let (cx, cy) = cells[i];
                    pts.push(Point::new(oid, cx as f64, cy as f64, t));
                    i += 1;
                }
            }
            Dataset::from_points(&pts).expect("non-empty")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Headline: k/2-hop with the disk grouping is exact, on a bare
    /// dataset, through a source that is not resident (the path a served
    /// flock takes) and through a disk store (one hop-window a step).
    #[test]
    fn flock_hop_equals_sweep(d in dataset_strategy(), m in 2usize..4, k in 2u32..8) {
        let miner = flock_miner(m, k, 1.2);
        let sweep = miner.mine_sweep(&d);
        prop_assert_eq!(&miner.mine(&d).unwrap().convoys, &sweep);
        let store = TimeRange::new(InMemoryStore::new(d.clone()), 0, Time::MAX);
        prop_assert!(store.as_dataset().is_none());
        prop_assert_eq!(&miner.mine(&store).unwrap().convoys, &sweep);
        let dir = TempDir::new("flock");
        let flat = FlatFileStore::create(dir.join("data.bin"), &d).unwrap();
        prop_assert_eq!(&miner.mine(&flat).unwrap().convoys, &sweep);
    }

    /// Every reported flock actually fits a radius-r disk at every
    /// timestamp of its lifespan (checked independently via the MEC).
    #[test]
    fn flocks_satisfy_the_disk_predicate(d in dataset_strategy()) {
        let r = 1.0;
        let miner = flock_miner(2, 3, r);
        for f in miner.mine_sweep(&d) {
            for t in f.lifespan.iter() {
                let coords: Vec<(f64, f64)> = d
                    .restrict_at(t, &f.objects)
                    .iter()
                    .map(|p| (p.x, p.y))
                    .collect();
                prop_assert_eq!(coords.len(), f.objects.len(), "member missing at t={}", t);
                let mec = min_enclosing_circle(&coords);
                prop_assert!(mec.r <= r + 1e-6, "flock {:?} has MEC {} > r at t={}", f, mec.r, t);
            }
        }
    }

    /// Disk groups are maximal and coverable; every coverable pair is in
    /// some group.
    #[test]
    fn disk_groups_are_maximal_and_complete(
        coords in proptest::collection::vec((0u8..12, 0u8..12), 2..16),
    ) {
        let points: Vec<ObjPos> = coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| ObjPos::new(i as u32, x as f64, y as f64))
            .collect();
        let r = 1.5;
        let groups = disk_groups(&points, r, 2);
        // Maximality: no group contains another.
        for (i, a) in groups.iter().enumerate() {
            for (j, b) in groups.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.is_subset(b));
                }
            }
        }
        // Completeness: every pair within 2r appears together somewhere.
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                if points[i].dist(&points[j]) <= 2.0 * r {
                    let covered = groups.iter().any(|g| {
                        g.contains(points[i].oid) && g.contains(points[j].oid)
                    });
                    prop_assert!(covered, "pair ({i},{j}) lost");
                }
            }
        }
    }

    /// Every flock's objects also satisfy the (weaker) convoy predicate:
    /// objects within one radius-r disk are pairwise within 2r, hence
    /// density-connected at eps = 2r — so each flock is contained in some
    /// partially-connected convoy with the same m and k.
    #[test]
    fn every_flock_is_inside_a_convoy(d in dataset_strategy()) {
        let (m, k, r) = (2usize, 3u32, 1.0);
        let flocks = flock_miner(m, k, r).mine_sweep(&d);
        let store = InMemoryStore::new(d);
        let pccd = Baseline::new(K2Config::new(m, k, 2.0 * r).unwrap(), Algorithm::Pccd);
        let convoys = pccd.mine(&store).unwrap().convoys;
        for f in &flocks {
            let inside = convoys.iter().any(|c| f.is_sub_convoy_of(c));
            prop_assert!(inside, "flock {:?} not inside any convoy {:?}", f, convoys);
        }
    }
}
