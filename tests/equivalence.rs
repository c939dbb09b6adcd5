//! Cross-algorithm equivalence: the k/2-hop pipeline, VCoDA*, and the
//! brute-force reference miner must produce *identical* maximal
//! fully-connected convoy sets on every workload.

use k2hop::baselines::{reference, Algorithm, Baseline};
use k2hop::core::{ConvoyMiner, K2Config, K2Hop};
use k2hop::datagen::ConvoyInjector;
use k2hop::model::Convoy;
use k2hop::storage::InMemoryStore;

fn k2(store: &InMemoryStore, m: usize, k: u32, eps: f64) -> Vec<Convoy> {
    ConvoyMiner::mine(&K2Hop::new(K2Config::new(m, k, eps).unwrap()), store)
        .unwrap()
        .convoys
}

fn check_all_agree(store: &InMemoryStore, m: usize, k: u32, eps: f64, label: &str) {
    let k2_res = k2(store, m, k, eps);
    let vcoda_star = Baseline::new(K2Config::new(m, k, eps).unwrap(), Algorithm::VCodaStar);
    let vstar = vcoda_star.mine(store).unwrap().convoys;
    let brute = reference::mine(store, m, k, eps).unwrap();
    assert_eq!(vstar, brute, "{label}: VCoDA* vs reference");
    assert_eq!(k2_res, brute, "{label}: k/2-hop vs reference");
}

#[test]
fn agreement_on_injected_workloads() {
    for seed in 0..8u64 {
        let inj = ConvoyInjector::new(30, 40)
            .convoys(2, 4, 20)
            .convoys(1, 3, 12)
            .seed(seed);
        let store = InMemoryStore::new(inj.generate());
        check_all_agree(&store, 3, 8, 1.0, &format!("seed {seed}"));
    }
}

#[test]
fn agreement_across_parameter_grid() {
    let inj = ConvoyInjector::new(40, 60).convoys(3, 5, 35).seed(42);
    let store = InMemoryStore::new(inj.generate());
    for m in [2usize, 3, 5] {
        for k in [4u32, 9, 20] {
            for eps in [0.6, 1.0, 2.5] {
                check_all_agree(&store, m, k, eps, &format!("m={m} k={k} eps={eps}"));
            }
        }
    }
}

#[test]
fn planted_convoys_are_recovered() {
    let inj = ConvoyInjector::new(50, 50).convoys(3, 4, 25).seed(11);
    let store = InMemoryStore::new(inj.generate());
    let found = k2(&store, 4, 20, 1.0);
    for (members, start, length) in inj.planted() {
        let covered = found.iter().any(|c| {
            members.iter().all(|&o| c.objects.contains(o))
                && c.start() <= start
                && c.end() >= start + length - 1
        });
        assert!(
            covered,
            "planted convoy {members:?} @ [{start}, {}) not recovered; found {found:?}",
            start + length
        );
    }
}

#[test]
fn agreement_on_dense_crowd() {
    // Small arena: lots of coincidental togetherness and bridge effects —
    // the hardest case for full-connectivity semantics.
    let inj = ConvoyInjector::new(24, 30).arena(20.0).seed(5);
    let store = InMemoryStore::new(inj.generate());
    for (m, k) in [(2usize, 5u32), (3, 6), (4, 10)] {
        check_all_agree(&store, m, k, 1.5, &format!("dense m={m} k={k}"));
    }
}

#[test]
fn agreement_on_network_traffic() {
    let data = k2hop::datagen::brinkhoff::BrinkhoffConfig {
        max_time: 80,
        obj_begin: 60,
        obj_time: 2,
        grid: (8, 8),
        space: (2000.0, 2000.0),
        seed: 3,
    }
    .generate();
    let store = InMemoryStore::new(data);
    check_all_agree(&store, 3, 10, 40.0, "brinkhoff");
}

#[test]
fn empty_and_degenerate_inputs() {
    // Single object: never a convoy with m >= 2.
    let store = InMemoryStore::new(
        k2hop::model::Dataset::from_points(&[
            k2hop::model::Point::new(1, 0.0, 0.0, 0),
            k2hop::model::Point::new(1, 1.0, 0.0, 1),
            k2hop::model::Point::new(1, 2.0, 0.0, 2),
        ])
        .unwrap(),
    );
    assert!(k2(&store, 2, 2, 1.0).is_empty());
    // k longer than the dataset.
    let inj = ConvoyInjector::new(10, 5).seed(0);
    let store = InMemoryStore::new(inj.generate());
    assert!(k2(&store, 2, 50, 1.0).is_empty());
}
