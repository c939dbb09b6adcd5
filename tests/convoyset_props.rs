//! Property-based equivalence of the **indexed** `ConvoySet` (posting
//! lists by member / smallest member) and the old quadratic
//! scan-all-candidates `update()`, on arbitrary candidate sequences.

use k2hop::model::{Convoy, ConvoySet};
use proptest::prelude::*;

/// The pre-index `ConvoySet` semantics, kept as the executable spec.
#[derive(Default, Debug)]
struct QuadraticConvoySet {
    convoys: Vec<Convoy>,
}

impl QuadraticConvoySet {
    fn update(&mut self, candidate: Convoy) -> bool {
        for existing in &self.convoys {
            if candidate.is_sub_convoy_of(existing) {
                return false;
            }
        }
        self.convoys.retain(|c| !c.is_sub_convoy_of(&candidate));
        self.convoys.push(candidate);
        true
    }

    fn into_sorted_vec(self) -> Vec<Convoy> {
        let mut v = self.convoys;
        v.sort_by(|a, b| (a.lifespan, a.objects.ids()).cmp(&(b.lifespan, b.objects.ids())));
        v
    }
}

/// Candidate streams biased towards overlap: small id universe, short
/// intervals, so subset/superset relations are common.
fn convoy_strategy() -> impl Strategy<Value = Convoy> {
    (proptest::collection::vec(0u32..12, 0..6), 0u32..20, 0u32..8)
        .prop_map(|(ids, start, len)| Convoy::from_parts(&ids[..], start, start + len))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Indexed `update()` returns the same verdicts and leaves the same
    /// maximal set (and insertion order) as the quadratic reference.
    #[test]
    fn indexed_convoyset_equals_quadratic_scan(
        stream in proptest::collection::vec(convoy_strategy(), 0..40),
    ) {
        let mut indexed = ConvoySet::new();
        let mut reference = QuadraticConvoySet::default();
        for cv in stream {
            let a = indexed.update(cv.clone());
            let b = reference.update(cv);
            prop_assert_eq!(a, b, "update verdict diverged");
            prop_assert_eq!(indexed.len(), reference.convoys.len());
        }
        let in_order: Vec<Convoy> = indexed.iter().cloned().collect();
        prop_assert_eq!(&in_order, &reference.convoys, "insertion order diverged");
        for cv in &reference.convoys {
            prop_assert!(indexed.contains(cv));
        }
        prop_assert_eq!(indexed.into_sorted_vec(), reference.into_sorted_vec());
    }

    /// `merge` (a sequence of updates) also agrees, including when the
    /// tombstone-compaction rebuild kicks in (streams long enough to evict
    /// more than half the slots).
    #[test]
    fn indexed_convoyset_merge_equals_reference(
        left in proptest::collection::vec(convoy_strategy(), 0..60),
        right in proptest::collection::vec(convoy_strategy(), 0..60),
    ) {
        let mut indexed = ConvoySet::from_convoys(left.iter().cloned());
        let mut reference = QuadraticConvoySet::default();
        for cv in left.iter().chain(right.iter()) {
            reference.update(cv.clone());
        }
        indexed.merge(right.into_iter().collect());
        prop_assert_eq!(indexed.into_sorted_vec(), reference.into_sorted_vec());
    }
}

/// Mining-shaped candidate stream for the stress tests: small-eps
/// clusters of a platoon-heavy T-Drive workload, each emitted at several
/// nested lifespans so subsumption both ways is common.
fn stress_stream() -> Vec<Convoy> {
    use k2hop::cluster::{dbscan, DbscanParams};
    use k2hop::datagen::tdrive::TDriveConfig;

    let dataset = TDriveConfig {
        num_taxis: 90,
        num_timestamps: 80,
        platoon_fraction: 0.5,
        seed: 0,
    }
    .seed(11)
    .generate();
    // Small eps: only genuinely co-located taxis (platoon neighbours)
    // cluster, yielding many small overlapping candidate sets.
    let params = DbscanParams::new(2, 1.2e-4);

    let mut stream: Vec<Convoy> = Vec::new();
    for (t, snap) in dataset.iter() {
        for cluster in dbscan(snap.positions(), params) {
            // Nested lifespans ending at t: [t-4, t] ⊃ [t-2, t] ⊃ [t, t],
            // so the stream carries both directions of subsumption.
            for back in [4u32, 2, 0] {
                stream.push(Convoy::from_parts(cluster.ids(), t.saturating_sub(back), t));
            }
        }
    }
    assert!(
        stream.len() >= 256,
        "stress stream too small ({} candidates); regenerate with a \
         denser workload",
        stream.len()
    );
    stream
}

/// Stress past the index threshold with a *real* mining-shaped stream.
/// The random proptest streams above rarely hold more than a handful of
/// incomparable convoys at once, so the indexed path's steady state —
/// hundreds of live candidates, posting-list probes, lazy tombstone
/// rebuilds — went unexercised; this pins it against the quadratic
/// reference end to end: identical verdicts and final contents, with the
/// live set past `INDEX_THRESHOLD`.
#[test]
fn indexed_convoyset_matches_quadratic_past_index_threshold() {
    let stream = stress_stream();
    let mut indexed = ConvoySet::new();
    let mut reference = QuadraticConvoySet::default();
    let mut max_live = 0usize;
    for cv in &stream {
        let a = indexed.update(cv.clone());
        let b = reference.update(cv.clone());
        assert_eq!(a, b, "verdict diverged at live size {}", indexed.len());
        assert_eq!(indexed.len(), reference.convoys.len());
        max_live = max_live.max(indexed.len());
    }
    assert_eq!(indexed.into_sorted_vec(), reference.into_sorted_vec());
    assert!(
        max_live > ConvoySet::INDEX_THRESHOLD,
        "stream never crossed INDEX_THRESHOLD (peak {max_live} live \
         convoys) — the indexed path was not exercised"
    );
}
