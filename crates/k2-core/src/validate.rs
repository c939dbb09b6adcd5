//! Fully-connected convoy validation (§4.6, Algorithm 4 + HWMT\*).
//!
//! The extension phase outputs *semi-connected* candidates: every time a
//! candidate's object set shrank, the timestamps already accumulated were
//! never re-checked for the smaller set (whose density connection may have
//! depended on the removed objects). Validation fixes this with the
//! paper's corrected procedure:
//!
//! * [`hwmt_star`] mines the maximal convoys of the dataset **restricted
//!   to the candidate's objects and lifespan** (`DB[T]|O`). It probes
//!   timestamps in farthest-first order (extremes first, then bisection)
//!   so that hopeless candidates die after a handful of probes: whenever
//!   the probed "broken" timestamps chop `T` into fragments all shorter
//!   than `k`, the candidate is rejected without touching the remaining
//!   timestamps.
//! * [`validate_pass`] (Algorithm 4) runs `HWMT*` on each candidate. If the
//!   candidate survives unchanged it is a fully-connected convoy;
//!   otherwise the smaller convoys that came out are fed back for
//!   re-validation, because *their* connectivity inside the old lifespan
//!   is again unverified. The recursion terminates: every requeued convoy
//!   has strictly fewer objects or a strictly shorter lifespan.
//!
//! Most of HWMT\*'s probes repeat a `(t, O)` that HWMT or extension
//! already clustered intact; those are answered from the run's
//! [`IntactRecord`] instead of read and re-clustered.

use crate::benchpoints::hwmt_star_order;
use crate::par::{Chain, PassResult, ProbeReader};
use crate::record::IntactRecord;
use crate::{regroup_at, Grouping, Probe, ProbeScratch};
use k2_model::{Convoy, ConvoySet, ObjectSet, Time, TimeInterval};
use k2_storage::StoreResult;
use std::collections::HashMap;

/// Algorithm 4: reduces extended candidates to maximal FC convoys.
///
/// Candidates fan out over the reader's workers — each is validated by
/// its own chain of HWMT\* runs, all reading the one `record` — and the
/// fully-connected convoys they yield are folded, in candidate order,
/// into one maximal set.
pub(crate) fn validate_pass<G: Grouping>(
    reader: &mut ProbeReader<'_>,
    grouping: G,
    min_len: u32,
    candidates: impl IntoIterator<Item = Convoy>,
    record: &IntactRecord,
) -> StoreResult<PassResult> {
    let mut candidates: Vec<Convoy> = candidates
        .into_iter()
        .filter(|v| v.len() >= min_len)
        .collect();
    // Last candidate first — the order one work stack over all of them
    // would pop them in. The per-probe fetch sequence a store (and its
    // block cache) sees is pinned to that order.
    candidates.reverse();
    let chains = reader.map(&candidates, |v, probe, scratch| {
        validate_one(grouping, min_len, v, record, probe, scratch)
    })?;
    Ok(PassResult::fold(chains))
}

/// Validates one candidate: HWMT\* either confirms it unchanged or
/// yields smaller convoys, which are validated in turn. Returns the
/// fully-connected convoys found and the number of points examined.
fn validate_one<G: Grouping>(
    grouping: G,
    min_len: u32,
    candidate: &Convoy,
    record: &IntactRecord,
    mut probe: impl Probe,
    scratch: &mut ProbeScratch,
) -> StoreResult<Chain> {
    let mut examined = 0u64;
    let mut fc = Vec::new();
    let mut queue = vec![candidate.clone()];
    while let Some(vin) = queue.pop() {
        let out = hwmt_star(
            grouping,
            min_len,
            &vin,
            record,
            &mut examined,
            &mut probe,
            scratch,
        )?;
        if out.len() == 1 && out.contains(&vin) {
            fc.push(vin);
        } else {
            // Smaller convoys: re-validate (their connectivity within the
            // restriction to their own objects is still unproven).
            queue.extend(out);
        }
    }
    Ok(Chain {
        emitted: fc,
        points: examined,
        ..Chain::default()
    })
}

/// HWMT\*: mines the maximal convoys (length ≥ `min_len`) of the dataset
/// restricted to `v`'s objects over `v`'s lifespan, reading `DB[t]|O`
/// through `probe` wherever `record` does not already answer `[O]`, and
/// adding the points it examines — read or recorded — to `examined`.
///
/// Two phases:
///
/// 1. **Farthest-first probing** over the lifespan (extremes, then
///    bisection — `hwmt_star_order`). Each probe re-clusters `DB[t]|O`.
///    Timestamps with no cluster are *broken*; as soon as the broken set
///    fragments the lifespan into pieces shorter than `min_len`, the
///    candidate dies early (§4.6, difference 3: HWMT\* "only stops when no
///    more convoys of length k or more can be found").
/// 2. **Restricted sweep**: using the clusters cached by phase 1, a
///    CMC-style sweep assembles the maximal convoys inside the
///    restriction. (Lemma 2 applies within `DB|O`, so the sweep is exact.)
///    When every timestamp answered `[O]` the sweep could only yield `v`
///    itself, so it is skipped.
fn hwmt_star<G: Grouping>(
    grouping: G,
    min_len: u32,
    v: &Convoy,
    record: &IntactRecord,
    examined: &mut u64,
    mut probe: impl Probe,
    scratch: &mut ProbeScratch,
) -> StoreResult<Vec<Convoy>> {
    let span = v.lifespan;
    if span.len() < min_len {
        return Ok(Vec::new());
    }

    // Phase 1: probe in farthest-first order with early termination,
    // caching only the timestamps that did not answer `[O]`.
    let recorded = record.intact_at(&v.objects);
    let mut clusters_at: HashMap<Time, Vec<ObjectSet>> = HashMap::new();
    let mut broken: Vec<Time> = Vec::new();
    for t in hwmt_star_order(span) {
        if recorded(t) {
            // Table 5 counts the points validation examines, read or not.
            *examined += v.objects.len() as u64;
            continue;
        }
        let (clusters, n) = regroup_at(&mut probe, grouping, t, &v.objects, scratch)?;
        *examined += n;
        if clusters.len() == 1 && clusters[0] == v.objects {
            continue;
        }
        if clusters.is_empty() {
            broken.push(t);
            broken.sort_unstable();
            if longest_fragment(span, &broken) < min_len {
                return Ok(Vec::new());
            }
        }
        clusters_at.insert(t, clusters);
    }
    if clusters_at.is_empty() {
        // `[O]` at every timestamp: the sweep would yield exactly `v`.
        return Ok(vec![v.clone()]);
    }

    // Phase 2: sweep the cached clusters left to right (an uncached
    // timestamp answered `[O]`).
    let mut active: Vec<Convoy> = Vec::new();
    let mut results = ConvoySet::new();
    for t in span.iter() {
        let clusters = clusters_at
            .get(&t)
            .map_or(std::slice::from_ref(&v.objects), Vec::as_slice);
        let mut next = ConvoySet::new();
        for av in &active {
            let mut extended_fully = false;
            for c in clusters {
                let inter = av.objects.intersect(c);
                if inter.len() >= grouping.min_size() {
                    if inter.len() == av.objects.len() {
                        extended_fully = true;
                    }
                    next.update(Convoy::from_parts(inter, av.start(), t));
                }
            }
            if !extended_fully && av.len() >= min_len {
                results.update(av.clone());
            }
        }
        // Every current cluster also starts a fresh candidate (the PCCD
        // correction — a superset convoy may begin here).
        for c in clusters {
            next.update(Convoy::new(c.clone(), TimeInterval::instant(t)));
        }
        active = next.drain();
    }
    for av in active {
        if av.len() >= min_len {
            results.update(av);
        }
    }
    Ok(results.into_sorted_vec())
}

/// Length of the longest fragment of `span` after removing `broken`
/// timestamps (`broken` sorted ascending).
fn longest_fragment(span: TimeInterval, broken: &[Time]) -> u32 {
    let mut best = 0u32;
    let mut lo = span.start;
    for &b in broken {
        if b > lo {
            best = best.max(b - lo);
        }
        lo = b + 1;
    }
    if span.end >= lo {
        best = best.max(span.end - lo + 1);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use k2_cluster::DbscanParams;
    use k2_model::{Dataset, Point};
    use k2_storage::{InMemoryStore, SnapshotSource};

    fn star(
        store: &InMemoryStore,
        params: DbscanParams,
        min_len: u32,
        v: &Convoy,
        fetched: &mut u64,
    ) -> StoreResult<Vec<Convoy>> {
        let scratch = &mut ProbeScratch::default();
        let record = &IntactRecord::default();
        hwmt_star(
            params,
            min_len,
            v,
            record,
            fetched,
            crate::probe_of(store),
            scratch,
        )
    }

    fn validate(
        store: &InMemoryStore,
        params: DbscanParams,
        min_len: u32,
        candidates: Vec<Convoy>,
    ) -> StoreResult<PassResult> {
        validate_recorded(store, params, min_len, candidates, &IntactRecord::default())
    }

    fn validate_recorded(
        store: &InMemoryStore,
        params: DbscanParams,
        min_len: u32,
        candidates: Vec<Convoy>,
        record: &IntactRecord,
    ) -> StoreResult<PassResult> {
        validate_pass(
            &mut ProbeReader::source(store),
            params,
            min_len,
            candidates,
            record,
        )
    }

    /// A record of `set` intact over each of `runs`.
    fn record_of(set: &[u32], runs: &[(Time, Time)]) -> IntactRecord {
        let set = ObjectSet::from(set);
        IntactRecord::new(
            runs.iter()
                .map(|&(s, e)| (set.clone(), TimeInterval::new(s, e)))
                .collect(),
        )
    }

    const PARAMS: DbscanParams = DbscanParams {
        min_pts: 2,
        eps: 1.0,
    };

    /// The paper's §4.6 motivating scenario: objects a,b,c,d,e where e is
    /// the bridge connecting d to {a,b,c} at timestamp 3. Ids 0..4 = a..e.
    ///
    /// Timestamps 1..=6:
    /// * t != 3: a,b,c,d,e chained tightly (everything connected), except
    ///   e leaves at t = 6.
    /// * t == 3: layout a-b-c … e … d — d reaches only e, e reaches c and
    ///   d, so abcd is connected only *through* e.
    fn bridge_store() -> InMemoryStore {
        let mut pts = Vec::new();
        for t in 1..=6u32 {
            match t {
                3 => {
                    pts.push(Point::new(0, 0.0, 0.0, t)); // a
                    pts.push(Point::new(1, 0.8, 0.0, t)); // b
                    pts.push(Point::new(2, 1.6, 0.0, t)); // c
                    pts.push(Point::new(4, 2.4, 0.0, t)); // e (bridge)
                    pts.push(Point::new(3, 3.2, 0.0, t)); // d
                }
                6 => {
                    for oid in 0..4u32 {
                        pts.push(Point::new(oid, oid as f64 * 0.8, 0.0, t));
                    }
                    pts.push(Point::new(4, 50.0, 50.0, t)); // e gone
                }
                _ => {
                    for oid in 0..5u32 {
                        pts.push(Point::new(oid, oid as f64 * 0.8, 0.0, t));
                    }
                }
            }
        }
        InMemoryStore::new(Dataset::from_points(&pts).unwrap())
    }

    #[test]
    fn hwmt_star_confirms_fc_convoy() {
        let store = bridge_store();
        let mut fetched = 0;
        // abcde over [1, 5] is fully connected (e present throughout).
        let v = Convoy::from_parts([0u32, 1, 2, 3, 4], 1, 5);
        let out = star(&store, PARAMS, 2, &v, &mut fetched).unwrap();
        assert_eq!(out, vec![v]);
    }

    #[test]
    fn hwmt_star_splits_non_fc_candidate() {
        let store = bridge_store();
        let mut fetched = 0;
        // abcd over [1, 6]: at t = 3 the restriction to abcd separates d
        // (the bridge e is excluded). Maximal restricted convoys:
        // (abc, [1,6]) and (abcd,[1,2]), (abcd,[4,6])... plus d-side bits.
        let v = Convoy::from_parts([0u32, 1, 2, 3], 1, 6);
        let out = star(&store, PARAMS, 2, &v, &mut fetched).unwrap();
        assert!(out.contains(&Convoy::from_parts([0u32, 1, 2], 1, 6)));
        assert!(out.contains(&Convoy::from_parts([0u32, 1, 2, 3], 1, 2)));
        assert!(out.contains(&Convoy::from_parts([0u32, 1, 2, 3], 4, 6)));
        assert!(!out.contains(&v));
    }

    #[test]
    fn validate_outputs_the_paper_fc_convoy() {
        let store = bridge_store();
        // Candidate (abcd, [1,6]) — the §4.6 example where the naive
        // output would be wrong. Validation must discover (abc, [1,6])
        // (plus the shorter abcd fragments).
        let candidates = vec![Convoy::from_parts([0u32, 1, 2, 3], 1, 6)];
        let res = validate(&store, PARAMS, 3, candidates).unwrap();
        assert!(res
            .convoys
            .contains(&Convoy::from_parts([0u32, 1, 2], 1, 6)));
        assert!(res
            .convoys
            .contains(&Convoy::from_parts([0u32, 1, 2, 3], 4, 6)));
        // No non-FC convoy sneaks through.
        assert!(!res
            .convoys
            .contains(&Convoy::from_parts([0u32, 1, 2, 3], 1, 6)));
    }

    #[test]
    fn validate_accepts_fc_candidate_unchanged() {
        let store = bridge_store();
        let v = Convoy::from_parts([0u32, 1, 2, 3, 4], 1, 5);
        let res = validate(&store, PARAMS, 5, vec![v.clone()]).unwrap();
        assert_eq!(res.convoys.len(), 1);
        assert!(res.convoys.contains(&v));
    }

    #[test]
    fn a_superset_recorded_intact_does_not_let_its_subset_through() {
        // abcde intact at every timestamp says nothing about abcd, which
        // the bridge e alone connects at t = 3.
        let store = bridge_store();
        let record = record_of(&[0, 1, 2, 3, 4], &[(1, 6)]);
        let candidates = vec![Convoy::from_parts([0u32, 1, 2, 3], 1, 6)];
        let plain = validate(&store, PARAMS, 3, candidates.clone()).unwrap();
        let recorded = validate_recorded(&store, PARAMS, 3, candidates, &record).unwrap();
        assert!(!recorded
            .convoys
            .contains(&Convoy::from_parts([0u32, 1, 2, 3], 1, 6)));
        assert_eq!(
            recorded.convoys.into_sorted_vec(),
            plain.convoys.into_sorted_vec()
        );
        assert_eq!(recorded.points_fetched, plain.points_fetched);
    }

    #[test]
    fn a_candidate_recorded_everywhere_is_accepted_without_a_read() {
        let store = bridge_store();
        let v = Convoy::from_parts([0u32, 1, 2, 3, 4], 1, 5);
        let plain = validate(&store, PARAMS, 5, vec![v.clone()]).unwrap();
        let record = record_of(&[0, 1, 2, 3, 4], &[(1, 3), (4, 5)]);
        let before = store.io_stats();
        let recorded = validate_recorded(&store, PARAMS, 5, vec![v.clone()], &record).unwrap();
        assert_eq!(store.io_stats().since(&before), Default::default());
        assert_eq!(recorded.convoys.into_sorted_vec(), vec![v.clone()]);
        assert_eq!(plain.convoys.into_sorted_vec(), vec![v]);
        // Table 5 still counts the points validation examined.
        assert_eq!(recorded.points_fetched, plain.points_fetched);
        assert_eq!(recorded.points_fetched, 5 * 5);
    }

    #[test]
    fn a_set_recorded_at_some_timestamps_is_answered_only_there() {
        let store = bridge_store();
        // abcd is truly intact everywhere but t = 3; recorded at 1, 2, 5.
        let v = Convoy::from_parts([0u32, 1, 2, 3], 1, 6);
        let record = record_of(&[0, 1, 2, 3], &[(1, 2), (5, 5)]);
        let mut asked = Vec::new();
        let probe = |t, oids: &[u32], out: &mut Vec<_>| {
            asked.push(t);
            store.multi_get_into(t, oids, out)
        };
        let mut examined = 0;
        let scratch = &mut ProbeScratch::default();
        let out = hwmt_star(PARAMS, 2, &v, &record, &mut examined, probe, scratch).unwrap();
        // Probe order 1, 6, 3, 2, 4, 5 less the recorded timestamps.
        assert_eq!(asked, vec![6, 3, 4]);
        let mut plain_examined = 0;
        assert_eq!(
            out,
            star(&store, PARAMS, 2, &v, &mut plain_examined).unwrap()
        );
        assert_eq!(examined, plain_examined);
    }

    #[test]
    fn validate_drops_candidates_shorter_than_k() {
        let store = bridge_store();
        let v = Convoy::from_parts([0u32, 1, 2, 3, 4], 1, 3);
        let res = validate(&store, PARAMS, 5, vec![v]).unwrap();
        assert!(res.convoys.is_empty());
    }

    #[test]
    fn early_exit_on_fragmented_lifespan() {
        // Objects together only at scattered instants: every fragment is
        // shorter than k, so HWMT* should terminate without probing all
        // timestamps (observable through the fetch counter).
        let mut pts = Vec::new();
        for t in 0..=20u32 {
            let spread = if t % 3 == 0 { 0.5 } else { 30.0 };
            for oid in 0..2u32 {
                pts.push(Point::new(oid, oid as f64 * spread, 0.0, t));
            }
        }
        let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
        let mut fetched = 0;
        let v = Convoy::from_parts([0u32, 1], 0, 20);
        let out = star(&store, PARAMS, 10, &v, &mut fetched).unwrap();
        assert!(out.is_empty());
        assert!(
            fetched < 2 * 21,
            "early exit should probe fewer than all timestamps (fetched {fetched})"
        );
    }

    #[test]
    fn longest_fragment_arithmetic() {
        let span = TimeInterval::new(0, 9);
        assert_eq!(longest_fragment(span, &[]), 10);
        assert_eq!(longest_fragment(span, &[0]), 9);
        assert_eq!(longest_fragment(span, &[9]), 9);
        assert_eq!(longest_fragment(span, &[4]), 5);
        assert_eq!(longest_fragment(span, &[3, 6]), 3);
        assert_eq!(longest_fragment(span, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]), 0);
    }

    #[test]
    fn sweep_finds_convoy_spanning_broken_candidate_edges() {
        // Convoy exists only in the middle of the candidate lifespan.
        let mut pts = Vec::new();
        for t in 0..=10u32 {
            let spread = if (3..=8).contains(&t) { 0.5 } else { 40.0 };
            for oid in 0..3u32 {
                pts.push(Point::new(oid, oid as f64 * spread, 0.0, t));
            }
        }
        let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
        let mut fetched = 0;
        let v = Convoy::from_parts([0u32, 1, 2], 0, 10);
        let out = star(
            &store,
            DbscanParams {
                min_pts: 3,
                eps: 1.0,
            },
            4,
            &v,
            &mut fetched,
        )
        .unwrap();
        assert_eq!(out, vec![Convoy::from_parts([0u32, 1, 2], 3, 8)]);
    }
}
