//! SPARE — Star Partitioning and ApRiori Enumerator (Fan et al.,
//! PVLDB 2017), instantiated for the convoy pattern.
//!
//! SPARE is the state-of-the-art parallel co-movement framework the paper
//! compares against (Figures 7d–7f). Two stages, mirroring the two
//! MapReduce jobs of the original:
//!
//! 1. **Snapshot clustering**: DBSCAN every timestamp (the stage the
//!    GCMP authors treat as pre-processing and the k/2-hop paper points
//!    out dominates the total cost).
//! 2. **Pattern enumeration**: build the object-pair *co-clustering
//!    time-sequences*, partition the pair graph into stars (each edge
//!    `(i, j)`, `i < j`, lives in the star of `i`), and run an apriori
//!    enumeration inside each star with *sequence simplification* pruning
//!    (timestamps that cannot participate in any `k`-consecutive run are
//!    removed; empty simplified sequences prune the whole subtree).
//!
//! Both stages run on a configurable number of worker threads
//! (`std::thread::scope`), standing in for the paper's Spark executors —
//! the figures vary exactly this degree of parallelism.
//!
//! Output semantics: maximal partially-connected convoys (GCMP's "group
//! patterns" with `M = m`, `L = k`, gap `G = 1`).

use k2_cluster::{dbscan, DbscanParams};
use k2_core::PruningStats;
use k2_model::{Convoy, ConvoySet, ObjPos, ObjectSet, Oid, Time, TimeInterval};
use k2_storage::{SnapshotSource, StoreResult};
use std::collections::HashMap;

/// Runs SPARE with `threads` worker threads (≥ 1); every point it loads
/// counts in `pruning.benchmark_points`.
pub(crate) fn mine(
    store: &dyn SnapshotSource,
    params: DbscanParams,
    k: u32,
    threads: usize,
    pruning: &mut PruningStats,
) -> StoreResult<ConvoySet> {
    let threads = threads.max(1);
    let span = store.span();
    let m = params.min_pts;

    // Load snapshots (the framework's data ingestion; sequential I/O).
    let mut snapshots: Vec<(Time, Vec<ObjPos>)> = Vec::with_capacity(span.len() as usize);
    let mut scan_buf = Vec::new();
    for t in span.iter() {
        let snap = store.scan_snapshot_ref(t, &mut scan_buf)?.to_vec();
        pruning.benchmark_points += snap.len() as u64;
        snapshots.push((t, snap));
    }

    // Stage 1: per-timestamp clustering, timestamps sharded over workers.
    let clustered: Vec<(Time, Vec<ObjectSet>)> =
        parallel_map(&snapshots, threads, |(t, snap)| (*t, dbscan(snap, params)));

    // Edge time-sequences: (i, j) -> sorted times both were co-clustered.
    let mut edges: HashMap<(Oid, Oid), Vec<Time>> = HashMap::new();
    for (t, clusters) in &clustered {
        for c in clusters {
            let ids = c.ids();
            for (a, &i) in ids.iter().enumerate() {
                for &j in &ids[a + 1..] {
                    edges.entry((i, j)).or_default().push(*t);
                }
            }
        }
    }

    // Star partitioning: star of `i` holds its higher-id co-travellers.
    type Star = (Oid, Vec<(Oid, Vec<Time>)>);
    let mut stars: HashMap<Oid, Vec<(Oid, Vec<Time>)>> = HashMap::new();
    for ((i, j), times) in edges {
        stars.entry(i).or_default().push((j, times));
    }
    let mut star_list: Vec<Star> = stars.into_iter().collect();
    star_list.sort_by_key(|(i, _)| *i);
    for (_, neighbours) in &mut star_list {
        neighbours.sort_by_key(|(j, _)| *j);
    }

    // Stage 2: apriori enumeration per star, stars sharded over workers.
    let partials: Vec<ConvoySet> = parallel_map(&star_list, threads, |(centre, neighbours)| {
        let mut local = ConvoySet::new();
        enumerate_star(*centre, neighbours, m, k, &mut local);
        local
    });
    let mut all = ConvoySet::new();
    for p in partials {
        all.merge(p);
    }
    Ok(all)
}

/// Maps `items` over `threads` scoped worker threads, preserving order.
fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let out_chunks: Vec<&mut [Option<R>]> = out.chunks_mut(chunk).collect();
    std::thread::scope(|scope| {
        for (slot, input) in out_chunks.into_iter().zip(items.chunks(chunk)) {
            let f = &f;
            scope.spawn(move || {
                for (o, i) in slot.iter_mut().zip(input) {
                    *o = Some(f(i));
                }
            });
        }
    });
    out.into_iter()
        .map(|o| o.expect("worker filled slot"))
        .collect()
}

/// Apriori DFS inside one star: grow object sets containing the centre,
/// intersecting co-clustering sequences, pruning on simplified-sequence
/// emptiness, emitting every valid (≥ m objects, ≥ k-run) assembly.
fn enumerate_star(
    centre: Oid,
    neighbours: &[(Oid, Vec<Time>)],
    m: usize,
    k: u32,
    out: &mut ConvoySet,
) {
    // Pre-simplify each neighbour sequence; drop hopeless neighbours.
    let viable: Vec<(Oid, Vec<Time>)> = neighbours
        .iter()
        .filter_map(|(j, times)| {
            let s = simplify_sequence(times, k);
            (!s.is_empty()).then_some((*j, s))
        })
        .collect();
    let mut members: Vec<Oid> = Vec::new();
    dfs(centre, &viable, 0, &mut members, None, m, k, out);
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    centre: Oid,
    viable: &[(Oid, Vec<Time>)],
    from: usize,
    members: &mut Vec<Oid>,
    common: Option<&[Time]>,
    m: usize,
    k: u32,
    out: &mut ConvoySet,
) {
    for idx in from..viable.len() {
        let (j, times) = &viable[idx];
        let merged = match common {
            None => times.clone(),
            Some(ct) => simplify_sequence(&intersect_sorted(ct, times), k),
        };
        if merged.is_empty() {
            continue; // apriori prune: no superset can recover a k-run
        }
        members.push(*j);
        if members.len() + 1 >= m {
            let mut ids = members.clone();
            ids.push(centre);
            let objects = ObjectSet::new(ids);
            for run in maximal_runs(&merged) {
                if run.len() >= k {
                    out.update(Convoy::new(objects.clone(), run));
                }
            }
        }
        dfs(centre, viable, idx + 1, members, Some(&merged), m, k, out);
        members.pop();
    }
}

/// Intersection of two sorted time sequences.
fn intersect_sorted(a: &[Time], b: &[Time]) -> Vec<Time> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// GCMP sequence simplification for convoys: keep only timestamps inside
/// maximal consecutive runs of length ≥ k.
fn simplify_sequence(times: &[Time], k: u32) -> Vec<Time> {
    let mut out = Vec::with_capacity(times.len());
    for run in maximal_runs(times) {
        if run.len() >= k {
            out.extend(run.iter());
        }
    }
    out
}

/// Maximal consecutive runs of a sorted time sequence.
fn maximal_runs(times: &[Time]) -> Vec<TimeInterval> {
    let mut runs = Vec::new();
    let mut iter = times.iter().copied();
    let Some(mut start) = iter.next() else {
        return runs;
    };
    let mut prev = start;
    for t in iter {
        if t != prev + 1 {
            runs.push(TimeInterval::new(start, prev));
            start = t;
        }
        prev = t;
    }
    runs.push(TimeInterval::new(start, prev));
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, Algorithm};
    use k2_model::{Dataset, Point};
    use k2_storage::InMemoryStore;

    fn convoy_store() -> InMemoryStore {
        let mut pts = Vec::new();
        for t in 0..20u32 {
            for oid in 0..4u32 {
                pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
            }
            // A pair that co-travels only briefly.
            for oid in 10..12u32 {
                let spread = if (5..9).contains(&t) { 0.4 } else { 60.0 };
                pts.push(Point::new(
                    oid,
                    400.0 + (oid - 10) as f64 * spread,
                    t as f64,
                    t,
                ));
            }
        }
        InMemoryStore::new(Dataset::from_points(&pts).unwrap())
    }

    #[test]
    fn maximal_runs_and_simplification() {
        let times = vec![1, 2, 3, 7, 8, 9, 10, 20];
        let runs = maximal_runs(&times);
        assert_eq!(
            runs,
            vec![
                TimeInterval::new(1, 3),
                TimeInterval::new(7, 10),
                TimeInterval::new(20, 20)
            ]
        );
        assert_eq!(simplify_sequence(&times, 4), vec![7, 8, 9, 10]);
        assert!(simplify_sequence(&times, 5).is_empty());
        assert!(maximal_runs(&[]).is_empty());
    }

    #[test]
    fn intersect_sorted_works() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 7], &[3, 4, 5, 9]), vec![3, 5]);
        assert!(intersect_sorted(&[1, 2], &[3, 4]).is_empty());
    }

    #[test]
    fn spare_matches_pccd_output() {
        let store = convoy_store();
        let exact = run(Algorithm::Pccd, &store, 2, 6, 1.0);
        let spare = run(Algorithm::Spare(1), &store, 2, 6, 1.0);
        assert_eq!(spare.convoys, exact.convoys);
        assert!(!spare.convoys.is_empty());
    }

    #[test]
    fn threaded_run_matches_sequential() {
        let store = convoy_store();
        let seq = run(Algorithm::Spare(1), &store, 2, 6, 1.0);
        let par = run(Algorithm::Spare(4), &store, 2, 6, 1.0);
        assert_eq!(seq.convoys, par.convoys);
    }

    #[test]
    fn short_co_travel_filtered_by_k() {
        let store = convoy_store();
        let res = run(Algorithm::Spare(2), &store, 2, 6, 1.0);
        // The [5,8] pair lasts 4 < 6: must not appear.
        assert!(res
            .convoys
            .iter()
            .all(|c| !c.objects.contains(10) && !c.objects.contains(11)));
    }

    #[test]
    fn m_filter_applies() {
        let store = convoy_store();
        let res = run(Algorithm::Spare(2), &store, 5, 6, 1.0);
        assert!(res.convoys.is_empty());
    }
}
