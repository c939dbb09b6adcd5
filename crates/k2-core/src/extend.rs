//! Extending maximal spanning convoys to their true endpoints
//! (§4.5, Algorithm 3 `extendRight` and its left mirror).

use crate::par::{Chain, PassResult, ProbeReader};
use crate::record::{confirm, IntactRuns};
use crate::{recluster_at, Probe, ProbeScratch};
use k2_cluster::DbscanParams;
use k2_model::{Convoy, ConvoySet, Time};
use k2_storage::StoreResult;
use std::collections::HashMap;

/// Which way a pass extends, and where it has to stop.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Direction {
    /// Algorithm 3: re-cluster the convoy's objects at `te(v)+1,
    /// te(v)+2, …` up to the dataset's last timestamp. No `k` check
    /// happens here — a short convoy may still grow leftwards (§4.5).
    Right {
        /// Last timestamp of the dataset.
        end: Time,
    },
    /// The left mirror, down to the dataset's first timestamp. After it
    /// no further growth is possible, so convoys shorter than `min_len`
    /// are discarded (§4.5: "all the convoys which do not satisfy the k
    /// constraint are discarded").
    Left {
        /// First timestamp of the dataset.
        start: Time,
        /// The `k` constraint.
        min_len: u32,
    },
}

/// The extension chains of one direction, each run once and kept by its
/// seed until the pass that needs it folds it.
///
/// A chain is a function of its seed and the source alone, and a pass
/// folds its chains into a maximal set, which does not depend on the
/// order they ran in. So the pipeline runs a chain as soon as its seed
/// turns up — while the blocks it reads are still cached — and the pass
/// over the final seeds then folds exactly the chains it would have run
/// itself. A chain whose seed is later subsumed is never folded.
pub(crate) struct Chains {
    dir: Direction,
    run: HashMap<Convoy, Chain>,
}

impl Chains {
    /// No chain run yet, in `dir`.
    pub(crate) fn new(dir: Direction) -> Self {
        Self {
            dir,
            run: HashMap::new(),
        }
    }

    /// Runs the chain of every seed whose chain has not run — seeds fan
    /// out over the reader's workers — and returns what these new chains
    /// emitted, folded in seed order into one maximal set: the seeds of
    /// the opposite direction.
    pub(crate) fn run(
        &mut self,
        reader: &mut ProbeReader<'_>,
        params: DbscanParams,
        seeds: &[Convoy],
    ) -> StoreResult<Vec<Convoy>> {
        let new: Vec<&Convoy> = seeds
            .iter()
            .filter(|seed| !self.run.contains_key(*seed))
            .collect();
        let dir = self.dir;
        let chains = reader.map(&new, |&seed, probe, scratch| {
            extend(params, seed.clone(), dir, probe, scratch)
        })?;
        let mut emitted = ConvoySet::new();
        for (seed, mut chain) in new.into_iter().zip(chains) {
            for v in &chain.emitted {
                emitted.update(v.clone());
            }
            // Kept until the sweep ends, beside every other chain: most
            // emit one convoy and confirm one run, so drop the growth
            // slack.
            chain.emitted.shrink_to_fit();
            chain.intact.shrink_to_fit();
            self.run.insert(seed.clone(), chain);
        }
        Ok(emitted.drain())
    }

    /// One extension pass: every seed is extended in this direction, and
    /// what the chains emit is folded, in seed order, into one maximal
    /// set. Chains already run are taken as they are; the rest run now.
    pub(crate) fn pass(
        mut self,
        reader: &mut ProbeReader<'_>,
        params: DbscanParams,
        seeds: &[Convoy],
    ) -> StoreResult<PassResult> {
        self.run(reader, params, seeds)?;
        Ok(PassResult::fold(seeds.iter().map(|seed| {
            self.run.remove(seed).expect("every seed's chain has run")
        })))
    }
}

/// Extends one seed one timestamp at a time until no cluster survives or
/// the dataset ends, reading `DB[t]|O` through `probe`.
///
/// When re-clustering splits or shrinks a convoy, the original is emitted
/// (it is maximal in this direction in its current shape) *and* the
/// shrunken clusters continue extending. Returns the emitted convoys in
/// emission order, the number of points fetched and where a convoy came
/// back intact.
fn extend(
    params: DbscanParams,
    seed: Convoy,
    dir: Direction,
    mut probe: impl Probe,
    scratch: &mut ProbeScratch,
) -> StoreResult<Chain> {
    let mut emitted = Vec::new();
    let mut points_fetched = 0u64;
    let mut intact = IntactRuns::new();
    let mut emit = |v: Convoy| match dir {
        Direction::Left { min_len, .. } if v.len() < min_len => {}
        _ => emitted.push(v),
    };
    // Vprev: convoys still extending (line 2).
    let mut prev: Vec<Convoy> = vec![seed];
    loop {
        // Next timestamp in the chosen direction, stopping at the
        // dataset boundary (line 3).
        let frontier = match dir {
            Direction::Right { end } => {
                let te = prev[0].end();
                if te >= end {
                    break;
                }
                te + 1
            }
            Direction::Left { start, .. } => {
                let ts = prev[0].start();
                if ts <= start {
                    break;
                }
                ts - 1
            }
        };
        let mut next = ConvoySet::new();
        for v in &prev {
            let (clusters, fetched) =
                recluster_at(&mut probe, params, frontier, &v.objects, scratch)?;
            points_fetched += fetched;
            if clusters.is_empty() {
                // Line 7–8: v cannot be extended.
                emit(v.clone());
                continue;
            }
            let mut survived_intact = false;
            for c in clusters {
                if c == v.objects {
                    survived_intact = true;
                }
                let (s, e) = match dir {
                    Direction::Right { .. } => (v.start(), frontier),
                    Direction::Left { .. } => (frontier, v.end()),
                };
                next.update(Convoy::from_parts(c, s, e));
            }
            if survived_intact {
                confirm(&mut intact, &v.objects, frontier);
            } else {
                // Line 12–13: v split or shrank; emit it in its
                // current shape.
                emit(v.clone());
            }
        }
        if next.is_empty() {
            prev.clear();
            break;
        }
        prev = next.drain();
    }
    // Line 17: convoys that reached the dataset boundary.
    for v in prev {
        emit(v);
    }
    Ok(Chain {
        emitted,
        points: points_fetched,
        intact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use k2_model::{Dataset, ObjectSet, Point, TimeInterval};
    use k2_storage::InMemoryStore;

    fn extend_right(
        store: &InMemoryStore,
        params: DbscanParams,
        seeds: impl IntoIterator<Item = Convoy>,
        end: Time,
    ) -> StoreResult<PassResult> {
        Chains::new(Direction::Right { end }).pass(
            &mut ProbeReader::source(store),
            params,
            &seeds.into_iter().collect::<Vec<_>>(),
        )
    }

    fn extend_left(
        store: &InMemoryStore,
        params: DbscanParams,
        seeds: impl IntoIterator<Item = Convoy>,
        start: Time,
        min_len: u32,
    ) -> StoreResult<PassResult> {
        Chains::new(Direction::Left { start, min_len }).pass(
            &mut ProbeReader::source(store),
            params,
            &seeds.into_iter().collect::<Vec<_>>(),
        )
    }

    /// Objects 0,1,2 together over [2, 8]; objects 0,1 continue together
    /// through [9, 11]; everything apart elsewhere.
    fn staged_store() -> InMemoryStore {
        let mut pts = Vec::new();
        for t in 0..=12u32 {
            for oid in 0..3u32 {
                let (x, y) = match (t, oid) {
                    (2..=8, _) => (t as f64, oid as f64 * 0.4),
                    (9..=11, 0 | 1) => (t as f64, oid as f64 * 0.4),
                    _ => (100.0 + oid as f64 * 50.0 + t as f64 * 7.0, 0.0),
                };
                pts.push(Point::new(oid, x, y, t));
            }
        }
        InMemoryStore::new(Dataset::from_points(&pts).unwrap())
    }

    const PARAMS: DbscanParams = DbscanParams {
        min_pts: 2,
        eps: 1.0,
    };

    #[test]
    fn extend_right_finds_true_end_and_shrunk_tail() {
        let store = staged_store();
        let seed = Convoy::from_parts([0u32, 1, 2], 2, 6);
        let res = extend_right(&store, PARAMS, [seed], 12).unwrap();
        // {0,1,2} extends to t = 8 then shrinks; {0,1} continues to 11.
        assert!(res
            .convoys
            .contains(&Convoy::from_parts([0u32, 1, 2], 2, 8)));
        assert!(res.convoys.contains(&Convoy::from_parts([0u32, 1], 2, 11)));
        assert_eq!(res.convoys.len(), 2);
        // {0,1} is first probed at 10, after it split off at 9.
        assert_eq!(
            res.intact,
            vec![
                (ObjectSet::from([0, 1, 2]), TimeInterval::new(7, 8)),
                (ObjectSet::from([0, 1]), TimeInterval::new(10, 11)),
            ]
        );
    }

    #[test]
    fn extend_left_finds_true_start() {
        let store = staged_store();
        let seed = Convoy::from_parts([0u32, 1, 2], 5, 8);
        let res = extend_left(&store, PARAMS, [seed], 0, 2).unwrap();
        assert!(res
            .convoys
            .contains(&Convoy::from_parts([0u32, 1, 2], 2, 8)));
        assert_eq!(res.convoys.len(), 1);
    }

    #[test]
    fn extend_left_discards_short_convoys() {
        let store = staged_store();
        let seed = Convoy::from_parts([0u32, 1, 2], 5, 8);
        // min_len longer than anything reachable: nothing survives.
        let res = extend_left(&store, PARAMS, [seed], 0, 100).unwrap();
        assert!(res.convoys.is_empty());
    }

    #[test]
    fn extension_stops_at_dataset_boundary() {
        let store = staged_store();
        let seed = Convoy::from_parts([0u32, 1], 9, 10);
        let res = extend_right(&store, PARAMS, [seed], 11).unwrap();
        assert!(res.convoys.contains(&Convoy::from_parts([0u32, 1], 9, 11)));
    }

    #[test]
    fn convoy_already_at_boundary_passes_through() {
        let store = staged_store();
        let seed = Convoy::from_parts([0u32, 1], 9, 12);
        let res = extend_right(&store, PARAMS, [seed.clone()], 12).unwrap();
        assert_eq!(res.convoys.len(), 1);
        assert!(res.convoys.contains(&seed));
        assert_eq!(res.points_fetched, 0);
    }

    #[test]
    fn right_extension_keeps_subminimal_convoys() {
        // A convoy of length 2 < k survives extendRight (it may yet grow
        // left, §4.5).
        let store = staged_store();
        let seed = Convoy::from_parts([0u32, 1, 2], 7, 8);
        let res = extend_right(&store, PARAMS, [seed], 12).unwrap();
        assert!(res
            .convoys
            .iter()
            .any(|v| v.objects == ObjectSet::from([0, 1, 2])
                && v.lifespan == TimeInterval::new(7, 8)));
    }

    #[test]
    fn merging_extensions_are_deduplicated() {
        // Two seeds that extend into the same convoy appear once.
        let store = staged_store();
        let seeds = vec![
            Convoy::from_parts([0u32, 1, 2], 2, 5),
            Convoy::from_parts([0u32, 1, 2], 2, 6),
        ];
        let res = extend_right(&store, PARAMS, seeds, 12).unwrap();
        assert!(res
            .convoys
            .contains(&Convoy::from_parts([0u32, 1, 2], 2, 8)));
        assert_eq!(
            res.convoys
                .iter()
                .filter(|v| v.objects == ObjectSet::from([0, 1, 2]))
                .count(),
            1
        );
    }
}
