//! Merging 1st-order spanning convoys into maximal spanning convoys
//! (§4.4, the DCM merge of \[16\]).

use k2_model::{Convoy, ConvoySet, Oid};

/// Merges the per-window spanning convoy sets (windows ordered left to
/// right; window `i` spans `[bᵢ, bᵢ₊₁]`) into the set of **maximal
/// spanning convoys** `V_M`. `m` is at least 1.
///
/// Pushes every window into a `SpanningMerger`, then finishes it, and
/// folds everything it retired into one maximal set.
pub fn merge_spanning(windows: &[Vec<Convoy>], m: usize) -> ConvoySet {
    let mut merger = SpanningMerger::new(m);
    let mut result = ConvoySet::new();
    for spanning in windows {
        for v in merger.push(spanning) {
            result.update(v);
        }
    }
    for v in merger.finish() {
        result.update(v);
    }
    result
}

/// The DCM merge as a left-to-right sweep, one hop-window at a time.
///
/// Sweep semantics (Table 3):
///
/// * an *active* convoy ends at the current benchmark; it merges with each
///   next-window convoy via object-set intersection (kept if ≥ m),
/// * an active convoy that never extends *with its full object set* is
///   maximal and is retired,
/// * every next-window convoy also enters the active set (it may extend
///   further right), subject to subsumption,
/// * after the last window, all remaining active convoys are retired.
///
/// `V_M` is the maximal set of everything retired. A retired convoy ends
/// at or before the window just pushed, so a caller can act on it while
/// that window's data is still at hand; it may still be subsumed by a
/// convoy retired later.
///
/// Each window's spanning convoys are indexed by object — one sorted
/// `(oid, convoy)` vector, which may list an object under several
/// convoys — and an active convoy is intersected only with the convoys
/// that share one of its objects, in window order. Every pair skipped
/// meets in the empty set, which is below `m` and cannot extend anything
/// fully, so the merge makes exactly the `update` calls of intersecting
/// every active convoy with every spanning convoy.
#[derive(Debug)]
pub(crate) struct SpanningMerger {
    m: usize,
    active: ConvoySet,
    index: Vec<(Oid, u32)>,
    sharing: Vec<u32>,
}

impl SpanningMerger {
    /// An empty sweep merging with the size threshold `m` (at least 1).
    pub fn new(m: usize) -> Self {
        debug_assert!(m >= 1, "an empty intersection is not a convoy");
        Self {
            m,
            active: ConvoySet::new(),
            index: Vec::new(),
            sharing: Vec::new(),
        }
    }

    /// Pushes the next window's spanning convoys and returns the convoys
    /// this step retired, in the order the sweep retired them.
    pub fn push(&mut self, spanning: &[Convoy]) -> Vec<Convoy> {
        let mut retired = Vec::new();
        let mut next_active = ConvoySet::new();
        if !self.active.is_empty() {
            self.index.clear();
            self.index.extend(
                spanning
                    .iter()
                    .enumerate()
                    .flat_map(|(j, w)| w.objects.iter().map(move |oid| (oid, j as u32))),
            );
            self.index.sort_unstable();
        }
        let boundary = spanning.first().map(|w| w.start());
        for v in self.active.drain() {
            // Only convoys that end exactly at this window's left
            // benchmark can merge; stragglers (from windows whose spanning
            // sets were empty) are maximal.
            if Some(v.end()) != boundary {
                retired.push(v);
                continue;
            }
            self.sharing.clear();
            let mut rest = &self.index[..];
            for oid in v.objects.iter() {
                rest = &rest[rest.partition_point(|&(o, _)| o < oid)..];
                self.sharing
                    .extend(rest.iter().take_while(|&&(o, _)| o == oid).map(|&(_, j)| j));
            }
            self.sharing.sort_unstable();
            self.sharing.dedup();
            let mut extended_fully = false;
            for &j in &self.sharing {
                let w = &spanning[j as usize];
                let inter = v.objects.intersect(&w.objects);
                if inter.len() >= self.m {
                    if inter.len() == v.objects.len() {
                        extended_fully = true;
                    }
                    next_active.update(Convoy::from_parts(inter, v.start(), w.end()));
                }
            }
            if !extended_fully {
                retired.push(v);
            }
        }
        for w in spanning {
            next_active.update(w.clone());
        }
        self.active = next_active;
        retired
    }

    /// Ends the sweep: retires and returns every convoy still active.
    pub fn finish(&mut self) -> Vec<Convoy> {
        self.active.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use k2_model::ObjectSet;

    fn cv(ids: &[u32], s: u32, e: u32) -> Convoy {
        Convoy::from_parts(ids, s, e)
    }

    /// The paper's Figure 5 / Table 3 example. Letters mapped to ids:
    /// a..k -> 0..10. Four hop-windows H0..H3 over benchmarks b0..b4
    /// (represented as timestamps 0..4).
    fn figure5_windows() -> Vec<Vec<Convoy>> {
        vec![
            // H0 [b0, b1]
            vec![
                cv(&[0, 1, 2, 3], 0, 1), // {a,b,c,d}
                cv(&[4, 5, 6, 7], 0, 1), // {e,f,g,h}
                cv(&[8, 9, 10], 0, 1),   // {i,j,k}
            ],
            // H1 [b1, b2]
            vec![
                cv(&[0, 1, 2, 3], 1, 2), // {a,b,c,d}
                cv(&[4, 5], 1, 2),       // {e,f}
                cv(&[6, 7], 1, 2),       // {g,h}
            ],
            // H2 [b2, b3]
            vec![
                cv(&[0, 1, 4, 5], 2, 3), // {a,b,e,f}
                cv(&[2, 3, 6, 7], 2, 3), // {c,d,g,h}
                cv(&[8, 9, 10], 2, 3),   // {i,j,k}
            ],
            // H3 [b3, b4]
            vec![
                cv(&[0, 1], 3, 4),       // {a,b}
                cv(&[2, 3, 6, 7], 3, 4), // {c,d,g,h}
                cv(&[4, 5], 3, 4),       // {e,f}
            ],
        ]
    }

    #[test]
    fn paper_table3_maximal_spanning_convoys() {
        // Table 3's final (3rd merge) column, merging with m = 2:
        // {a,b}[b0,b4], {c,d}[b0,b4], {e,f}[b0,b4], {g,h}[b0,b4],
        // {c,d,g,h}[b2,b4], plus the maximal convoys retired earlier:
        // {a,b,c,d}[b0,b2], {e,f,g,h}[b0,b1], {i,j,k}[b0,b1],
        // {a,b,e,f}[b2,b3], {i,j,k}[b2,b3].
        let result = merge_spanning(&figure5_windows(), 2);
        let expected = [
            cv(&[0, 1], 0, 4),
            cv(&[2, 3], 0, 4),
            cv(&[4, 5], 0, 4),
            cv(&[6, 7], 0, 4),
            cv(&[2, 3, 6, 7], 2, 4),
            cv(&[0, 1, 2, 3], 0, 2),
            cv(&[4, 5, 6, 7], 0, 1),
            cv(&[8, 9, 10], 0, 1),
            cv(&[0, 1, 4, 5], 2, 3),
            cv(&[8, 9, 10], 2, 3),
        ];
        for e in &expected {
            assert!(result.contains(e), "missing {e:?}\ngot {result:#?}");
        }
        assert_eq!(result.len(), expected.len(), "got {result:#?}");
    }

    #[test]
    fn merger_retires_table3_convoys_at_their_merge() {
        // Table 3, one column per push: a convoy is retired by the merge
        // that first fails to extend it with its full object set, and the
        // five convoys alive after the 3rd merge are retired by `finish`.
        let mut merger = SpanningMerger::new(2);
        let mut steps: Vec<Vec<Convoy>> =
            figure5_windows().iter().map(|w| merger.push(w)).collect();
        steps.push(merger.finish());
        let expected = [
            // H0 only opens the sweep.
            vec![],
            // 1st merge (H1): {e,f,g,h} splits, {i,j,k} finds no partner.
            vec![cv(&[4, 5, 6, 7], 0, 1), cv(&[8, 9, 10], 0, 1)],
            // 2nd merge (H2): {a,b,c,d} splits into {a,b} and {c,d}.
            vec![cv(&[0, 1, 2, 3], 0, 2)],
            // 3rd merge (H3): {a,b,e,f} splits, {i,j,k} ends again.
            vec![cv(&[0, 1, 4, 5], 2, 3), cv(&[8, 9, 10], 2, 3)],
            // After the last window.
            vec![
                cv(&[0, 1], 0, 4),
                cv(&[2, 3], 0, 4),
                cv(&[4, 5], 0, 4),
                cv(&[6, 7], 0, 4),
                cv(&[2, 3, 6, 7], 2, 4),
            ],
        ];
        assert_eq!(steps.len(), expected.len());
        let sorted = |v: &[Convoy]| {
            let mut v = v.to_vec();
            v.sort_by(|a, b| (a.lifespan, a.objects.ids()).cmp(&(b.lifespan, b.objects.ids())));
            v
        };
        for (i, (got, want)) in steps.iter().zip(&expected).enumerate() {
            assert_eq!(sorted(got), sorted(want), "step {i}");
        }
    }

    #[test]
    fn single_window_passes_through() {
        let w = vec![vec![cv(&[1, 2], 0, 1), cv(&[3, 4], 0, 1)]];
        let result = merge_spanning(&w, 2);
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn empty_input() {
        assert!(merge_spanning(&[], 2).is_empty());
        assert!(merge_spanning(&[vec![], vec![]], 2).is_empty());
    }

    #[test]
    fn gap_window_splits_convoys() {
        // Convoy present in windows 0 and 2 but not 1: two separate
        // maximal spanning convoys.
        let windows = vec![
            vec![cv(&[1, 2, 3], 0, 1)],
            vec![],
            vec![cv(&[1, 2, 3], 2, 3)],
        ];
        let result = merge_spanning(&windows, 2);
        assert_eq!(result.len(), 2);
        assert!(result.contains(&cv(&[1, 2, 3], 0, 1)));
        assert!(result.contains(&cv(&[1, 2, 3], 2, 3)));
    }

    #[test]
    fn full_extension_does_not_retire_original() {
        // {1,2,3} continues fully: only the longer convoy remains.
        let windows = vec![vec![cv(&[1, 2, 3], 0, 1)], vec![cv(&[1, 2, 3, 4], 1, 2)]];
        let result = merge_spanning(&windows, 2);
        assert!(result.contains(&cv(&[1, 2, 3], 0, 2)));
        assert!(result.contains(&cv(&[1, 2, 3, 4], 1, 2)));
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn shrinking_merge_keeps_both() {
        // {1,2,3,4} meets {1,2,5,6}: intersection {1,2} extends, both
        // originals are maximal.
        let windows = vec![vec![cv(&[1, 2, 3, 4], 0, 1)], vec![cv(&[1, 2, 5, 6], 1, 2)]];
        let result = merge_spanning(&windows, 2);
        assert!(result.contains(&cv(&[1, 2], 0, 2)));
        assert!(result.contains(&cv(&[1, 2, 3, 4], 0, 1)));
        assert!(result.contains(&cv(&[1, 2, 5, 6], 1, 2)));
        assert_eq!(result.len(), 3);
    }

    #[test]
    fn overlapping_spanning_convoys_are_all_reached() {
        // Every object {2,3} shares with {1,2,3,4} also sits in an
        // earlier next-window convoy: the index lists objects 2 and 3
        // under both of theirs, so the third merge is found too.
        let windows = vec![
            vec![cv(&[1, 2, 3, 4], 0, 1)],
            vec![cv(&[1, 2], 1, 2), cv(&[3, 4], 1, 2), cv(&[2, 3], 1, 2)],
        ];
        let result = merge_spanning(&windows, 2);
        for e in [
            cv(&[1, 2, 3, 4], 0, 1),
            cv(&[1, 2], 0, 2),
            cv(&[3, 4], 0, 2),
            cv(&[2, 3], 0, 2),
        ] {
            assert!(result.contains(&e), "missing {e:?}\ngot {result:#?}");
        }
        assert_eq!(result.len(), 4);
    }

    #[test]
    fn below_m_intersection_is_dropped() {
        let windows = vec![vec![cv(&[1, 2, 3], 0, 1)], vec![cv(&[3, 4, 5], 1, 2)]];
        let result = merge_spanning(&windows, 2);
        // Intersection {3} < m: no merged convoy.
        assert_eq!(result.len(), 2);
        assert!(result.contains(&cv(&[1, 2, 3], 0, 1)));
        assert!(result.contains(&cv(&[3, 4, 5], 1, 2)));
    }

    #[test]
    fn result_is_maximal_set() {
        let result = merge_spanning(&figure5_windows(), 2);
        for a in result.iter() {
            for b in result.iter() {
                assert!(a == b || !a.is_sub_convoy_of(b), "{a:?} subsumed by {b:?}");
            }
        }
        let _ = ObjectSet::empty(); // silence unused import on some cfgs
    }
}
