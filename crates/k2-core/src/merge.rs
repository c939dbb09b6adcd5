//! Merging 1st-order spanning convoys into maximal spanning convoys
//! (§4.4, the DCM merge of \[16\]).

use k2_model::{Convoy, ConvoySet, Oid};

/// Merges the per-window spanning convoy sets (windows ordered left to
/// right; window `i` spans `[bᵢ, bᵢ₊₁]`) into the set of **maximal
/// spanning convoys** `V_M`. `m` is at least 1.
///
/// Sweep semantics (Table 3):
///
/// * an *active* convoy ends at the current benchmark; it merges with each
///   next-window convoy via object-set intersection (kept if ≥ m),
/// * an active convoy that never extends *with its full object set* is
///   maximal and moves to the result,
/// * every next-window convoy also enters the active set (it may extend
///   further right), subject to subsumption,
/// * after the last window, all remaining active convoys are maximal.
///
/// Each window's spanning convoys are indexed by object — one sorted
/// `(oid, convoy)` vector, which may list an object under several
/// convoys — and an active convoy is intersected only with the convoys
/// that share one of its objects, in window order. Every pair skipped
/// meets in the empty set, which is below `m` and cannot extend anything
/// fully, so the merge makes exactly the `update` calls of intersecting
/// every active convoy with every spanning convoy.
pub fn merge_spanning(windows: &[Vec<Convoy>], m: usize) -> ConvoySet {
    debug_assert!(m >= 1, "an empty intersection is not a convoy");
    let mut result = ConvoySet::new();
    let mut active = ConvoySet::new();
    let mut index: Vec<(Oid, u32)> = Vec::new();
    let mut sharing: Vec<u32> = Vec::new();
    for (i, spanning) in windows.iter().enumerate() {
        if i == 0 {
            for v in spanning {
                active.update(v.clone());
            }
            continue;
        }
        index.clear();
        index.extend(
            spanning
                .iter()
                .enumerate()
                .flat_map(|(j, w)| w.objects.iter().map(move |oid| (oid, j as u32))),
        );
        index.sort_unstable();
        let mut next_active = ConvoySet::new();
        let boundary = spanning.first().map(|w| w.start());
        for v in active.drain() {
            // Only convoys that end exactly at this window's left
            // benchmark can merge; stragglers (from windows whose spanning
            // sets were empty) are maximal.
            if Some(v.end()) != boundary {
                result.update(v);
                continue;
            }
            sharing.clear();
            let mut rest = &index[..];
            for oid in v.objects.iter() {
                rest = &rest[rest.partition_point(|&(o, _)| o < oid)..];
                sharing.extend(rest.iter().take_while(|&&(o, _)| o == oid).map(|&(_, j)| j));
            }
            sharing.sort_unstable();
            sharing.dedup();
            let mut extended_fully = false;
            for &j in &sharing {
                let w = &spanning[j as usize];
                let inter = v.objects.intersect(&w.objects);
                if inter.len() >= m {
                    if inter.len() == v.objects.len() {
                        extended_fully = true;
                    }
                    next_active.update(Convoy::from_parts(inter, v.start(), w.end()));
                }
            }
            if !extended_fully {
                result.update(v);
            }
        }
        for w in spanning {
            next_active.update(w.clone());
        }
        active = next_active;
    }
    for v in active.drain() {
        result.update(v);
    }
    result
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
