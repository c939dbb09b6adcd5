//! Benchmark points and hop-windows (§4.1).

use k2_model::{Time, TimeInterval};

/// The benchmark timestamps for a dataset span and hop length `h = ⌊k/2⌋`:
/// `bᵢ = Ts + i·h` for all `i` with `bᵢ ≤ Te`.
///
/// Lemma 3: any convoy of length ≥ `k = 2h` (or `2h+1`) within the span
/// contains two *consecutive* benchmark points, because every window of
/// `2h` consecutive timestamps covers two consecutive multiples of `h`.
pub fn benchmark_points(span: TimeInterval, hop: u32) -> Vec<Time> {
    assert!(hop >= 1, "hop must be >= 1");
    let mut points = Vec::with_capacity((span.len() / hop + 1) as usize);
    let mut b = span.start;
    loop {
        points.push(b);
        match b.checked_add(hop) {
            Some(next) if next <= span.end => b = next,
            _ => break,
        }
    }
    points
}

/// The `i`-th hop-window: the timestamps *strictly between* benchmark
/// points `b[i]` and `b[i+1]`. Empty when the benchmarks are adjacent
/// (`h = 1`).
pub(crate) fn hop_window(left: Time, right: Time) -> Option<TimeInterval> {
    debug_assert!(left < right);
    (right - left >= 2).then(|| TimeInterval::new(left + 1, right - 1))
}

/// Farthest-first (binary-tree level order) traversal of an interval —
/// the visiting order of the Hop-Window Mining Tree (Figure 4): the middle
/// timestamp first, then the middles of the two halves, and so on.
///
/// The heuristic behind the order (§4.3): coincidental togetherness is
/// likelier at adjacent timestamps, so probing distant timestamps first
/// sheds doomed candidates sooner.
pub fn hwmt_order(window: TimeInterval) -> Vec<Time> {
    let mut order = Vec::with_capacity(window.len() as usize);
    let mut queue = std::collections::VecDeque::new();
    queue.push_back((window.start, window.end));
    while let Some((lo, hi)) = queue.pop_front() {
        if lo > hi {
            continue;
        }
        let mid = lo + (hi - lo) / 2;
        order.push(mid);
        if mid > lo {
            queue.push_back((lo, mid - 1));
        }
        queue.push_back((mid + 1, hi));
    }
    order
}

/// Plain left-to-right traversal of a hop-window — the ablation
/// baseline for [`hwmt_order`]: identical work when every candidate
/// survives, but it discovers a mid-window break only after probing the
/// entire left half, where the binary order finds it at the root.
pub fn linear_order(window: TimeInterval) -> Vec<Time> {
    window.iter().collect()
}

/// The HWMT\* probe order over a candidate's lifespan: the two extremes
/// first, then bisection of the interior (§4.6, difference 2).
pub(crate) fn hwmt_star_order(span: TimeInterval) -> Vec<Time> {
    if span.len() == 1 {
        return vec![span.start];
    }
    let mut order = vec![span.start, span.end];
    if span.len() > 2 {
        order.extend(hwmt_order(TimeInterval::new(span.start + 1, span.end - 1)));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmarks_every_hop() {
        assert_eq!(
            benchmark_points(TimeInterval::new(0, 16), 4),
            vec![0, 4, 8, 12, 16]
        );
        assert_eq!(
            benchmark_points(TimeInterval::new(0, 15), 4),
            vec![0, 4, 8, 12]
        );
        assert_eq!(
            benchmark_points(TimeInterval::new(5, 8), 1),
            vec![5, 6, 7, 8]
        );
    }

    #[test]
    fn benchmarks_with_offset_start() {
        assert_eq!(
            benchmark_points(TimeInterval::new(10, 20), 4),
            vec![10, 14, 18]
        );
    }

    #[test]
    fn single_timestamp_span() {
        assert_eq!(benchmark_points(TimeInterval::new(7, 7), 3), vec![7]);
    }

    #[test]
    fn lemma3_every_k_window_crosses_two_consecutive_benchmarks() {
        // For every k in 2..=20 and every placement of a convoy of length k
        // in a span of 100 timestamps, the convoy must contain two
        // consecutive benchmark points.
        for k in 2u32..=20 {
            let hop = k / 2;
            let span = TimeInterval::new(0, 99);
            let bs = benchmark_points(span, hop);
            for s in 0..=(100 - k) {
                let convoy = TimeInterval::new(s, s + k - 1);
                let crossed = bs
                    .windows(2)
                    .any(|w| convoy.contains(w[0]) && convoy.contains(w[1]));
                assert!(
                    crossed,
                    "k={k} convoy {convoy} misses consecutive benchmarks"
                );
            }
        }
    }

    #[test]
    fn hop_window_excludes_benchmarks() {
        assert_eq!(hop_window(0, 8), Some(TimeInterval::new(1, 7)));
        assert_eq!(hop_window(4, 6), Some(TimeInterval::new(5, 5)));
        assert_eq!(hop_window(4, 5), None); // adjacent benchmarks (h = 1)
    }

    #[test]
    fn hwmt_order_is_level_order_bisection() {
        // Window [1, 7] (paper Figure 4 has root at the middle): the root
        // is 4, then 2 and 6, then 1, 3, 5, 7.
        assert_eq!(
            hwmt_order(TimeInterval::new(1, 7)),
            vec![4, 2, 6, 1, 3, 5, 7]
        );
    }

    #[test]
    fn hwmt_order_covers_every_timestamp_once() {
        for (lo, hi) in [(0u32, 0u32), (3, 4), (10, 30), (5, 16)] {
            let mut order = hwmt_order(TimeInterval::new(lo, hi));
            order.sort_unstable();
            let expect: Vec<_> = (lo..=hi).collect();
            assert_eq!(order, expect, "window [{lo},{hi}]");
        }
    }

    #[test]
    fn paper_table2_order_for_window_1_to_7() {
        // Figure 6 / Table 2: benchmarks 0 and 8, window [1,7]. The paper
        // clusters at 4 first (root), then level 2 at {2, 6}, then level 3
        // at {1, 3, 5, 7}.
        let order = hwmt_order(TimeInterval::new(1, 7));
        assert_eq!(order[0], 4);
        assert_eq!(&order[1..3], &[2, 6]);
        let mut level3 = order[3..].to_vec();
        level3.sort_unstable();
        assert_eq!(level3, vec![1, 3, 5, 7]);
    }

    #[test]
    fn linear_order_is_ascending() {
        assert_eq!(linear_order(TimeInterval::new(3, 6)), vec![3, 4, 5, 6]);
    }

    #[test]
    fn hwmt_star_order_extremes_first() {
        // §4.6: for T = [1, 6], cluster 1 and 6 first, then bisect.
        let order = hwmt_star_order(TimeInterval::new(1, 6));
        assert_eq!(&order[..2], &[1, 6]);
        let mut all = order.clone();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn hwmt_star_order_tiny_spans() {
        assert_eq!(hwmt_star_order(TimeInterval::new(3, 3)), vec![3]);
        assert_eq!(hwmt_star_order(TimeInterval::new(3, 4)), vec![3, 4]);
    }
}
