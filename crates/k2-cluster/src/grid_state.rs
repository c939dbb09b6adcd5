//! The one spatial index: a reusable uniform grid whose single query is
//! the eps-pair sweep.
//!
//! # Layout
//!
//! One layout, a counting-sort CSR over row-major cells:
//! `start[c]..start[c + 1]` is cell `c`'s range of `slots`, which holds
//! every point index grouped by cell (ascending within a cell). The
//! geometry — box origin, cell side, dimensions — comes from
//! `csr_extent`: it self-tunes between an extent-based and a
//! density-based cell side, clamps outliers and non-finite points into
//! the border cells, and falls back to one cell of infinite side when no
//! budgeted geometry fits, so every point set gets a grid.
//!
//! # One query
//!
//! [`GridState::eps_pairs`] emits every pair of points within eps exactly
//! once, from a half-stencil sweep over the occupied cells. A non-finite
//! point sits in some border cell but never passes the distance filter,
//! so it pairs with nothing.
//!
//! # Rebuild or re-scatter
//!
//! Consecutive benchmark snapshots share most of their geometry — objects
//! move a bounded distance per timestamp — so [`GridState::update`]
//! keeps the previous box and cell side while they still fit: one `O(n)`
//! diff pass assigns every point its cell under the retained geometry,
//! and one histogram + scatter lays the slots out again. That skips both
//! the extent/percentile retune and a second per-point cell computation.
//! A **full rebuild** happens only when the retained geometry is stale:
//!
//! * first update, or `eps` changed (the cell side is derived from it);
//! * any non-finite coordinate (the box is retuned over the finite
//!   points), or the last build was the one-cell fallback (no box);
//! * the population halved or doubled since the geometry was last tuned
//!   — the cell side was picked for that count;
//! * more than 1/8 of the points fall outside the retained box (they
//!   would all clamp into the border cells: still exact, but the border
//!   cells would bloat and the sweep with them; the density path's
//!   percentile clip leaves at most ~8% outside by design).
//!
//! Correctness never depends on which path ran: both emit the exact
//! eps-pair set, and DBSCAN's output is a function of those pairs alone.

use crate::grid::{csr_extent, dist2_filter_chunked};
use k2_model::ObjPos;

/// Rebuild when more than `1 / OUTSIDE_REBUILD_DIV` of the points clamp
/// in from outside the retained bounding box (≈12%).
const OUTSIDE_REBUILD_DIV: usize = 8;

/// Grid-reuse counters, cumulative since the state was created.
///
/// `builds` counts full rebuilds (including the first), `patches` the
/// updates re-scattered under the retained geometry, and `cells_moved`
/// the cell changes those patches absorbed (points whose cell changed,
/// plus appended and dropped points). Mining stats surface these, and
/// `tests/golden_convoys.rs` pins the build and patch counts per
/// workload, so the reuse cannot silently disengage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridCounters {
    /// Full rebuilds (extent retune + counting sort).
    pub builds: u64,
    /// Updates re-scattered under the retained geometry.
    pub patches: u64,
    /// Total cell changes absorbed by patches.
    pub cells_moved: u64,
}

impl GridCounters {
    /// Counter-wise difference `self - earlier` (for harvesting per-run
    /// deltas out of a reused scratch).
    pub fn since(&self, earlier: GridCounters) -> GridCounters {
        GridCounters {
            builds: self.builds - earlier.builds,
            patches: self.patches - earlier.patches,
            cells_moved: self.cells_moved - earlier.cells_moved,
        }
    }

    /// Counter-wise accumulation.
    pub fn add(&mut self, other: GridCounters) {
        self.builds += other.builds;
        self.patches += other.patches;
        self.cells_moved += other.cells_moved;
    }
}

/// A reusable uniform grid (see the module docs for the layout and the
/// rebuild-or-re-scatter rule). After [`update`](Self::update) over
/// `points`, [`eps_pairs`](Self::eps_pairs) enumerates their eps-pairs.
#[derive(Debug, Default)]
pub struct GridState {
    eps: f64,
    /// Population when the geometry was last tuned (full rebuild) — the
    /// reference for the size-drift rebuild trigger, so slow growth
    /// across many patches cannot creep past the occupancy target.
    tuned_n: usize,
    /// Every coordinate of the current point set is finite. Measured by
    /// a rebuild's extent pass; a patch implies it, since non-finite
    /// input always rebuilds.
    all_finite: bool,
    // --- retained geometry ---
    min_x: f64,
    min_y: f64,
    cell: f64,
    /// `1.0 / cell`, precomputed: the cell-index maps multiply instead of
    /// divide, and the rebuild and the diff pass use the *same* product,
    /// so they agree on every point's cell.
    inv_cell: f64,
    cols: usize,
    rows: usize,
    // --- CSR layout ---
    /// `start[c]..start[c + 1]` is cell `c`'s range of `slots`.
    start: Vec<u32>,
    /// Point indices grouped by cell.
    slots: Vec<u32>,
    /// Current cell of every point index.
    cell_of: Vec<u32>,
    /// Diff scratch: the incoming snapshot's cell per point.
    new_cell: Vec<u32>,
    /// Percentile scratch for the density extent path.
    percentiles: Vec<f64>,
    counters: GridCounters,
}

impl GridState {
    /// Creates an empty state (no allocation until the first update).
    pub fn new() -> Self {
        Self::default()
    }

    /// Points the grid at `points`, re-scattering under the retained
    /// geometry when it still fits and rebuilding otherwise.
    pub fn update(&mut self, points: &[ObjPos], eps: f64) {
        debug_assert!(eps > 0.0 && eps.is_finite());
        // The default `eps` of 0 fails the first comparison, and the
        // one-cell fallback has no box to retain.
        if self.eps == eps && self.cell.is_finite() && self.try_patch(points) {
            self.counters.patches += 1;
            return;
        }
        self.counters.builds += 1;
        self.eps = eps;
        self.rebuild(points);
    }

    /// Invokes `f` on every pair of *distinct* points within
    /// `sqrt(eps2)` of each other exactly once, in either orientation,
    /// and never on a pair further apart (nor on a non-finite point).
    /// `points` must be the array of the last [`update`](Self::update);
    /// `out` is caller-lent probe scratch.
    ///
    /// This is the half-stencil sweep behind DBSCAN's union-find
    /// labelling: walking cells in row-major order, each point probes
    /// the rest of its own cell's slots after its own, the east cell and
    /// the SW–SE range of the row below — two contiguous slot ranges. An
    /// eps-pair's cells differ by at most one in each axis, so the pair
    /// lands in the forward stencil of exactly one endpoint (the earlier
    /// slot when they share a cell), halving the candidate filtering of a
    /// full 3×3 probe per point and skipping the coordinate→cell
    /// recompute entirely.
    pub fn eps_pairs<F: FnMut(u32, u32)>(
        &self,
        points: &[ObjPos],
        eps2: f64,
        out: &mut Vec<u32>,
        mut f: F,
    ) {
        let (cols, rows) = (self.cols, self.rows);
        // Slot-driven: walk points in slot order and derive each occupied
        // cell's ranges once — empty cells are never visited (they are
        // the majority at the tuned occupancy). The row cursor advances
        // monotonically with the row-major cell ids, so no divisions.
        let mut slot = 0usize;
        let mut row_next = cols; // first cell id of the row after the cursor's
        while slot < self.slots.len() {
            let cell = self.cell_of[self.slots[slot] as usize] as usize;
            let s0 = slot;
            let e0 = self.start[cell + 1] as usize;
            while cell >= row_next {
                row_next += cols;
            }
            let row_base = row_next - cols;
            let c = cell - row_base;
            // Own cell after the probing slot + east neighbour: one
            // contiguous range.
            let e_east = self.start[(cell + 1).min(row_base + cols - 1) + 1] as usize;
            // SW..SE in the row below: one contiguous range.
            let (s_south, e_south) = if row_next < cols * rows {
                (
                    self.start[row_next + c.saturating_sub(1)] as usize,
                    self.start[row_next + (c + 1).min(cols - 1) + 1] as usize,
                )
            } else {
                (0, 0)
            };
            for s in s0..e0 {
                let i = self.slots[s];
                let p = &points[i as usize];
                out.clear();
                dist2_filter_chunked(points, &self.slots[s + 1..e_east], p, eps2, out);
                if s_south < e_south {
                    dist2_filter_chunked(points, &self.slots[s_south..e_south], p, eps2, out);
                }
                for &j in out.iter() {
                    f(i, j);
                }
            }
            slot = e0;
        }
    }

    /// The grid-reuse counters, cumulative since creation.
    pub fn counters(&self) -> GridCounters {
        self.counters
    }

    /// The cell side of the last build (diagnostics / tests).
    pub fn cell_side(&self) -> f64 {
        self.cell
    }

    /// Is every coordinate of the last update's points finite?
    pub(crate) fn all_finite(&self) -> bool {
        self.all_finite
    }

    /// Attempts a re-scatter under the retained geometry; `false` means
    /// the caller must rebuild.
    fn try_patch(&mut self, points: &[ObjPos]) -> bool {
        let old_n = self.cell_of.len();
        let n = points.len();
        // The cell side was tuned for ~tuned_n points: a halved or
        // doubled population deserves a fresh extent.
        if n < self.tuned_n / 2 || n > self.tuned_n.saturating_mul(2) {
            return false;
        }
        let (cols, rows, inv_cell) = (self.cols, self.rows, self.inv_cell);
        let (min_x, min_y) = (self.min_x, self.min_y);
        self.new_cell.clear();
        self.new_cell.reserve(n);
        let mut outside = 0usize;
        let common = n.min(old_n);
        let mut moved = (old_n - common + n - common) as u64;
        for (i, p) in points.iter().enumerate() {
            if !(p.x.is_finite() && p.y.is_finite()) {
                return false;
            }
            let fx = (p.x - min_x) * inv_cell;
            let fy = (p.y - min_y) * inv_cell;
            // Points beyond the retained box clamp into the border cells
            // (exact, but a sweep-cost smell when there are many — the
            // box has drifted off the data).
            if !(fx >= 0.0 && fx < cols as f64 && fy >= 0.0 && fy < rows as f64) {
                outside += 1;
            }
            let col = (fx as usize).min(cols - 1);
            let row = (fy as usize).min(rows - 1);
            let c = (row * cols + col) as u32;
            if i < common {
                moved += u64::from(c != self.cell_of[i]);
            }
            self.new_cell.push(c);
        }
        if outside * OUTSIDE_REBUILD_DIV > n {
            return false;
        }
        self.counters.cells_moved += moved;
        self.all_finite = true;
        std::mem::swap(&mut self.cell_of, &mut self.new_cell);
        self.scatter();
        true
    }

    /// Retunes the geometry for `points` and lays them out.
    fn rebuild(&mut self, points: &[ObjPos]) {
        let extent = csr_extent(points, self.eps, &mut self.percentiles);
        self.all_finite = extent.all_finite;
        self.cell = extent.cell;
        self.inv_cell = extent.cell.recip();
        self.min_x = extent.min_x;
        self.min_y = extent.min_y;
        self.cols = extent.cols;
        self.rows = extent.rows;
        self.tuned_n = points.len();
        let inv_cell = self.inv_cell;
        self.cell_of.clear();
        self.cell_of.extend(points.iter().map(|p| {
            // Outliers beyond a percentile-clipped box land in the
            // border cells; so do non-finite points (a NaN index casts
            // to 0, an infinite one saturates).
            let col = (((p.x - extent.min_x) * inv_cell) as usize).min(extent.cols - 1);
            let row = (((p.y - extent.min_y) * inv_cell) as usize).min(extent.rows - 1);
            (row * extent.cols + col) as u32
        }));
        self.scatter();
    }

    /// Counting sort of the point indices by `cell_of`: a histogram into
    /// `start`, an inclusive prefix sum (so `start[c]` is the end of cell
    /// `c`), then a backward scatter that decrements each cell's cursor
    /// down to its begin — leaving `start[c]..start[c + 1]` as cell `c`'s
    /// range, indices ascending within it.
    fn scatter(&mut self) {
        let cells = self.cols * self.rows;
        self.start.clear();
        self.start.resize(cells + 1, 0);
        for &c in &self.cell_of {
            self.start[c as usize] += 1;
        }
        let mut acc = 0u32;
        for s in self.start.iter_mut() {
            acc += *s;
            *s = acc;
        }
        // The backward pass writes every slot exactly once, so only a
        // size *change* touches memory here.
        self.slots.resize(acc as usize, 0);
        for i in (0..self.cell_of.len()).rev() {
            let c = self.cell_of[i] as usize;
            self.start[c] -= 1;
            self.slots[self.start[c] as usize] = i as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random f64 in [0, 1) (no rand dependency).
    fn unit(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    fn cloud(n: u32, seed: u64) -> Vec<ObjPos> {
        let mut state = seed | 1;
        (0..n)
            .map(|i| ObjPos::new(i, unit(&mut state) * 50.0, unit(&mut state) * 50.0))
            .collect()
    }

    /// Every pair `i < j` within eps, by the `O(n²)` definition.
    fn brute_pairs(points: &[ObjPos], eps: f64) -> Vec<(u32, u32)> {
        let mut want = Vec::new();
        for i in 0..points.len() {
            for j in i + 1..points.len() {
                if points[i].dist2(&points[j]) <= eps * eps {
                    want.push((i as u32, j as u32));
                }
            }
        }
        want
    }

    /// The grid's eps-pairs, normalised to `i < j` and sorted (so a
    /// duplicate shows up as an extra entry).
    fn emitted(state: &GridState, points: &[ObjPos], eps: f64) -> Vec<(u32, u32)> {
        let mut got = Vec::new();
        state.eps_pairs(points, eps * eps, &mut Vec::new(), |a, b| {
            got.push((a.min(b), a.max(b)));
        });
        got.sort_unstable();
        got
    }

    fn assert_exact(state: &GridState, points: &[ObjPos], eps: f64) {
        assert_eq!(emitted(state, points, eps), brute_pairs(points, eps));
    }

    #[test]
    fn eps_pairs_equal_brute_force_on_every_geometry() {
        let lattice: Vec<ObjPos> = (0..100)
            .map(|i| ObjPos::new(i, (i / 10) as f64 * 0.7, (i % 10) as f64 * 0.7))
            .collect();
        // Athens-shaped Trucks extents (degrees: ~0.5° × 0.35°) at a
        // paper-range eps of 2e-5 degrees — an extent-to-eps ratio of
        // ~25 000 per axis, sized by density — plus a co-located platoon.
        let mut state = 0x5eed;
        let mut trucks: Vec<ObjPos> = (0..300)
            .map(|i| {
                let x = 23.5 + unit(&mut state) * 0.5;
                ObjPos::new(i, x, 37.85 + unit(&mut state) * 0.35)
            })
            .collect();
        trucks.extend([
            ObjPos::new(900, 23.7, 38.0),
            ObjPos::new(901, 23.7 + 1.0e-5, 38.0),
            ObjPos::new(902, 23.7, 38.0 + 1.0e-5),
        ]);
        // A Beijing-shaped taxi cloud plus GPS glitches hundreds of
        // degrees away: the percentile clip keeps the grid sized to the
        // city, and the two co-located glitches pair in a border cell.
        let mut state = 0xbe111u64 ^ 0xffff;
        let mut tdrive: Vec<ObjPos> = (0..400)
            .map(|i| {
                let x = 116.20 + unit(&mut state) * 0.40;
                ObjPos::new(i, x, 39.80 + unit(&mut state) * 0.30)
            })
            .collect();
        tdrive.extend([
            ObjPos::new(900, 480.0, 220.0),
            ObjPos::new(901, 480.0 + 5.0e-5, 220.0),
            ObjPos::new(902, -310.0, -85.0),
        ]);
        // Every point on one line spanning 1e6 units (zero-area box),
        // with a dense run on it.
        let mut line: Vec<ObjPos> = (0..200)
            .map(|i| ObjPos::new(i, i as f64 * 5050.0, 42.0))
            .collect();
        line.extend((0..5).map(|i| ObjPos::new(500 + i, 1000.25 + i as f64 * 0.1, 42.0)));
        // NaN and ±∞ points amid finite pairs: they pair with nothing,
        // not even each other.
        let mut non_finite: Vec<ObjPos> = (0..60)
            .map(|i| ObjPos::new(i, (i % 8) as f64 * 0.5, (i / 8) as f64 * 0.5))
            .collect();
        non_finite[5].x = f64::NAN;
        non_finite[17].y = f64::INFINITY;
        non_finite[33] = ObjPos::new(33, f64::NEG_INFINITY, f64::NEG_INFINITY);
        non_finite[34] = ObjPos::new(34, f64::INFINITY, f64::INFINITY);
        non_finite[35] = ObjPos::new(35, f64::INFINITY, f64::INFINITY);
        let cases: Vec<(&str, Vec<ObjPos>, f64)> = vec![
            ("lattice", lattice, 1.0),
            (
                "self and the exact boundary",
                vec![ObjPos::new(0, 0.0, 0.0), ObjPos::new(1, 1.0, 0.0)],
                1.0,
            ),
            (
                "negative coordinates",
                vec![
                    ObjPos::new(0, -0.5, -0.5),
                    ObjPos::new(1, 0.4, 0.4),
                    ObjPos::new(2, -5.0, -5.0),
                ],
                2.0,
            ),
            ("Trucks lat/lon", trucks, 2.0e-5),
            ("outlier-stretched T-Drive box", tdrive, 1.0e-4),
            (
                "1e12 extent",
                vec![
                    ObjPos::new(0, 0.0, 0.0),
                    ObjPos::new(1, 0.5, 0.0),
                    ObjPos::new(2, 1.0e12, 1.0e12),
                ],
                1.0,
            ),
            ("collinear 1e6 line", line, 0.5),
            (
                "all points coincident",
                (0..40).map(|i| ObjPos::new(i, 7.25, -3.5)).collect(),
                1.0e-9,
            ),
            // No budgeted cell side fits a 2e300 × 1e-300 box: one cell.
            (
                "vast aspect ratio",
                vec![
                    ObjPos::new(0, -1.0e300, 0.0),
                    ObjPos::new(1, -1.0e300, 0.5),
                    ObjPos::new(2, 1.0e300, 1.0e-300),
                    ObjPos::new(3, 1.0e300, 0.0),
                ],
                1.0,
            ),
            ("single point", vec![ObjPos::new(7, -3.25, 9.75)], 2.0),
            ("empty set", Vec::new(), 1.0),
            ("NaN and ±∞", non_finite, 1.0),
            (
                "only non-finite points",
                vec![ObjPos::new(0, f64::NAN, 1.0), ObjPos::new(1, f64::NAN, 1.0)],
                1.0,
            ),
        ];
        // Each case on a fresh state and on one state reused across all
        // of them (every extent change is a rebuild into old buffers).
        let mut reused = GridState::new();
        for (name, points, eps) in &cases {
            let want = brute_pairs(points, *eps);
            let mut fresh = GridState::new();
            for state in [&mut fresh, &mut reused] {
                state.update(points, *eps);
                assert!(state.cell_side() >= *eps, "{name}");
                assert_eq!(emitted(state, points, *eps), want, "{name}");
            }
            match *name {
                "self and the exact boundary" => assert_eq!(want, [(0, 1)]),
                "all points coincident" => assert_eq!(want.len(), 40 * 39 / 2),
                "vast aspect ratio" => {
                    assert_eq!(want, [(0, 1), (2, 3)]);
                    assert_eq!(fresh.cell_side(), f64::INFINITY);
                    // One cell has no box to retain: the next update rebuilds.
                    fresh.update(points, *eps);
                    assert_eq!(fresh.counters().builds, 2);
                }
                "NaN and ±∞" => {
                    assert!(want.len() > 100, "{} finite pairs", want.len());
                    assert!(!fresh.all_finite());
                }
                "Trucks lat/lon" => assert!(want.ends_with(&[(300, 301), (300, 302), (301, 302)])),
                "outlier-stretched T-Drive box" => assert!(want.contains(&(400, 401))),
                _ => {}
            }
        }
    }

    #[test]
    fn patch_matches_brute_force_under_drift() {
        let eps = 1.0;
        let mut points = cloud(400, 0xabcd);
        let mut state = GridState::new();
        state.update(&points, eps);
        assert_eq!(state.counters().builds, 1);
        // Drift every point a little for several steps: the retained
        // geometry still fits, so every step patches — and stays exact.
        let mut s = 7u64;
        for _ in 0..6 {
            for p in points.iter_mut() {
                p.x += (unit(&mut s) - 0.5) * 0.6;
                p.y += (unit(&mut s) - 0.5) * 0.6;
            }
            state.update(&points, eps);
            assert_exact(&state, &points, eps);
        }
        assert!(state.counters().patches >= 4, "{:?}", state.counters());
        assert!(state.counters().cells_moved > 0);
    }

    #[test]
    fn population_change_appends_and_drops_points() {
        let eps = 1.0;
        let mut state = GridState::new();
        let base = cloud(300, 0x1122);
        state.update(&base, eps);
        // Grow by a handful, then shrink back; both are patches (within
        // the size-drift bound) and must stay exact.
        let mut grown = base.clone();
        grown.extend(cloud(40, 0x99).into_iter().map(|mut p| {
            p.oid += 1000;
            p
        }));
        state.update(&grown, eps);
        assert_exact(&state, &grown, eps);
        state.update(&base, eps);
        assert_exact(&state, &base, eps);
        assert!(state.counters().patches >= 2, "{:?}", state.counters());
    }

    #[test]
    fn bbox_drift_falls_back_to_rebuild() {
        let eps = 1.0;
        let mut state = GridState::new();
        let a = cloud(500, 0x5a5a);
        state.update(&a, eps);
        // The whole cloud left the retained bounding box: every point
        // would clamp into a border cell, so the geometry is stale and
        // the update must retune (full rebuild).
        let b: Vec<ObjPos> = cloud(500, 0xdead)
            .into_iter()
            .map(|mut p| {
                p.x += 500.0;
                p
            })
            .collect();
        state.update(&b, eps);
        assert_eq!(state.counters().builds, 2, "{:?}", state.counters());
        assert_exact(&state, &b, eps);
    }

    #[test]
    fn eps_pairs_yields_each_pair_once() {
        let eps = 3.0;
        // Coincident points put several pairs into one cell.
        let mut a = cloud(500, 0x5a5a);
        for i in 0..20 {
            a[i + 20] = ObjPos::new(a[i + 20].oid, a[i].x, a[i].y);
        }
        let mut state = GridState::new();
        state.update(&a, eps);
        let want = brute_pairs(&a, eps);
        assert!(want.len() > 500, "{} pairs", want.len());
        assert_eq!(emitted(&state, &a, eps), want, "after a rebuild");
        // Same box, every point teleported: still a re-scatter.
        let b = cloud(500, 0xdead);
        state.update(&b, eps);
        let c = state.counters();
        assert_eq!((c.builds, c.patches), (1, 1), "{c:?}");
        assert!(c.cells_moved > 400, "{c:?}");
        assert_exact(&state, &b, eps);
    }

    #[test]
    fn eps_change_and_nan_force_rebuild() {
        let mut state = GridState::new();
        let a = cloud(200, 0x777);
        state.update(&a, 1.0);
        state.update(&a, 2.0);
        assert_eq!(state.counters().builds, 2);
        assert_exact(&state, &a, 2.0);
        assert!(state.all_finite());
        let mut with_nan = a.clone();
        with_nan[3].x = f64::NAN;
        state.update(&with_nan, 2.0);
        assert_eq!(state.counters().builds, 3);
        assert!(!state.all_finite());
        assert_exact(&state, &with_nan, 2.0);
        // And back: the NaN build's box (over the finite points) serves
        // the all-finite snapshot again.
        state.update(&a, 2.0);
        assert!(state.all_finite());
        assert_exact(&state, &a, 2.0);
    }

    #[test]
    fn march_into_one_cell_patches_every_step() {
        let eps = 1.0;
        // Everyone marches into one corner cell five points at a time:
        // the destination cell keeps filling up, and every step is a
        // re-scatter under the first build's geometry.
        let mut points = cloud(200, 0x31337);
        let mut state = GridState::new();
        state.update(&points, eps);
        for step in 0..36 {
            for p in points.iter_mut().skip(step * 5).take(5) {
                p.x = 0.2;
                p.y = 0.2;
            }
            state.update(&points, eps);
            assert_exact(&state, &points, eps);
        }
        let c = state.counters();
        assert_eq!((c.builds, c.patches), (1, 36), "{c:?}");
    }

    #[test]
    fn empty_then_populated() {
        let mut state = GridState::new();
        state.update(&[], 1.0);
        assert_exact(&state, &[], 1.0);
        let a = cloud(100, 0xf00);
        state.update(&a, 1.0);
        assert_eq!(state.counters().builds, 2);
        assert_exact(&state, &a, 1.0);
    }

    #[test]
    fn counters_delta_arithmetic() {
        let a = GridCounters {
            builds: 5,
            patches: 9,
            cells_moved: 100,
        };
        let b = GridCounters {
            builds: 2,
            patches: 4,
            cells_moved: 30,
        };
        let d = a.since(b);
        assert_eq!(
            d,
            GridCounters {
                builds: 3,
                patches: 5,
                cells_moved: 70
            }
        );
        let mut acc = GridCounters::default();
        acc.add(d);
        acc.add(b);
        assert_eq!(acc, a);
    }
}
