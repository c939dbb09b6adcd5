//! Grid geometry and the distance kernel behind [`GridState`].
//!
//! [`csr_extent`] picks the bounding box and cell side of the one grid
//! layout, a counting-sort CSR over row-major cells. The cell side
//! self-tunes in two regimes: metric-scale extents use the extent-to-eps
//! ratio directly (cell = eps, mildly coarsened), and geo-scale extents —
//! lat/lon degrees mined with paper-range eps values around `1e-5`, where
//! that ratio reaches the millions — derive the cell side from snapshot
//! point *density* over a percentile-clipped bounding box. Points outside
//! the box, non-finite ones included, clamp into the border cells, and
//! when no budgeted geometry fits at all the grid is one cell of infinite
//! side. Every geometry is exact: any cell side `>= eps` keeps an
//! eps-pair's cells at most one apart per axis, and clamping cannot pull
//! them further apart.
//!
//! [`dist2_filter_chunked`] is the distance filter every neighbour test
//! goes through, gridded or pairwise.
//!
//! [`GridState`]: crate::GridState

use k2_model::ObjPos;

/// Appends every candidate within distance `sqrt(eps2)` of `q` to `out` —
/// the distance filter of every neighbour test, manually vectorized.
///
/// `candidates` are indices into `points`. The loop is a chunked,
/// dependency-free f64x4-style kernel: four squared distances are computed
/// per iteration into a small lane buffer (no lane depends on another, so
/// the compiler is free to keep all four in vector registers), and the
/// pass/fail decision branches **once per chunk** — in the common case of
/// a chunk with no neighbour, the per-lane pushes are never reached. The
/// remainder (1–3 trailing candidates) falls back to the scalar filter.
///
/// Per-lane arithmetic is exactly [`ObjPos::dist2`]`(q) <= eps2`, so the
/// appended *set* is bit-identical to the scalar loop it replaces; only
/// the instruction schedule changes. Non-finite coordinates give a NaN or
/// infinite distance, which compares false, so such a point is never
/// appended — not even as its own neighbour.
#[inline]
pub fn dist2_filter_chunked(
    points: &[ObjPos],
    candidates: &[u32],
    q: &ObjPos,
    eps2: f64,
    out: &mut Vec<u32>,
) {
    let mut chunks = candidates.chunks_exact(4);
    for c in &mut chunks {
        let d = [
            points[c[0] as usize].dist2(q),
            points[c[1] as usize].dist2(q),
            points[c[2] as usize].dist2(q),
            points[c[3] as usize].dist2(q),
        ];
        // Non-short-circuiting `|` keeps this a single branch per chunk.
        if (d[0] <= eps2) | (d[1] <= eps2) | (d[2] <= eps2) | (d[3] <= eps2) {
            for (lane, &j) in c.iter().enumerate() {
                if d[lane] <= eps2 {
                    out.push(j);
                }
            }
        }
    }
    for &j in chunks.remainder() {
        if points[j as usize].dist2(q) <= eps2 {
            out.push(j);
        }
    }
}

/// Target CSR occupancy: aim for about this many cells per point. Any
/// cell side `>= eps` preserves the neighbouring-cell guarantee, so when
/// the eps-sized grid would be much sparser than this the cell side is
/// scaled up — zero-filling a hundred empty cells per point costs more
/// than filtering a couple of extra distance candidates.
const CSR_TARGET_CELLS_PER_POINT: usize = 4;
/// Floor on the occupancy target for small snapshots. Every build and
/// every re-scatter pays `O(cells)` passes, so a floor much larger than
/// the snapshot makes the cell-array passes dominate the point work; 256
/// keeps tiny grids fine-grained enough to probe well while letting
/// their build cost stay proportional to `n`.
const CSR_MIN_TARGET_CELLS: usize = 256;
/// Up to this scale factor over `eps` the cell side comes straight from
/// the extent-to-eps ratio (the cheap path: no percentile pass). Beyond
/// it the extent dwarfs eps — lat/lon data mined with degree-scale eps,
/// or an outlier-stretched bounding box — and the cell side is instead
/// derived from snapshot point *density* over a percentile-clipped
/// bounding box (see [`density_extent`]).
const CSR_MAX_CELL_SCALE: f64 = 8.0;
/// Percentile clipped off each side of the coordinate distribution when
/// the density path sizes its bounding box (2% per tail): a handful of
/// GPS glitches must not inflate the box that every regular point is
/// gridded into.
const CSR_CLIP_PER_MILLE: usize = 20;
/// Densest CSR grid we allow after scaling, as a multiple of the point
/// count; beyond it the zero-fill of the cell array would dominate.
const CSR_MAX_CELLS_PER_POINT: usize = 192;
/// Grids up to this many cells are always allowed (the multipliers above
/// only bite for large point sets).
const CSR_MIN_CELL_BUDGET: usize = 1 << 16;
/// Absolute ceiling on cells (bounds the cell array to ~64 MiB).
const CSR_ABS_MAX_CELLS: usize = 1 << 24;

/// Geometry of one grid build: the box origin, `cols × rows` cells of
/// side `cell` — `eps`, a bounded multiple of it (extent path), a
/// density-derived side (geo path) or `+∞` (one cell, the last resort);
/// always `>= eps`. `all_finite` records whether every input coordinate
/// was finite.
pub(crate) struct CsrExtent {
    pub(crate) min_x: f64,
    pub(crate) min_y: f64,
    pub(crate) cols: usize,
    pub(crate) rows: usize,
    pub(crate) cell: f64,
    pub(crate) all_finite: bool,
}

impl CsrExtent {
    /// One cell of infinite side: every point shares it, so the grid
    /// degenerates to the exact pairwise scan.
    fn one_cell(min_x: f64, min_y: f64, all_finite: bool) -> Self {
        CsrExtent {
            min_x,
            min_y,
            cols: 1,
            rows: 1,
            cell: f64::INFINITY,
            all_finite,
        }
    }
}

/// Grid geometry for a box of `span_x × span_y` at cell side `cell`, or
/// `None` when the cell array would overflow the absolute cap.
fn grid_dims(span_x: f64, span_y: f64, cell: f64) -> Option<(usize, usize, usize)> {
    let span_cols = span_x / cell;
    let span_rows = span_y / cell;
    // Bail out before the usize casts can overflow or saturate.
    if !(span_cols.is_finite() && span_rows.is_finite())
        || span_cols >= CSR_ABS_MAX_CELLS as f64
        || span_rows >= CSR_ABS_MAX_CELLS as f64
    {
        return None;
    }
    let cols = span_cols as usize + 1;
    let rows = span_rows as usize + 1;
    let cells = cols.checked_mul(rows)?;
    Some((cols, rows, cells))
}

fn is_finite(p: &ObjPos) -> bool {
    p.x.is_finite() && p.y.is_finite()
}

/// The grid geometry for `points` at `eps`. The box is taken over the
/// finite points only; the rest clamp into border cells.
pub(crate) fn csr_extent(points: &[ObjPos], eps: f64, percentiles: &mut Vec<f64>) -> CsrExtent {
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    let mut all_finite = true;
    for p in points {
        if is_finite(p) {
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        } else {
            all_finite = false;
        }
    }
    if min_x > max_x {
        // No finite point: nothing to size a box from.
        return CsrExtent::one_cell(0.0, 0.0, all_finite);
    }
    let target = CSR_MIN_TARGET_CELLS.max(points.len().saturating_mul(CSR_TARGET_CELLS_PER_POINT));
    let budget = CSR_MIN_CELL_BUDGET
        .max(points.len().saturating_mul(CSR_MAX_CELLS_PER_POINT))
        .min(CSR_ABS_MAX_CELLS);

    // Extent path: cell side straight from the extent-to-eps ratio, full
    // bounding box, no percentile pass. Covers metric-scale snapshots.
    // Every acceptance checks the budget too: for huge point sets the
    // occupancy target (4n) exceeds the absolute cell cap, and an
    // unchecked `cells <= target` grid could overflow the u32 cell ids.
    let full = |cell: f64| {
        let (cols, rows, cells) = grid_dims(max_x - min_x, max_y - min_y, cell)?;
        let extent = CsrExtent {
            min_x,
            min_y,
            cols,
            rows,
            cell,
            all_finite,
        };
        Some((extent, cells))
    };
    if let Some((extent, cells)) = full(eps) {
        if cells <= target && cells <= budget {
            return extent;
        }
        // Sparser than the target: coarsen the cell side so the cell
        // array stays proportional to n. Clamped to >= 1: the
        // budget-exceeded fall-through can arrive here with cells <=
        // target, and a sub-eps cell would break the neighbouring-cell
        // guarantee.
        let scale = (cells as f64 / target as f64).sqrt().max(1.0);
        if scale <= CSR_MAX_CELL_SCALE {
            if let Some((extent, cells)) = full(eps * scale) {
                if cells <= budget {
                    return extent;
                }
            }
        }
    }
    // The extent dwarfs eps (lat/lon-scale coordinates, or a box
    // stretched by outliers): size the grid from point density instead.
    density_extent(points, eps, target, budget, all_finite, percentiles)
}

/// The geo-scale sizing path: derive the cell side from snapshot point
/// *density* — pick the side so the percentile-clipped bounding box of
/// the finite points holds about `target` cells regardless of how extreme
/// the extent-to-eps ratio is. This is what keeps Trucks/T-Drive-shaped
/// data (degree coordinates, eps of `1e-5`-ish degrees) on a fine grid.
fn density_extent(
    points: &[ObjPos],
    eps: f64,
    target: usize,
    budget: usize,
    all_finite: bool,
    percentiles: &mut Vec<f64>,
) -> CsrExtent {
    let mut clipped_span = |coord: fn(&ObjPos) -> f64| -> (f64, f64) {
        percentiles.clear();
        percentiles.extend(points.iter().filter(|p| is_finite(p)).map(coord));
        let n = percentiles.len();
        let lo_i = n * CSR_CLIP_PER_MILLE / 1000;
        let hi_i = n - 1 - lo_i;
        percentiles.select_nth_unstable_by(lo_i, f64::total_cmp);
        let lo = percentiles[lo_i];
        percentiles.select_nth_unstable_by(hi_i, f64::total_cmp);
        (lo, percentiles[hi_i])
    };
    let (x_lo, x_hi) = clipped_span(|p| p.x);
    let (y_lo, y_hi) = clipped_span(|p| p.y);

    let (span_x, span_y) = (x_hi - x_lo, y_hi - y_lo);
    let mut cell = if span_x > 0.0 && span_y > 0.0 {
        (span_x * span_y / target as f64).sqrt()
    } else {
        // Degenerate (collinear or near-coincident) distribution: one
        // row/column of cells along the longer axis.
        span_x.max(span_y) / target as f64
    };
    cell = cell.max(eps);
    // Area-based sizing assumes a square-ish box; extreme aspect ratios
    // (or a zero-area axis) can still overshoot, so coarsen until the
    // geometry fits the budget — a couple of rounds, or one cell.
    for _ in 0..3 {
        match grid_dims(span_x, span_y, cell) {
            Some((cols, rows, cells)) if cells <= budget => {
                return CsrExtent {
                    min_x: x_lo,
                    min_y: y_lo,
                    cols,
                    rows,
                    cell,
                    all_finite,
                };
            }
            Some((_, _, cells)) => cell *= (cells as f64 / target as f64).sqrt().max(2.0),
            None => cell *= CSR_ABS_MAX_CELLS as f64,
        }
    }
    CsrExtent::one_cell(x_lo, y_lo, all_finite)
}
