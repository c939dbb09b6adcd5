//! The in-memory trajectory database.

use crate::{ObjPos, ObjectSet, Oid, Point, Snapshot, Time, TimeInterval};
use std::collections::BTreeSet;

/// A movement dataset organised as one [`Snapshot`] per timestamp over a
/// contiguous time range.
///
/// This is the logical database `DB` of the paper (Table 1). Timestamps with
/// no observations hold empty snapshots, so the range is always dense —
/// which keeps benchmark-point arithmetic (`bᵢ = Ts + i·⌊k/2⌋`) trivial.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    start: Time,
    snapshots: Vec<Snapshot>,
    num_points: u64,
}

impl Dataset {
    /// Builds a dataset from raw movement records.
    ///
    /// Returns `None` for an empty record list (a dataset always has at
    /// least one timestamp).
    pub fn from_points(points: &[Point]) -> Option<Self> {
        let mut b = DatasetBuilder::new();
        for p in points {
            b.push(*p);
        }
        b.build()
    }

    /// Builds a dataset with an explicit time range from per-timestamp
    /// snapshots. `snapshots[i]` corresponds to time `start + i`.
    pub fn from_snapshots(start: Time, snapshots: Vec<Snapshot>) -> Self {
        assert!(!snapshots.is_empty(), "dataset needs at least one snapshot");
        let num_points = snapshots.iter().map(|s| s.len() as u64).sum();
        Self {
            start,
            snapshots,
            num_points,
        }
    }

    /// First timestamp (the paper's `Ts`).
    #[inline]
    pub fn start(&self) -> Time {
        self.start
    }

    /// Last timestamp (the paper's `Te`).
    #[inline]
    pub fn end(&self) -> Time {
        self.start + (self.snapshots.len() as Time - 1)
    }

    /// The full time span `[Ts, Te]`.
    #[inline]
    pub fn span(&self) -> TimeInterval {
        TimeInterval::new(self.start(), self.end())
    }

    /// Number of timestamps.
    #[inline]
    pub fn num_timestamps(&self) -> usize {
        self.snapshots.len()
    }

    /// Total number of movement records.
    #[inline]
    pub fn num_points(&self) -> u64 {
        self.num_points
    }

    /// Snapshot at timestamp `t`, or `None` outside the time range.
    pub fn snapshot(&self, t: Time) -> Option<&Snapshot> {
        if t < self.start {
            return None;
        }
        self.snapshots.get((t - self.start) as usize)
    }

    /// Iterates `(t, snapshot)` pairs in time order.
    pub fn iter(&self) -> impl Iterator<Item = (Time, &Snapshot)> {
        self.snapshots
            .iter()
            .enumerate()
            .map(move |(i, s)| (self.start + i as Time, s))
    }

    /// Iterates every movement record in `(t, oid)` order.
    pub fn iter_points(&self) -> impl Iterator<Item = Point> + '_ {
        self.iter()
            .flat_map(|(t, s)| s.positions().iter().map(move |p| p.at(t)))
    }

    /// `DB[T]` — the dataset restricted to a time interval.
    ///
    /// Returns `None` if `T` does not overlap the dataset's span.
    pub fn restrict_time(&self, interval: TimeInterval) -> Option<Dataset> {
        let iv = interval.intersect(&self.span())?;
        let lo = (iv.start - self.start) as usize;
        let hi = (iv.end - self.start) as usize;
        Some(Dataset::from_snapshots(
            iv.start,
            self.snapshots[lo..=hi].to_vec(),
        ))
    }

    /// Positions of the given objects at timestamp `t` (`DB[t]|O`).
    /// Empty outside the time range.
    pub fn restrict_at(&self, t: Time, objects: &ObjectSet) -> Vec<ObjPos> {
        self.snapshot(t)
            .map(|s| s.restrict(objects))
            .unwrap_or_default()
    }

    /// Summary statistics (object counts, densities).
    pub fn stats(&self) -> DatasetStats {
        let mut objects = BTreeSet::new();
        let mut max_snapshot = 0usize;
        for s in &self.snapshots {
            max_snapshot = max_snapshot.max(s.len());
            for p in s.positions() {
                objects.insert(p.oid);
            }
        }
        DatasetStats {
            num_points: self.num_points,
            num_timestamps: self.snapshots.len(),
            num_objects: objects.len(),
            max_snapshot_size: max_snapshot,
            avg_snapshot_size: self.num_points as f64 / self.snapshots.len() as f64,
        }
    }
}

/// Summary statistics of a [`Dataset`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetStats {
    /// Total number of movement records.
    pub num_points: u64,
    /// Number of timestamps in the (dense) range.
    pub num_timestamps: usize,
    /// Number of distinct objects.
    pub num_objects: usize,
    /// Largest snapshot population.
    pub max_snapshot_size: usize,
    /// Mean snapshot population.
    pub avg_snapshot_size: f64,
}

/// Incremental constructor for [`Dataset`] from unsorted records.
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    points: Vec<Point>,
}

impl DatasetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one movement record.
    pub fn push(&mut self, p: Point) {
        self.points.push(p);
    }

    /// Adds a record from its fields.
    pub fn record(&mut self, oid: Oid, x: f64, y: f64, t: Time) {
        self.points.push(Point::new(oid, x, y, t));
    }

    /// Finalises the dataset; `None` when no record was added.
    pub fn build(mut self) -> Option<Dataset> {
        if self.points.is_empty() {
            return None;
        }
        self.points.sort_by_key(|a| (a.t, a.oid));
        let start = self.points[0].t;
        let end = self.points[self.points.len() - 1].t;
        let mut snapshots = vec![Snapshot::new(); (end - start + 1) as usize];
        let mut run_start = 0usize;
        for i in 1..=self.points.len() {
            if i == self.points.len() || self.points[i].t != self.points[run_start].t {
                let t = self.points[run_start].t;
                let positions: Vec<ObjPos> =
                    self.points[run_start..i].iter().map(|p| p.pos()).collect();
                // Records are sorted by (t, oid); duplicates collapse here.
                snapshots[(t - start) as usize] = Snapshot::from_positions(positions);
                run_start = i;
            }
        }
        Some(Dataset::from_snapshots(start, snapshots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        // Two objects moving for 3 timestamps, a third appears once.
        let pts = vec![
            Point::new(1, 0.0, 0.0, 10),
            Point::new(2, 1.0, 0.0, 10),
            Point::new(1, 0.5, 0.0, 11),
            Point::new(2, 1.5, 0.0, 11),
            Point::new(3, 9.0, 9.0, 12),
        ];
        Dataset::from_points(&pts).unwrap()
    }

    #[test]
    fn range_and_counts() {
        let d = toy();
        assert_eq!(d.start(), 10);
        assert_eq!(d.end(), 12);
        assert_eq!(d.num_timestamps(), 3);
        assert_eq!(d.num_points(), 5);
        assert_eq!(d.span(), TimeInterval::new(10, 12));
    }

    #[test]
    fn snapshot_lookup() {
        let d = toy();
        assert_eq!(d.snapshot(10).unwrap().len(), 2);
        assert_eq!(d.snapshot(12).unwrap().len(), 1);
        assert!(d.snapshot(9).is_none());
        assert!(d.snapshot(13).is_none());
    }

    #[test]
    fn gap_timestamps_get_empty_snapshots() {
        let pts = vec![Point::new(1, 0.0, 0.0, 0), Point::new(1, 1.0, 0.0, 5)];
        let d = Dataset::from_points(&pts).unwrap();
        assert_eq!(d.num_timestamps(), 6);
        assert!(d.snapshot(3).unwrap().is_empty());
        assert_eq!(d.num_points(), 2);
    }

    #[test]
    fn empty_builder_returns_none() {
        assert!(DatasetBuilder::new().build().is_none());
        assert!(Dataset::from_points(&[]).is_none());
    }

    #[test]
    fn restrict_time_clamps_to_span() {
        let d = toy();
        let r = d.restrict_time(TimeInterval::new(11, 20)).unwrap();
        assert_eq!(r.span(), TimeInterval::new(11, 12));
        assert_eq!(r.num_points(), 3);
        assert!(d.restrict_time(TimeInterval::new(20, 30)).is_none());
    }

    #[test]
    fn restrict_at_outside_range_is_empty() {
        let d = toy();
        assert!(d.restrict_at(99, &ObjectSet::from([1])).is_empty());
        assert_eq!(d.restrict_at(10, &ObjectSet::from([1, 3])).len(), 1);
    }

    #[test]
    fn iter_points_is_time_major_sorted() {
        let d = toy();
        let pts: Vec<_> = d.iter_points().collect();
        assert_eq!(pts.len(), 5);
        assert!(pts
            .windows(2)
            .all(|w| (w[0].t, w[0].oid) < (w[1].t, w[1].oid)));
    }

    #[test]
    fn stats() {
        let s = toy().stats();
        assert_eq!(s.num_points, 5);
        assert_eq!(s.num_objects, 3);
        assert_eq!(s.max_snapshot_size, 2);
        assert!((s.avg_snapshot_size - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_records_collapse() {
        let pts = vec![
            Point::new(1, 0.0, 0.0, 0),
            Point::new(1, 2.0, 2.0, 0), // same (t, oid): later record wins
        ];
        let d = Dataset::from_points(&pts).unwrap();
        assert_eq!(d.num_points(), 1);
        assert_eq!(d.snapshot(0).unwrap().get(1).unwrap().x, 2.0);
    }
}
