//! Per-timestamp views of a movement dataset.

use crate::{ObjPos, ObjectSet, Oid};
use std::sync::Arc;

/// All object positions observed at a single timestamp, sorted by object id.
///
/// The sorted order gives `O(log n)` membership lookups and linear-merge
/// restriction to an [`ObjectSet`] — the access pattern of the HWMT
/// re-clustering step (`DB[t]|O(v)`).
///
/// Positions are stored behind an `Arc`, so cloning a snapshot — and
/// handing the position slice to another thread via
/// [`positions_shared`](Self::positions_shared) — is `O(1)` and copies no
/// records. This is what lets the in-memory storage engine serve
/// benchmark-point scans zero-copy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    positions: Arc<[ObjPos]>,
}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a snapshot from arbitrary positions (sorts by oid).
    ///
    /// If an object appears multiple times, the last occurrence wins — a
    /// real feed would have deduplicated upstream, but the model stays
    /// deterministic either way.
    pub fn from_positions(mut positions: Vec<ObjPos>) -> Self {
        positions.sort_by_key(|p| p.oid);
        positions.dedup_by(|later, earlier| {
            if later.oid == earlier.oid {
                *earlier = *later;
                true
            } else {
                false
            }
        });
        Self {
            positions: positions.into(),
        }
    }

    /// Builds a snapshot from positions already sorted by unique oid.
    pub fn from_sorted(positions: Vec<ObjPos>) -> Self {
        debug_assert!(
            positions.windows(2).all(|w| w[0].oid < w[1].oid),
            "from_sorted: oids must be strictly increasing"
        );
        Self {
            positions: positions.into(),
        }
    }

    /// Number of objects present.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Is any object present?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of object `oid`, if present.
    pub fn get(&self, oid: Oid) -> Option<&ObjPos> {
        self.positions
            .binary_search_by_key(&oid, |p| p.oid)
            .ok()
            .map(|i| &self.positions[i])
    }

    /// All positions, sorted by oid.
    #[inline]
    pub fn positions(&self) -> &[ObjPos] {
        &self.positions
    }

    /// The positions as a shared, reference-counted slice — `O(1)`, no
    /// record is copied. This is the zero-copy benchmark-scan path of the
    /// in-memory storage engine: the returned `Arc` stays valid (and
    /// `Send`-able to clustering workers) independent of the snapshot.
    #[inline]
    pub fn positions_shared(&self) -> Arc<[ObjPos]> {
        Arc::clone(&self.positions)
    }

    /// The positions restricted to objects in `set` — the paper's
    /// `DB[t]|O`.
    pub fn restrict(&self, set: &ObjectSet) -> Vec<ObjPos> {
        let mut out = Vec::with_capacity(set.len().min(self.len()));
        self.restrict_into(set, &mut out);
        out
    }

    /// [`restrict`](Self::restrict) appending into a caller-provided
    /// buffer — the allocation-free form the `reCluster` probe loop uses.
    ///
    /// Both sequences are sorted by oid, so this is a galloping merge:
    /// whichever side is behind jumps forward by exponential search
    /// instead of stepping. Sparse candidate sets (|O| ≪ |snapshot|, the
    /// HWMT common case) finish in `O(|O| · log |snapshot|)`; dense sets
    /// degrade gracefully to the linear merge.
    pub fn restrict_into(&self, set: &ObjectSet, out: &mut Vec<ObjPos>) {
        self.restrict_ids_into(set.ids(), out);
    }

    /// [`restrict_into`](Self::restrict_into) over a raw sorted id slice
    /// (what the storage layer's `multi_get` receives).
    pub fn restrict_ids_into(&self, ids: &[Oid], out: &mut Vec<ObjPos>) {
        restrict_sorted_ids_into(&self.positions, ids, out);
    }

    /// The set of objects present at this timestamp.
    pub fn object_set(&self) -> ObjectSet {
        ObjectSet::from_sorted(self.positions.iter().map(|p| p.oid).collect())
    }
}

/// Restricts a position slice to a sorted id list, appending matches to
/// `out` — the free-standing form of
/// [`Snapshot::restrict_ids_into`] for positions that live outside a
/// snapshot (e.g. a prefetched hop-window slab column).
///
/// Both sequences are sorted by oid, so this is a galloping merge:
/// whichever side is behind jumps forward by exponential search instead
/// of stepping — `O(|ids| · log |positions|)` for sparse id sets,
/// degrading gracefully to the linear merge for dense ones.
pub fn restrict_sorted_ids_into(positions: &[ObjPos], ids: &[Oid], out: &mut Vec<ObjPos>) {
    debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(positions.windows(2).all(|w| w[0].oid < w[1].oid));
    let (mut i, mut j) = (0usize, 0usize);
    while i < ids.len() && j < positions.len() {
        match ids[i].cmp(&positions[j].oid) {
            std::cmp::Ordering::Equal => {
                out.push(positions[j]);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                i = gallop(ids, i + 1, |&id| id < positions[j].oid);
            }
            std::cmp::Ordering::Greater => {
                j = gallop(positions, j + 1, |p| p.oid < ids[i]);
            }
        }
    }
}

/// First index `>= lo` at which `below` turns false, found by doubling
/// steps from `lo` and then binary-searching the bracketed window.
/// `below` must be a monotone true-prefix predicate over `xs[lo..]`.
#[inline]
fn gallop<T>(xs: &[T], lo: usize, below: impl Fn(&T) -> bool) -> usize {
    let mut step = 1usize;
    let mut prev = lo;
    let mut probe = lo;
    while probe < xs.len() && below(&xs[probe]) {
        prev = probe + 1;
        probe += step;
        step <<= 1;
    }
    let hi = probe.min(xs.len());
    prev + xs[prev..hi].partition_point(below)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> Snapshot {
        Snapshot::from_positions(vec![
            ObjPos::new(5, 5.0, 0.0),
            ObjPos::new(1, 1.0, 0.0),
            ObjPos::new(3, 3.0, 0.0),
        ])
    }

    #[test]
    fn from_positions_sorts() {
        let s = snap();
        let oids: Vec<_> = s.positions().iter().map(|p| p.oid).collect();
        assert_eq!(oids, vec![1, 3, 5]);
    }

    #[test]
    fn duplicate_oid_keeps_last() {
        let s = Snapshot::from_positions(vec![ObjPos::new(1, 0.0, 0.0), ObjPos::new(1, 9.0, 9.0)]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(1).unwrap().x, 9.0);
    }

    #[test]
    fn get_finds_present_objects_only() {
        let s = snap();
        assert_eq!(s.get(3).unwrap().x, 3.0);
        assert!(s.get(2).is_none());
    }

    #[test]
    fn restrict_filters_and_keeps_order() {
        let s = snap();
        let r = s.restrict(&ObjectSet::from([3, 5, 9]));
        let oids: Vec<_> = r.iter().map(|p| p.oid).collect();
        assert_eq!(oids, vec![3, 5]);
    }

    #[test]
    fn restrict_with_sparse_set_uses_lookup_path() {
        let positions: Vec<_> = (0..100).map(|i| ObjPos::new(i, i as f64, 0.0)).collect();
        let s = Snapshot::from_sorted(positions);
        let r = s.restrict(&ObjectSet::from([7, 42]));
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].oid, 7);
        assert_eq!(r[1].oid, 42);
    }

    #[test]
    fn object_set_lists_members() {
        assert_eq!(snap().object_set(), ObjectSet::from([1, 3, 5]));
    }

    #[test]
    fn restrict_into_reuses_buffer_and_matches_restrict() {
        let positions: Vec<_> = (0..200)
            .filter(|i| i % 3 != 0)
            .map(|i| ObjPos::new(i, i as f64, 0.0))
            .collect();
        let s = Snapshot::from_sorted(positions);
        let mut buf = vec![ObjPos::new(999, 9.0, 9.0)]; // stale content
        for set in [
            ObjectSet::from([7, 42, 500]),
            ObjectSet::empty(),
            s.object_set(),
            ObjectSet::from([0, 3, 6, 9]), // all absent (multiples of 3)
            ObjectSet::new((0..400).collect()),
        ] {
            buf.clear();
            s.restrict_into(&set, &mut buf);
            assert_eq!(buf, s.restrict(&set), "set {set:?}");
        }
    }

    #[test]
    fn gallop_finds_first_non_below() {
        let xs = [1u32, 3, 5, 7, 9, 11, 13];
        for target in 0..15u32 {
            for lo in 0..=xs.len() {
                let got = gallop(&xs[..], lo, |&x| x < target);
                let want = lo + xs[lo..].iter().take_while(|&&x| x < target).count();
                assert_eq!(got, want, "target {target} lo {lo}");
            }
        }
    }

    #[test]
    fn positions_shared_aliases_the_snapshot_storage() {
        let s = snap();
        let a = s.positions_shared();
        let b = s.positions_shared();
        assert!(Arc::ptr_eq(&a, &b), "shared handles must alias");
        assert_eq!(&a[..], s.positions());
        let clone = s.clone();
        assert!(
            Arc::ptr_eq(&a, &clone.positions_shared()),
            "cloning a snapshot must not copy records"
        );
    }
}
