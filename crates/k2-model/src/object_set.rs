//! Sorted sets of object identifiers.

use crate::Oid;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, sorted, deduplicated set of object ids.
///
/// Clusters and convoy memberships are `ObjectSet`s. The sorted
/// representation makes the operations the k/2-hop algorithm leans on cheap:
/// set intersection (candidate clusters, DCM merge) and subset tests
/// (maximality / `update()`) are linear merges over the sorted slices.
///
/// The member storage is shared (`Arc<[Oid]>`): cloning a set — which the
/// convoy maintenance loops do constantly — is a reference-count bump, and
/// equality and subset tests between clones of one set settle on a
/// pointer compare.
///
/// ```
/// use k2_model::ObjectSet;
///
/// let a = ObjectSet::from([3, 1, 2]);
/// let b = ObjectSet::from([2, 3, 4]);
/// assert_eq!(a.intersect(&b), ObjectSet::from([2, 3]));
/// assert!(ObjectSet::from([2, 3]).is_subset(&a));
/// assert_eq!(a.ids(), &[1, 2, 3]); // always sorted
/// ```
#[derive(Clone, Eq, PartialOrd, Ord)]
pub struct ObjectSet(Arc<[Oid]>);

impl PartialEq for ObjectSet {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // Clones share storage: one pointer compare settles them before
        // any member is touched.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl std::hash::Hash for ObjectSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Content hash, consistent with the (content-based) `PartialEq`.
        self.0.hash(state)
    }
}

impl ObjectSet {
    /// Builds a set from an arbitrary list of ids (sorts and deduplicates).
    pub fn new(mut ids: Vec<Oid>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        Self(ids.into())
    }

    /// Builds a set from ids that are already sorted and unique.
    ///
    /// This is the hot-path constructor (DBSCAN emits sorted clusters);
    /// the invariant is checked in debug builds only.
    pub fn from_sorted(ids: Vec<Oid>) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "from_sorted: ids must be strictly increasing"
        );
        Self(ids.into())
    }

    /// The empty set.
    pub fn empty() -> Self {
        Self(Arc::new([]))
    }

    /// Number of member objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, oid: Oid) -> bool {
        self.0.binary_search(&oid).is_ok()
    }

    /// Member ids as a sorted slice.
    #[inline]
    pub fn ids(&self) -> &[Oid] {
        &self.0
    }

    /// Set intersection via linear merge of the sorted slices.
    pub fn intersect(&self, other: &ObjectSet) -> ObjectSet {
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.0, &other.0);
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
        ObjectSet(out.into())
    }

    /// Size of the intersection without materialising it.
    pub fn intersection_len(&self, other: &ObjectSet) -> usize {
        let mut count = 0;
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.0, &other.0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// Is `self ⊆ other`? Linear merge over the sorted slices, after the
    /// shared-storage and length fast paths.
    pub fn is_subset(&self, other: &ObjectSet) -> bool {
        if Arc::ptr_eq(&self.0, &other.0) {
            return true;
        }
        if self.len() > other.len() {
            return false;
        }
        let mut j = 0;
        let b = &other.0;
        'outer: for &x in self.0.iter() {
            while j < b.len() {
                match b[j].cmp(&x) {
                    std::cmp::Ordering::Less => j += 1,
                    std::cmp::Ordering::Equal => {
                        j += 1;
                        continue 'outer;
                    }
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Set union via linear merge.
    pub fn union(&self, other: &ObjectSet) -> ObjectSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.0, &other.0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        ObjectSet(out.into())
    }

    /// Iterator over member ids in ascending order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Oid> + '_ {
        self.0.iter().copied()
    }
}

impl Deref for ObjectSet {
    type Target = [Oid];

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl FromIterator<Oid> for ObjectSet {
    fn from_iter<I: IntoIterator<Item = Oid>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl From<&[Oid]> for ObjectSet {
    fn from(ids: &[Oid]) -> Self {
        Self::new(ids.to_vec())
    }
}

impl<const N: usize> From<[Oid; N]> for ObjectSet {
    fn from(ids: [Oid; N]) -> Self {
        Self::new(ids.to_vec())
    }
}

impl fmt::Debug for ObjectSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, oid) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{oid}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_dedups() {
        let s = ObjectSet::new(vec![3, 1, 2, 3, 1]);
        assert_eq!(s.ids(), &[1, 2, 3]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn contains_uses_sorted_order() {
        let s = ObjectSet::from([5, 1, 9]);
        assert!(s.contains(1));
        assert!(s.contains(5));
        assert!(s.contains(9));
        assert!(!s.contains(0));
        assert!(!s.contains(7));
    }

    #[test]
    fn intersect_basic() {
        let a = ObjectSet::from([1, 2, 3, 4]);
        let b = ObjectSet::from([2, 4, 6]);
        assert_eq!(a.intersect(&b).ids(), &[2, 4]);
        assert_eq!(a.intersection_len(&b), 2);
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let a = ObjectSet::from([1, 3]);
        let b = ObjectSet::from([2, 4]);
        assert!(a.intersect(&b).is_empty());
        assert_eq!(a.intersection_len(&b), 0);
    }

    #[test]
    fn subset_checks() {
        let a = ObjectSet::from([2, 4]);
        let b = ObjectSet::from([1, 2, 3, 4]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert!(ObjectSet::empty().is_subset(&a));
    }

    #[test]
    fn union_merges() {
        let a = ObjectSet::from([1, 3, 5]);
        let b = ObjectSet::from([2, 3, 6]);
        assert_eq!(a.union(&b).ids(), &[1, 2, 3, 5, 6]);
    }

    #[test]
    fn paper_candidate_cluster_example() {
        // §4.2: C1 = {{a,b,c,d},{e,f,g,h},{i,j,k}},
        //       C2 = {{a,b,c},{d,e},{f,g,h},{i,j}}
        // with a..k mapped to 0..10. {a,b,c,d} ∩ {a,b,c} = {a,b,c}.
        let c1 = ObjectSet::from([0, 1, 2, 3]);
        let c2 = ObjectSet::from([0, 1, 2]);
        assert_eq!(c1.intersect(&c2), ObjectSet::from([0, 1, 2]));
        // {i,j,k} ∩ {i,j} = {i,j}, below m = 3, would be discarded upstream.
        let c3 = ObjectSet::from([8, 9, 10]);
        let c4 = ObjectSet::from([8, 9]);
        assert_eq!(c3.intersection_len(&c4), 2);
    }
}
