//! Convoys and maximality maintenance.

use crate::{ObjectSet, Oid, Time, TimeInterval};
use std::collections::HashMap;
use std::fmt;

/// A convoy candidate or result: a set of objects together over a closed
/// time interval (paper Def. 3).
///
/// Whether the instance denotes a partially-connected convoy, a spanning
/// candidate, or a validated fully-connected convoy depends on the
/// algorithm phase that produced it; the representation is the same.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Convoy {
    /// Member objects (`O(v)`).
    pub objects: ObjectSet,
    /// Lifespan (`T(v) = [ts, te]`).
    pub lifespan: TimeInterval,
}

impl Convoy {
    /// Creates a convoy from objects and lifespan.
    pub fn new(objects: ObjectSet, lifespan: TimeInterval) -> Self {
        Self { objects, lifespan }
    }

    /// Convenience constructor from raw parts.
    pub fn from_parts(ids: impl Into<ObjectSet>, start: Time, end: Time) -> Self {
        Self {
            objects: ids.into(),
            lifespan: TimeInterval::new(start, end),
        }
    }

    /// Start of the lifespan (`ts(v)`).
    #[inline]
    pub fn start(&self) -> Time {
        self.lifespan.start
    }

    /// End of the lifespan (`te(v)`).
    #[inline]
    pub fn end(&self) -> Time {
        self.lifespan.end
    }

    /// Lifespan length in timestamps (`|T(v)|`).
    #[inline]
    pub fn len(&self) -> u32 {
        self.lifespan.len()
    }

    /// A convoy always covers at least one timestamp and, in valid outputs,
    /// at least `m` objects. Provided for clippy symmetry with `len`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Is `self` a sub-convoy of `other` (Def. 5): `O(self) ⊆ O(other)`
    /// and `T(self) ⊆ T(other)`?
    pub fn is_sub_convoy_of(&self, other: &Convoy) -> bool {
        other.lifespan.contains_interval(&self.lifespan) && self.objects.is_subset(&other.objects)
    }
}

impl fmt::Debug for Convoy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?}, {})", self.objects, self.lifespan)
    }
}

/// A set of convoys with *maximality maintenance*.
///
/// This implements the `update()` helper the paper's Algorithms 3 and 4
/// rely on: a convoy is only added if it is not a sub-convoy of an existing
/// member, and existing members that are sub-convoys of the newcomer are
/// evicted. The set therefore always contains pairwise-incomparable convoys.
///
/// Subsumption is **indexed**: convoys live in insertion-ordered slots and
/// two posting-list maps keyed by member id narrow every `update()` to the
/// plausible comparands instead of scanning all candidates —
///
/// * a superset of the candidate must contain the candidate's smallest
///   member, so the dominated-check probes only the membership bucket of
///   that one id;
/// * a subset of the candidate has its own smallest member *inside* the
///   candidate, so the eviction scan probes only the smallest-member
///   buckets of the candidate's ids.
///
/// With low-overlap candidate streams (the common mining shape) `update()`
/// is close to `O(|O(candidate)|)` where the old scan was `O(n)` per call
/// — the quadratic hot spot BENCH_2 exposed in the DCM merge and final
/// maximality phases.
///
/// ```
/// use k2_model::{Convoy, ConvoySet};
///
/// let mut set = ConvoySet::new();
/// set.update(Convoy::from_parts([1u32, 2], 2, 5));
/// set.update(Convoy::from_parts([1u32, 2, 3], 0, 9)); // supersedes the first
/// assert_eq!(set.len(), 1);
/// assert!(!set.update(Convoy::from_parts([1u32, 2], 3, 4))); // dominated
/// ```
#[derive(Clone, Default)]
pub struct ConvoySet {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// Small sets: dense storage, linear subsumption scans.
    Small(Vec<Convoy>),
    /// Large sets: slotted storage + member posting lists.
    Indexed(Indexed),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Small(Vec::new())
    }
}

#[derive(Clone, Default)]
struct Indexed {
    /// Insertion-ordered storage; evicted convoys become `None` and the
    /// posting lists below are purged lazily.
    slots: Vec<Option<Convoy>>,
    /// Live convoy count.
    live: usize,
    /// member id → slots of convoys *containing* that id.
    by_member: HashMap<Oid, Vec<u32>>,
    /// smallest member id → slots of convoys whose minimum it is.
    by_min: HashMap<Oid, Vec<u32>>,
    /// Slots of convoys with an empty object set (degenerate but legal).
    empty_slots: Vec<u32>,
}

impl Indexed {
    /// The indexed `update()` (same semantics as the small-mode scan).
    fn update(&mut self, candidate: Convoy) -> bool {
        if self.dominated(&candidate) {
            return false;
        }
        self.evict_sub_convoys_of(&candidate);
        self.insert(candidate);
        true
    }

    /// Is `candidate` a sub-convoy of any live member? Only convoys
    /// containing the candidate's smallest member can dominate it.
    fn dominated(&mut self, candidate: &Convoy) -> bool {
        let Some(&min) = candidate.objects.ids().first() else {
            // Empty object set: any lifespan-covering convoy dominates.
            return self
                .slots
                .iter()
                .flatten()
                .any(|e| candidate.is_sub_convoy_of(e));
        };
        let slots = &self.slots;
        let mut dominated = false;
        if let Some(bucket) = self.by_member.get_mut(&min) {
            // Compact stale (evicted) slot ids while probing.
            bucket.retain(|&s| {
                let Some(existing) = slots[s as usize].as_ref() else {
                    return false;
                };
                dominated = dominated || candidate.is_sub_convoy_of(existing);
                true
            });
        }
        dominated
    }

    /// Evicts every live member that is a sub-convoy of `candidate`. A
    /// nonempty subset's smallest member is one of the candidate's ids, so
    /// only those `by_min` buckets are probed.
    fn evict_sub_convoys_of(&mut self, candidate: &Convoy) {
        let slots = &mut self.slots;
        let live = &mut self.live;
        self.empty_slots.retain(|&s| {
            let Some(existing) = slots[s as usize].as_ref() else {
                return false;
            };
            if existing.is_sub_convoy_of(candidate) {
                slots[s as usize] = None;
                *live -= 1;
                return false;
            }
            true
        });
        for m in candidate.objects.iter() {
            let Some(bucket) = self.by_min.get_mut(&m) else {
                continue;
            };
            bucket.retain(|&s| {
                let Some(existing) = slots[s as usize].as_ref() else {
                    return false;
                };
                if existing.is_sub_convoy_of(candidate) {
                    slots[s as usize] = None;
                    *live -= 1;
                    return false;
                }
                true
            });
        }
    }

    /// Appends a convoy that is known not to be dominated.
    fn insert(&mut self, convoy: Convoy) {
        let slot = u32::try_from(self.slots.len()).expect("slot capacity");
        match convoy.objects.ids().first() {
            None => self.empty_slots.push(slot),
            Some(&min) => {
                self.by_min.entry(min).or_default().push(slot);
                for m in convoy.objects.iter() {
                    self.by_member.entry(m).or_default().push(slot);
                }
            }
        }
        self.slots.push(Some(convoy));
        self.live += 1;
        // Rebuild once tombstones pass `REBUILD_TOMBSTONE_PERCENT` of the
        // slots, bounding slot/posting growth relative to the live set;
        // the `2 × INDEX_THRESHOLD` floor keeps tiny sets from churning.
        let tombstones = self.slots.len() - self.live;
        if self.slots.len() >= 2 * ConvoySet::INDEX_THRESHOLD
            && tombstones * 100 > self.slots.len() * ConvoySet::REBUILD_TOMBSTONE_PERCENT
        {
            self.rebuild();
        }
    }

    /// Re-packs live convoys into fresh slots and posting lists. The set is
    /// maximal by invariant, so no subsumption checks are needed.
    fn rebuild(&mut self) {
        let convoys: Vec<Convoy> = std::mem::take(&mut self.slots)
            .into_iter()
            .flatten()
            .collect();
        self.by_member.clear();
        self.by_min.clear();
        self.empty_slots.clear();
        self.live = 0;
        for c in convoys {
            let slot = self.slots.len() as u32;
            match c.objects.ids().first() {
                None => self.empty_slots.push(slot),
                Some(&min) => {
                    self.by_min.entry(min).or_default().push(slot);
                    for m in c.objects.iter() {
                        self.by_member.entry(m).or_default().push(slot);
                    }
                }
            }
            self.slots.push(Some(c));
            self.live += 1;
        }
    }

    /// Membership test; equal convoys share a smallest member, so one
    /// `by_min` bucket decides.
    fn contains(&self, convoy: &Convoy) -> bool {
        let bucket = match convoy.objects.ids().first() {
            None => &self.empty_slots,
            Some(min) => match self.by_min.get(min) {
                Some(b) => b,
                None => return false,
            },
        };
        bucket
            .iter()
            .any(|&s| self.slots[s as usize].as_ref() == Some(convoy))
    }
}

impl ConvoySet {
    /// Live-convoy count past which the set switches from the plain
    /// insertion-ordered `Vec` (whose linear scans are unbeatable for the
    /// handful-of-active-convoys case that dominates extension frontiers)
    /// to the posting-list index.
    ///
    /// Measured: a criterion sweep of this threshold (1..256 over
    /// subsumption-heavy streams of 512 and 2048 candidates) showed a
    /// flat optimum across 16–64 — e.g. ~207–220 µs at 512 candidates
    /// for 16/32/64 versus ~280 µs at 1 and ~330–350 µs at 256 — so 32,
    /// the plateau's midpoint, is the threshold.
    pub const INDEX_THRESHOLD: usize = 32;

    /// Tombstone share (percent of slots) past which the indexed
    /// representation re-packs its slots and posting lists.
    const REBUILD_TOMBSTONE_PERCENT: usize = 50;

    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a maximal set from arbitrary convoys.
    pub fn from_convoys(convoys: impl IntoIterator<Item = Convoy>) -> Self {
        let mut set = Self::new();
        for c in convoys {
            set.update(c);
        }
        set
    }

    /// Number of convoys.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Small(v) => v.len(),
            Repr::Indexed(ix) => ix.live,
        }
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The paper's `update()`: insert `candidate` unless it is a sub-convoy
    /// of an existing convoy; evict existing convoys that are sub-convoys of
    /// `candidate`. Returns `true` if the candidate was inserted.
    pub fn update(&mut self, candidate: Convoy) -> bool {
        match &mut self.repr {
            Repr::Small(v) => {
                for existing in v.iter() {
                    if candidate.is_sub_convoy_of(existing) {
                        return false;
                    }
                }
                v.retain(|c| !c.is_sub_convoy_of(&candidate));
                v.push(candidate);
                if v.len() > Self::INDEX_THRESHOLD {
                    self.engage_index();
                }
                true
            }
            Repr::Indexed(ix) => ix.update(candidate),
        }
    }

    /// Switches a grown small set to the posting-list representation. The
    /// members are pairwise incomparable already, so they are inserted
    /// without subsumption checks.
    fn engage_index(&mut self) {
        let Repr::Small(v) = std::mem::take(&mut self.repr) else {
            unreachable!("engage_index on an indexed set");
        };
        let mut ix = Indexed::default();
        for c in v {
            ix.insert(c);
        }
        self.repr = Repr::Indexed(ix);
    }

    /// Merges another set into this one, maintaining maximality.
    pub fn merge(&mut self, other: ConvoySet) {
        for c in other {
            self.update(c);
        }
    }

    /// Membership test (exact equality).
    pub fn contains(&self, convoy: &Convoy) -> bool {
        match &self.repr {
            Repr::Small(v) => v.contains(convoy),
            Repr::Indexed(ix) => ix.contains(convoy),
        }
    }

    /// Consumes the set, returning the convoys sorted canonically
    /// (by lifespan, then objects) for deterministic output.
    pub fn into_sorted_vec(self) -> Vec<Convoy> {
        let mut v: Vec<Convoy> = self.into_iter().collect();
        v.sort_by(|a, b| (a.lifespan, a.objects.ids()).cmp(&(b.lifespan, b.objects.ids())));
        v
    }

    /// Iterator over the convoys, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Convoy> {
        let (small, indexed) = match &self.repr {
            Repr::Small(v) => (Some(v.iter()), None),
            Repr::Indexed(ix) => (None, Some(ix.slots.iter().flatten())),
        };
        small
            .into_iter()
            .flatten()
            .chain(indexed.into_iter().flatten())
    }

    /// Removes and returns all convoys (insertion order), leaving the set
    /// empty.
    pub fn drain(&mut self) -> Vec<Convoy> {
        match std::mem::take(&mut self.repr) {
            Repr::Small(v) => v,
            Repr::Indexed(ix) => ix.slots.into_iter().flatten().collect(),
        }
    }
}

impl fmt::Debug for ConvoySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl PartialEq for ConvoySet {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// Iterator for [`ConvoySet::into_iter`], covering both representations.
pub struct ConvoySetIntoIter {
    small: std::vec::IntoIter<Convoy>,
    indexed: std::iter::Flatten<std::vec::IntoIter<Option<Convoy>>>,
}

impl Iterator for ConvoySetIntoIter {
    type Item = Convoy;

    fn next(&mut self) -> Option<Convoy> {
        self.small.next().or_else(|| self.indexed.next())
    }
}

impl IntoIterator for ConvoySet {
    type Item = Convoy;
    type IntoIter = ConvoySetIntoIter;

    fn into_iter(self) -> Self::IntoIter {
        let (small, indexed) = match self.repr {
            Repr::Small(v) => (v, Vec::new()),
            Repr::Indexed(ix) => (Vec::new(), ix.slots),
        };
        ConvoySetIntoIter {
            small: small.into_iter(),
            indexed: indexed.into_iter().flatten(),
        }
    }
}

impl FromIterator<Convoy> for ConvoySet {
    fn from_iter<I: IntoIterator<Item = Convoy>>(iter: I) -> Self {
        Self::from_convoys(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cv(ids: &[u32], s: Time, e: Time) -> Convoy {
        Convoy::from_parts(ids, s, e)
    }

    #[test]
    fn sub_convoy_definition() {
        // Paper Fig. 2 example: ({a,b},[1,2]) is a sub-convoy of
        // ({a,b,c},[1,3]). Letters mapped to 0,1,2.
        let small = cv(&[0, 1], 1, 2);
        let big = cv(&[0, 1, 2], 1, 3);
        assert!(small.is_sub_convoy_of(&big));
        assert!(!big.is_sub_convoy_of(&small));
        assert!(big.is_sub_convoy_of(&big));
    }

    #[test]
    fn incomparable_convoys() {
        // Overlapping objects but disjoint intervals: neither is a sub-convoy.
        let a = cv(&[1, 2, 3], 0, 4);
        let b = cv(&[1, 2, 3], 5, 9);
        assert!(!a.is_sub_convoy_of(&b));
        assert!(!b.is_sub_convoy_of(&a));
        // Nested interval but extra object.
        let cset = cv(&[1, 2, 3, 4], 1, 3);
        assert!(!cset.is_sub_convoy_of(&a));
    }

    #[test]
    fn update_rejects_dominated_candidate() {
        let mut set = ConvoySet::new();
        assert!(set.update(cv(&[1, 2, 3], 0, 10)));
        assert!(!set.update(cv(&[1, 2], 2, 5)));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn update_evicts_dominated_members() {
        let mut set = ConvoySet::new();
        set.update(cv(&[1, 2], 2, 5));
        set.update(cv(&[4, 5], 0, 1));
        assert!(set.update(cv(&[1, 2, 3], 0, 10)));
        assert_eq!(set.len(), 2);
        assert!(set.contains(&cv(&[1, 2, 3], 0, 10)));
        assert!(set.contains(&cv(&[4, 5], 0, 1)));
    }

    #[test]
    fn update_duplicate_is_rejected() {
        let mut set = ConvoySet::new();
        assert!(set.update(cv(&[1, 2], 0, 5)));
        assert!(!set.update(cv(&[1, 2], 0, 5)));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn from_convoys_keeps_only_maximal() {
        let set = ConvoySet::from_convoys(vec![
            cv(&[1, 2], 1, 4),
            cv(&[1, 2, 3], 0, 5),
            cv(&[7, 8], 0, 2),
            cv(&[7], 1, 2),
        ]);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn into_sorted_vec_is_deterministic() {
        let set = ConvoySet::from_convoys(vec![cv(&[9], 5, 6), cv(&[1], 0, 3), cv(&[2], 0, 3)]);
        let v = set.into_sorted_vec();
        assert_eq!(v[0], cv(&[1], 0, 3));
        assert_eq!(v[1], cv(&[2], 0, 3));
        assert_eq!(v[2], cv(&[9], 5, 6));
    }

    #[test]
    fn merge_maintains_maximality() {
        let mut a = ConvoySet::from_convoys(vec![cv(&[1, 2], 0, 5)]);
        let b = ConvoySet::from_convoys(vec![cv(&[1, 2, 3], 0, 5), cv(&[8], 0, 1)]);
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert!(a.contains(&cv(&[1, 2, 3], 0, 5)));
    }
}
