//! The run's record of intact reclusters, which validation reads instead
//! of re-probing.
//!
//! `DBSCAN(DB[t]|O)` is a function of `t` and `O` alone, so once an HWMT
//! or extension probe of exactly the set `O` at `t` has returned `[O]`,
//! any later probe of `O` at `t` returns `[O]` again. Validation's
//! HWMT\* probes the sets extension produced over their lifespans, and
//! most of those probes repeat such a `(t, O)`: a convoy that extended
//! intact was confirmed at every timestamp it grew over. The record keeps
//! those confirmations per object set — as runs of consecutive
//! timestamps, not one entry per `(t, O)` — and answers them without a
//! fetch or a clustering.
//!
//! The probe chains (hop-windows, extension seeds) run on worker threads;
//! each hands its runs back in its result, and the pipeline builds the
//! record on the calling thread before validation, which only reads it.

use k2_model::{ObjectSet, Time, TimeInterval};

/// Runs of timestamps at which a probe of exactly the paired set
/// returned that set as its one cluster, as a probe chain hands them
/// back. A set may appear in several runs, even overlapping ones.
pub(crate) type IntactRuns = Vec<(ObjectSet, TimeInterval)>;

/// Appends the runs of consecutive timestamps in `times` (any order) for
/// `set`, sorting in the caller-lent `buf`.
pub(crate) fn push_runs(
    runs: &mut IntactRuns,
    set: &ObjectSet,
    times: &[Time],
    buf: &mut Vec<Time>,
) {
    if times.is_empty() {
        return;
    }
    buf.clear();
    buf.extend_from_slice(times);
    buf.sort_unstable();
    let mut run = TimeInterval::instant(buf[0]);
    for &t in &buf[1..] {
        if t == run.end + 1 {
            run.end = t;
        } else {
            runs.push((set.clone(), run));
            run = TimeInterval::instant(t);
        }
    }
    runs.push((set.clone(), run));
}

/// Records that the probe of exactly `set` at `t` returned `[set]`, for a
/// chain whose probe timestamps step by one (extension): a run of the
/// same set ending next to `t` grows, otherwise a run starts.
pub(crate) fn confirm(runs: &mut IntactRuns, set: &ObjectSet, t: Time) {
    let adjacent = |run: &TimeInterval| {
        run.end.checked_add(1) == Some(t) || run.start.checked_sub(1) == Some(t)
    };
    match runs
        .iter_mut()
        .rev()
        .find(|(s, run)| adjacent(run) && s == set)
    {
        Some((_, run)) => {
            run.start = run.start.min(t);
            run.end = run.end.max(t);
        }
        None => runs.push((set.clone(), TimeInterval::instant(t))),
    }
}

/// The runs of timestamps at which an HWMT or extension probe of exactly
/// a set returned exactly `[set]`: one flat list sorted by set, then by
/// time, each set's runs merged until disjoint and non-adjacent — no
/// per-set allocation, and no hashing.
#[derive(Debug, Default)]
pub(crate) struct IntactRecord(IntactRuns);

impl IntactRecord {
    /// Builds the record from every chain's runs, in place.
    pub(crate) fn new(mut runs: IntactRuns) -> Self {
        runs.sort_unstable();
        runs.dedup_by(|next, kept| {
            let joins = next.0 == kept.0 && next.1.start <= kept.1.end.saturating_add(1);
            if joins {
                kept.1.end = kept.1.end.max(next.1.end);
            }
            joins
        });
        Self(runs)
    }

    /// Whether a probe of exactly `set` at a timestamp is known to return
    /// `[set]` — the set is looked up once, each timestamp in `O(log runs)`.
    pub(crate) fn intact_at(&self, set: &ObjectSet) -> impl Fn(Time) -> bool + '_ {
        let from = self.0.partition_point(|(s, _)| s < set);
        let len = self.0[from..].partition_point(|(s, _)| s == set);
        let runs = &self.0[from..from + len];
        move |t| {
            let i = runs.partition_point(|(_, r)| r.end < t);
            runs.get(i).is_some_and(|(_, r)| r.start <= t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_group_consecutive_timestamps_per_set() {
        let a = ObjectSet::from([1, 2]);
        let b = ObjectSet::from([3, 4]);
        let mut runs = IntactRuns::new();
        let mut buf = Vec::new();
        push_runs(&mut runs, &a, &[4, 2, 6, 1, 3], &mut buf);
        push_runs(&mut runs, &b, &[], &mut buf);
        assert_eq!(
            runs,
            vec![
                (a.clone(), TimeInterval::new(1, 4)),
                (a.clone(), TimeInterval::instant(6))
            ]
        );
        // Extension steps by one in either direction.
        let mut ext = IntactRuns::new();
        for t in [10, 11, 12] {
            confirm(&mut ext, &a, t);
            confirm(&mut ext, &b, t);
        }
        for t in [9, 8] {
            confirm(&mut ext, &b, t);
        }
        confirm(&mut ext, &a, 20);
        assert_eq!(
            ext,
            vec![
                (a.clone(), TimeInterval::new(10, 12)),
                (b.clone(), TimeInterval::new(8, 12)),
                (a.clone(), TimeInterval::instant(20)),
            ]
        );
    }

    #[test]
    fn record_answers_exactly_the_recorded_timestamps_of_exactly_the_set() {
        let a = ObjectSet::from([1, 2, 3]);
        let sub = ObjectSet::from([1, 2]);
        let other = ObjectSet::from([7, 8]);
        let record = IntactRecord::new(vec![
            (a.clone(), TimeInterval::new(12, 14)),
            (other.clone(), TimeInterval::new(0, 19)),
            (a.clone(), TimeInterval::new(5, 7)),
            (a.clone(), TimeInterval::new(8, 9)),
            (a.clone(), TimeInterval::new(6, 6)),
        ]);
        let at = record.intact_at(&a);
        let answered: Vec<Time> = (0..20).filter(|&t| at(t)).collect();
        assert_eq!(answered, vec![5, 6, 7, 8, 9, 12, 13, 14]);
        assert_eq!(
            record.0,
            vec![
                (a.clone(), TimeInterval::new(5, 9)),
                (a.clone(), TimeInterval::new(12, 14)),
                (other, TimeInterval::new(0, 19)),
            ]
        );
        // A subset is a different set: nothing is answered for it.
        let at = record.intact_at(&sub);
        assert!((0..20).all(|t| !at(t)));
    }
}
