//! [`TimedSource`]: a [`SnapshotSource`] decorator that times every
//! fetch, so a traced run can split an operation into store-fetch time
//! and everything else without touching the storage crate.

use k2hop::model::{ObjPos, Oid, Time, TimeInterval};
use k2hop::storage::{IoStats, SnapshotRef, SnapshotSource, StoreResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    fetch_ns: AtomicU64,
    multi_gets: AtomicU64,
    scans: AtomicU64,
}

/// What a [`TimedSource`] has seen so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchTotals {
    pub fetch_ns: u64,
    pub multi_gets: u64,
    pub scans: u64,
}

impl<S: SnapshotSource> TimedSource<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            fetch_ns: AtomicU64::new(0),
            multi_gets: AtomicU64::new(0),
            scans: AtomicU64::new(0),
        }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    pub fn into_inner(self) -> S {
        self.inner
    }

    pub fn totals(&self) -> FetchTotals {
        FetchTotals {
            fetch_ns: self.fetch_ns.load(Ordering::Relaxed),
            multi_gets: self.multi_gets.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
        }
    }
}

impl<S: SnapshotSource> SnapshotSource for TimedSource<S> {
    fn span(&self) -> TimeInterval {
        self.inner.span()
    }

    fn num_points(&self) -> u64 {
        self.inner.num_points()
    }

    fn scan_snapshot_ref<'a>(
        &self,
        t: Time,
        buf: &'a mut Vec<ObjPos>,
    ) -> StoreResult<SnapshotRef<'a>> {
        let t0 = Instant::now();
        let r = self.inner.scan_snapshot_ref(t, buf);
        self.fetch_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.scans.fetch_add(1, Ordering::Relaxed);
        r
    }

    fn multi_get_into(&self, t: Time, oids: &[Oid], out: &mut Vec<ObjPos>) -> StoreResult<()> {
        let t0 = Instant::now();
        let r = self.inner.multi_get_into(t, oids, out);
        self.fetch_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.multi_gets.fetch_add(1, Ordering::Relaxed);
        r
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    // `as_dataset` stays `None`: handing out the resident dataset would
    // let a miner read around the timer.
}

#[cfg(test)]
mod tests {
    use super::*;
    use k2hop::model::{Dataset, Point};

    #[test]
    fn counts_and_forwards_both_access_paths() {
        let pts: Vec<Point> = (0..4u32)
            .flat_map(|t| (0..3u32).map(move |o| Point::new(o, f64::from(o), 0.0, t)))
            .collect();
        let timed = TimedSource::new(Dataset::from_points(&pts).unwrap());
        let mut buf = Vec::new();
        assert_eq!(timed.scan_snapshot_ref(1, &mut buf).unwrap().len(), 3);
        let mut out = Vec::new();
        timed.multi_get_into(2, &[0, 2], &mut out).unwrap();
        assert_eq!(out.len(), 2);
        let totals = timed.totals();
        assert_eq!((totals.scans, totals.multi_gets), (1, 1));
        assert!(timed.as_dataset().is_none());
    }
}
