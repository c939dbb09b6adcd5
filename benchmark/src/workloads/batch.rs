//! `mem_dense` and `lsm_cold`: one caller mining in process, closed
//! loop, five equal-count parameter classes per cycle.

use super::{Bench, Ctx, SetupTimes};
use crate::data::{convoy_hash, dense_traffic, network_traffic};
use crate::harness::{phase_nanos, record_phases, MineTotals, Sample, Workload};
use crate::spec::Metrics;
use crate::sys::dir_bytes;
use crate::timed::{FetchTotals, TimedSource};
use crate::trace::Tracer;
use crate::util::{err, ratio, Fnv, SplitMix};
use k2hop::core::{K2Config, K2HopParallel};
use k2hop::model::Dataset;
use k2hop::storage::{InMemoryStore, IoStats, LsmStore, SnapshotSource};
use k2hop::{MineOutcome, MiningSession};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `(m, k, eps)` of one parameter class.
type Class = (usize, u32, f64);

/// Dense traffic, degree coordinates. One `m = 2` class takes the
/// union-find clustering path, the others seed-and-expand; `k` and
/// `eps` spread the cost so that the median operation is a mid-cost
/// class and the 90th percentile the dearest one.
const DENSE_CLASSES: [Class; 5] = [
    (3, 40, 0.001),
    (2, 20, 0.0006),
    (3, 20, 0.0006),
    (3, 10, 0.0006),
    (3, 20, 0.004),
];

/// The paper's Fig. 7 sweep: `m` and `eps` fixed at the values the
/// repo's bench-report mines Brinkhoff traffic with, `k` varied.
const NETWORK_CLASSES: [Class; 5] = [
    (2, 80, 600.0),
    (2, 60, 600.0),
    (2, 50, 600.0),
    (2, 45, 600.0),
    (2, 40, 600.0),
];

/// Cycles in the fixed schedule; each is a seed-drawn order of the five
/// classes.
const SCHEDULE_CYCLES: usize = 8;

enum Source {
    Memory(InMemoryStore),
    Lsm(LsmStore),
    TimedLsm(TimedSource<LsmStore>),
}

impl Source {
    fn as_dyn(&self) -> &dyn SnapshotSource {
        match self {
            Source::Memory(s) => s,
            Source::Lsm(s) => s,
            Source::TimedLsm(t) => t,
        }
    }

    fn lsm(&self) -> Option<&LsmStore> {
        match self {
            Source::Memory(_) => None,
            Source::Lsm(s) => Some(s),
            Source::TimedLsm(t) => Some(t.inner()),
        }
    }

    fn fetch_totals(&self) -> FetchTotals {
        match self {
            Source::TimedLsm(t) => t.totals(),
            _ => FetchTotals::default(),
        }
    }
}

pub struct Batch {
    /// `None` only while `begin_phase` swaps the wrapper.
    source: Option<Source>,
    /// Kept until the oracle has mined it; the measured phases of
    /// `lsm_cold` must see the data only through the store.
    resident: Option<Dataset>,
    store_dir: Option<PathBuf>,
    points: u64,
    classes: [Class; 5],
    /// Class index of every operation of the schedule.
    schedule: Vec<u8>,
    expected: Vec<u64>,
    totals: MineTotals,
    io_at_timed: IoStats,
    io_delta: IoStats,
}

impl Batch {
    fn session(&self, class: usize) -> MiningSession {
        let (m, k, eps) = self.classes[class];
        MiningSession::new(K2Config::new(m, k, eps).expect("class parameters are valid")).threads(1)
    }

    fn source(&self) -> &Source {
        self.source.as_ref().expect("source present")
    }
}

impl Workload for Batch {
    fn cycle_counts(&self) -> &'static [u32] {
        &[1; 5]
    }

    fn warmup_cycles(&self) -> u64 {
        1
    }

    fn begin_phase(&mut self, traced: bool) -> Result<(), String> {
        self.source = Some(
            match (self.source.take().expect("source present"), traced) {
                (Source::Lsm(s), true) => Source::TimedLsm(TimedSource::new(s)),
                (Source::TimedLsm(t), false) => Source::Lsm(t.into_inner()),
                (other, _) => other,
            },
        );
        Ok(())
    }

    fn begin_timed(&mut self) {
        self.io_at_timed = self.source().as_dyn().io_stats();
    }

    fn op(&mut self, index: u64, tracer: Option<&mut Tracer>) -> Sample {
        let class = self.schedule[(index % self.schedule.len() as u64) as usize];
        let session = self.session(usize::from(class));
        let source = self.source();
        let fetch_before = source.fetch_totals();
        let t0 = Instant::now();
        let outcome = session.mine(source.as_dyn());
        let t1 = Instant::now();
        let ok = matches!(&outcome, Ok(o) if convoy_hash(&o.convoys) == self.expected[usize::from(class)]);
        let sample = Sample {
            class,
            nanos: (t1 - t0).as_nanos() as u64,
            ok,
        };
        if let (Some(tracer), Ok(outcome)) = (tracer, &outcome) {
            let fetch = source.fetch_totals();
            let phases = phase_nanos(&outcome.stats.timings);
            let op_id = index as u32;
            let (start, end) = (tracer.nanos_at(t0), tracer.nanos_at(t1));
            let root = tracer.record("client.op", op_id, None, start, tracer.now());
            let mine = tracer.record("core.mine", op_id, Some(root), start, end);
            record_phases(tracer, op_id, mine, start, &phases);
            let fetch_ns = fetch.fetch_ns - fetch_before.fetch_ns;
            if fetch_ns > 0 {
                tracer.record_overlay("storage.fetch", op_id, mine, start, fetch_ns);
            }
            self.totals
                .add_phases(sample.nanos, &phases, outcome.convoys.len());
            self.totals.points_processed += outcome.stats.pruning.points_processed();
            self.totals.pruning_ratio_sum += outcome.stats.pruning.pruning_ratio();
            self.totals.fetch_ns += fetch_ns;
            self.totals.multi_gets += fetch.multi_gets - fetch_before.multi_gets;
            self.totals.scans += fetch.scans - fetch_before.scans;
        }
        sample
    }

    fn end_phase(&mut self) -> Result<(), String> {
        self.io_delta = self.source().as_dyn().io_stats().since(&self.io_at_timed);
        Ok(())
    }
}

impl Bench for Batch {
    fn build(name: &str, ctx: Ctx, dir: &Path) -> Result<(Self, SetupTimes), String> {
        let dense = name == "mem_dense";
        let t0 = Instant::now();
        let dataset = if dense {
            dense_traffic(ctx.scale, 1.0)
        } else {
            network_traffic(ctx.scale)
        };
        let gen_s = t0.elapsed().as_secs_f64();
        let points = dataset.num_points();
        let t1 = Instant::now();
        let (source, resident, store_dir) = if dense {
            (Source::Memory(InMemoryStore::new(dataset)), None, None)
        } else {
            let store = LsmStore::bulk_load(dir, &dataset).map_err(err)?;
            (Source::Lsm(store), Some(dataset), Some(dir.to_path_buf()))
        };
        let load_s = if dense {
            0.0
        } else {
            t1.elapsed().as_secs_f64()
        };

        let mut rng = SplitMix::new(ctx.seed ^ 0x6261_7463);
        let mut schedule = Vec::with_capacity(SCHEDULE_CYCLES * 5);
        for _ in 0..SCHEDULE_CYCLES {
            let mut cycle = [0u8, 1, 2, 3, 4];
            rng.shuffle(&mut cycle);
            schedule.extend(cycle);
        }
        let times = SetupTimes {
            gen_s,
            load_s,
            total_s: t0.elapsed().as_secs_f64(),
        };
        Ok((
            Self {
                source: Some(source),
                resident,
                store_dir,
                points,
                classes: if dense {
                    DENSE_CLASSES
                } else {
                    NETWORK_CLASSES
                },
                schedule,
                expected: Vec::new(),
                totals: MineTotals::default(),
                io_at_timed: IoStats::default(),
                io_delta: IoStats::default(),
            },
            times,
        ))
    }

    fn describe(&self) -> String {
        let source = self.source();
        let span = source.as_dyn().span();
        let store = match (&self.store_dir, source.lsm()) {
            (Some(dir), Some(s)) => format!(
                ", {} SSTables, {:.1} MB on disk",
                s.num_tables(),
                dir_bytes(dir) as f64 / 1e6
            ),
            _ => String::new(),
        };
        format!(
            "{} points over {} timestamps{store}; classes (m,k,eps) {:?}",
            self.points,
            span.len(),
            self.classes
        )
    }

    fn schedule_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.points);
        for &(m, k, eps) in &self.classes {
            h.word(m as u64);
            h.word(u64::from(k));
            h.word(eps.to_bits());
        }
        for &c in &self.schedule {
            h.word(u64::from(c));
        }
        h.finish()
    }

    fn prepare_oracle(&mut self) -> Result<(), String> {
        // The second path: the resident data set, not the store — and for
        // `mem_dense`, which has no store, the parallel orchestration
        // instead of the sequential one.
        let mine = |class: usize| -> Result<MineOutcome, String> {
            let (m, k, eps) = self.classes[class];
            let config = K2Config::new(m, k, eps).map_err(err)?;
            match (&self.resident, self.source()) {
                (Some(dataset), _) => MiningSession::new(config).threads(1).mine(dataset),
                (None, Source::Memory(store)) => MiningSession::new(config)
                    .engine(K2HopParallel::new(config, 2))
                    .mine(store.dataset()),
                _ => unreachable!("a store workload keeps its data set until the oracle ran"),
            }
            .map_err(err)
        };
        let mut expected = Vec::new();
        for class in 0..self.classes.len() {
            expected.push(convoy_hash(&mine(class)?.convoys));
        }
        self.expected = expected;
        self.resident = None;
        Ok(())
    }

    fn background_ops(&self) -> (u64, u64) {
        (0, 0)
    }

    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn mine_totals(&mut self) -> Result<(MineTotals, MineTotals), String> {
        Ok((self.totals, self.totals))
    }

    fn layer_metrics(&self, setup: &SetupTimes, out: &mut Metrics) {
        let io = self.io_delta;
        out.set("storage.lsm.bulk_load_s", setup.load_s);
        out.set(
            "storage.lsm.bytes_per_point",
            self.store_dir
                .as_ref()
                .map_or(0.0, |d| dir_bytes(d) as f64 / self.points as f64),
        );
        out.set(
            "storage.lsm.cache_hit_rate",
            ratio(io.cache_hits, io.cache_hits + io.cache_misses),
        );
        out.set(
            "storage.lsm.tables_final",
            self.source().lsm().map_or(0, LsmStore::num_tables) as f64,
        );
        // No short class, no writes, no second stream in a batch workload.
        for name in [
            "storage.lsm.cache_hit_rate_short",
            "storage.lsm.write_amp",
            "storage.lsm.flushes",
            "storage.lsm.compactions",
            "storage.lsm.wal_appends",
            "client.bg_p50_ms",
            "client.bg_p90_ms",
            "client.bg_late_max_ms",
            "client.bg_kpts_per_s",
            "client.max_staleness",
        ] {
            out.set(name, 0.0);
        }
    }
}
