//! The load loop every workload shares: a discarded warm-up, then whole
//! cycles of a fixed schedule until the measuring time is up.

use crate::sys::{process_cpu_time, RssTracker};
use crate::trace::Tracer;
use crate::util::percentile;
use k2hop::core::PhaseTimings;
use std::time::Instant;

/// One executed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Cost class within the cycle, cheapest first.
    pub class: u8,
    pub nanos: u64,
    /// Reply arrived, was no error, and matched the oracle.
    pub ok: bool,
}

/// What a workload exposes to the load loop.
pub trait Workload {
    /// Operations of each cost class (cheapest first) in one cycle. The
    /// loop only ever stops on a cycle boundary, so every measured
    /// sample has exactly this class mix.
    fn cycle_counts(&self) -> &'static [u32];

    /// Cycles run and discarded before timing (per phase, because a
    /// phase may open its own connection).
    fn warmup_cycles(&self) -> u64;

    /// Called before the warm-up: open connections, start the secondary
    /// stream. `traced` selects the span-recording client.
    fn begin_phase(&mut self, traced: bool) -> Result<(), String>;

    /// Called between warm-up and the first timed operation.
    fn begin_timed(&mut self);

    /// Runs operation `index` of the (cyclically repeated) schedule.
    fn op(&mut self, index: u64, tracer: Option<&mut Tracer>) -> Sample;

    /// Called after the last timed operation: stop the secondary stream.
    fn end_phase(&mut self) -> Result<(), String>;
}

/// The timed part of one phase.
#[derive(Debug)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Phase {
    fn sorted_nanos(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.samples.iter().map(|s| s.nanos).collect();
        v.sort_unstable();
        v
    }

    pub fn percentile_ms(&self, p: f64) -> f64 {
        percentile(&self.sorted_nanos(), p) as f64 / 1e6
    }

    pub fn max_ms(&self) -> f64 {
        self.sorted_nanos().last().map_or(0.0, |&n| n as f64 / 1e6)
    }

    pub fn mean_ms(&self) -> f64 {
        self.samples.iter().map(|s| s.nanos as f64).sum::<f64>() / self.samples.len() as f64 / 1e6
    }

    pub fn ops_per_s(&self) -> f64 {
        self.samples.len() as f64 / self.wall_s
    }

    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_s * 1e3 / self.samples.len() as f64
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Share of class-`class` samples within ±20 % of `center_ms` — the
    /// unimodality check: a median sitting between two latency modes has
    /// few samples near it.
    pub fn share_near(&self, class: u8, center_ms: f64) -> f64 {
        let of_class: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.nanos as f64 / 1e6)
            .collect();
        let near = of_class
            .iter()
            .filter(|&&ms| (ms - center_ms).abs() <= 0.2 * center_ms)
            .count();
        near as f64 / of_class.len().max(1) as f64
    }
}

/// Runs one phase of `w`: warm-up cycles, then whole cycles until
/// `seconds` have passed. `cursor` carries the schedule position from
/// one phase to the next.
pub fn run_phase(
    w: &mut dyn Workload,
    cursor: &mut u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    rss: &mut RssTracker,
) -> Result<Phase, String> {
    let cycle: u64 = w.cycle_counts().iter().map(|&c| u64::from(c)).sum();
    w.begin_phase(tracer.is_some())?;
    for _ in 0..w.warmup_cycles() * cycle {
        w.op(*cursor, None);
        *cursor += 1;
    }
    w.begin_timed();
    let mut samples = Vec::new();
    let cpu0 = process_cpu_time();
    let t0 = Instant::now();
    loop {
        for _ in 0..cycle {
            samples.push(w.op(*cursor, tracer.as_deref_mut()));
            *cursor += 1;
            rss.sample();
        }
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = (process_cpu_time() - cpu0).as_secs_f64();
    w.end_phase()?;
    Ok(Phase {
        samples,
        wall_s,
        cpu_s,
    })
}

/// The seven Algorithm-1 phases in pipeline order, as the wire reply
/// carries them.
pub const PHASE_SPANS: [&str; 7] = [
    "core.benchmark",
    "core.intersect",
    "core.hwmt",
    "core.merge",
    "core.extend_right",
    "core.extend_left",
    "core.validation",
];

pub fn phase_nanos(t: &PhaseTimings) -> [u64; 7] {
    [
        t.benchmark,
        t.intersect,
        t.hwmt,
        t.merge,
        t.extend_right,
        t.extend_left,
        t.validation,
    ]
    .map(|d| d.as_nanos() as u64)
}

/// Records the phase spans of one mine as children of `parent`, laid
/// end to end from `start_ns` (the pipeline runs them in this order;
/// only their durations are reported).
pub fn record_phases(tracer: &mut Tracer, op: u32, parent: u32, start_ns: u64, phases: &[u64; 7]) {
    let mut at = start_ns;
    for (name, &nanos) in PHASE_SPANS.iter().zip(phases) {
        tracer.record(name, op, Some(parent), at, at + nanos);
        at += nanos;
    }
}

/// Per-mine totals a traced phase accumulates for the `core.*` and
/// `storage.fetch*` metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct MineTotals {
    pub mines: u64,
    /// Wall time of the mines (in-process) or `elapsed_nanos` (served).
    pub mine_ns: u64,
    pub phase_ns: [u64; 7],
    pub convoys: u64,
    pub points_processed: u64,
    pub pruning_ratio_sum: f64,
    pub fetch_ns: u64,
    pub multi_gets: u64,
    pub scans: u64,
}

impl MineTotals {
    pub fn add_phases(&mut self, mine_ns: u64, phases: &[u64; 7], convoys: usize) {
        self.mines += 1;
        self.mine_ns += mine_ns;
        for (acc, p) in self.phase_ns.iter_mut().zip(phases) {
            *acc += p;
        }
        self.convoys += convoys as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed {
        ops: u64,
        began: bool,
    }

    impl Workload for Fixed {
        fn cycle_counts(&self) -> &'static [u32] {
            &[4, 1]
        }
        fn warmup_cycles(&self) -> u64 {
            2
        }
        fn begin_phase(&mut self, _traced: bool) -> Result<(), String> {
            Ok(())
        }
        fn begin_timed(&mut self) {
            self.began = true;
        }
        fn op(&mut self, index: u64, _tracer: Option<&mut Tracer>) -> Sample {
            self.ops += 1;
            let long = index % 5 == 4;
            Sample {
                class: u8::from(long),
                nanos: if long { 9_000_000 } else { 1_000_000 },
                ok: true,
            }
        }
        fn end_phase(&mut self) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn phases_stop_on_cycle_boundaries_and_discard_the_warmup() {
        let mut w = Fixed {
            ops: 0,
            began: false,
        };
        let mut cursor = 0;
        let mut rss = RssTracker::start();
        let phase = run_phase(&mut w, &mut cursor, 0.0, None, &mut rss).unwrap();
        assert!(w.began);
        assert_eq!(w.ops, 15, "two warm-up cycles and one timed cycle");
        assert_eq!(cursor, 15);
        assert_eq!(phase.samples.len(), 5);
        assert_eq!(phase.percentile_ms(0.5), 1.0);
        assert_eq!(phase.percentile_ms(0.9), 9.0);
        assert_eq!(phase.share_near(0, 1.0), 1.0);
        assert_eq!(phase.share_near(0, 5.0), 0.0);
        assert_eq!(phase.failed(), 0);
    }
}
