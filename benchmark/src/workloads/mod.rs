//! The five workloads. Each builds its inputs from the seed, knows the
//! answer every operation must give, and hands the load loop one
//! operation at a time.

pub mod batch;
pub mod serve;

use crate::harness::{MineTotals, Workload};
use crate::spec::Metrics;
use std::path::Path;

pub const NAMES: [&str; 5] = [
    "mem_dense",
    "lsm_cold",
    "serve_wire",
    "serve_ingest",
    "ingest_live",
];

/// What `--scale` and `--seed` fix for a run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub scale: f64,
    pub seed: u64,
}

/// Where one set-up spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// k2-datagen: generating the data set.
    pub gen_s: f64,
    /// k2-storage: bulk-loading the store (0 without one).
    pub load_s: f64,
    /// Everything: generate, load, bind, quiesce.
    pub total_s: f64,
}

/// A workload as `main` drives it.
pub trait Bench: Workload + Sized {
    /// Builds the workload's whole environment under `dir`.
    fn build(name: &str, ctx: Ctx, dir: &Path) -> Result<(Self, SetupTimes), String>;

    /// One line describing the inputs, for the run header.
    fn describe(&self) -> String;

    /// Fingerprint of the seed-derived schedule.
    fn schedule_hash(&self) -> u64;

    /// Mines every distinct request once through a second path and keeps
    /// the fingerprints; afterwards drops whatever generator output the
    /// measured phases do not need.
    fn prepare_oracle(&mut self) -> Result<(), String>;

    /// Background-stream operations (attempted, failed) so far.
    fn background_ops(&self) -> (u64, u64);

    /// Checks that only make sense once every phase is over.
    fn finish(&mut self) -> Result<(), String>;

    /// Totals of the traced phase's mines: as the workload observed them
    /// (phase timings, convoys), and with pruning counters and fetch time
    /// — the same mines for an in-process workload, an in-process replay
    /// for a served one, whose replies carry neither.
    fn mine_totals(&mut self) -> Result<(MineTotals, MineTotals), String>;

    /// The workload's own per-layer metrics (store counters, secondary
    /// stream). `load_s` and friends come from the set-up it was built by.
    fn layer_metrics(&self, setup: &SetupTimes, out: &mut Metrics);
}
