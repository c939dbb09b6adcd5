//! # k2-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6).
//! The [`workbench`] module provides timed, storage-aware runs of every
//! algorithm; the [`figures`] module contains one function per experiment
//! (`fig7a` … `fig8l`, `table4`, `table5`), each printing the same
//! series/rows the paper plots. The `figures` binary dispatches on an
//! experiment id:
//!
//! ```sh
//! cargo run --release -p k2-bench --bin figures -- fig7h
//! cargo run --release -p k2-bench --bin figures -- all
//! K2_SCALE=4 cargo run --release -p k2-bench --bin figures -- fig8l
//! ```
//!
//! Environment knobs: `K2_SCALE` multiplies dataset sizes (default 1 —
//! laptop-scale; see "Paper experiments" in the README), `K2_SEED` reseeds the generators.

pub mod figures;
pub mod workbench;

/// Dataset scale factor from `K2_SCALE` (default 1.0).
pub fn env_scale() -> f64 {
    std::env::var("K2_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or(1.0)
}

/// Generator seed from `K2_SEED` (default 42).
pub fn env_seed() -> u64 {
    std::env::var("K2_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}
