//! # k2-datagen — seeded synthetic movement workloads
//!
//! The paper evaluates on three datasets we cannot redistribute: the
//! Athens Trucks dataset, the Microsoft T-Drive taxi traces, and output
//! of Brinkhoff's network-based generator (Table 4). This crate provides
//! deterministic, seeded simulators calibrated to the published
//! characteristics of each (the sizes used in place of the paper's are
//! listed under "Paper experiments" in the README):
//!
//! * [`brinkhoff`] — our reimplementation of the network-based moving
//!   objects model: a road network, Dijkstra-routed objects with
//!   per-edge-class speeds, and a stream of newly injected objects per
//!   tick (`obj_begin` / `obj_time`, as in Table 4).
//! * [`trucks`] — a depot-and-delivery model of the Trucks dataset:
//!   trucks leave a depot in small groups, visit sites, return; 30 s
//!   sampling; lat/lon-scale coordinates so the paper's eps values
//!   (6·10⁻⁶ … 6·10⁻⁴ degrees) are directly meaningful.
//! * [`tdrive`] — a city-grid taxi model of T-Drive: thousands of taxis
//!   random-walking a street grid with a fraction of platoon traffic.
//! * [`inject`] — the [`ConvoyInjector`]:
//!   uniform random walkers plus a controllable number of planted
//!   convoys, used by correctness tests and the convoy-count experiment
//!   (Figure 8k).
//!
//! Every generator takes a `seed` and is fully reproducible.

pub mod brinkhoff;
pub mod inject;
pub mod network;
pub mod tdrive;
pub mod trucks;

pub use inject::ConvoyInjector;
