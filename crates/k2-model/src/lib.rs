//! # k2-model — trajectory data model for convoy mining
//!
//! This crate defines the shared vocabulary of the k/2-hop reproduction:
//!
//! * [`Oid`] / [`Time`] — object identifiers and discrete timestamps,
//! * [`Point`] / [`ObjPos`] — raw movement records (the paper's
//!   `<oid, x, y, t>` schema, §3.2),
//! * [`ObjectSet`] — a sorted, deduplicated set of object ids (the object
//!   side of clusters and convoys),
//! * [`Snapshot`] — all object positions at one timestamp,
//! * [`Dataset`] — a snapshot-organised in-memory trajectory database with
//!   restriction operators `DB[T]` and `DB[t]|O` (paper Table 1),
//! * [`Convoy`] / [`ConvoySet`] — convoy candidates and maximality
//!   maintenance (`update()` in the paper's pseudo-code),
//! * [`codec`] — binary and CSV serialisation of movement data,
//! * [`interpolate`] — gap filling / resampling (the paper's T-Drive
//!   preprocessing, §6.2.2).
//!
//! Everything downstream (clustering, storage engines, the k/2-hop miner
//! and every baseline) is expressed in these types.

pub mod codec;
mod convoy;
mod dataset;
pub mod interpolate;
mod interval;
mod object_set;
mod point;
mod snapshot;

pub use convoy::{Convoy, ConvoySet};
pub use dataset::{Dataset, DatasetBuilder, DatasetStats};
pub use interval::TimeInterval;
pub use object_set::ObjectSet;
pub use point::{ObjPos, Point};
pub use snapshot::{restrict_sorted_ids_into, Snapshot};

/// Object identifier. Movement datasets identify each moving object (car,
/// truck, taxi, person) with a dense integer id.
pub type Oid = u32;

/// Discrete timestamp. The paper assumes a regular sampling of positions;
/// timestamps are indices into that sampling grid.
pub type Time = u32;
