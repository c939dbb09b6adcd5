//! [`K2Service`]: the request handler both transports share.
//!
//! Each `MineRange` request pins its own MVCC snapshot ([`SharedLsm::pin`]),
//! clamps it to the requested time range ([`TimeRange`]), and runs a
//! mining session against the pinned view — so any number of mine
//! requests proceed concurrently with each other and with live ingest,
//! each seeing exactly the store contents at its own pin instant and
//! reporting exactly its own I/O.

use crate::protocol::{MineReply, Pattern, Request, Response, StatsReply, WireConvoy};
use k2_core::{ConvoyMiner, K2Config, K2Hop};
use k2_model::{Convoy, Point};
use k2_patterns::{FlockConfig, FlockMiner};
use k2_storage::{SharedLsm, SnapshotSource, TimeRange};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The [`Request::MineRange`] fields, regrouped for the handler.
struct MineParams {
    t_lo: u32,
    t_hi: u32,
    pattern: Pattern,
    m: u32,
    k: u32,
    eps: f64,
    threads: u32,
}

/// The shared request handler: owns the store handle and serves
/// [`Request`]s from any number of threads.
#[derive(Debug)]
pub struct K2Service {
    store: SharedLsm,
    requests: AtomicU64,
}

impl K2Service {
    /// Wraps a shared store.
    pub fn new(store: SharedLsm) -> Self {
        Self {
            store,
            requests: AtomicU64::new(0),
        }
    }

    /// The underlying store handle (cloneable).
    pub fn store(&self) -> &SharedLsm {
        &self.store
    }

    /// Requests served so far (all kinds, including failed ones).
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Serves one request. Never panics on bad input — malformed
    /// parameters come back as [`Response::Error`].
    pub fn handle(&self, req: Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match req {
            Request::MineRange {
                t_lo,
                t_hi,
                pattern,
                m,
                k,
                eps,
                threads,
            } => self.mine(MineParams {
                t_lo,
                t_hi,
                pattern,
                m,
                k,
                eps,
                threads,
            }),
            Request::Ingest { points } => self.ingest(points),
            Request::Stats { quiesce } => self.stats(quiesce),
        }
    }

    fn mine(&self, params: MineParams) -> Response {
        let MineParams {
            t_lo,
            t_hi,
            pattern,
            m,
            k,
            eps,
            threads,
        } = params;
        if t_lo > t_hi {
            return Response::Error {
                message: format!("invalid range: t_lo {t_lo} > t_hi {t_hi}"),
            };
        }
        let config = match K2Config::new(m as usize, k, eps) {
            Ok(c) => c,
            Err(e) => {
                return Response::Error {
                    message: e.to_string(),
                }
            }
        };
        let start = Instant::now();
        // Pin once: the request's whole view of the data, isolated from
        // every concurrent insert/flush/compaction.
        let pin = match self.store.pin() {
            Ok(p) => p,
            Err(e) => {
                return Response::Error {
                    message: e.to_string(),
                }
            }
        };
        let pin_version = pin.version();
        let ranged = TimeRange::new(pin, t_lo, t_hi);
        let outcome = match pattern {
            Pattern::Convoy => {
                let miner = if threads == 0 {
                    K2Hop::new(config)
                } else {
                    // The count comes off the wire and sizes per-worker
                    // state: more workers than cores buys nothing, so the
                    // machine caps it. The reply reports the value used.
                    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                    K2Hop::with_threads(config, (threads as usize).min(cores))
                };
                ConvoyMiner::mine(&miner, &ranged)
            }
            Pattern::Flock => FlockMiner::new(FlockConfig::new(config.m, config.k, config.eps))
                .mine_source(&ranged),
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                return Response::Error {
                    message: e.to_string(),
                }
            }
        };
        // Staleness at reply time: swaps published while we mined.
        let staleness = self.store.version().saturating_sub(pin_version);
        let t = &outcome.stats.timings;
        Response::Convoys(MineReply {
            engine: outcome.stats.engine.to_string(),
            threads: outcome.stats.threads as u32,
            pin_version,
            staleness,
            elapsed_nanos: start.elapsed().as_nanos() as u64,
            timings_nanos: [
                t.benchmark.as_nanos() as u64,
                t.intersect.as_nanos() as u64,
                t.hwmt.as_nanos() as u64,
                t.merge.as_nanos() as u64,
                t.extend_right.as_nanos() as u64,
                t.extend_left.as_nanos() as u64,
                t.validation.as_nanos() as u64,
            ],
            io: outcome.io,
            convoys: outcome.convoys.iter().map(wire_convoy).collect(),
        })
    }

    fn ingest(&self, points: Vec<Point>) -> Response {
        // The whole batch is checked before the store sees any of it: a
        // rejected batch leaves the WAL, the memtable and the version
        // exactly as they were.
        if let Some(i) = points
            .iter()
            .position(|p| !(p.x.is_finite() && p.y.is_finite()))
        {
            let p = points[i];
            return Response::Error {
                message: format!(
                    "point {i} (oid {}, t {}) has a non-finite coordinate; batch rejected",
                    p.oid, p.t
                ),
            };
        }
        // One writer-lock hold and one publish for the batch; pins do not
        // wait for it (see `SharedLsm::pin`).
        let mut store = self.store.lock();
        match store.insert_batch(&points) {
            Ok(()) => Response::Ingested {
                count: points.len() as u64,
                version: store.version(),
            },
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        }
    }

    fn stats(&self, quiesce: bool) -> Response {
        if quiesce {
            if let Err(e) = self.store.quiesce_maintenance() {
                return Response::Error {
                    message: e.to_string(),
                };
            }
        }
        let (num_points, num_tables, memtable_len, maintenance_depth) = {
            let store = self.store.lock();
            (
                store.num_points(),
                store.num_tables() as u64,
                store.memtable_len() as u64,
                store.compaction_queue_depth() as u64,
            )
        };
        Response::Stats(StatsReply {
            num_points,
            num_tables,
            memtable_len,
            version: self.store.version(),
            live_pins: self.store.live_pins(),
            maintenance_depth,
            requests_served: self.requests_served(),
        })
    }
}

fn wire_convoy(c: &Convoy) -> WireConvoy {
    WireConvoy {
        oids: c.objects.ids().to_vec(),
        t_start: c.lifespan.start,
        t_end: c.lifespan.end,
    }
}
