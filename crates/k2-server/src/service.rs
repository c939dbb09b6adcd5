//! [`K2Service`]: the request handler both transports share.
//!
//! Each `MineRange` request turns its wire [`Pattern`] into one
//! [`ConvoyMiner`] ([`K2Hop`] for convoys, [`FlockMiner`] for flocks),
//! pins its own MVCC snapshot ([`LsmStore::pin`]), clamps it to the
//! requested time range ([`TimeRange`]), and mines the pinned view — so
//! any number of mine requests proceed concurrently with each other and
//! with live ingest, each seeing exactly the store contents at its own
//! pin instant and reporting exactly its own I/O. `Ingest` is one
//! [`LsmStore::insert_batch`], and `Stats` reads the store's gauges off
//! its published state: neither pins nor `Stats` wait for a batch in
//! flight.

use crate::protocol::{MineReply, Pattern, Request, Response, StatsReply, WireConvoy};
use k2_core::{ConfigError, ConvoyMiner, K2Config, K2Hop};
use k2_model::{Convoy, Point};
use k2_patterns::FlockMiner;
use k2_storage::{LsmStore, SnapshotSource, TimeRange};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The shared request handler: owns the store handle and serves
/// [`Request`]s from any number of threads.
#[derive(Debug)]
pub struct K2Service {
    store: LsmStore,
    requests: AtomicU64,
}

impl K2Service {
    /// Serves `store`.
    pub fn new(store: LsmStore) -> Self {
        Self {
            store,
            requests: AtomicU64::new(0),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &LsmStore {
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
            } => self.mine(t_lo, t_hi, engine(pattern, m, k, eps, threads)),
            Request::Ingest { points } => self.ingest(points),
            Request::Stats { quiesce } => self.stats(quiesce),
        }
    }

    fn mine(
        &self,
        t_lo: u32,
        t_hi: u32,
        miner: Result<Box<dyn ConvoyMiner>, ConfigError>,
    ) -> Response {
        if t_lo > t_hi {
            return Response::Error {
                message: format!("invalid range: t_lo {t_lo} > t_hi {t_hi}"),
            };
        }
        let miner = match miner {
            Ok(miner) => miner,
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
        let outcome = match miner.mine(&TimeRange::new(pin, t_lo, t_hi)) {
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
        // wait for it. The reply carries the version this batch published,
        // which a concurrent `Ingest` cannot have moved.
        match self.store.insert_batch(&points) {
            Ok(version) => Response::Ingested {
                count: points.len() as u64,
                version,
            },
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        }
    }

    fn stats(&self, quiesce: bool) -> Response {
        if quiesce {
            if let Err(e) = self.store.wait_for_compactions() {
                return Response::Error {
                    message: e.to_string(),
                };
            }
        }
        let store = &self.store;
        Response::Stats(StatsReply {
            num_points: store.num_points(),
            num_tables: store.num_tables() as u64,
            memtable_len: store.memtable_len() as u64,
            version: store.version(),
            live_pins: store.live_pins(),
            maintenance_depth: store.compaction_queue_depth() as u64,
            requests_served: self.requests_served(),
        })
    }
}

/// The engine a `MineRange` request runs: [`K2Hop`] for convoys, the
/// [`FlockMiner`] (k/2-hop with a disk grouping) for flocks, each over
/// the request's validated `m`, `k` and `eps` (the flock's disk radius)
/// and the same worker count.
fn engine(
    pattern: Pattern,
    m: u32,
    k: u32,
    eps: f64,
    threads: u32,
) -> Result<Box<dyn ConvoyMiner>, ConfigError> {
    let config = K2Config::new(m as usize, k, eps)?;
    // The count comes off the wire and sizes per-worker state: more
    // workers than cores buys nothing, so the machine caps it, and 0 asks
    // for all of them. The reply reports the value used.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = match threads {
        0 => cores,
        n => (n as usize).min(cores),
    };
    Ok(match pattern {
        Pattern::Convoy => Box::new(K2Hop::with_threads(config, threads)),
        Pattern::Flock => Box::new(FlockMiner::with_threads(config, threads)),
    })
}

fn wire_convoy(c: &Convoy) -> WireConvoy {
    WireConvoy {
        oids: c.objects.ids().to_vec(),
        t_start: c.lifespan.start,
        t_end: c.lifespan.end,
    }
}
