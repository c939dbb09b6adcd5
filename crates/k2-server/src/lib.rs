//! # k2-server — MVCC snapshot serving for convoy mining
//!
//! One LSM store ingesting a live movement stream while any number of
//! clients mine it concurrently, each against its own immutable pinned
//! snapshot.
//!
//! The crate is a thin front end over the MVCC substrate in
//! `k2-storage` ([`SharedLsm`](k2_storage::SharedLsm) /
//! [`StorePin`](k2_storage::StorePin)):
//!
//! * [`protocol`] — a length-prefixed binary request protocol
//!   ([`Request::MineRange`], [`Request::Ingest`], [`Request::Stats`])
//!   with full round-trip codecs;
//! * [`K2Service`] — the transport-agnostic handler: a mine request
//!   pins a snapshot, clamps it to the requested time range, runs a
//!   k/2-hop (or flock) mining session against the pin, and replies
//!   with convoys + per-phase timings + exactly the I/O that request
//!   caused;
//! * [`Server`] — TCP accept loop + thread-per-connection framing, with
//!   all request bodies executed on a fixed [`WorkerPool`];
//! * [`TcpClient`] / [`LocalClient`] — a socket client and an
//!   in-process client that still round-trips the wire codec.
//!
//! ## Pinning and staleness semantics
//!
//! A mine request observes **exactly** the store contents at its pin
//! instant: inserts, flushes and compactions that land while it runs
//! are invisible to it (the pin holds the frozen memtable generations
//! and open SSTable readers of its state; compaction may unlink a
//! pinned table's file, but the open descriptor keeps it readable).
//! The reply carries `pin_version` and `staleness` — how many state
//! swaps were published between pin and reply — so clients can reason
//! about how fresh their answer is. Re-issuing the same request after
//! ingest sees the new data; issuing it concurrently with ingest sees
//! the pinned past. An `Ingest` batch becomes visible as a whole, when
//! it is acknowledged: a request pinned while the batch is being applied
//! sees none of it and does not wait for it. Writers are never blocked
//! by readers: ingest under any number of live pins costs the writer
//! nothing beyond its normal path.
//!
//! ```no_run
//! use k2_server::{K2Service, LocalClient, Pattern, Request, Response};
//! use k2_storage::{LsmConfig, SharedLsm};
//! use std::sync::Arc;
//!
//! let store = SharedLsm::create_with("/tmp/k2-serve", LsmConfig::default())?;
//! let service = Arc::new(K2Service::new(store));
//! let client = LocalClient::new(service, 4);
//! let reply = client.request(&Request::MineRange {
//!     t_lo: 0, t_hi: 100, pattern: Pattern::Convoy,
//!     m: 4, k: 10, eps: 1.5, threads: 0,
//! })?;
//! if let Response::Convoys(r) = reply {
//!     println!("{} convoys, {} block reads", r.convoys.len(), r.io.blocks_read);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod protocol;

mod client;
mod pool;
mod server;
mod service;

pub use client::{LocalClient, TcpClient};
pub use pool::{JobPanicked, WorkerPool};
pub use protocol::{MineReply, Pattern, Request, Response, StatsReply, WireConvoy};
pub use server::Server;
pub use service::K2Service;

use std::fmt;

/// Errors from the server, clients, or the wire codec.
#[derive(Debug)]
pub enum ServerError {
    /// Transport failure (socket or local I/O).
    Io(std::io::Error),
    /// The peer sent bytes that do not parse as the protocol.
    Protocol(String),
}

impl ServerError {
    pub(crate) fn protocol(msg: impl Into<String>) -> Self {
        ServerError::Protocol(msg.into())
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "transport error: {e}"),
            ServerError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Protocol(_) => None,
        }
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}
