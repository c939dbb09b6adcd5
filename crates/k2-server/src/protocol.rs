//! The wire protocol: length-prefixed binary frames over any
//! `Read`/`Write` pair.
//!
//! Every message is one frame: a `u32` little-endian payload length
//! followed by the payload, whose first byte is the message tag. All
//! integers are little-endian; strings are a `u32` length plus UTF-8
//! bytes. The same codec serves the TCP path and the in-process
//! [`LocalClient`](crate::LocalClient) (which round-trips every request
//! through it, so the codec is exercised even without a socket).
//!
//! Requests: [`Request::MineRange`], [`Request::Ingest`],
//! [`Request::Stats`]. Responses: [`Response::Convoys`],
//! [`Response::Ingested`], [`Response::Stats`], [`Response::Error`].

use crate::ServerError;
use k2_model::{Oid, Point, Time};
use k2_storage::IoStats;
use std::io::{self, IoSlice, Read, Write};

/// Frames larger than this are rejected as corrupt rather than
/// allocated (64 MiB — far above any legitimate message).
pub const MAX_FRAME: u32 = 64 << 20;

const REQ_MINE: u8 = 1;
const REQ_INGEST: u8 = 2;
const REQ_STATS: u8 = 3;

const RESP_CONVOYS: u8 = 1;
const RESP_INGESTED: u8 = 2;
const RESP_STATS: u8 = 3;
const RESP_ERROR: u8 = 4;

/// Which pattern a [`Request::MineRange`] mines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pattern {
    /// Density-connected convoys (the paper's pattern), mined with the
    /// k/2-hop engine.
    #[default]
    Convoy,
    /// Disk-confined flocks, mined with the k/2-hop-accelerated flock
    /// miner.
    Flock,
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Mine `pattern` over the time range `[t_lo, t_hi]` of a snapshot
    /// pinned at dispatch time.
    MineRange {
        /// Inclusive lower bound of the mined time range.
        t_lo: Time,
        /// Inclusive upper bound of the mined time range.
        t_hi: Time,
        /// Pattern kind to mine.
        pattern: Pattern,
        /// Minimum group size `m` (≥ 2).
        m: u32,
        /// Minimum lifetime `k` in consecutive timestamps (≥ 2).
        k: u32,
        /// Clustering radius / disk radius `eps`.
        eps: f64,
        /// Clustering worker threads; `0` picks the engine default.
        threads: u32,
    },
    /// Append a batch of movement records to the store.
    Ingest {
        /// The records, in insertion order.
        points: Vec<Point>,
    },
    /// Store statistics; optionally quiesce background compactions
    /// first so the reported table layout is settled.
    Stats {
        /// Drain background maintenance before reporting.
        quiesce: bool,
    },
}

/// One convoy in wire form: member oids (sorted) plus its lifespan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireConvoy {
    /// Member object ids, ascending.
    pub oids: Vec<Oid>,
    /// First timestamp of the lifespan (inclusive).
    pub t_start: Time,
    /// Last timestamp of the lifespan (inclusive).
    pub t_end: Time,
}

/// The result of a [`Request::MineRange`].
#[derive(Debug, Clone, PartialEq)]
pub struct MineReply {
    /// Engine that served the request (e.g. `k2hop`, `flock-k2hop`).
    pub engine: String,
    /// Worker threads the engine ran with.
    pub threads: u32,
    /// Publish version of the snapshot the request pinned.
    pub pin_version: u64,
    /// State swaps published between pin and reply — how stale the
    /// served snapshot was by the time the request finished.
    pub staleness: u64,
    /// Wall-clock request service time in nanoseconds.
    pub elapsed_nanos: u64,
    /// Per-phase timings in nanoseconds, in pipeline order: benchmark,
    /// intersect, hwmt, merge, extend_right, extend_left, validation.
    pub timings_nanos: [u64; 7],
    /// Exactly the I/O this request caused (per-pin counters).
    pub io: IoStats,
    /// The mined convoys.
    pub convoys: Vec<WireConvoy>,
}

/// The result of a [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsReply {
    /// Total movement records (versions) in the store.
    pub num_points: u64,
    /// On-disk SSTables.
    pub num_tables: u64,
    /// Entries buffered in memory (active + frozen memtables).
    pub memtable_len: u64,
    /// Current published state version.
    pub version: u64,
    /// Live snapshot pins.
    pub live_pins: u64,
    /// Background compaction jobs queued or running.
    pub maintenance_depth: u64,
    /// Requests this server has served (all kinds).
    pub requests_served: u64,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Convoys + timings + per-request I/O for a mine request.
    Convoys(MineReply),
    /// Acknowledgement of an ingest batch.
    Ingested {
        /// Records inserted.
        count: u64,
        /// Published state version after the batch.
        version: u64,
    },
    /// Store statistics.
    Stats(StatsReply),
    /// The request failed; the message says why.
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

// ---- primitive codec helpers -------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A bounds-checked little-endian reader over one frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServerError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ServerError::protocol("truncated frame"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ServerError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ServerError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, ServerError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, ServerError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> Result<String, ServerError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ServerError::protocol("invalid UTF-8 in string"))
    }

    fn finish(self) -> Result<(), ServerError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ServerError::protocol("trailing bytes in frame"))
        }
    }
}

fn put_io(buf: &mut Vec<u8>, io: &IoStats) {
    for v in [
        io.seeks,
        io.blocks_read,
        io.cache_hits,
        io.cache_misses,
        io.bytes_read,
        io.point_queries,
        io.range_queries,
        io.snapshots_shared,
        io.snapshots_copied,
        io.wal_appends,
        io.wal_replayed,
        io.compactions,
        io.bytes_compacted,
    ] {
        put_u64(buf, v);
    }
}

fn get_io(c: &mut Cursor<'_>) -> Result<IoStats, ServerError> {
    Ok(IoStats {
        seeks: c.u64()?,
        blocks_read: c.u64()?,
        cache_hits: c.u64()?,
        cache_misses: c.u64()?,
        bytes_read: c.u64()?,
        point_queries: c.u64()?,
        range_queries: c.u64()?,
        snapshots_shared: c.u64()?,
        snapshots_copied: c.u64()?,
        wal_appends: c.u64()?,
        wal_replayed: c.u64()?,
        compactions: c.u64()?,
        bytes_compacted: c.u64()?,
    })
}

// ---- message codec ------------------------------------------------------

impl Request {
    /// Serialises to a frame payload (tag + body, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::MineRange {
                t_lo,
                t_hi,
                pattern,
                m,
                k,
                eps,
                threads,
            } => {
                buf.push(REQ_MINE);
                put_u32(&mut buf, *t_lo);
                put_u32(&mut buf, *t_hi);
                buf.push(match pattern {
                    Pattern::Convoy => 0,
                    Pattern::Flock => 1,
                });
                put_u32(&mut buf, *m);
                put_u32(&mut buf, *k);
                put_f64(&mut buf, *eps);
                put_u32(&mut buf, *threads);
            }
            Request::Ingest { points } => {
                buf.push(REQ_INGEST);
                put_u32(&mut buf, points.len() as u32);
                for p in points {
                    put_u32(&mut buf, p.oid);
                    put_u32(&mut buf, p.t);
                    put_f64(&mut buf, p.x);
                    put_f64(&mut buf, p.y);
                }
            }
            Request::Stats { quiesce } => {
                buf.push(REQ_STATS);
                buf.push(u8::from(*quiesce));
            }
        }
        buf
    }

    /// Parses a frame payload produced by [`Request::encode`].
    pub fn decode(payload: &[u8]) -> Result<Self, ServerError> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            REQ_MINE => {
                let t_lo = c.u32()?;
                let t_hi = c.u32()?;
                let pattern = match c.u8()? {
                    0 => Pattern::Convoy,
                    1 => Pattern::Flock,
                    p => return Err(ServerError::protocol(format!("unknown pattern {p}"))),
                };
                Request::MineRange {
                    t_lo,
                    t_hi,
                    pattern,
                    m: c.u32()?,
                    k: c.u32()?,
                    eps: c.f64()?,
                    threads: c.u32()?,
                }
            }
            REQ_INGEST => {
                let n = c.u32()? as usize;
                let mut points = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let oid = c.u32()?;
                    let t = c.u32()?;
                    let x = c.f64()?;
                    let y = c.f64()?;
                    points.push(Point::new(oid, x, y, t));
                }
                Request::Ingest { points }
            }
            REQ_STATS => Request::Stats {
                quiesce: c.u8()? != 0,
            },
            t => return Err(ServerError::protocol(format!("unknown request tag {t}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serialises to a frame payload (tag + body, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Convoys(r) => {
                buf.push(RESP_CONVOYS);
                put_str(&mut buf, &r.engine);
                put_u32(&mut buf, r.threads);
                put_u64(&mut buf, r.pin_version);
                put_u64(&mut buf, r.staleness);
                put_u64(&mut buf, r.elapsed_nanos);
                for t in r.timings_nanos {
                    put_u64(&mut buf, t);
                }
                put_io(&mut buf, &r.io);
                put_u32(&mut buf, r.convoys.len() as u32);
                for cv in &r.convoys {
                    put_u32(&mut buf, cv.oids.len() as u32);
                    for &oid in &cv.oids {
                        put_u32(&mut buf, oid);
                    }
                    put_u32(&mut buf, cv.t_start);
                    put_u32(&mut buf, cv.t_end);
                }
            }
            Response::Ingested { count, version } => {
                buf.push(RESP_INGESTED);
                put_u64(&mut buf, *count);
                put_u64(&mut buf, *version);
            }
            Response::Stats(s) => {
                buf.push(RESP_STATS);
                put_u64(&mut buf, s.num_points);
                put_u64(&mut buf, s.num_tables);
                put_u64(&mut buf, s.memtable_len);
                put_u64(&mut buf, s.version);
                put_u64(&mut buf, s.live_pins);
                put_u64(&mut buf, s.maintenance_depth);
                put_u64(&mut buf, s.requests_served);
            }
            Response::Error { message } => {
                buf.push(RESP_ERROR);
                put_str(&mut buf, message);
            }
        }
        buf
    }

    /// Parses a frame payload produced by [`Response::encode`].
    pub fn decode(payload: &[u8]) -> Result<Self, ServerError> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            RESP_CONVOYS => {
                let engine = c.str()?;
                let threads = c.u32()?;
                let pin_version = c.u64()?;
                let staleness = c.u64()?;
                let elapsed_nanos = c.u64()?;
                let mut timings_nanos = [0u64; 7];
                for t in &mut timings_nanos {
                    *t = c.u64()?;
                }
                let io = get_io(&mut c)?;
                let n = c.u32()? as usize;
                let mut convoys = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let len = c.u32()? as usize;
                    let mut oids = Vec::with_capacity(len.min(1 << 20));
                    for _ in 0..len {
                        oids.push(c.u32()?);
                    }
                    let t_start = c.u32()?;
                    let t_end = c.u32()?;
                    convoys.push(WireConvoy {
                        oids,
                        t_start,
                        t_end,
                    });
                }
                Response::Convoys(MineReply {
                    engine,
                    threads,
                    pin_version,
                    staleness,
                    elapsed_nanos,
                    timings_nanos,
                    io,
                    convoys,
                })
            }
            RESP_INGESTED => Response::Ingested {
                count: c.u64()?,
                version: c.u64()?,
            },
            RESP_STATS => Response::Stats(StatsReply {
                num_points: c.u64()?,
                num_tables: c.u64()?,
                memtable_len: c.u64()?,
                version: c.u64()?,
                live_pins: c.u64()?,
                maintenance_depth: c.u64()?,
                requests_served: c.u64()?,
            }),
            RESP_ERROR => Response::Error { message: c.str()? },
            t => return Err(ServerError::protocol(format!("unknown response tag {t}"))),
        };
        c.finish()?;
        Ok(resp)
    }
}

// ---- framing ------------------------------------------------------------

/// Initial capacity of a frame's receive buffer. The buffer grows past
/// it only as payload bytes actually arrive, so a header announcing
/// [`MAX_FRAME`] costs the receiver no more than this up front.
const READ_BUF_INITIAL: usize = 64 << 10;

/// Writes one length-prefixed frame, handing header and payload to the
/// writer together: one `writev` on a socket, so the payload never sits
/// behind its own header waiting for the peer's delayed ACK.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ServerError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| ServerError::protocol("frame too large"))?;
    let header = len.to_le_bytes();
    let total = header.len() + payload.len();
    let mut sent = 0;
    while sent < total {
        // A short write resumes where it stopped, header first.
        let written = if sent < header.len() {
            w.write_vectored(&[IoSlice::new(&header[sent..]), IoSlice::new(payload)])
        } else {
            w.write(&payload[sent - header.len()..])
        };
        match written {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads up to `len` payload bytes into a buffer sized by what arrives,
/// not by what the header announced. A short result means the peer
/// hung up mid-frame.
fn read_payload(r: &mut impl Read, len: u32) -> io::Result<Vec<u8>> {
    let mut payload = Vec::with_capacity((len as usize).min(READ_BUF_INITIAL));
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    Ok(payload)
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF
/// at a frame boundary (the peer hung up between requests).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ServerError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(ServerError::protocol("EOF inside frame header")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(ServerError::protocol(format!("oversized frame: {len}")));
    }
    let payload = read_payload(r, len)?;
    if payload.len() != len as usize {
        return Err(ServerError::protocol("EOF inside frame payload"));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::MineRange {
                t_lo: 3,
                t_hi: 77,
                pattern: Pattern::Flock,
                m: 4,
                k: 10,
                eps: 1.5,
                threads: 2,
            },
            Request::Ingest {
                points: vec![Point::new(1, 2.0, 3.0, 4), Point::new(5, -1.0, 0.25, 6)],
            },
            Request::Stats { quiesce: true },
        ];
        for req in reqs {
            let enc = req.encode();
            assert_eq!(Request::decode(&enc).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let io = IoStats {
            seeks: 1,
            blocks_read: 2,
            cache_hits: 3,
            cache_misses: 4,
            bytes_read: 5,
            point_queries: 6,
            range_queries: 7,
            snapshots_shared: 8,
            snapshots_copied: 9,
            wal_appends: 10,
            wal_replayed: 11,
            compactions: 12,
            bytes_compacted: 13,
        };
        let resps = [
            Response::Convoys(MineReply {
                engine: "k2hop".into(),
                threads: 4,
                pin_version: 9,
                staleness: 2,
                elapsed_nanos: 12345,
                timings_nanos: [1, 2, 3, 4, 5, 6, 7],
                io,
                convoys: vec![WireConvoy {
                    oids: vec![1, 2, 3],
                    t_start: 10,
                    t_end: 20,
                }],
            }),
            Response::Ingested {
                count: 100,
                version: 7,
            },
            Response::Stats(StatsReply {
                num_points: 1,
                num_tables: 2,
                memtable_len: 3,
                version: 4,
                live_pins: 5,
                maintenance_depth: 0,
                requests_served: 6,
            }),
            Response::Error {
                message: "nope".into(),
            },
        ];
        for resp in resps {
            let enc = resp.encode();
            assert_eq!(Response::decode(&enc).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_and_trailing_frames_rejected() {
        let enc = Request::Stats { quiesce: false }.encode();
        assert!(Request::decode(&enc[..1]).is_err());
        let mut longer = enc.clone();
        longer.push(0);
        assert!(Request::decode(&longer).is_err());
        assert!(Request::decode(&[99]).is_err());
    }

    #[test]
    fn framing_round_trips_and_detects_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
        // EOF mid-header is an error, not a clean end.
        let mut torn = &buf[..2];
        assert!(read_frame(&mut torn).is_err());
        // So is EOF mid-payload.
        let mut torn = &buf[..6];
        assert!(read_frame(&mut torn).is_err());
    }

    /// Counts calls into the `write` family; accepts everything offered.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.bytes.write(buf)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            self.bytes.write_vectored(bufs)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_call() {
        for len in [0usize, 100, 1 << 20] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.calls, 1, "{len}-byte payload");
            let mut r = &w.bytes[..];
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), payload);
            assert!(read_frame(&mut r).unwrap().is_none());
        }
    }

    #[test]
    fn short_writes_resume_mid_header_and_mid_payload() {
        /// Accepts at most three bytes per call.
        struct Dribble(Vec<u8>);
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Dribble(Vec::new());
        write_frame(&mut w, b"hello, frame").unwrap();
        assert_eq!(read_frame(&mut &w.0[..]).unwrap().unwrap(), b"hello, frame");
    }

    #[test]
    fn an_announced_length_allocates_nothing_until_bytes_arrive() {
        // Four header bytes claiming the largest legal frame, then EOF.
        let header = MAX_FRAME.to_le_bytes();
        assert!(read_frame(&mut &header[..]).is_err());
        let partial = read_payload(&mut &b"abc"[..], MAX_FRAME).unwrap();
        assert_eq!(partial, b"abc");
        assert!(
            partial.capacity() <= READ_BUF_INITIAL,
            "receive buffer grew to {} bytes for a 3-byte payload",
            partial.capacity()
        );
    }
}
