//! `serve_wire`, `serve_ingest` and `ingest_live`: a `TcpClient` against
//! an in-process `Server` over a `SharedLsm`, closed loop, four cheap
//! operations to one dear one per cycle, optionally beside an open-loop
//! second connection.

use super::{Bench, Ctx, SetupTimes};
use crate::data::{convoy_hash, network_traffic, split_at, wire_hash, Feed};
use crate::harness::{record_phases, MineTotals, Sample, Workload};
use crate::spec::Metrics;
use crate::sys::dir_bytes;
use crate::timed::TimedSource;
use crate::trace::Tracer;
use crate::util::{err, percentile, ratio, Fnv, SplitMix};
use k2hop::core::K2Config;
use k2hop::model::{Dataset, Time, TimeInterval};
use k2hop::server::protocol::{read_frame, write_frame};
use k2hop::server::{K2Service, MineReply, Pattern, Request, Response, Server, TcpClient};
use k2hop::storage::{
    IoStats, LsmConfig, SharedLsm, SnapshotSource, TimeRange, KEY_SIZE, VAL_SIZE,
};
use k2hop::MiningSession;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Mining parameters of every `MineRange`: the values the repo's
/// bench-report mines Brinkhoff traffic with.
pub const M: u32 = 2;
pub const K: u32 = 40;
pub const EPS: f64 = 600.0;

/// Share of the data set's timestamps bulk-loaded before serving; the
/// rest is the live feed.
const BASE_SHARE: f64 = 0.75;

const SHORT_WINDOWS: usize = 4;
const LONG_WINDOWS: usize = 8;
/// Cycles in the fixed schedule: one per long window.
const SCHEDULE_CYCLES: usize = LONG_WINDOWS;

/// `serve_ingest`'s feed: 41 k points a second fill the default
/// 65 536-entry memtable every 1.6 s. A batch holds the writer lock for
/// ~15 ms of each 100 ms; twice the batch would delay a third of the
/// short requests behind that lock and put the median between the
/// delayed and the undelayed mode.
const FEED_BATCH: usize = 4096;
const FEED_PERIOD: Duration = Duration::from_millis(100);
/// `ingest_live`'s reader: one short mine every half second.
const READER_PERIOD: Duration = Duration::from_millis(500);
/// `ingest_live`'s batches: large enough that a closed loop held to one
/// request per ~50 ms by the socket still fills the memtable more than
/// once a second.
const SMALL_BATCH: usize = 4096;
const LARGE_BATCH: usize = 16384;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Wire,
    Ingest,
    Live,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `MineRange` over `windows[i]`.
    Mine(usize),
    /// `Ingest` of the feed's next `n` points.
    Ingest(usize),
}

pub fn mine_request(window: (Time, Time), pattern: Pattern) -> Request {
    Request::MineRange {
        t_lo: window.0,
        t_hi: window.1,
        pattern,
        m: M,
        k: K,
        eps: EPS,
        threads: 1,
    }
}

/// The primary connection of a phase.
enum Conn {
    Closed,
    /// The shipped client, as a user would call it.
    Plain(TcpClient),
    /// The same bytes through `write_frame`/`read_frame` directly, so the
    /// traced run can time encode, round trip and decode apart.
    Traced(TcpStream),
}

/// Running checks on a connection's replies.
#[derive(Debug, Default)]
struct ReplyChecks {
    last_version: u64,
    max_staleness: u64,
}

impl ReplyChecks {
    /// A mine reply is right when its convoys match the oracle and its
    /// pin is no older than the connection's previous one.
    fn mine(&mut self, reply: &MineReply, expected: u64) -> bool {
        let monotone = reply.pin_version >= self.last_version;
        self.last_version = self.last_version.max(reply.pin_version);
        self.max_staleness = self.max_staleness.max(reply.staleness);
        monotone && wire_hash(&reply.convoys) == expected
    }

    /// An ingest reply is right when it acknowledges every point sent
    /// and the store's version did not go backwards.
    fn ingest(&mut self, count: u64, version: u64, sent: usize) -> bool {
        let monotone = version >= self.last_version;
        self.last_version = self.last_version.max(version);
        monotone && count == sent as u64
    }
}

/// What the open-loop second connection does.
enum Stream {
    Feed(Feed),
    Reader,
}

/// What the second connection observed during the timed part of a phase.
#[derive(Debug, Default)]
struct StreamReport {
    /// Latency of each operation from its *due* time.
    latency_ns: Vec<u64>,
    late_max_ns: u64,
    attempted: u64,
    failed: u64,
    /// Points acknowledged inside the timed part.
    acked_timed: u64,
    timed_s: f64,
    mines: MineTotals,
    cache_hits: u64,
    cache_requests: u64,
    max_staleness: u64,
}

struct Background {
    stop: Arc<AtomicBool>,
    timed: Arc<AtomicBool>,
    handle: JoinHandle<Result<(Stream, StreamReport), String>>,
}

pub struct Serve {
    kind: Kind,
    // `server` is dropped before `service`'s last handle so the accept
    // loop is joined while the store is still open.
    server: Server,
    service: Arc<K2Service>,
    addr: SocketAddr,
    store_dir: PathBuf,
    /// Size of the store directory right after the load.
    loaded_bytes: u64,
    /// The bulk-loaded part, kept until the oracle has mined it.
    base: Option<Dataset>,
    base_points: u64,
    /// Short windows first, then long ones.
    windows: Vec<(Time, Time)>,
    expected: Vec<u64>,
    schedule: Vec<Op>,
    conn: Conn,
    checks: ReplyChecks,
    /// `ingest_live` feeds from the primary connection, `serve_ingest`
    /// from the second one; `None` while a background thread holds it.
    feed: Option<Feed>,
    background: Option<Background>,
    /// Points acknowledged since the load, on either connection.
    acked: Arc<AtomicU64>,
    /// Store counters and acknowledged points when the first timed part
    /// began, and their growth up to the end of the last one: the write
    /// side is reported over everything a run measures.
    measured_from: Option<(IoStats, u64)>,
    io_delta: IoStats,
    acked_measured: u64,
    served: MineTotals,
    cache_hits: [u64; 2],
    cache_requests: [u64; 2],
    /// The second connection: (attempted, failed) over all phases, and
    /// what it observed in the last one.
    stream_ops: (u64, u64),
    stream: StreamReport,
}

impl Serve {
    fn request(
        &mut self,
        req: &Request,
        op_id: u32,
        tracer: Option<&mut Tracer>,
    ) -> Result<Response, String> {
        match (&mut self.conn, tracer) {
            (Conn::Plain(client), _) => client.request(req).map_err(err),
            (Conn::Traced(stream), Some(tracer)) => traced_request(stream, req, op_id, tracer),
            // Warm-up operations of a traced phase: same bytes, no spans.
            (Conn::Traced(stream), None) => {
                write_frame(stream, &req.encode()).map_err(err)?;
                let frame = read_frame(stream).map_err(err)?;
                Response::decode(&frame.ok_or("server closed the connection")?).map_err(err)
            }
            (Conn::Closed, _) => Err("no open connection".into()),
        }
    }

    fn store_io(&self) -> IoStats {
        self.service.store().lock().io_stats()
    }
}

/// One request over a raw stream, recorded as `client.op` → encode,
/// round trip (with the server's own account of it rebuilt inside) and
/// decode.
fn traced_request(
    stream: &mut TcpStream,
    req: &Request,
    op: u32,
    tracer: &mut Tracer,
) -> Result<Response, String> {
    let t0 = tracer.now();
    let payload = req.encode();
    let t1 = tracer.now();
    write_frame(stream, &payload).map_err(err)?;
    let frame = read_frame(stream).map_err(err)?;
    let t2 = tracer.now();
    let response = Response::decode(&frame.ok_or("server closed the connection")?).map_err(err)?;
    let t3 = tracer.now();
    let root = tracer.record("client.op", op, None, t0, t3);
    tracer.record("server.encode_req", op, Some(root), t0, t1);
    let rtt = tracer.record("client.rtt", op, Some(root), t1, t2);
    if let Response::Convoys(reply) = &response {
        // The reply says how long the service took, not when: the span is
        // placed at the end of the round trip, where a reply held back by
        // the socket leaves the gap in `client.rtt`'s self time.
        let start = t2.saturating_sub(reply.elapsed_nanos).max(t1);
        let elapsed = tracer.record("server.elapsed", op, Some(rtt), start, t2);
        record_phases(tracer, op, elapsed, start, &reply.timings_nanos);
    }
    tracer.record("server.decode_reply", op, Some(root), t2, t3);
    Ok(response)
}

/// The second connection: sends on a fixed schedule whatever the server
/// does, and times each operation from when it was due.
fn run_stream(
    addr: SocketAddr,
    mut stream: Stream,
    windows: Vec<(Time, Time)>,
    expected: Vec<u64>,
    stop: Arc<AtomicBool>,
    timed: Arc<AtomicBool>,
    acked: Arc<AtomicU64>,
) -> Result<(Stream, StreamReport), String> {
    let mut client = TcpClient::connect(addr).map_err(err)?;
    let period = match stream {
        Stream::Feed(_) => FEED_PERIOD,
        Stream::Reader => READER_PERIOD,
    };
    let mut report = StreamReport::default();
    let mut checks = ReplyChecks::default();
    let mut timed_from: Option<Instant> = None;
    let mut due = Instant::now();
    let mut sent = 0usize;
    loop {
        // Sleep in slices so a stop request is seen within 20 ms.
        while Instant::now() < due && !stop.load(Ordering::Acquire) {
            std::thread::sleep((due - Instant::now()).min(Duration::from_millis(20)));
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let record = timed.load(Ordering::Acquire);
        if record && timed_from.is_none() {
            timed_from = Some(due);
        }
        let started = Instant::now();
        let (ok, points) = match &mut stream {
            Stream::Feed(feed) => {
                let batch = feed.next_batch(FEED_BATCH);
                let n = batch.len();
                match client.request(&Request::Ingest { points: batch }) {
                    Ok(Response::Ingested { count, version }) => {
                        (checks.ingest(count, version, n), count)
                    }
                    _ => (false, 0),
                }
            }
            Stream::Reader => {
                let w = sent % SHORT_WINDOWS;
                match client.request(&mine_request(windows[w], Pattern::Convoy)) {
                    Ok(Response::Convoys(reply)) => {
                        if record {
                            report.mines.add_phases(
                                reply.elapsed_nanos,
                                &reply.timings_nanos,
                                reply.convoys.len(),
                            );
                            report.cache_hits += reply.io.cache_hits;
                            report.cache_requests += reply.io.cache_hits + reply.io.cache_misses;
                        }
                        (checks.mine(&reply, expected[w]), 0)
                    }
                    _ => (false, 0),
                }
            }
        };
        sent += 1;
        acked.fetch_add(points, Ordering::Relaxed);
        if record {
            report.attempted += 1;
            report.failed += u64::from(!ok);
            report.acked_timed += points;
            report
                .latency_ns
                .push((Instant::now() - due).as_nanos() as u64);
            report.late_max_ns = report.late_max_ns.max((started - due).as_nanos() as u64);
        }
        due += period;
    }
    report.timed_s = timed_from.map_or(0.0, |t| t.elapsed().as_secs_f64());
    report.max_staleness = checks.max_staleness;
    Ok((stream, report))
}

impl Workload for Serve {
    fn cycle_counts(&self) -> &'static [u32] {
        &[4, 1]
    }

    fn warmup_cycles(&self) -> u64 {
        2
    }

    fn begin_phase(&mut self, traced: bool) -> Result<(), String> {
        // A fresh connection per phase: its first segments are exchanged
        // in the kernel's quick-ACK mode, which the warm-up absorbs.
        self.conn = if traced {
            let stream = TcpStream::connect(self.addr).map_err(err)?;
            stream.set_nodelay(true).map_err(err)?;
            Conn::Traced(stream)
        } else {
            Conn::Plain(TcpClient::connect(self.addr).map_err(err)?)
        };
        self.checks = ReplyChecks::default();
        let stream = match self.kind {
            Kind::Wire => return Ok(()),
            Kind::Ingest => Stream::Feed(self.feed.take().expect("feed is home between phases")),
            Kind::Live => Stream::Reader,
        };
        let stop = Arc::new(AtomicBool::new(false));
        let timed = Arc::new(AtomicBool::new(false));
        let (addr, windows, expected) = (self.addr, self.windows.clone(), self.expected.clone());
        let (stop2, timed2, acked) = (stop.clone(), timed.clone(), self.acked.clone());
        let handle = std::thread::Builder::new()
            .name("k2-bench-stream".into())
            .spawn(move || run_stream(addr, stream, windows, expected, stop2, timed2, acked))
            .map_err(err)?;
        self.background = Some(Background {
            stop,
            timed,
            handle,
        });
        Ok(())
    }

    fn begin_timed(&mut self) {
        if let Some(bg) = &self.background {
            bg.timed.store(true, Ordering::Release);
        }
        if self.measured_from.is_none() {
            self.measured_from = Some((self.store_io(), self.acked.load(Ordering::Relaxed)));
        }
    }

    fn op(&mut self, index: u64, tracer: Option<&mut Tracer>) -> Sample {
        let op = self.schedule[(index % self.schedule.len() as u64) as usize];
        let recording = tracer.is_some();
        let (class, request, sent) = match op {
            Op::Mine(w) => (
                u8::from(w >= SHORT_WINDOWS),
                mine_request(self.windows[w], Pattern::Convoy),
                0,
            ),
            Op::Ingest(n) => {
                let batch = self
                    .feed
                    .as_mut()
                    .expect("primary connection owns the feed")
                    .next_batch(n);
                (
                    u8::from(n == LARGE_BATCH),
                    Request::Ingest { points: batch },
                    n,
                )
            }
        };
        let t0 = Instant::now();
        let response = self.request(&request, index as u32, tracer);
        let nanos = t0.elapsed().as_nanos() as u64;
        let ok = match (op, response) {
            (Op::Mine(w), Ok(Response::Convoys(reply))) => {
                if recording {
                    self.served.add_phases(
                        reply.elapsed_nanos,
                        &reply.timings_nanos,
                        reply.convoys.len(),
                    );
                    let c = usize::from(class);
                    self.cache_hits[c] += reply.io.cache_hits;
                    self.cache_requests[c] += reply.io.cache_hits + reply.io.cache_misses;
                }
                self.checks.mine(&reply, self.expected[w])
            }
            (Op::Ingest(_), Ok(Response::Ingested { count, version })) => {
                self.acked.fetch_add(count, Ordering::Relaxed);
                self.checks.ingest(count, version, sent)
            }
            _ => false,
        };
        Sample { class, nanos, ok }
    }

    fn end_phase(&mut self) -> Result<(), String> {
        self.conn = Conn::Closed;
        if let Some(bg) = self.background.take() {
            bg.stop.store(true, Ordering::Release);
            let (stream, report) = bg
                .handle
                .join()
                .map_err(|_| "the second connection's thread panicked")??;
            if let Stream::Feed(feed) = stream {
                self.feed = Some(feed);
            }
            self.stream_ops.0 += report.attempted;
            self.stream_ops.1 += report.failed;
            // The per-layer numbers describe the last (traced) phase.
            self.stream = report;
        }
        let (io, acked) = self.measured_from.expect("a phase has a timed part");
        self.io_delta = self.store_io().since(&io);
        self.acked_measured = self.acked.load(Ordering::Relaxed) - acked;
        Ok(())
    }
}

impl Bench for Serve {
    fn build(name: &str, ctx: Ctx, dir: &Path) -> Result<(Self, SetupTimes), String> {
        let kind = match name {
            "serve_wire" => Kind::Wire,
            "serve_ingest" => Kind::Ingest,
            "ingest_live" => Kind::Live,
            other => return Err(format!("{other} is not a serving workload")),
        };
        let t0 = Instant::now();
        let dataset = network_traffic(ctx.scale);
        let gen_s = t0.elapsed().as_secs_f64();
        let timestamps = dataset.num_timestamps() as Time;
        let split = dataset.start() + (f64::from(timestamps) * BASE_SHARE) as Time;
        let (base, tail) = split_at(&dataset, split);
        drop(dataset);

        let t1 = Instant::now();
        let store = SharedLsm::bulk_load_with(dir, &base, LsmConfig::default()).map_err(err)?;
        let load_s = t1.elapsed().as_secs_f64();
        let service = Arc::new(K2Service::new(store));
        let server = Server::bind("127.0.0.1:0", service.clone(), 2).map_err(err)?;
        let addr = server.addr();
        // Quiesce through the front door, as an operator would.
        let mut client = TcpClient::connect(addr).map_err(err)?;
        match client.request(&Request::Stats { quiesce: true }) {
            Ok(Response::Stats(s)) if s.num_points == base.num_points() => {}
            other => {
                return Err(format!(
                    "unexpected reply to the quiescing Stats: {other:?}"
                ))
            }
        }
        drop(client);
        let total_s = t0.elapsed().as_secs_f64();

        // The windows are spread evenly over the base span, so every seed
        // asks for the same work; the seed draws the order it comes in.
        let mut rng = SplitMix::new(ctx.seed ^ 0x7365_7276);
        let base_len = base.span().len();
        let short_len = ((300.0 * ctx.scale).round() as Time)
            .max(2 * K)
            .min(base_len);
        let long_len = ((5000.0 * ctx.scale).round() as Time)
            .max(4 * K)
            .min(base_len);
        let window =
            |offset: Time, len: Time| (base.start() + offset, base.start() + offset + len - 1);
        let mut windows = Vec::with_capacity(SHORT_WINDOWS + LONG_WINDOWS);
        for i in 0..SHORT_WINDOWS {
            let offset = (u64::from(base_len - short_len) * (2 * i as u64 + 1)
                / (2 * SHORT_WINDOWS as u64)) as Time;
            windows.push(window(offset, short_len));
        }
        for i in 0..LONG_WINDOWS {
            let offset =
                (u64::from(base_len - long_len) * i as u64 / (LONG_WINDOWS as u64 - 1)) as Time;
            windows.push(window(offset, long_len));
        }
        // One pass visits every long window once and every short window
        // equally often.
        let mut long_order: Vec<usize> = (SHORT_WINDOWS..SHORT_WINDOWS + LONG_WINDOWS).collect();
        rng.shuffle(&mut long_order);
        let mut short_order: Vec<usize> = (0..SCHEDULE_CYCLES * 4)
            .map(|i| i % SHORT_WINDOWS)
            .collect();
        rng.shuffle(&mut short_order);
        let mut short_order = short_order.into_iter();
        let mut schedule = Vec::with_capacity(SCHEDULE_CYCLES * 5);
        for &long in &long_order {
            let dear_slot = rng.below(5) as usize;
            for slot in 0..5 {
                schedule.push(match (kind, slot == dear_slot) {
                    (Kind::Live, true) => Op::Ingest(LARGE_BATCH),
                    (Kind::Live, false) => Op::Ingest(SMALL_BATCH),
                    (_, true) => Op::Mine(long),
                    (_, false) => {
                        Op::Mine(short_order.next().expect("four short operations per cycle"))
                    }
                });
            }
        }

        let base_points = base.num_points();
        Ok((
            Self {
                kind,
                server,
                service,
                addr,
                store_dir: dir.to_path_buf(),
                loaded_bytes: dir_bytes(dir),
                base: Some(base),
                base_points,
                windows,
                expected: Vec::new(),
                schedule,
                conn: Conn::Closed,
                checks: ReplyChecks::default(),
                feed: (kind != Kind::Wire).then(|| Feed::new(tail)),
                background: None,
                acked: Arc::new(AtomicU64::new(0)),
                measured_from: None,
                io_delta: IoStats::default(),
                acked_measured: 0,
                served: MineTotals::default(),
                cache_hits: [0; 2],
                cache_requests: [0; 2],
                stream_ops: (0, 0),
                stream: StreamReport::default(),
            },
            SetupTimes {
                gen_s,
                load_s,
                total_s,
            },
        ))
    }

    fn describe(&self) -> String {
        let (short, long) = (self.windows[0], self.windows[SHORT_WINDOWS]);
        format!(
            "{} points bulk-loaded into {} SSTables ({:.1} MB on disk); MineRange m={M} k={K} eps={EPS} threads=1; \
             {SHORT_WINDOWS} short windows of {} timestamps, {LONG_WINDOWS} long of {}; second connection: {}",
            self.base_points,
            self.service.store().lock().num_tables(),
            dir_bytes(&self.store_dir) as f64 / 1e6,
            short.1 - short.0 + 1,
            long.1 - long.0 + 1,
            match self.kind {
                Kind::Wire => "none".to_string(),
                Kind::Ingest => format!("open-loop Ingest of {FEED_BATCH} points every {FEED_PERIOD:?}"),
                Kind::Live => format!("open-loop short MineRange every {READER_PERIOD:?}"),
            }
        )
    }

    fn schedule_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.base_points);
        for &(lo, hi) in &self.windows {
            h.word(u64::from(lo));
            h.word(u64::from(hi));
        }
        for op in &self.schedule {
            match *op {
                Op::Mine(w) => h.word(w as u64),
                Op::Ingest(n) => h.word(1 << 32 | n as u64),
            }
        }
        h.finish()
    }

    fn prepare_oracle(&mut self) -> Result<(), String> {
        // The second path: each window cut out of the resident data set
        // and mined by a session, no store and no server involved.
        let base = self.base.take().expect("the oracle runs once");
        let config = K2Config::new(M as usize, K, EPS).map_err(err)?;
        for &(lo, hi) in &self.windows {
            let slice = base
                .restrict_time(TimeInterval::new(lo, hi))
                .ok_or("a window misses the base span")?;
            let outcome = MiningSession::new(config)
                .threads(1)
                .mine(&slice)
                .map_err(err)?;
            self.expected.push(convoy_hash(&outcome.convoys));
        }
        Ok(())
    }

    fn background_ops(&self) -> (u64, u64) {
        self.stream_ops
    }

    fn finish(&mut self) -> Result<(), String> {
        let acked = self.acked.load(Ordering::Relaxed);
        let mut client = TcpClient::connect(self.addr).map_err(err)?;
        match client.request(&Request::Stats { quiesce: true }) {
            Ok(Response::Stats(s)) if s.num_points == self.base_points + acked => {}
            Ok(Response::Stats(s)) => {
                return Err(format!(
                    "store holds {} points, expected {} loaded + {acked} acknowledged",
                    s.num_points, self.base_points
                ))
            }
            other => return Err(format!("unexpected reply to the final Stats: {other:?}")),
        }
        drop(client);
        self.server.shutdown();
        Ok(())
    }

    fn mine_totals(&mut self) -> Result<(MineTotals, MineTotals), String> {
        // Replies carry phase timings but neither pruning counters nor
        // fetch time, so one pass of the schedule's mines is replayed in
        // process against a pin, through the fetch timer.
        let mut replayed = MineTotals::default();
        let config = K2Config::new(M as usize, K, EPS).map_err(err)?;
        let windows: Vec<usize> = match self.kind {
            Kind::Live => (0..SHORT_WINDOWS).collect(),
            _ => self
                .schedule
                .iter()
                .filter_map(|op| match *op {
                    Op::Mine(w) => Some(w),
                    Op::Ingest(_) => None,
                })
                .collect(),
        };
        for w in windows {
            let pin = self.service.store().pin().map_err(err)?;
            let (lo, hi) = self.windows[w];
            let source = TimeRange::new(TimedSource::new(pin), lo, hi);
            let t0 = Instant::now();
            let outcome = MiningSession::new(config)
                .threads(1)
                .mine(&source)
                .map_err(err)?;
            let nanos = t0.elapsed().as_nanos() as u64;
            if convoy_hash(&outcome.convoys) != self.expected[w] {
                return Err(format!(
                    "in-process replay of window {w} disagrees with the oracle"
                ));
            }
            let fetch = source.inner().totals();
            replayed.add_phases(
                nanos,
                &crate::harness::phase_nanos(&outcome.stats.timings),
                outcome.convoys.len(),
            );
            replayed.points_processed += outcome.stats.pruning.points_processed();
            replayed.pruning_ratio_sum += outcome.stats.pruning.pruning_ratio();
            replayed.fetch_ns += fetch.fetch_ns;
            replayed.multi_gets += fetch.multi_gets;
            replayed.scans += fetch.scans;
        }
        let served = match self.kind {
            Kind::Live => self.stream.mines,
            _ => self.served,
        };
        Ok((served, replayed))
    }

    fn layer_metrics(&self, setup: &SetupTimes, out: &mut Metrics) {
        let stream = &self.stream;
        out.set("storage.lsm.bulk_load_s", setup.load_s);
        // Measured before the run's own ingest: the disk image of the load.
        out.set(
            "storage.lsm.bytes_per_point",
            self.loaded_bytes as f64 / self.base_points as f64,
        );
        // `ingest_live`'s only mines are the reader's, all of them short.
        let (all, short) = match self.kind {
            Kind::Live => {
                let r = ratio(stream.cache_hits, stream.cache_requests);
                (r, r)
            }
            _ => (
                ratio(
                    self.cache_hits.iter().sum(),
                    self.cache_requests.iter().sum(),
                ),
                ratio(self.cache_hits[0], self.cache_requests[0]),
            ),
        };
        out.set("storage.lsm.cache_hit_rate", all);
        out.set("storage.lsm.cache_hit_rate_short", short);
        let io = self.io_delta;
        let user_bytes = self.acked_measured * (KEY_SIZE + VAL_SIZE) as u64;
        out.set(
            "storage.lsm.write_amp",
            ratio(user_bytes + io.bytes_compacted, user_bytes),
        );
        // Memtable fills completed while measuring: the store flushes
        // exactly when 65 536 entries are buffered, the load ended on a
        // flush, and the feed never repeats a key.
        let fill = LsmConfig::default().memtable_entries as u64;
        let before = self.measured_from.map_or(0, |(_, acked)| acked);
        out.set(
            "storage.lsm.flushes",
            ((before + self.acked_measured) / fill - before / fill) as f64,
        );
        out.set("storage.lsm.compactions", io.compactions as f64);
        out.set("storage.lsm.wal_appends", io.wal_appends as f64);
        out.set(
            "storage.lsm.tables_final",
            self.service.store().lock().num_tables() as f64,
        );

        let mut latency = stream.latency_ns.clone();
        latency.sort_unstable();
        let pct = |p: f64| {
            if latency.is_empty() {
                0.0
            } else {
                percentile(&latency, p) as f64 / 1e6
            }
        };
        out.set("client.bg_p50_ms", pct(0.5));
        out.set("client.bg_p90_ms", pct(0.9));
        out.set("client.bg_late_max_ms", stream.late_max_ns as f64 / 1e6);
        out.set(
            "client.bg_kpts_per_s",
            if stream.timed_s > 0.0 {
                stream.acked_timed as f64 / 1e3 / stream.timed_s
            } else {
                0.0
            },
        );
        out.set(
            "client.max_staleness",
            self.checks.max_staleness.max(stream.max_staleness) as f64,
        );
    }
}
