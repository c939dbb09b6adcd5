//! End-to-end smoke of the serving subsystem: a `LocalClient` and a TCP
//! client drive mine / ingest / stats against one server, and mined
//! convoys match the golden from mining the dataset directly.
//!
//! This is the suite the `serve-smoke` CI job runs.

use k2hop::core::benchpoints::benchmark_points;
use k2hop::core::K2Config;
use k2hop::model::{Dataset, Point, TimeInterval};
use k2hop::patterns::FlockMiner;
use k2hop::server::{K2Service, LocalClient, Pattern, Request, Response, Server, TcpClient};
use k2hop::storage::{LsmConfig, LsmStore, SnapshotSource};
use k2hop::MiningSession;
use std::sync::Arc;

mod common;
use common::TempDir;

/// Two planted convoys plus noise, deterministic.
fn workload() -> Dataset {
    k2hop::datagen::ConvoyInjector::new(120, 40)
        .convoys(2, 4, 30)
        .seed(7)
        .generate()
}

fn mine_request(t_lo: u32, t_hi: u32, threads: u32) -> Request {
    Request::MineRange {
        t_lo,
        t_hi,
        pattern: Pattern::Convoy,
        m: 4,
        k: 10,
        eps: 1.5,
        threads,
    }
}

/// Golden convoys as (oids, start, end) triples for wire comparison.
fn golden(dataset: &Dataset) -> Vec<(Vec<u32>, u32, u32)> {
    MiningSession::with_params(4, 10, 1.5)
        .unwrap()
        .mine(dataset)
        .unwrap()
        .convoys
        .iter()
        .map(|c| (c.objects.ids().to_vec(), c.lifespan.start, c.lifespan.end))
        .collect()
}

fn reply_convoys(resp: &Response) -> Vec<(Vec<u32>, u32, u32)> {
    match resp {
        Response::Convoys(r) => r
            .convoys
            .iter()
            .map(|c| (c.oids.clone(), c.t_start, c.t_end))
            .collect(),
        other => panic!("expected convoys, got {other:?}"),
    }
}

#[test]
fn local_and_tcp_clients_mine_golden_convoys() {
    let dataset = workload();
    let want = golden(&dataset);
    assert!(want.len() >= 2, "workload must plant convoys");
    let span_end = dataset.span().end;

    let dir = TempDir::new("smoke");

    let store = LsmStore::bulk_load_with(&dir, &dataset, LsmConfig::default()).unwrap();
    let service = Arc::new(K2Service::new(store));
    let mut server = Server::bind("127.0.0.1:0", Arc::clone(&service), 2).unwrap();
    let local = LocalClient::new(Arc::clone(&service), 2);
    let mut tcp = TcpClient::connect(server.addr()).unwrap();

    // Same request over both transports, and at 1 vs 4 worker threads:
    // identical convoys every time, equal to the direct-mining golden.
    for threads in [0u32, 1, 4] {
        let req = mine_request(0, span_end, threads);
        let via_local = local.request(&req).unwrap();
        let via_tcp = tcp.request(&req).unwrap();
        assert_eq!(reply_convoys(&via_local), want, "local, threads={threads}");
        assert_eq!(reply_convoys(&via_tcp), want, "tcp, threads={threads}");
    }

    // Per-request IoStats: a mine over the LSM store does real reads,
    // and each request reports only its own I/O.
    if let Response::Convoys(r) = local.request(&mine_request(0, span_end, 0)).unwrap() {
        assert!(r.io.range_queries > 0, "mine must scan snapshots");
        assert!(
            r.io.cache_hits + r.io.cache_misses > 0,
            "pinned reads must pass through the block cache"
        );
        assert!(r.elapsed_nanos > 0);
    }

    // A clamped range mines a strict subset of the span.
    let clamped = local.request(&mine_request(0, 12, 0)).unwrap();
    for (_, start, end) in reply_convoys(&clamped) {
        assert!(start <= end && end <= 12, "convoy escaped the clamp");
    }

    server.shutdown();
}

#[test]
fn ingest_then_reissue_sees_new_data_and_stats_quiesces() {
    let dataset = workload();
    let span_end = dataset.span().end;
    let dir = TempDir::new("smoke");
    let store = LsmStore::bulk_load_with(
        &dir,
        &dataset,
        LsmConfig {
            memtable_entries: 512,
            max_tables: 2,
            ..LsmConfig::default()
        },
    )
    .unwrap();
    let service = Arc::new(K2Service::new(store));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), 2).unwrap();
    let mut tcp = TcpClient::connect(server.addr()).unwrap();
    let local = LocalClient::new(Arc::clone(&service), 2);

    let req = mine_request(0, span_end + 20, 0);
    let before = reply_convoys(&local.request(&req).unwrap());

    // Ingest a tight new pair beyond the old span over TCP, big enough
    // to cross flush boundaries.
    let mut points = Vec::new();
    for t in (span_end + 1)..=(span_end + 15) {
        for (i, oid) in (9001u32..=9004).enumerate() {
            points.push(Point::new(oid, t as f64 * 0.1, i as f64 * 0.2, t));
        }
    }
    let n = points.len() as u64;
    match tcp.request(&Request::Ingest { points }).unwrap() {
        Response::Ingested { count, version } => {
            assert_eq!(count, n);
            assert!(version > 0);
        }
        other => panic!("expected ingest ack, got {other:?}"),
    }

    // The same request re-issued now sees the ingested convoy.
    let after = reply_convoys(&local.request(&req).unwrap());
    assert!(after.len() > before.len(), "re-issue must see new data");
    assert!(after
        .iter()
        .any(|(oids, _, _)| oids == &vec![9001, 9002, 9003, 9004]));

    // Stats with quiesce: settled tables, live counters, zero depth.
    match tcp.request(&Request::Stats { quiesce: true }).unwrap() {
        Response::Stats(s) => {
            assert_eq!(s.num_points, dataset.num_points() + n);
            assert!(s.num_tables <= 2, "quiesce must settle compactions");
            assert_eq!(s.maintenance_depth, 0);
            assert_eq!(s.live_pins, 0);
            assert!(s.requests_served >= 4);
        }
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn concurrent_miners_under_live_ingest_agree_with_their_pins() {
    let dataset = workload();
    let span_end = dataset.span().end;
    let dir = TempDir::new("smoke");
    let store = LsmStore::bulk_load_with(
        &dir,
        &dataset,
        LsmConfig {
            memtable_entries: 256,
            max_tables: 2,
            ..LsmConfig::default()
        },
    )
    .unwrap();
    let service = Arc::new(K2Service::new(store));
    let local = LocalClient::new(Arc::clone(&service), 4);
    let want = golden(&dataset);

    // Four miners race a sustained insert stream. Every mined reply must
    // be *a* consistent snapshot: since all ingest lands beyond span_end
    // and requests clamp to [0, span_end], each reply must equal the
    // pre-ingest golden regardless of when its pin was taken.
    let mut miners = Vec::new();
    for _ in 0..4 {
        let client = local.clone();
        miners.push(std::thread::spawn(move || {
            (0..5)
                .map(|_| reply_convoys(&client.request(&mine_request(0, span_end, 0)).unwrap()))
                .collect::<Vec<_>>()
        }));
    }
    let writer = {
        let client = local.clone();
        std::thread::spawn(move || {
            for batch in 0..20u32 {
                let t = span_end + 1 + batch;
                let points = (0..50u32)
                    .map(|i| Point::new(5000 + i, i as f64, batch as f64, t))
                    .collect();
                match client.request(&Request::Ingest { points }).unwrap() {
                    Response::Ingested { count, .. } => assert_eq!(count, 50),
                    other => panic!("ingest failed: {other:?}"),
                }
            }
        })
    };
    for m in miners {
        for reply in m.join().unwrap() {
            assert_eq!(reply, want, "a concurrent miner saw a torn snapshot");
        }
    }
    writer.join().unwrap();

    // Error paths surface as Response::Error, not broken connections.
    match local.request(&mine_request(5, 2, 0)) {
        Ok(Response::Error { message }) => assert!(message.contains("invalid range")),
        other => panic!("expected range error, got {other:?}"),
    }
    match local.request(&Request::MineRange {
        t_lo: 0,
        t_hi: 1,
        pattern: Pattern::Convoy,
        m: 0,
        k: 0,
        eps: -1.0,
        threads: 0,
    }) {
        Ok(Response::Error { .. }) => {}
        other => panic!("expected config error, got {other:?}"),
    }
}

/// A served flock mines a clamped pin through the two access paths: its
/// flocks are the exact sweep's over the range, and it scans exactly one
/// snapshot per benchmark point of the clamped span — no more.
#[test]
fn flock_requests_serve_over_the_wire() {
    let dataset = workload();
    let dir = TempDir::new("smoke");
    let store = LsmStore::bulk_load_with(&dir, &dataset, LsmConfig::default()).unwrap();
    let service = Arc::new(K2Service::new(store));
    let local = LocalClient::new(service, 1);
    let (m, k, r) = (4, 10, 1.5);
    let range = TimeInterval::new(5, 34);
    let resp = local
        .request(&Request::MineRange {
            t_lo: range.start,
            t_hi: range.end,
            pattern: Pattern::Flock,
            m,
            k,
            eps: r,
            threads: 0,
        })
        .unwrap();
    let sweep: Vec<_> = FlockMiner::new(K2Config::new(m as usize, k, r).unwrap())
        .mine_sweep(&dataset.restrict_time(range).unwrap())
        .iter()
        .map(|c| (c.objects.ids().to_vec(), c.lifespan.start, c.lifespan.end))
        .collect();
    assert!(!sweep.is_empty(), "the fixture must hold a flock");
    assert_eq!(reply_convoys(&resp), sweep);
    match resp {
        Response::Convoys(r) => {
            assert_eq!(r.engine, "flock-k2hop");
            // `threads: 0` asks for one worker per core, as for convoys.
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            assert_eq!(r.threads as usize, cores);
            assert_eq!(
                r.io.range_queries,
                benchmark_points(range, k / 2).len() as u64,
                "one snapshot scan per benchmark point"
            );
        }
        other => panic!("expected flock convoys, got {other:?}"),
    }
}

/// The wire must not add a timer to a round trip: two writes per frame
/// or Nagle on the accepted socket park every reply behind the client's
/// delayed ACK (40 ms each — 100 round trips took 4.4 s).
#[test]
fn back_to_back_round_trips_do_not_wait_for_delayed_acks() {
    let dataset = workload();
    let dir = TempDir::new("smoke");
    let store = LsmStore::bulk_load_with(&dir, &dataset, LsmConfig::default()).unwrap();
    let service = Arc::new(K2Service::new(store));
    let server = Server::bind("127.0.0.1:0", service, 1).unwrap();
    let mut tcp = TcpClient::connect(server.addr()).unwrap();
    let t0 = std::time::Instant::now();
    for _ in 0..100 {
        match tcp.request(&Request::Stats { quiesce: false }).unwrap() {
            Response::Stats(s) => assert_eq!(s.num_points, dataset.num_points()),
            other => panic!("expected stats, got {other:?}"),
        }
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "100 Stats round trips took {elapsed:?}"
    );
}

#[test]
fn wire_thread_count_is_clamped_to_the_machine() {
    let dataset = workload();
    let dir = TempDir::new("smoke");
    let store = LsmStore::bulk_load_with(&dir, &dataset, LsmConfig::default()).unwrap();
    let local = LocalClient::new(Arc::new(K2Service::new(store)), 1);
    let span_end = dataset.span().end;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
    let one = local.request(&mine_request(0, span_end, 1)).unwrap();
    let max = local.request(&mine_request(0, span_end, u32::MAX)).unwrap();
    assert_eq!(reply_convoys(&max), reply_convoys(&one));
    assert_eq!(reply_convoys(&max), golden(&dataset));
    match (&one, &max) {
        (Response::Convoys(one), Response::Convoys(max)) => {
            assert_eq!(one.threads, 1);
            assert_eq!(max.threads, cores, "the reply reports the clamped count");
        }
        other => panic!("expected convoys, got {other:?}"),
    }
}

#[test]
fn a_batch_with_a_non_finite_point_is_rejected_whole() {
    let dataset = workload();
    let dir = TempDir::new("smoke");
    let store = LsmStore::bulk_load_with(&dir, &dataset, LsmConfig::default()).unwrap();
    let service = Arc::new(K2Service::new(store));
    let local = LocalClient::new(Arc::clone(&service), 1);
    let stats = |local: &LocalClient| match local.request(&Request::Stats { quiesce: false }) {
        Ok(Response::Stats(s)) => s,
        other => panic!("expected stats, got {other:?}"),
    };
    let before = stats(&local);
    let t = dataset.span().end + 1;
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for (x, y) in [(bad, 0.0), (0.0, bad)] {
            // Good points on both sides of the bad one: none may land.
            let points = vec![
                Point::new(7001, 1.0, 1.0, t),
                Point::new(7002, x, y, t),
                Point::new(7003, 2.0, 2.0, t),
            ];
            match local.request(&Request::Ingest { points }).unwrap() {
                Response::Error { message } => {
                    assert!(message.contains("non-finite"), "unhelpful error: {message}")
                }
                other => panic!("expected an error, got {other:?}"),
            }
        }
    }
    let after = stats(&local);
    assert_eq!(after.num_points, before.num_points);
    assert_eq!(after.memtable_len, before.memtable_len);
    assert_eq!(after.version, before.version);
    assert_eq!(service.store().io_stats().wal_appends, 0);
    // The store still takes a clean batch.
    let points = vec![Point::new(7001, 1.0, 1.0, t)];
    match local.request(&Request::Ingest { points }).unwrap() {
        Response::Ingested { count, version } => {
            assert_eq!(count, 1);
            assert!(version > before.version);
        }
        other => panic!("expected ingest ack, got {other:?}"),
    }
}

/// Each `Ingested` reply carries the version its own batch published,
/// even when other batches land in between: four simultaneous `Ingest`s
/// get four distinct versions, the last of them the store's.
#[test]
fn simultaneous_ingests_reply_with_distinct_versions() {
    let dataset = workload();
    let dir = TempDir::new("smoke");
    let store = LsmStore::bulk_load_with(&dir, &dataset, LsmConfig::default()).unwrap();
    let service = Arc::new(K2Service::new(store));
    let t = dataset.span().end + 1;
    let start = Arc::new(std::sync::Barrier::new(4));
    let senders: Vec<_> = (0..4u32)
        .map(|w| {
            let (service, start) = (Arc::clone(&service), Arc::clone(&start));
            std::thread::spawn(move || {
                let points = (0..64u32)
                    .map(|i| Point::new(8000 + w * 100 + i, 1.0, 1.0, t))
                    .collect();
                start.wait();
                match service.handle(Request::Ingest { points }) {
                    Response::Ingested { count, version } => {
                        assert_eq!(count, 64);
                        version
                    }
                    other => panic!("expected ingest ack, got {other:?}"),
                }
            })
        })
        .collect();
    let mut versions: Vec<u64> = senders.into_iter().map(|s| s.join().unwrap()).collect();
    versions.sort_unstable();
    versions.dedup();
    assert_eq!(versions.len(), 4, "replies shared a version: {versions:?}");
    assert_eq!(versions[3], service.store().version());
}
