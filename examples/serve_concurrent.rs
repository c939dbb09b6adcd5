//! Concurrent mining under live ingest — the k2-server subsystem
//! end to end.
//!
//! Generates a Brinkhoff network workload, bulk-loads the first half
//! into an LSM store, then serves it over TCP while a writer streams
//! the second half in, tick by tick. Four clients mine overlapping
//! time ranges the whole while; each request pins its own MVCC
//! snapshot, so miners never block the ingest stream and never see a
//! torn state. Every reply prints the I/O that request (and only that
//! request) caused.
//!
//! ```sh
//! cargo run --release --example serve_concurrent
//! ```

use k2hop::server::{K2Service, Pattern, Request, Response, Server, TcpClient};
use k2hop::storage::{LsmConfig, LsmStore};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let dataset = k2hop::datagen::brinkhoff::BrinkhoffConfig::scaled(0.4)
        .seed(11)
        .generate();
    let span = dataset.span();
    let mid = span.start + (span.end - span.start) / 2;
    println!(
        "workload: {} points over t={}..{}, serving from t<={} and streaming the rest\n",
        dataset.num_points(),
        span.start,
        span.end,
        mid
    );

    // Bulk-load the past; the future arrives over the wire.
    let (past, future): (Vec<_>, Vec<_>) = dataset.iter_points().partition(|p| p.t <= mid);
    let dir = std::env::temp_dir().join(format!("k2-example-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let seeded = k2hop::model::Dataset::from_points(&past).expect("non-empty past");
    let store = LsmStore::bulk_load_with(
        &dir,
        &seeded,
        LsmConfig {
            memtable_entries: 4096,
            ..LsmConfig::default()
        },
    )
    .expect("bulk load");

    let service = Arc::new(K2Service::new(store));
    let mut server = Server::bind("127.0.0.1:0", Arc::clone(&service), 4).expect("bind");
    let addr = server.addr();
    println!("serving on {addr}\n");

    // The writer: one TCP client streaming the second half tick by tick.
    let writer = std::thread::spawn(move || {
        let mut client = TcpClient::connect(addr).expect("writer connect");
        let mut batches = 0u32;
        let mut sent = 0u64;
        let mut future = future;
        future.sort_by_key(|p| p.t);
        for batch in future.chunks(512) {
            match client
                .request(&Request::Ingest {
                    points: batch.to_vec(),
                })
                .expect("ingest")
            {
                Response::Ingested { count, .. } => sent += count,
                other => panic!("ingest failed: {other:?}"),
            }
            batches += 1;
        }
        (batches, sent)
    });

    // Four miners with overlapping ranges racing the stream. Each reply
    // reports the pin's version and how many state swaps happened while
    // it mined (staleness), plus exactly its own I/O.
    let mut miners = Vec::new();
    for id in 0..4u32 {
        let quarter = (span.end - span.start) / 4;
        // Overlapping windows: [0..half], [q..3q], [2q..end], [0..end].
        let (t_lo, t_hi) = match id {
            0 => (span.start, mid),
            1 => (span.start + quarter, span.start + 3 * quarter),
            2 => (span.start + 2 * quarter, span.end),
            _ => (span.start, span.end),
        };
        miners.push(std::thread::spawn(move || {
            let mut client = TcpClient::connect(addr).expect("miner connect");
            let mut rows = Vec::new();
            for round in 0..3u32 {
                let t0 = Instant::now();
                let resp = client
                    .request(&Request::MineRange {
                        t_lo,
                        t_hi,
                        pattern: Pattern::Convoy,
                        m: 3,
                        k: 6,
                        eps: 300.0,
                        threads: 0,
                    })
                    .expect("mine");
                match resp {
                    Response::Convoys(r) => rows.push(format!(
                        "miner {id} round {round}  t=[{t_lo:>3}..{t_hi:>3}]  \
                         {:>3} convoys  v{:<3} stale {:<2}  \
                         {:>6} blocks  {:>5} hits  {:>5} misses  {:>6} pt-qrys  {:.1?}",
                        r.convoys.len(),
                        r.pin_version,
                        r.staleness,
                        r.io.blocks_read,
                        r.io.cache_hits,
                        r.io.cache_misses,
                        r.io.point_queries,
                        t0.elapsed()
                    )),
                    other => panic!("mine failed: {other:?}"),
                }
            }
            rows
        }));
    }

    for m in miners {
        for row in m.join().expect("miner thread") {
            println!("{row}");
        }
    }
    let (batches, sent) = writer.join().expect("writer thread");
    println!("\nwriter streamed {sent} points in {batches} batches");

    // Final stats after quiescing background compaction.
    let mut client = TcpClient::connect(addr).expect("stats connect");
    match client
        .request(&Request::Stats { quiesce: true })
        .expect("stats")
    {
        Response::Stats(s) => println!(
            "final: {} points, {} tables, v{}, {} requests served, {} live pins",
            s.num_points, s.num_tables, s.version, s.requests_served, s.live_pins
        ),
        other => panic!("stats failed: {other:?}"),
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
