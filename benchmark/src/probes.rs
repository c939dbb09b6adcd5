//! Layer probes: small, fixed measurements of each crate's hot calls on
//! a fixture the traced run builds for itself. They are the same on
//! every workload — a fingerprint of how fast each layer is at this
//! commit — while the spans of the traced phase say how much of a
//! workload's time each layer got.

use crate::data::{dense_traffic, network_traffic, Feed, DATA_SEED};
use crate::spec::Metrics;
use crate::sys::RunDir;
use crate::util::{err, median_f64, SplitMix};
use crate::workloads::serve::{mine_request, EPS, K, M};
use crate::workloads::Ctx;
use k2hop::baselines::vcoda::vcoda_star;
use k2hop::cluster::{dbscan, recluster_with, DbscanParams, GridScratch};
use k2hop::core::{K2Config, K2HopParallel};
use k2hop::model::{Convoy, ConvoySet, Dataset, ObjPos, ObjectSet, Oid, Point, Time, TimeInterval};
use k2hop::server::protocol::{read_frame, write_frame};
use k2hop::server::{K2Service, LocalClient, Pattern, Request, Response, Server, TcpClient};
use k2hop::storage::{
    FlatFileStore, LsmConfig, LsmStore, RelationalStore, SharedLsm, SnapshotSource, TrajectoryStore,
};
use k2hop::MiningSession;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Mean nanoseconds of `f` over `iters` calls.
fn mean_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Median milliseconds of `f` over `runs` calls, after one discarded call.
fn median_ms(runs: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    f()?;
    let mut ms = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        f()?;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median_f64(&mut ms))
}

fn expect_ok(response: Response) -> Result<Response, String> {
    match response {
        Response::Error { message } => Err(format!("probe request failed: {message}")),
        other => Ok(other),
    }
}

/// Runs every probe and stores its metric.
pub fn run(ctx: Ctx, dir: &RunDir, out: &mut Metrics) -> Result<(), String> {
    // A fifth of the workload's time axis: large enough that a store
    // probe leaves the block cache, small enough to build in half a
    // second.
    let net = network_traffic(0.2 * ctx.scale);
    // As dense as `mem_dense`'s snapshots, a twentieth as long.
    let dense = dense_traffic(ctx.scale, 0.05);
    model(out);
    cluster(&dense, out)?;
    core_and_engines(&net, dir, out)?;
    storage(&net, dir, out)?;
    server(&net, dir, out)?;
    Ok(())
}

fn model(out: &mut Metrics) {
    let a = ObjectSet::from_sorted((0..64).map(|i| i * 2).collect());
    let b = ObjectSet::from_sorted((0..64).map(|i| i * 3).collect());
    out.set(
        "model.set_intersect_ns",
        mean_ns(200_000, || {
            black_box(black_box(&a).intersect(black_box(&b)));
        }),
    );
    // Candidates the way the merge phase meets them: small object sets
    // over overlapping lifespans, many of them sub-convoys of another.
    let mut rng = SplitMix::new(DATA_SEED);
    let candidates: Vec<Convoy> = (0..512)
        .map(|_| {
            let first = rng.below(180) as Oid;
            let ids: Vec<Oid> = (0..4 + rng.below(3) as Oid)
                .map(|i| first + i * (1 + rng.below(3) as Oid))
                .collect();
            let start = rng.below(400) as Time;
            Convoy::from_parts(
                ObjectSet::new(ids),
                start,
                start + 20 + rng.below(60) as Time,
            )
        })
        .collect();
    let per_set = mean_ns(40, || {
        let mut set = ConvoySet::new();
        for c in &candidates {
            set.update(c.clone());
        }
        black_box(set.len());
    });
    out.set(
        "model.convoyset_update_us",
        per_set / candidates.len() as f64 / 1e3,
    );
}

fn cluster(dense: &Dataset, out: &mut Metrics) -> Result<(), String> {
    let mid = dense.start() + dense.num_timestamps() as Time / 2;
    let snapshot: Vec<ObjPos> = dense
        .snapshot(mid)
        .ok_or("dense fixture has no middle snapshot")?
        .positions()
        .to_vec();
    let params = DbscanParams::new(3, 0.0006);
    out.set(
        "cluster.dbscan_snapshot_us",
        mean_ns(30, || {
            black_box(dbscan(black_box(&snapshot), params));
        }) / 1e3,
    );
    // A hop-window probe re-clusters a handful of candidate objects.
    let few = &snapshot[..snapshot.len().min(8)];
    let mut scratch = GridScratch::new();
    out.set(
        "cluster.recluster_probe_ns",
        mean_ns(100_000, || {
            black_box(recluster_with(black_box(few), params, &mut scratch));
        }),
    );
    let outcome = MiningSession::with_params(3, 20, 0.0006)
        .map_err(err)?
        .threads(1)
        .mine(dense)
        .map_err(err)?;
    let grid = outcome.stats.grid;
    out.set(
        "cluster.grid_patch_ratio",
        grid.grid_patches as f64 / (grid.grid_patches + grid.grid_builds).max(1) as f64,
    );
    Ok(())
}

/// The two parallel orchestrations no workload serves, the paper's two
/// other engines, and its headline baseline.
fn core_and_engines(net: &Dataset, dir: &RunDir, out: &mut Metrics) -> Result<(), String> {
    let config = K2Config::new(M as usize, K, EPS).map_err(err)?;
    let parallel = || MiningSession::new(config).engine(K2HopParallel::new(config, 2));
    out.set(
        "core.par_dataset_ms",
        median_ms(3, || parallel().mine(net).map(drop).map_err(err))?,
    );
    let store = LsmStore::bulk_load(dir.sub("probe-par"), net).map_err(err)?;
    let mut peak = 0;
    out.set(
        "core.par_store_ms",
        median_ms(3, || {
            peak = parallel()
                .mine(&store)
                .map_err(err)?
                .stats
                .prefetch
                .prefetch_bytes_peak;
            Ok(())
        })?,
    );
    out.set("core.prefetch_bytes_peak", peak as f64);
    drop(store);

    let session = MiningSession::new(config).threads(1);
    let t0 = Instant::now();
    let btree = RelationalStore::create(dir.path().join("probe.k2bt"), net).map_err(err)?;
    out.set("storage.btree.load_s", t0.elapsed().as_secs_f64());
    out.set(
        "storage.btree.mine_ms",
        median_ms(3, || session.mine(&btree).map(drop).map_err(err))?,
    );

    // The flat file answers every probe by scanning, and VCoDA* clusters
    // every snapshot: both get a slice they can finish.
    let slice_end = net.start() + (net.num_timestamps() as Time).min(400) - 1;
    let slice = net
        .restrict_time(TimeInterval::new(net.start(), slice_end))
        .ok_or("empty baseline slice")?;
    let flat = FlatFileStore::create(dir.path().join("probe.k2ff"), &slice).map_err(err)?;
    out.set(
        "storage.flat.mine_ms",
        median_ms(1, || session.mine(&flat).map(drop).map_err(err))?,
    );
    let vcoda_ms = median_ms(3, || {
        vcoda_star(&slice, M as usize, K, EPS)
            .map(drop)
            .map_err(err)
    })?;
    let k2_ms = median_ms(3, || session.mine(&slice).map(drop).map_err(err))?;
    out.set("baselines.vcoda_star_ms", vcoda_ms);
    out.set("baselines.k2_gain_x", vcoda_ms / k2_ms);
    Ok(())
}

/// `(t, oids)` probes spread over the span: eight objects that exist at
/// `t`, as a hop-window probe would ask for.
fn probe_keys(net: &Dataset, count: u32) -> Vec<(Time, Vec<Oid>)> {
    let span = net.span();
    (0..count)
        .filter_map(|i| {
            let t = span.start + (u64::from(span.len()) * u64::from(i) / u64::from(count)) as Time;
            let snapshot = net.snapshot(t)?.positions();
            let step = (snapshot.len() / 8).max(1);
            Some((
                t,
                snapshot
                    .iter()
                    .step_by(step)
                    .take(8)
                    .map(|p| p.oid)
                    .collect(),
            ))
        })
        .collect()
}

fn storage(net: &Dataset, dir: &RunDir, out: &mut Metrics) -> Result<(), String> {
    let shared =
        SharedLsm::bulk_load_with(dir.sub("probe-lsm"), net, LsmConfig::default()).map_err(err)?;
    let keys = probe_keys(net, 2000);
    let mut buf = Vec::new();
    {
        let store = shared.lock();
        store.reset_io_stats();
        let ns = mean_ns(1, || {
            for (t, oids) in &keys {
                store
                    .multi_get_into(*t, oids, &mut buf)
                    .expect("probe multi_get");
                black_box(buf.len());
            }
        });
        let io = store.io_stats();
        out.set("storage.lsm.multi_get_us", ns / keys.len() as f64 / 1e3);
        out.set(
            "storage.lsm.blocks_per_multi_get",
            (io.cache_hits + io.cache_misses) as f64 / keys.len() as f64,
        );
        let ns = mean_ns(1, || {
            for (t, _) in &keys {
                black_box(
                    store
                        .scan_snapshot_ref(*t, &mut buf)
                        .expect("probe scan")
                        .len(),
                );
            }
        });
        out.set("storage.lsm.scan_snapshot_us", ns / keys.len() as f64 / 1e3);
    }
    out.set(
        "storage.pin.pin_us",
        mean_ns(500, || {
            black_box(shared.pin().expect("probe pin").version());
        }) / 1e3,
    );
    let pin = shared.pin().map_err(err)?;
    let ns = mean_ns(1, || {
        for (t, oids) in &keys {
            pin.multi_get_into(*t, oids, &mut buf)
                .expect("probe pinned multi_get");
            black_box(buf.len());
        }
    });
    let io = pin.io_stats();
    out.set("storage.pin.multi_get_us", ns / keys.len() as f64 / 1e3);
    out.set(
        "storage.pin.blocks_per_multi_get",
        (io.cache_hits + io.cache_misses) as f64 / keys.len() as f64,
    );
    drop(pin);
    drop(shared);

    // The write path with its defaults: WAL append, memtable insert, and
    // the flush the 65 536th entry triggers.
    let mut fresh = LsmStore::create(dir.sub("probe-insert")).map_err(err)?;
    let points: Vec<Point> = net.iter_points().take(100_000).collect();
    let t0 = Instant::now();
    for p in &points {
        fresh.insert(*p).map_err(err)?;
    }
    out.set(
        "storage.lsm.insert_ns",
        t0.elapsed().as_nanos() as f64 / points.len() as f64,
    );
    Ok(())
}

fn server(net: &Dataset, dir: &RunDir, out: &mut Metrics) -> Result<(), String> {
    let span = net.span();
    let split = span.start + span.len() * 9 / 10;
    let (base, tail) = crate::data::split_at(net, split);
    let store = SharedLsm::bulk_load_with(dir.sub("probe-serve"), &base, LsmConfig::default())
        .map_err(err)?;
    let service = Arc::new(K2Service::new(store));
    let mut server = Server::bind("127.0.0.1:0", service.clone(), 2).map_err(err)?;
    let short_len = (base.span().len() / 8).max(2 * K).min(base.span().len());
    let short_window = (base.start(), base.start() + short_len - 1);
    let short = mine_request(short_window, Pattern::Convoy);
    let long = mine_request((base.start(), base.end()), Pattern::Convoy);
    let flock = mine_request(short_window, Pattern::Flock);

    let bytes = short.encode();
    out.set(
        "server.encode_req_ns",
        mean_ns(200_000, || {
            black_box(black_box(&short).encode());
        }),
    );
    out.set(
        "server.decode_req_ns",
        mean_ns(200_000, || {
            black_box(Request::decode(black_box(&bytes)).expect("probe request decodes"));
        }),
    );
    let reply = expect_ok(service.handle(long.clone()))?;
    let payload = reply.encode();
    out.set(
        "server.encode_reply_us",
        mean_ns(2000, || {
            black_box(black_box(&reply).encode());
        }) / 1e3,
    );
    out.set(
        "server.decode_reply_us",
        mean_ns(2000, || {
            black_box(Response::decode(black_box(&payload)).expect("probe reply decodes"));
        }) / 1e3,
    );
    let mut wire = Vec::with_capacity(payload.len() + 4);
    out.set(
        "server.frame_io_us",
        mean_ns(2000, || {
            wire.clear();
            write_frame(&mut wire, &payload).expect("frame to memory");
            black_box(read_frame(&mut wire.as_slice()).expect("frame from memory"));
        }) / 1e3,
    );
    out.set(
        "server.pool_dispatch_us",
        mean_ns(5000, || server.pool().run(|| ())) / 1e3,
    );

    let handle = |req: &Request| expect_ok(service.handle(req.clone())).map(drop);
    out.set("server.handle_short_ms", median_ms(15, || handle(&short))?);
    out.set("server.handle_long_ms", median_ms(7, || handle(&long))?);
    out.set(
        "patterns.flock_request_ms",
        median_ms(5, || handle(&flock))?,
    );
    let mut feed = Feed::new(tail);
    out.set(
        "server.handle_ingest_ms",
        median_ms(9, || {
            handle(&Request::Ingest {
                points: feed.next_batch(2048),
            })
        })?,
    );

    let local = LocalClient::with_pool(service.clone(), server.pool().clone());
    let local_ms = median_ms(15, || {
        local
            .request(&short)
            .map_err(err)
            .and_then(expect_ok)
            .map(drop)
    })?;
    out.set("server.local_rtt_short_ms", local_ms);
    // Back-to-back requests on one connection, the first few discarded:
    // the closed-loop pattern the serving workloads have.
    let mut tcp = TcpClient::connect(server.addr()).map_err(err)?;
    let mut rtt = |req: &Request, runs: usize| -> Result<f64, String> {
        for _ in 0..5 {
            tcp.request(req).map_err(err)?;
        }
        median_ms(runs, || {
            tcp.request(req).map_err(err).and_then(expect_ok).map(drop)
        })
    };
    out.set(
        "server.stats_rtt_ms",
        rtt(&Request::Stats { quiesce: false }, 21)?,
    );
    out.set("server.wire_overhead_ms", rtt(&short, 21)? - local_ms);
    drop(tcp);
    server.shutdown();
    Ok(())
}
