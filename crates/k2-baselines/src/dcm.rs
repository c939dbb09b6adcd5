//! DCM — Distributed Convoy Mining (Orakzai et al., MDM 2016).
//!
//! The paper's own earlier distributed algorithm (Figure 7g compares
//! k/2-hop against it on 1–4 nodes). DCM partitions the *time range* into
//! contiguous chunks that share one boundary timestamp, mines each chunk
//! locally with the CMC-style sweep, and merges partial convoys across
//! boundaries with the DCM merge — the same merge k/2-hop reuses for
//! spanning convoys (§4.4).
//!
//! "Nodes" are worker threads here, where the paper ran DCM on a cluster
//! of machines: the figures study how the sequential k/2-hop compares as
//! DCM's parallelism grows, which a thread pool on one machine
//! reproduces.
//!
//! Output semantics: maximal partially-connected convoys (DCM is
//! CMC-based).

use crate::BaselineResult;
use k2_cluster::{dbscan, DbscanParams};
use k2_model::{Convoy, ConvoySet, ObjPos, Time, TimeInterval};
use k2_storage::{SnapshotSource, StoreResult};

/// Runs DCM with `nodes` parallel workers.
pub fn mine<S: SnapshotSource + ?Sized>(
    store: &S,
    m: usize,
    k: u32,
    eps: f64,
    nodes: usize,
) -> StoreResult<BaselineResult> {
    let nodes = nodes.max(1);
    let span = store.span();
    let params = DbscanParams::new(m, eps);

    // Temporal partitioning: `nodes` chunks sharing boundary timestamps.
    let partitions = partition_span(span, nodes);

    // Data loading per partition (sequential I/O, as the HDFS read would
    // be), then parallel local mining.
    type PartitionInput = (TimeInterval, Vec<(Time, Vec<ObjPos>)>);
    let mut inputs: Vec<PartitionInput> = Vec::new();
    let mut points_processed = 0u64;
    let mut scan_buf = Vec::new();
    for part in &partitions {
        let mut snaps = Vec::with_capacity(part.len() as usize);
        for t in part.iter() {
            let snap = store.scan_snapshot_ref(t, &mut scan_buf)?.to_vec();
            points_processed += snap.len() as u64;
            snaps.push((t, snap));
        }
        inputs.push((*part, snaps));
    }

    let locals: Vec<Vec<Convoy>> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|(part, snaps)| scope.spawn(move || local_sweep(*part, snaps, params, k)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });

    // Merge across boundaries, left to right.
    let mut result = ConvoySet::new();
    let mut active: Vec<Convoy> = Vec::new();
    for (pi, local) in locals.iter().enumerate() {
        let part = partitions[pi];
        if pi == 0 {
            active = local.clone();
            continue;
        }
        let boundary = part.start; // shared with the previous partition
        let mut next_active = ConvoySet::new();
        for v in active.drain(..) {
            if v.end() != boundary {
                emit(&mut result, v, k);
                continue;
            }
            let mut extended_fully = false;
            for w in local {
                if w.start() != boundary {
                    continue;
                }
                let inter = v.objects.intersect(&w.objects);
                if inter.len() >= m {
                    if inter.len() == v.objects.len() {
                        extended_fully = true;
                    }
                    next_active.update(Convoy::from_parts(inter, v.start(), w.end()));
                }
            }
            if !extended_fully {
                emit(&mut result, v, k);
            }
        }
        for w in local {
            next_active.update(w.clone());
        }
        active = next_active.drain();
    }
    for v in active {
        emit(&mut result, v, k);
    }
    Ok(BaselineResult {
        convoys: result.into_sorted_vec(),
        points_processed,
        pre_validation: 0,
    })
}

fn emit(result: &mut ConvoySet, v: Convoy, k: u32) {
    if v.len() >= k {
        result.update(v);
    }
}

/// Splits `span` into `nodes` chunks; adjacent chunks share one boundary
/// timestamp so convoys can be stitched back together.
fn partition_span(span: TimeInterval, nodes: usize) -> Vec<TimeInterval> {
    let total = span.len() as u64;
    let nodes = (nodes as u64).min(total).max(1);
    let mut parts = Vec::with_capacity(nodes as usize);
    let mut start = span.start;
    for n in 0..nodes {
        let end = if n == nodes - 1 {
            span.end
        } else {
            span.start + ((n + 1) * total / nodes) as Time - 1
        };
        parts.push(TimeInterval::new(start, end));
        start = end; // share the boundary timestamp
    }
    parts
}

/// Local PCCD-style sweep over one partition's snapshots. Keeps convoys
/// that satisfy `k` *or* touch a partition boundary (they may merge).
fn local_sweep(
    part: TimeInterval,
    snaps: &[(Time, Vec<ObjPos>)],
    params: DbscanParams,
    k: u32,
) -> Vec<Convoy> {
    let mut active: Vec<Convoy> = Vec::new();
    let mut results = ConvoySet::new();
    let keep = |v: &Convoy| v.len() >= k || v.start() == part.start || v.end() == part.end;
    for (t, snap) in snaps {
        let clusters = dbscan(snap, params);
        let mut next = ConvoySet::new();
        for v in &active {
            let mut extended_fully = false;
            for c in &clusters {
                let inter = v.objects.intersect(c);
                if inter.len() >= params.min_pts {
                    if inter.len() == v.objects.len() {
                        extended_fully = true;
                    }
                    next.update(Convoy::from_parts(inter, v.start(), *t));
                }
            }
            if !extended_fully && keep(v) {
                results.update(v.clone());
            }
        }
        for c in &clusters {
            next.update(Convoy::new(c.clone(), TimeInterval::instant(*t)));
        }
        active = next.drain();
    }
    for v in active {
        if keep(&v) {
            results.update(v);
        }
    }
    results.into_sorted_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pccd;
    use k2_model::{Dataset, Point};
    use k2_storage::InMemoryStore;

    fn convoy_store(len: u32) -> InMemoryStore {
        let mut pts = Vec::new();
        for t in 0..len {
            for oid in 0..3u32 {
                pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
            }
            // Mid-dataset convoy of a different pair.
            for oid in 10..12u32 {
                let spread = if (8..len - 4).contains(&t) { 0.4 } else { 70.0 };
                pts.push(Point::new(
                    oid,
                    300.0 + (oid - 10) as f64 * spread,
                    t as f64,
                    t,
                ));
            }
        }
        InMemoryStore::new(Dataset::from_points(&pts).unwrap())
    }

    #[test]
    fn partitioning_shares_boundaries() {
        let parts = partition_span(TimeInterval::new(0, 99), 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].start, 0);
        assert_eq!(parts[3].end, 99);
        for w in parts.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn partitioning_with_more_nodes_than_timestamps() {
        let parts = partition_span(TimeInterval::new(0, 2), 10);
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn dcm_matches_pccd_on_any_node_count() {
        let store = convoy_store(30);
        let exact = pccd::mine(&store, 2, 6, 1.0).unwrap();
        for nodes in [1, 2, 3, 4, 7] {
            let dcm = mine(&store, 2, 6, 1.0, nodes).unwrap();
            assert_eq!(dcm.convoys, exact.convoys, "nodes = {nodes}");
        }
    }

    #[test]
    fn convoy_spanning_all_partitions_is_stitched() {
        let store = convoy_store(40);
        let res = mine(&store, 2, 35, 1.0, 4).unwrap();
        assert!(res
            .convoys
            .contains(&Convoy::from_parts([0u32, 1, 2], 0, 39)));
    }
}
