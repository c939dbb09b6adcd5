//! Movement patterns beyond convoys — the paper's §7 future work in
//! action: convoys and flocks (with k/2-hop acceleration) on the same
//! workload, illustrating how the two pattern definitions differ.
//!
//! ```sh
//! cargo run --release --example patterns
//! ```

use k2hop::patterns::FlockMiner;
use k2hop::prelude::*;
use std::time::Instant;

fn main() {
    // A hiking column: eight walkers in single file, 0.8 apart — plus a
    // peloton of four riding within a tight 1-unit circle, plus churn
    // traffic where group membership rotates.
    let mut b = DatasetBuilder::new();
    for t in 0..60u32 {
        // The column (density-connected chain, too long for one disk).
        for i in 0..8u32 {
            b.record(i, t as f64 + i as f64 * 0.8, 0.0, t);
        }
        // The peloton (fits a radius-1 disk).
        for i in 0..4u32 {
            b.record(
                20 + i,
                t as f64 * 1.2 + (i % 2) as f64 * 0.8,
                50.0 + (i / 2) as f64 * 0.8,
                t,
            );
        }
        // Churn group: five members, one swapped every 20 ticks. Both
        // patterns fix their members, so each sees overlapping pieces.
        let phase = t / 20;
        let members: Vec<u32> = (phase..5).chain(5..5 + phase).map(|i| 40 + i).collect();
        for (i, &oid) in members.iter().enumerate() {
            b.record(oid, 200.0 + t as f64 + i as f64 * 0.5, 100.0, t);
        }
    }
    let dataset = b.build().expect("non-empty");

    // --- Convoys (density-based, fixed members) ---
    let convoys = MiningSession::with_params(4, 30, 1.0)
        .expect("config")
        .mine(&dataset)
        .expect("mining")
        .convoys;
    println!("convoys (m=4, k=30, eps=1):");
    for c in &convoys {
        println!("  {:?} over {}", c.objects, c.lifespan);
    }

    // --- Flocks (disk-based): the column is NOT a flock, the peloton is ---
    // A pattern is an engine: the session runs k/2-hop with a disk
    // grouping (eps is the radius), and its exact full sweep
    // cross-checks it.
    let config = K2Config::new(4, 30, 1.0).expect("config");
    let miner = FlockMiner::new(config);
    let t0 = Instant::now();
    let flocks_sweep = miner.mine_sweep(&dataset);
    let sweep_time = t0.elapsed();
    let t0 = Instant::now();
    let flocks_hop = MiningSession::new(config)
        .engine(miner)
        .mine(&dataset)
        .expect("mining")
        .convoys;
    let hop_time = t0.elapsed();
    assert_eq!(flocks_sweep, flocks_hop, "accelerated flock miner is exact");
    println!("\nflocks (m=4, k=30, r=1):");
    for f in &flocks_hop {
        println!("  {:?} over {}", f.objects, f.lifespan);
    }
    println!("  full sweep {sweep_time:?} vs k/2-hop {hop_time:?}");
    assert!(
        flocks_hop.iter().all(|f| !f.objects.contains(0)),
        "the 8-walker column must not be a flock (no radius-1 disk covers it)"
    );
}
