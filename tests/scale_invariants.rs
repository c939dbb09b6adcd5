//! How often a mine over a disk store reads a block it has read before,
//! with a block cache far smaller than the store.

mod common;

use common::TempDir;
use k2hop::core::{ConvoyMiner, K2Config, K2Hop};
use k2hop::datagen::brinkhoff::BrinkhoffConfig;
use k2hop::storage::{LsmConfig, LsmStore, TrajectoryStore};

/// A mine that runs HWMT, the merge and extension one hop-window at a
/// time reads each block about once, even when the cache holds a tenth
/// of the store: extension probes the blocks HWMT just read before they
/// are evicted.
///
/// The store is the benchmark's `lsm_cold` traffic at a tenth of its
/// length: 1 300 timestamps, 232 414 points, about 1 360 blocks of 170
/// points, under a 128-block cache. "Distinct" is what the same mine
/// reads from a cold store whose cache holds every block. At `k = 50`
/// the ratio was 1.47 when extension ran after every window had been
/// mined, and is 1.10 now.
#[test]
fn a_mine_reads_each_block_about_once() {
    let dataset = BrinkhoffConfig {
        max_time: 1_300,
        obj_begin: 300,
        obj_time: 5,
        ..BrinkhoffConfig::default()
    }
    .seed(42)
    .generate();
    let dir = TempDir::new("reread");
    drop(LsmStore::bulk_load(&dir, &dataset).unwrap());
    drop(dataset);

    let miner = K2Hop::with_threads(K2Config::new(2, 50, 600.0).unwrap(), 1);
    let cold_mine = |cache_blocks| {
        let store = LsmStore::open_with(
            &dir,
            LsmConfig {
                cache_blocks,
                ..LsmConfig::default()
            },
        )
        .unwrap();
        store.reset_io_stats();
        let outcome = miner.mine(&store).unwrap();
        (store, outcome)
    };

    let (whole, everything) = cold_mine(4_096);
    let distinct = everything.io.blocks_read;
    // The cache held every block: mining again reads none.
    whole.reset_io_stats();
    let again = miner.mine(&whole).unwrap();
    assert_eq!(again.io.blocks_read, 0, "the cache holds the store");
    drop(whole);

    let (_small, outcome) = cold_mine(128);
    assert_eq!(outcome.convoys, everything.convoys);
    // What this seeded mine finds and reads is pinned, so a change to
    // either cannot pass unseen.
    assert_eq!(
        (
            outcome.convoys.len(),
            outcome.stats.pruning.points_processed()
        ),
        (7, 14_627),
        "(convoys, points_processed)"
    );
    let reads = outcome.io.blocks_read;
    assert!(
        reads as f64 <= 1.2 * distinct as f64,
        "{reads} block reads for {distinct} distinct blocks ({:.2}x)",
        reads as f64 / distinct as f64
    );
}
