//! The memory bound of disk-resident mining, on a store that grows.
//!
//! `K2HopParallel` over a source that is not resident fetches its
//! hop-windows shard by shard, so what it holds at once is
//! `O(window x threads)` whatever the store's size. The counters are
//! logical (slab contents, fixed thread count), so the bound is asserted
//! exactly: the same Brinkhoff traffic stretched along the time axis —
//! objects keep arriving at one rate, so a snapshot stays as dense while
//! the point count grows sevenfold — must report one and the same
//! `prefetch_bytes_peak` at every size. Convoys and points processed
//! are pinned beside it, so a change to what a seeded mine reads cannot
//! pass unseen.
//!
//! The same traffic also bounds how often a mine reads a block it has
//! read before, with a block cache far smaller than the store.

use k2hop::core::{ConvoyMiner, K2Config, K2Hop, K2HopParallel};
use k2hop::datagen::brinkhoff::BrinkhoffConfig;
use k2hop::storage::{LsmConfig, LsmStore, TrajectoryStore};

/// Slab bytes held at the peak, at every size of the store.
const PREFETCH_PEAK: u64 = 40_128;

/// Worker threads: fixed, because a shard is `threads` windows.
const THREADS: usize = 4;

/// One size of the store and what mining it must report.
struct Size {
    max_time: u32,
    points: u64,
    /// `(shards, windows_fetched)`.
    prefetch: (u32, u32),
    /// `(convoys, points_processed)`.
    mined: (usize, u64),
}

#[test]
fn prefetch_peak_is_constant_while_the_store_grows() {
    let sizes = [
        Size {
            max_time: 325,
            points: 64_156,
            prefetch: (4, 16),
            mined: (9, 8_298),
        },
        Size {
            max_time: 650,
            points: 120_135,
            prefetch: (8, 32),
            mined: (16, 14_134),
        },
        Size {
            max_time: 1_300,
            points: 232_414,
            prefetch: (16, 59),
            mined: (23, 24_379),
        },
        Size {
            max_time: 2_600,
            points: 457_064,
            prefetch: (33, 119),
            mined: (42, 47_549),
        },
    ];
    let miner = K2HopParallel::new(K2Config::new(2, 40, 600.0).unwrap(), THREADS);
    for size in &sizes {
        let dataset = BrinkhoffConfig {
            max_time: size.max_time,
            obj_begin: 300,
            obj_time: 5,
            ..BrinkhoffConfig::default()
        }
        .seed(42)
        .generate();
        assert_eq!(dataset.num_points(), size.points, "t {}", size.max_time);
        let dir =
            std::env::temp_dir().join(format!("k2scale-{}-{}", std::process::id(), size.max_time));
        let _ = std::fs::remove_dir_all(&dir);
        let store = LsmStore::bulk_load(&dir, &dataset).unwrap();
        // From here on only the disk engine holds the points.
        drop(dataset);

        let outcome = miner.mine(&store).unwrap();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);

        let p = outcome.stats.prefetch;
        assert_eq!(
            (p.shards, p.windows_fetched),
            size.prefetch,
            "t {}: (shards, windows_fetched)",
            size.max_time
        );
        assert_eq!(
            (
                outcome.convoys.len(),
                outcome.stats.pruning.points_processed()
            ),
            size.mined,
            "t {}: (convoys, points_processed)",
            size.max_time
        );
        assert_eq!(
            p.prefetch_bytes_peak, PREFETCH_PEAK,
            "t {}: prefetch peak moved with the store's size",
            size.max_time
        );
    }
}

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
    let dir = std::env::temp_dir().join(format!("k2reread-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(outcome.convoys, everything.convoys);
    let reads = outcome.io.blocks_read;
    assert!(
        reads as f64 <= 1.2 * distinct as f64,
        "{reads} block reads for {distinct} distinct blocks ({:.2}x)",
        reads as f64 / distinct as f64
    );
}
