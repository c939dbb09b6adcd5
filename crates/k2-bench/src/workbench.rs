//! Timed, storage-aware algorithm runs.

use k2_baselines::{cuts::CutsParams, Algorithm, Baseline};
use k2_core::{ConvoyMiner, K2Config, K2Hop, MineOutcome};
use k2_model::Dataset;
use k2_storage::{
    FlatFileStore, InMemoryStore, LsmStore, MemoryBudget, RelationalStore, StoreError,
};
use std::path::PathBuf;
use std::time::Instant;

/// Which persistent store a k/2-hop run reads from (the paper's k2-File /
/// k2-RDBMS / k2-LSMT variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Flat file, fully loaded into memory first (k2-File).
    File,
    /// Clustered B+tree (k2-RDBMS).
    Rdbms,
    /// Log-structured merge-tree (k2-LSMT).
    Lsmt,
}

/// An algorithm under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// k/2-hop over the given engine.
    K2(Engine),
    /// VCoDA (PCCD + original DCVal), in-memory full scan.
    VCoda,
    /// VCoDA\* (PCCD + corrected validation), in-memory full scan.
    VCodaStar,
    /// Original CMC.
    Cmc,
    /// PCCD.
    Pccd,
    /// CuTS filter-and-refine (default λ/δ).
    Cuts,
    /// SPARE with the given worker-thread count.
    Spare(usize),
    /// DCM with the given node (thread) count.
    Dcm(usize),
}

impl Algo {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            Algo::K2(Engine::File) => "k2-File".into(),
            Algo::K2(Engine::Rdbms) => "k2-RDBMS".into(),
            Algo::K2(Engine::Lsmt) => "k2-LSMT".into(),
            Algo::VCoda => "VCoDA".into(),
            Algo::VCodaStar => "VCoDA*".into(),
            Algo::Cmc => "CMC".into(),
            Algo::Pccd => "PCCD".into(),
            Algo::Cuts => "CuTS".into(),
            Algo::Spare(t) => format!("SPARE({t})"),
            Algo::Dcm(n) => format!("DCM({n})"),
        }
    }

    /// The miner that runs `self` with `config`.
    fn miner(&self, config: K2Config) -> Box<dyn ConvoyMiner> {
        let algorithm = match *self {
            Algo::K2(_) => return Box::new(K2Hop::new(config)),
            Algo::VCoda => Algorithm::VCoda,
            Algo::VCodaStar => Algorithm::VCodaStar,
            Algo::Cmc => Algorithm::Cmc,
            Algo::Pccd => Algorithm::Pccd,
            Algo::Cuts => Algorithm::Cuts(CutsParams::default()),
            Algo::Spare(threads) => Algorithm::Spare(threads),
            Algo::Dcm(nodes) => Algorithm::Dcm(nodes),
        };
        Box::new(Baseline::new(config, algorithm))
    }
}

/// Outcome of one timed run.
#[derive(Debug)]
pub struct Run {
    /// Wall-clock seconds, k2-File's load included.
    pub secs: f64,
    /// What the miner reported.
    pub outcome: MineOutcome,
}

/// A dataset staged into every storage engine, ready for timed runs.
pub struct Workbench {
    /// Dataset name (for reports).
    pub name: String,
    /// The staged dataset.
    pub dataset: Dataset,
    dir: PathBuf,
    mem: InMemoryStore,
    flat: FlatFileStore,
    btree: RelationalStore,
    lsm: LsmStore,
    /// Memory budget applied to the in-memory loaders (VCoDA, k2-File) —
    /// bounded for the Brinkhoff-scale dataset to reproduce the paper's
    /// out-of-memory rows.
    pub budget: MemoryBudget,
}

impl Workbench {
    /// Stages `dataset` into a flat file, a B+tree and an LSM-tree under a
    /// temp directory.
    pub fn new(name: &str, dataset: Dataset) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "k2bench-{}-{}-{}",
            std::process::id(),
            name,
            dataset.num_points()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("bench temp dir");
        let flat = FlatFileStore::create(dir.join("data.bin"), &dataset).expect("flat store");
        let btree = RelationalStore::create(dir.join("data.k2bt"), &dataset).expect("btree store");
        let lsm = LsmStore::bulk_load(dir.join("lsm"), &dataset).expect("lsm store");
        let mem = InMemoryStore::new(dataset.clone());
        Self {
            name: name.to_string(),
            dataset,
            dir,
            mem,
            flat,
            btree,
            lsm,
            budget: MemoryBudget::unlimited(),
        }
    }

    /// Applies a memory budget to the in-memory loaders.
    pub fn with_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The in-memory store (for baselines that assume RAM-resident data).
    pub fn memory(&self) -> &InMemoryStore {
        &self.mem
    }

    /// The B+tree store.
    pub fn rdbms(&self) -> &RelationalStore {
        &self.btree
    }

    /// The LSM store.
    pub fn lsmt(&self) -> &LsmStore {
        &self.lsm
    }

    /// Runs `algo` with parameters `(m, k, eps)`. `Err` carries a crash
    /// reason (the paper's "VCoDA crashed / out of memory" cells).
    pub fn run(&self, algo: Algo, m: usize, k: u32, eps: f64) -> Result<Run, String> {
        let miner = algo.miner(K2Config::new(m, k, eps).map_err(|e| e.to_string())?);
        if matches!(algo, Algo::VCoda | Algo::VCodaStar) {
            self.budget
                .check(self.dataset.num_points() * 24)
                .map_err(|e| format!("crashed: {e}"))?;
        }
        let start = Instant::now();
        let outcome = match algo {
            Algo::K2(Engine::File) => {
                // k2-File: load the flat file fully, then mine in memory.
                let mem = self.flat.load_in_memory(self.budget).map_err(|e| match e {
                    StoreError::MemoryBudgetExceeded { .. } => format!("crashed: {e}"),
                    other => other.to_string(),
                })?;
                miner.mine(&mem)
            }
            Algo::K2(Engine::Rdbms) => miner.mine(&self.btree),
            Algo::K2(Engine::Lsmt) => miner.mine(&self.lsm),
            _ => miner.mine(&self.mem),
        }
        .map_err(|e| e.to_string())?;
        Ok(Run {
            secs: start.elapsed().as_secs_f64(),
            outcome,
        })
    }
}

impl Drop for Workbench {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median of a slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use k2_datagen::ConvoyInjector;

    fn bench_dataset() -> Dataset {
        ConvoyInjector::new(30, 40)
            .convoys(2, 4, 25)
            .seed(5)
            .generate()
    }

    #[test]
    fn all_algorithms_run_and_fc_ones_agree() {
        let wb = Workbench::new("unit", bench_dataset());
        let k2 = wb.run(Algo::K2(Engine::Rdbms), 3, 10, 1.0).unwrap();
        let vstar = wb.run(Algo::VCodaStar, 3, 10, 1.0).unwrap();
        assert_eq!(k2.outcome.convoys, vstar.outcome.convoys);
        assert!(!k2.outcome.convoys.is_empty());
        // (convoys, points processed, pre-validation convoys) per
        // algorithm: a counter wired to the wrong field changes a row.
        for (algo, want) in [
            (Algo::K2(Engine::File), (2, 680, 2)),
            (Algo::K2(Engine::Rdbms), (2, 680, 2)),
            (Algo::K2(Engine::Lsmt), (2, 680, 2)),
            (Algo::VCoda, (2, 1_720, 2)),
            (Algo::VCodaStar, (2, 1_720, 2)),
            (Algo::Cmc, (2, 1_520, 0)),
            (Algo::Pccd, (2, 1_520, 0)),
            (Algo::Cuts, (2, 1_912, 0)),
            (Algo::Spare(2), (2, 1_520, 0)),
            (Algo::Dcm(2), (2, 1_558, 0)),
        ] {
            let run = wb.run(algo, 3, 10, 1.0).unwrap();
            assert!(run.secs >= 0.0, "{}", algo.label());
            let stats = &run.outcome.stats;
            let got = (
                run.outcome.convoys.len(),
                stats.pruning.points_processed(),
                stats.pruning.pre_validation_convoys,
            );
            assert_eq!(got, want, "{}", algo.label());
            match algo {
                Algo::Spare(n) => assert_eq!((stats.engine, stats.threads), ("spare", n)),
                Algo::Dcm(n) => assert_eq!((stats.engine, stats.threads), ("dcm", n)),
                _ => {}
            }
        }
    }

    #[test]
    fn budget_crashes_memory_loaders_only() {
        let wb = Workbench::new("crash", bench_dataset()).with_budget(MemoryBudget::bytes(64));
        assert!(wb.run(Algo::K2(Engine::File), 3, 10, 1.0).is_err());
        assert!(wb.run(Algo::VCoda, 3, 10, 1.0).is_err());
        assert!(wb.run(Algo::VCodaStar, 3, 10, 1.0).is_err());
        // Disk-backed engines are unaffected.
        assert!(wb.run(Algo::K2(Engine::Rdbms), 3, 10, 1.0).is_ok());
        assert!(wb.run(Algo::K2(Engine::Lsmt), 3, 10, 1.0).is_ok());
    }

    #[test]
    fn statistics_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Algo::K2(Engine::Lsmt).label(), "k2-LSMT");
        assert_eq!(Algo::Spare(8).label(), "SPARE(8)");
        assert_eq!(Algo::VCodaStar.label(), "VCoDA*");
    }
}
