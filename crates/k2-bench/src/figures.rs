//! One function per table/figure of the paper's evaluation (§6).
//!
//! Every function prints a small CSV (comment lines start with `#`) whose
//! rows correspond to the series the paper plots. Absolute numbers differ
//! from the paper (different hardware/language/synthetic data — see
//! "Paper experiments" in the README); the *shapes* are the reproduction
//! target.

use crate::workbench::{mean, median, Algo, Engine, Workbench};
use crate::{env_scale, env_seed};
use k2_datagen::brinkhoff::BrinkhoffConfig;
use k2_datagen::tdrive::TDriveConfig;
use k2_datagen::trucks::TrucksConfig;
use k2_datagen::ConvoyInjector;
use k2_storage::MemoryBudget;

/// Every experiment id, in paper order.
pub const ALL: &[&str] = &[
    "table4", "table5", "fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig7f", "fig7g", "fig7h",
    "fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f", "fig8g", "fig8h", "fig8i", "fig8j",
    "fig8k", "fig8l", "ablation",
];

/// Runs one experiment by id; `false` for an unknown id.
pub fn run(id: &str) -> bool {
    match id {
        "table4" => table4(),
        "table5" => table5(),
        "fig7a" => fig7a(),
        "fig7b" => fig7b(),
        "fig7c" => fig7c(),
        "fig7d" => fig7d(),
        "fig7e" => fig7e(),
        "fig7f" => fig7f(),
        "fig7g" => fig7g(),
        "fig7h" => fig7h(),
        "fig8a" => fig8a(),
        "fig8b" => fig8b(),
        "fig8c" => fig8c(),
        "fig8d" => fig8d(),
        "fig8e" => fig8e(),
        "fig8f" => fig8f(),
        "fig8g" => fig8g(),
        "fig8h" => fig8h(),
        "fig8i" => fig8i(),
        "fig8j" => fig8j(),
        "fig8k" => fig8k(),
        "fig8l" => fig8l(),
        "ablation" => ablation(),
        _ => return false,
    }
    true
}

// ---------------------------------------------------------------------
// Dataset presets (laptop-scale renditions of the paper's datasets; the
// K2_SCALE env var grows them towards the original sizes).
// ---------------------------------------------------------------------

/// Parameter grid per dataset: the k sweep, eps presets (low/mid/high)
/// and m presets of the paper, plus the "default" midpoint configuration.
struct Preset {
    ks: &'static [u32],
    epss: [f64; 3],
    ms: [usize; 3],
    default_m: usize,
    default_k: u32,
    default_eps: f64,
}

const TRUCKS_PRESET: Preset = Preset {
    ks: &[200, 400, 600, 800, 1000, 1200],
    epss: [6.0e-6, 6.0e-5, 6.0e-4],
    ms: [3, 6, 9],
    default_m: 3,
    default_k: 600,
    default_eps: 6.0e-5,
};

const TDRIVE_PRESET: Preset = Preset {
    ks: &[200, 400, 600, 800, 1000, 1200],
    epss: [6.0e-6, 6.0e-5, 6.0e-4],
    ms: [3, 6, 9],
    default_m: 3,
    default_k: 400,
    default_eps: 6.0e-5,
};

const BRINKHOFF_PRESET: Preset = Preset {
    // Trips in the scaled network last tens of ticks, so the meaningful
    // k range sits below the Trucks/T-Drive sweeps (scaled from the
    // paper's 200–1200 proportionally to MaxTime).
    ks: &[40, 80, 120, 160, 200, 240],
    epss: [30.0, 100.0, 300.0],
    ms: [3, 6, 9],
    default_m: 3,
    default_k: 80,
    default_eps: 100.0,
};

fn trucks_wb() -> Workbench {
    let days = ((4.0 * env_scale()).round() as u32).max(2);
    let d = TrucksConfig {
        days,
        trucks_per_day: 24,
        ..TrucksConfig::default()
    }
    .seed(env_seed())
    .generate();
    Workbench::new("trucks", d)
}

fn tdrive_wb() -> Workbench {
    let taxis = ((260.0 * env_scale()).round() as u32).max(20);
    let d = TDriveConfig {
        num_taxis: taxis,
        num_timestamps: 1400,
        ..TDriveConfig::default()
    }
    .seed(env_seed())
    .generate();
    Workbench::new("tdrive", d)
}

fn brinkhoff_wb() -> Workbench {
    let cfg = BrinkhoffConfig {
        max_time: 1300,
        obj_begin: ((300.0 * env_scale()).round() as u32).max(50),
        obj_time: ((5.0 * env_scale()).round() as u32).max(1),
        ..BrinkhoffConfig::default()
    }
    .seed(env_seed());
    let d = cfg.generate();
    // The paper's VCoDA and k2-File crash on the Brinkhoff dataset; a
    // bounded memory budget reproduces that on the in-memory loaders.
    let budget = MemoryBudget::bytes(d.num_points() * 24 / 2);
    Workbench::new("brinkhoff", d).with_budget(budget)
}

fn secs_or_crash(wb: &Workbench, algo: Algo, m: usize, k: u32, eps: f64) -> Option<f64> {
    match wb.run(algo, m, k, eps) {
        Ok(run) => Some(run.secs),
        Err(reason) => {
            println!("# {} {}: {reason}", wb.name, algo.label());
            None
        }
    }
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// Table 4: Brinkhoff dataset properties (configured + measured).
fn table4() {
    let cfg = BrinkhoffConfig {
        max_time: 1300,
        obj_begin: ((300.0 * env_scale()).round() as u32).max(50),
        obj_time: ((5.0 * env_scale()).round() as u32).max(1),
        ..BrinkhoffConfig::default()
    }
    .seed(env_seed());
    let (d, network) = cfg.generate_with_network();
    let stats = d.stats();
    println!("# table4: Brinkhoff dataset properties (paper values at full scale in parentheses)");
    println!("property,value,paper");
    println!("MaxTime,{},25000", cfg.max_time);
    println!("ObjBegin,{},5000", cfg.obj_begin);
    println!("ObjTime,{},100", cfg.obj_time);
    println!("data space width,{},23572", cfg.space.0);
    println!("data space height,{},26915", cfg.space.1);
    println!("number of nodes,{},6105", network.num_nodes());
    println!("number of edges,{},7035", network.num_edges());
    println!("moving objects,{},2505000", stats.num_objects);
    println!("points,{},122014762", stats.num_points);
}

/// One data set's row of Table 5: the fewest and the most points k/2-hop
/// processed over the (m, k, eps) grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table5Row {
    /// Data set name.
    pub dataset: String,
    /// Points in the data set.
    pub total_points: u64,
    /// Points processed by the grid's best-pruned run.
    pub min_processed: u64,
    /// Points processed by the grid's worst-pruned run.
    pub max_processed: u64,
}

impl Table5Row {
    /// Share of the data set, in percent, that a run processing
    /// `processed` points never touched.
    pub fn pruning_pct(&self, processed: u64) -> f64 {
        100.0 * (1.0 - processed.min(self.total_points) as f64 / self.total_points as f64)
    }
}

/// Table 5's rows: data-pruning performance across the (m, k, eps) grid.
pub fn table5_rows() -> Vec<Table5Row> {
    [
        (trucks_wb(), &TRUCKS_PRESET),
        (tdrive_wb(), &TDRIVE_PRESET),
        (brinkhoff_wb(), &BRINKHOFF_PRESET),
    ]
    .into_iter()
    .map(|(wb, preset)| {
        let mut processed: Vec<u64> = Vec::new();
        for &m in &preset.ms {
            for &k in preset.ks.iter().step_by(2) {
                for &eps in &preset.epss {
                    if let Ok(run) = wb.run(Algo::K2(Engine::Rdbms), m, k, eps) {
                        processed.push(run.outcome.stats.pruning.points_processed());
                    }
                }
            }
        }
        Table5Row {
            dataset: wb.name.clone(),
            total_points: wb.dataset.num_points(),
            min_processed: processed.iter().min().copied().unwrap_or(0),
            max_processed: processed.iter().max().copied().unwrap_or(0),
        }
    })
    .collect()
}

/// Table 5, printed.
fn table5() {
    println!("# table5: k/2-hop pruning performance");
    println!("dataset,total_points,min_processed,max_processed,min_pruning_pct,max_pruning_pct");
    for row in table5_rows() {
        println!(
            "{},{},{},{},{:.2},{:.2}",
            row.dataset,
            row.total_points,
            row.min_processed,
            row.max_processed,
            row.pruning_pct(row.max_processed),
            row.pruning_pct(row.min_processed)
        );
    }
}

// ---------------------------------------------------------------------
// Figure 7: gains over VCoDA*, SPARE, DCM; engine comparison
// ---------------------------------------------------------------------

/// Gain of k2-RDBMS / k2-LSMT over VCoDA* vs k, min/mean/median/max over
/// the (m, eps) grid.
fn gain_over_vcoda_star(wb: &Workbench, preset: &Preset) {
    println!("k,engine,min_gain,mean_gain,median_gain,max_gain");
    for &k in preset.ks {
        let mut gains_rdbms = Vec::new();
        let mut gains_lsmt = Vec::new();
        for &m in &preset.ms {
            for &eps in &preset.epss {
                let Some(base) = secs_or_crash(wb, Algo::VCodaStar, m, k, eps) else {
                    continue;
                };
                if let Some(t) = secs_or_crash(wb, Algo::K2(Engine::Rdbms), m, k, eps) {
                    gains_rdbms.push(base / t.max(1e-9));
                }
                if let Some(t) = secs_or_crash(wb, Algo::K2(Engine::Lsmt), m, k, eps) {
                    gains_lsmt.push(base / t.max(1e-9));
                }
            }
        }
        for (engine, gains) in [("k2-RDBMS", &gains_rdbms), ("k2-LSMT", &gains_lsmt)] {
            if gains.is_empty() {
                continue;
            }
            let min = gains.iter().copied().fold(f64::MAX, f64::min);
            let max = gains.iter().copied().fold(f64::MIN, f64::max);
            println!(
                "{k},{engine},{min:.2},{:.2},{:.2},{max:.2}",
                mean(gains),
                median(gains)
            );
        }
    }
}

/// Figure 7a: performance gain over VCoDA\* (Trucks).
fn fig7a() {
    println!("# fig7a: gain over VCoDA* vs k (Trucks)");
    gain_over_vcoda_star(&trucks_wb(), &TRUCKS_PRESET);
}

/// Figure 7b: performance gain over VCoDA\* (T-Drive).
fn fig7b() {
    println!("# fig7b: gain over VCoDA* vs k (T-Drive)");
    gain_over_vcoda_star(&tdrive_wb(), &TDRIVE_PRESET);
}

/// Figure 7c: k2-RDBMS vs k2-LSMT runtime vs k (Brinkhoff).
fn fig7c() {
    println!("# fig7c: k2-RDBMS vs k2-LSMT runtime vs k (Brinkhoff)");
    println!("k,k2_rdbms_s,k2_lsmt_s");
    let wb = brinkhoff_wb();
    let p = &BRINKHOFF_PRESET;
    for &k in p.ks {
        let a = secs_or_crash(&wb, Algo::K2(Engine::Rdbms), p.default_m, k, p.default_eps);
        let b = secs_or_crash(&wb, Algo::K2(Engine::Lsmt), p.default_m, k, p.default_eps);
        if let (Some(a), Some(b)) = (a, b) {
            println!("{k},{a:.4},{b:.4}");
        }
    }
}

/// Gain of (sequential) k/2-hop over SPARE as SPARE's thread count grows.
fn gain_over_spare(threads: &[usize]) {
    println!("threads,dataset,gain");
    for (wb, preset) in [
        (trucks_wb(), &TRUCKS_PRESET),
        (brinkhoff_wb(), &BRINKHOFF_PRESET),
        (tdrive_wb(), &TDRIVE_PRESET),
    ] {
        let (m, k, eps) = (preset.default_m, preset.default_k, preset.default_eps);
        let Some(k2) = secs_or_crash(&wb, Algo::K2(Engine::Rdbms), m, k, eps) else {
            continue;
        };
        for &t in threads {
            if let Some(spare) = secs_or_crash(&wb, Algo::Spare(t), m, k, eps) {
                println!("{t},{},{:.2}", wb.name, spare / k2.max(1e-9));
            }
        }
    }
}

/// Figure 7d: gain over SPARE, single machine (1–8 cores).
fn fig7d() {
    println!("# fig7d: k/2-hop gain over SPARE, single machine");
    gain_over_spare(&[1, 2, 3, 4, 5, 6, 7, 8]);
}

/// Figure 7e: gain over SPARE, scale-out "YARN" setup (2–16 cores).
fn fig7e() {
    println!("# fig7e: k/2-hop gain over SPARE, scale-out (thread-pool stand-in for YARN)");
    gain_over_spare(&[2, 4, 6, 8, 10, 12, 14, 16]);
}

/// Figure 7f: gain over SPARE, scale-up "NUMA" setup (8–32 cores).
fn fig7f() {
    println!("# fig7f: k/2-hop gain over SPARE, scale-up (thread-pool stand-in for NUMA)");
    gain_over_spare(&[8, 16, 24, 32]);
}

/// Figure 7g: gain over DCM on 1–4 nodes.
fn fig7g() {
    println!("# fig7g: k/2-hop gain over DCM (nodes = worker threads)");
    println!("nodes,dataset,gain");
    for (wb, preset) in [
        (trucks_wb(), &TRUCKS_PRESET),
        (brinkhoff_wb(), &BRINKHOFF_PRESET),
        (tdrive_wb(), &TDRIVE_PRESET),
    ] {
        let (m, k, eps) = (preset.default_m, preset.default_k, preset.default_eps);
        let Some(k2) = secs_or_crash(&wb, Algo::K2(Engine::Rdbms), m, k, eps) else {
            continue;
        };
        for nodes in 1..=4usize {
            if let Some(dcm) = secs_or_crash(&wb, Algo::Dcm(nodes), m, k, eps) {
                println!("{nodes},{},{:.2}", wb.name, dcm / k2.max(1e-9));
            }
        }
    }
}

/// Runtime vs k for the five §6.3.5 algorithms on one dataset.
fn runtime_vs_k(wb: &Workbench, preset: &Preset) {
    println!("k,algo,seconds");
    let algos = [
        Algo::VCoda,
        Algo::VCodaStar,
        Algo::K2(Engine::File),
        Algo::K2(Engine::Rdbms),
        Algo::K2(Engine::Lsmt),
    ];
    for &k in preset.ks {
        for algo in algos {
            if let Some(s) = secs_or_crash(wb, algo, preset.default_m, k, preset.default_eps) {
                println!("{k},{},{s:.4}", algo.label());
            }
        }
    }
}

/// Figure 7h: Trucks — effect of k on runtime, all algorithms.
fn fig7h() {
    println!("# fig7h: runtime vs k (Trucks)");
    runtime_vs_k(&trucks_wb(), &TRUCKS_PRESET);
}

// ---------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------

/// Figure 8a: T-Drive — effect of k.
fn fig8a() {
    println!("# fig8a: runtime vs k (T-Drive)");
    runtime_vs_k(&tdrive_wb(), &TDRIVE_PRESET);
}

/// Figure 8b: Brinkhoff — effect of k (VCoDA / k2-File crash here).
fn fig8b() {
    println!("# fig8b: runtime vs k (Brinkhoff; memory-bounded loaders crash)");
    runtime_vs_k(&brinkhoff_wb(), &BRINKHOFF_PRESET);
}

/// Runtime vs m for the five algorithms.
fn runtime_vs_m(wb: &Workbench, preset: &Preset) {
    println!("m,algo,seconds");
    let algos = [
        Algo::VCoda,
        Algo::VCodaStar,
        Algo::K2(Engine::File),
        Algo::K2(Engine::Rdbms),
        Algo::K2(Engine::Lsmt),
    ];
    for &m in &preset.ms {
        for algo in algos {
            if let Some(s) = secs_or_crash(wb, algo, m, preset.default_k, preset.default_eps) {
                println!("{m},{},{s:.4}", algo.label());
            }
        }
    }
}

/// Figure 8c: Trucks — effect of m.
fn fig8c() {
    println!("# fig8c: runtime vs m (Trucks)");
    runtime_vs_m(&trucks_wb(), &TRUCKS_PRESET);
}

/// Figure 8d: T-Drive — effect of m.
fn fig8d() {
    println!("# fig8d: runtime vs m (T-Drive)");
    runtime_vs_m(&tdrive_wb(), &TDRIVE_PRESET);
}

/// Figure 8e: Brinkhoff — effect of m.
fn fig8e() {
    println!("# fig8e: runtime vs m (Brinkhoff)");
    runtime_vs_m(&brinkhoff_wb(), &BRINKHOFF_PRESET);
}

/// Runtime vs eps for the five algorithms.
fn runtime_vs_eps(wb: &Workbench, preset: &Preset) {
    println!("eps,algo,seconds");
    let algos = [
        Algo::VCoda,
        Algo::VCodaStar,
        Algo::K2(Engine::File),
        Algo::K2(Engine::Rdbms),
        Algo::K2(Engine::Lsmt),
    ];
    for &eps in &preset.epss {
        for algo in algos {
            if let Some(s) = secs_or_crash(wb, algo, preset.default_m, preset.default_k, eps) {
                println!("{eps},{},{s:.4}", algo.label());
            }
        }
    }
}

/// Figure 8f: Trucks — effect of eps.
fn fig8f() {
    println!("# fig8f: runtime vs eps (Trucks)");
    runtime_vs_eps(&trucks_wb(), &TRUCKS_PRESET);
}

/// Figure 8g: T-Drive — effect of eps.
fn fig8g() {
    println!("# fig8g: runtime vs eps (T-Drive)");
    runtime_vs_eps(&tdrive_wb(), &TDRIVE_PRESET);
}

/// Figure 8h: Brinkhoff — effect of eps.
fn fig8h() {
    println!("# fig8h: runtime vs eps (Brinkhoff)");
    runtime_vs_eps(&brinkhoff_wb(), &BRINKHOFF_PRESET);
}

/// Figure 8i: execution time of the k2-LSMT phases vs k.
fn fig8i() {
    println!("# fig8i: k2-LSMT phase breakdown vs k (Trucks)");
    println!("k,phase,seconds");
    let wb = trucks_wb();
    let p = &TRUCKS_PRESET;
    for &k in p.ks {
        if let Ok(run) = wb.run(Algo::K2(Engine::Lsmt), p.default_m, k, p.default_eps) {
            for (label, d) in run.outcome.stats.timings.rows() {
                println!("{k},{label},{:.6}", d.as_secs_f64());
            }
        }
    }
}

/// Figure 8j: pre-validation convoy counts, k2-LSMT vs VCoDA.
fn fig8j() {
    println!("# fig8j: pre-validation convoys vs k (Trucks)");
    println!("k,algo,pre_validation_convoys");
    let wb = trucks_wb();
    let p = &TRUCKS_PRESET;
    for &k in p.ks {
        for algo in [Algo::K2(Engine::Lsmt), Algo::VCoda] {
            if let Ok(run) = wb.run(algo, p.default_m, k, p.default_eps) {
                let pre = run.outcome.stats.pruning.pre_validation_convoys;
                println!("{k},{},{pre}", algo.label());
            }
        }
    }
}

/// Figure 8k: effect of the number of convoys in the dataset.
fn fig8k() {
    println!("# fig8k: runtime vs planted convoy count (injected Trucks-scale workload)");
    println!("convoys,engine,seconds");
    for count in [6u32, 8, 10, 49, 161] {
        let d = ConvoyInjector::new(150, 2000)
            .convoys(count, 4, 400)
            .seed(env_seed())
            .generate();
        let wb = Workbench::new("injected", d);
        for engine in [Engine::Rdbms, Engine::Lsmt] {
            if let Some(s) = secs_or_crash(&wb, Algo::K2(engine), 3, 300, 1.0) {
                println!("{count},{},{s:.4}", Algo::K2(engine).label());
            }
        }
    }
}

/// Extra (not in the paper): ablation of the HWMT binary-tree probe
/// order (§4.3) against a plain left-to-right sweep, on a workload full
/// of coincidental togetherness — groups that cluster near benchmark
/// points but break somewhere inside each hop-window.
fn ablation() {
    use k2_core::benchpoints::{benchmark_points, linear_order};
    use k2_core::candidates::{candidate_clusters, cluster_benchmark};
    use k2_core::hwmt::mine_window_ordered;
    use k2_storage::InMemoryStore;

    println!("# ablation: HWMT probe order, binary-tree vs linear (coincidental togetherness)");
    println!("order,windows,timestamps_probed,points_fetched,spanning_convoys");
    // Hand-built coincidental togetherness: twelve triples that bunch up
    // around every benchmark timestamp (multiples of h = 50) but scatter
    // inside the windows — exactly the pattern §4.3's heuristic targets.
    let k = 100u32;
    let h = k / 2;
    let mut pts = Vec::new();
    for t in 0..1000u32 {
        let near_benchmark = (t % h) <= 5 || (t % h) >= h - 5;
        for g in 0..12u32 {
            for i in 0..3u32 {
                let oid = g * 3 + i;
                let (x, y) = if near_benchmark {
                    (g as f64 * 100.0 + i as f64 * 0.4, 0.0)
                } else {
                    // Scattered: each member in its own distant cell.
                    (
                        5_000.0 + oid as f64 * 40.0,
                        (t % 7) as f64 * 13.0 + g as f64,
                    )
                };
                pts.push(k2_model::Point::new(oid, x, y, t));
            }
        }
    }
    let d = k2_model::Dataset::from_points(&pts).expect("non-empty");
    let store = InMemoryStore::new(d);
    let params = k2_cluster::DbscanParams::new(3, 1.0);
    let bench = benchmark_points(k2_storage::SnapshotSource::span(&store), k / 2);
    let clusters: Vec<_> = bench
        .iter()
        .map(|&b| cluster_benchmark(&store, params, b).expect("in-memory").0)
        .collect();
    for (name, order) in [
        ("binary", k2_core::benchpoints::hwmt_order as fn(_) -> _),
        ("linear", linear_order as fn(_) -> _),
    ] {
        let (mut windows, mut probed, mut fetched, mut spanning) = (0u32, 0u32, 0u64, 0u32);
        for (w, pair) in clusters.windows(2).enumerate() {
            let cc = candidate_clusters(&pair[0], &pair[1], 3);
            if cc.is_empty() {
                continue;
            }
            windows += 1;
            let res = mine_window_ordered(&store, params, bench[w], bench[w + 1], &cc, order)
                .expect("in-memory");
            probed += res.timestamps_probed;
            fetched += res.points_fetched;
            spanning += res.spanning.len() as u32;
        }
        println!("{name},{windows},{probed},{fetched},{spanning}");
    }
}

/// Figure 8l: data-size scalability.
fn fig8l() {
    println!("# fig8l: runtime vs data size (T-Drive-like, growing taxi fleet)");
    println!("points,algo,seconds");
    for mult in [0.5f64, 1.0, 2.0, 4.0] {
        let taxis = ((260.0 * env_scale() * mult).round() as u32).max(20);
        let d = TDriveConfig {
            num_taxis: taxis,
            num_timestamps: 1400,
            ..TDriveConfig::default()
        }
        .seed(env_seed())
        .generate();
        let points = d.num_points();
        let wb = Workbench::new("tdrive-scale", d);
        let p = &TDRIVE_PRESET;
        for algo in [
            Algo::VCodaStar,
            Algo::K2(Engine::Rdbms),
            Algo::K2(Engine::Lsmt),
        ] {
            if let Some(s) = secs_or_crash(&wb, algo, p.default_m, p.default_k, p.default_eps) {
                println!("{points},{},{s:.4}", algo.label());
            }
        }
    }
}
