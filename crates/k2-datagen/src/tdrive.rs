//! T-Drive-like workload: city-grid taxi traffic.
//!
//! The real T-Drive release covers 10 357 Beijing taxis over one week,
//! ~15 M raw points (29 M after interpolation to a regular grid), mean
//! sampling interval ~177 s. This simulator reproduces the shape: taxis
//! random-walk a Manhattan street grid (degree-scale coordinates around
//! Beijing), a configurable fraction drives in platoons (airport queues,
//! depot shifts) that produce genuine convoys, and positions are emitted
//! at every timestamp (the "after interpolation" form the paper mines).

use k2_model::{Dataset, DatasetBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the T-Drive-like generator.
#[derive(Debug, Clone)]
pub struct TDriveConfig {
    /// Number of taxis.
    pub num_taxis: u32,
    /// Number of timestamps (one per interpolated sample).
    pub num_timestamps: u32,
    /// Fraction of taxis that drive in platoons of 3–6.
    pub platoon_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TDriveConfig {
    fn default() -> Self {
        // Full scale would be 10 357 × 2800 ≈ 29 M points; the default is
        // a laptop-friendly 1/20 scale in both axes (see "Paper
        // experiments" in the README).
        Self {
            num_taxis: 520,
            num_timestamps: 560,
            platoon_fraction: 0.06,
            seed: 0,
        }
    }
}

impl TDriveConfig {
    /// Scales taxis and duration by `sqrt(scale)` each (so points scale
    /// by `scale`).
    pub fn scaled(scale: f64) -> Self {
        let base = Self::default();
        let f = scale.sqrt();
        Self {
            num_taxis: ((base.num_taxis as f64 * f).round() as u32).max(8),
            num_timestamps: ((base.num_timestamps as f64 * f).round() as u32).max(20),
            ..base
        }
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7464726976);
        let mut b = DatasetBuilder::new();
        // Beijing-ish bounding box (degrees).
        let (lon0, lon1) = (116.20, 116.60);
        let (lat0, lat1) = (39.80, 40.10);
        // Street grid pitch ~0.004 degrees (~400 m); taxis move along
        // streets at ~one pitch per tick with pauses.
        let pitch = 0.004;
        let step = |rng: &mut StdRng| match rng.gen_range(0..5u8) {
            0 => (pitch, 0.0),
            1 => (-pitch, 0.0),
            2 => (0.0, pitch),
            3 => (0.0, -pitch),
            _ => (0.0, 0.0), // waiting for a fare
        };

        let mut oid = 0u32;
        let mut remaining = self.num_taxis;
        // Platoon groups first.
        let platooned = (self.num_taxis as f64 * self.platoon_fraction) as u32;
        let mut in_platoons = 0u32;
        while in_platoons < platooned {
            let size = rng.gen_range(3..=6u32).min(platooned - in_platoons).max(1);
            in_platoons += size;
            remaining -= size;
            // Platoon shares one walk; members offset along-track within
            // ~1e-4 degrees (inside the paper's mid eps).
            let mut lx = rng.gen_range(lon0..lon1);
            let mut ly = rng.gen_range(lat0..lat1);
            // The platoon drives together for a contiguous stretch and
            // disperses outside it.
            let stretch = self.num_timestamps / 2 + rng.gen_range(0..self.num_timestamps / 4);
            let start = rng.gen_range(0..=(self.num_timestamps - stretch));
            let mut scattered: Vec<(f64, f64)> = (0..size)
                .map(|_| (rng.gen_range(lon0..lon1), rng.gen_range(lat0..lat1)))
                .collect();
            for t in 0..self.num_timestamps {
                let (dx, dy) = step(&mut rng);
                lx = (lx + dx).clamp(lon0, lon1);
                ly = (ly + dy).clamp(lat0, lat1);
                for (i, s) in scattered.iter_mut().enumerate() {
                    if (start..start + stretch).contains(&t) {
                        b.record(
                            oid + i as u32,
                            lx + i as f64 * 5.0e-5,
                            ly + rng.gen_range(-2.0e-5..2.0e-5),
                            t,
                        );
                    } else {
                        let (dx, dy) = step(&mut rng);
                        s.0 = (s.0 + dx).clamp(lon0, lon1);
                        s.1 = (s.1 + dy).clamp(lat0, lat1);
                        b.record(oid + i as u32, s.0, s.1, t);
                    }
                }
            }
            oid += size;
        }
        // Independent taxis.
        for _ in 0..remaining {
            let mut x = rng.gen_range(lon0..lon1);
            let mut y = rng.gen_range(lat0..lat1);
            for t in 0..self.num_timestamps {
                b.record(oid, x, y, t);
                let (dx, dy) = step(&mut rng);
                x = (x + dx).clamp(lon0, lon1);
                y = (y + dy).clamp(lat0, lat1);
            }
            oid += 1;
        }
        b.build().expect("tdrive generator always emits points")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_counts() {
        let cfg = TDriveConfig::default();
        let d = cfg.seed(1).generate();
        let stats = d.stats();
        assert_eq!(stats.num_objects as u32, 520);
        assert_eq!(d.num_timestamps() as u32, 560);
        assert_eq!(stats.num_points, 520 * 560);
    }

    #[test]
    fn coordinates_inside_beijing_box() {
        let d = TDriveConfig::scaled(0.01).seed(2).generate();
        for (_, snap) in d.iter() {
            for p in snap.positions() {
                assert!((116.2..=116.6).contains(&p.x));
                assert!((39.8..=40.1).contains(&p.y));
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = TDriveConfig::scaled(0.02).seed(3).generate();
        let b = TDriveConfig::scaled(0.02).seed(3).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn platoons_exist_at_paper_eps() {
        let d = TDriveConfig::scaled(0.05).seed(4).generate();
        // At eps = 6e-4 some pair must co-travel for >= 1/4 of the span.
        let eps = 6.0e-4;
        let need = d.num_timestamps() as u32 / 4;
        let stats = d.stats();
        let mut found = false;
        'outer: for a in 0..stats.num_objects as u32 {
            for b2 in (a + 1)..stats.num_objects as u32 {
                let mut streak = 0u32;
                for (_, snap) in d.iter() {
                    let close = match (snap.get(a), snap.get(b2)) {
                        (Some(p), Some(q)) => p.dist(q) <= eps,
                        _ => false,
                    };
                    streak = if close { streak + 1 } else { 0 };
                    if streak >= need {
                        found = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(found, "no sustained platoon pair found");
    }
}
