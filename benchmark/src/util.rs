//! Small numeric helpers: a seeded generator for schedules, an FNV-1a
//! hasher for schedule and result fingerprints, and the percentile /
//! class-layout arithmetic the latency metrics rest on.

/// SplitMix64 — the schedule generator. Hand-rolled so a schedule
/// depends on nothing but `--seed` and this file.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is irrelevant at
    /// schedule sizes.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a over `u64` words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// An error as the message `main` prints.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nearest-rank percentile of an ascending slice (`0 < p <= 1`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Which cost class the `p`-th percentile falls in, given how many
/// operations of each class (cheapest first) one cycle holds — or
/// `None` when it sits on a class boundary, where the percentile would
/// flip between two classes from run to run.
///
/// The margin keeps a percentile at least 5 % of the sample away from
/// any boundary, so a few stragglers cannot carry it across.
pub fn class_of_percentile(cycle_counts: &[u32], p: f64) -> Option<usize> {
    const MARGIN: f64 = 0.05;
    let total: u32 = cycle_counts.iter().sum();
    let mut lo = 0.0;
    for (class, &count) in cycle_counts.iter().enumerate() {
        let hi = lo + f64::from(count) / f64::from(total);
        if p > lo + MARGIN && p < hi - MARGIN {
            return Some(class);
        }
        lo = hi;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.5), 5);
        assert_eq!(percentile(&v, 0.9), 9);
        assert_eq!(percentile(&v, 1.0), 10);
        assert_eq!(percentile(&[7], 0.5), 7);
    }

    #[test]
    fn both_layouts_keep_p50_and_p90_inside_one_class() {
        // 4 short : 1 long — the socket workloads.
        assert_eq!(class_of_percentile(&[4, 1], 0.5), Some(0));
        assert_eq!(class_of_percentile(&[4, 1], 0.9), Some(1));
        // Five equal-count classes — the batch workloads.
        assert_eq!(class_of_percentile(&[1; 5], 0.5), Some(2));
        assert_eq!(class_of_percentile(&[1; 5], 0.9), Some(4));
        // A 1:1 layout would put the median on the boundary.
        assert_eq!(class_of_percentile(&[1, 1], 0.5), None);
        assert_eq!(class_of_percentile(&[9, 1], 0.9), None);
    }

    #[test]
    fn generator_and_shuffle_repeat_per_seed() {
        let draw = |seed| {
            let mut rng = SplitMix::new(seed);
            let mut v: Vec<u32> = (0..20).collect();
            rng.shuffle(&mut v);
            (v, rng.below(1000))
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
