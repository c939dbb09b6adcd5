//! Mining parameters.

use k2_cluster::DbscanParams;
use std::fmt;

/// The three user parameters of convoy mining (§1): a convoy is at least
/// `m` objects within `eps`-density-connection for at least `k`
/// consecutive timestamps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct K2Config {
    /// Minimum number of objects (`m ≥ 2`).
    pub m: usize,
    /// Minimum lifespan in timestamps (`k ≥ 2`; `k = 1` would make every
    /// cluster a convoy and leaves no room for benchmark spacing).
    pub k: u32,
    /// DBSCAN distance threshold (`eps > 0`).
    pub eps: f64,
}

/// Parameter validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `m` must be at least 2.
    MTooSmall,
    /// `k` must be at least 2.
    KTooSmall,
    /// `eps` must be positive and finite.
    BadEps,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::MTooSmall => write!(f, "m must be >= 2"),
            ConfigError::KTooSmall => write!(f, "k must be >= 2"),
            ConfigError::BadEps => write!(f, "eps must be positive and finite"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl K2Config {
    /// Validated constructor.
    pub fn new(m: usize, k: u32, eps: f64) -> Result<Self, ConfigError> {
        if m < 2 {
            return Err(ConfigError::MTooSmall);
        }
        if k < 2 {
            return Err(ConfigError::KTooSmall);
        }
        if !(eps > 0.0 && eps.is_finite()) {
            return Err(ConfigError::BadEps);
        }
        Ok(Self { m, k, eps })
    }

    /// The hop length `h = ⌊k/2⌋` — the spacing between benchmark points.
    #[inline]
    pub fn hop(&self) -> u32 {
        self.k / 2
    }

    /// Clustering parameters for DBSCAN (`min_pts = m`).
    #[inline]
    pub fn dbscan(&self) -> DbscanParams {
        DbscanParams::new(self.m, self.eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_config() {
        let c = K2Config::new(3, 8, 0.5).unwrap();
        assert_eq!(c.hop(), 4);
        assert_eq!(c.dbscan().min_pts, 3);
        assert_eq!(c.dbscan().eps, 0.5);
    }

    #[test]
    fn hop_floors_odd_k() {
        assert_eq!(K2Config::new(2, 9, 1.0).unwrap().hop(), 4);
        assert_eq!(K2Config::new(2, 2, 1.0).unwrap().hop(), 1);
        assert_eq!(K2Config::new(2, 3, 1.0).unwrap().hop(), 1);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert_eq!(K2Config::new(1, 8, 1.0), Err(ConfigError::MTooSmall));
        assert_eq!(K2Config::new(3, 1, 1.0), Err(ConfigError::KTooSmall));
        assert_eq!(K2Config::new(3, 8, 0.0), Err(ConfigError::BadEps));
        assert_eq!(K2Config::new(3, 8, f64::NAN), Err(ConfigError::BadEps));
        assert_eq!(K2Config::new(3, 8, f64::INFINITY), Err(ConfigError::BadEps));
    }

    #[test]
    fn error_messages() {
        assert!(ConfigError::MTooSmall.to_string().contains('m'));
        assert!(ConfigError::KTooSmall.to_string().contains('k'));
        assert!(ConfigError::BadEps.to_string().contains("eps"));
    }
}
