//! Streaming signal statistics: the paper's `↓ μ (σ) ↑` columns.
//!
//! "When we present signal level, silence level, and signal quality, we give
//! the minimum observation, mean, standard deviation (in parentheses), and
//! maximum observation" (Section 4).

/// Streaming min / mean / population-σ / max accumulator over `u8` samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalStats {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: u8,
    max: u8,
}

impl Default for SignalStats {
    fn default() -> Self {
        SignalStats {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: u8::MAX,
            max: 0,
        }
    }
}

impl SignalStats {
    /// An empty accumulator.
    pub(crate) fn new() -> SignalStats {
        SignalStats::default()
    }

    /// Folds one observation in.
    pub(crate) fn push(&mut self, value: u8) {
        self.count += 1;
        let v = f64::from(value);
        self.sum += v;
        self.sum_sq += v * v;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Minimum observation (the paper's `↓`); 0 when empty.
    pub fn min(&self) -> u8 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Maximum observation (the paper's `↑`).
    pub fn max(&self) -> u8 {
        self.max
    }

    /// Mean (`μ`); 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    /// Population standard deviation (`σ`); 0 when empty.
    pub(crate) fn std_dev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sum_sq / self.count as f64 - mean * mean)
            .max(0.0)
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = SignalStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn matches_naive_computation() {
        let samples = [29u8, 30, 30, 31, 28, 30, 29, 32];
        let mut s = SignalStats::new();
        for &v in &samples {
            s.push(v);
        }
        let naive_mean = samples.iter().map(|&v| f64::from(v)).sum::<f64>() / 8.0;
        let naive_var = samples
            .iter()
            .map(|&v| (f64::from(v) - naive_mean).powi(2))
            .sum::<f64>()
            / 8.0;
        assert_eq!(s.count(), 8);
        assert_eq!(s.min(), 28);
        assert_eq!(s.max(), 32);
        assert!((s.mean() - naive_mean).abs() < 1e-12);
        assert!((s.std_dev() - naive_var.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn constant_input_has_zero_sigma() {
        let mut s = SignalStats::new();
        for _ in 0..1000 {
            s.push(15);
        }
        assert_eq!(s.mean(), 15.0);
        assert!(s.std_dev() < 1e-9);
        assert_eq!((s.min(), s.max()), (15, 15));
    }
}
