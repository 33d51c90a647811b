//! Nearest-rank order statistics: every metric the benchmark reports is a
//! median with its quartiles and sample count.

/// The nearest-rank `p`-th percentile (0 < p ≤ 100) of `values`: the
/// smallest sample with at least `p` percent of the samples at or below
/// it. `None` for an empty slice. The input need not be sorted.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Nearest-rank 50th percentile.
    pub median: f64,
    /// Nearest-rank 25th percentile.
    pub q1: f64,
    /// Nearest-rank 75th percentile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        Some(Summary {
            median: percentile(values, 50.0)?,
            q1: percentile(values, 25.0)?,
            q3: percentile(values, 75.0)?,
            n: values.len(),
        })
    }

    /// The distance between the quartiles as a share of the median (0 for
    /// a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = Summary::of(&[7.5]).expect("one sample");
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.5, 7.5, 7.5, 1));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn nearest_rank_picks_samples_not_interpolations() {
        // Two samples: rank ceil(0.5 * 2) = 1 is the lower one.
        assert_eq!(percentile(&[2.0, 1.0], 50.0), Some(1.0));
        // Four samples: q1 = rank 1, median = rank 2, q3 = rank 3.
        let s = Summary::of(&[40.0, 10.0, 30.0, 20.0]).expect("samples");
        assert_eq!((s.q1, s.median, s.q3), (10.0, 20.0, 30.0));
        // Five samples: ranks 2, 3, 4.
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).expect("samples");
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn extreme_percentiles_clamp_to_the_ends() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(3.0));
        assert_eq!(percentile(&v, 99.0), Some(3.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
    }

    #[test]
    fn ties_and_unsorted_input() {
        let s = Summary::of(&[2.0, 2.0, 2.0, 9.0]).expect("samples");
        assert_eq!((s.q1, s.median, s.q3), (2.0, 2.0, 2.0));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn p99_needs_a_hundred_samples_to_leave_the_maximum() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(198.0));
        assert_eq!(percentile(&v, 50.0), Some(100.0));
    }
}
