//! Seeded request-mix sampling for the serving workload: a Zipf rank
//! sampler and a permutation over the workspace's seeded generator, so the
//! same seed always yields the same request sequence.

use rand::Rng;

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(rng: &mut impl Rng, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    perm
}

/// Samples ranks `0..n` with probability proportional to `1 / (rank + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative probabilities; the last entry is 1.
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "a Zipf sampler needs at least one rank");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn same_seed_same_sequence() {
        let z = Zipf::new(360, 1.0);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..1_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn rank_frequencies_follow_one_over_k() {
        let n = 360;
        let z = Zipf::new(n, 1.0);
        let harmonic: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let draws = 400_000;
        let mut counts = vec![0u64; n];
        let mut rng = StdRng::seed_from_u64(1996);
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        for rank in [0usize, 1, 2, 9, 99] {
            let expected = 1.0 / ((rank + 1) as f64 * harmonic);
            let p = z.cdf[rank] - if rank == 0 { 0.0 } else { z.cdf[rank - 1] };
            assert!((p - expected).abs() < 1e-12);
            let observed = counts[rank] as f64 / draws as f64;
            // Binomial standard error, with a 5-sigma allowance.
            let sigma = (expected * (1.0 - expected) / draws as f64).sqrt();
            assert!(
                (observed - expected).abs() < 5.0 * sigma,
                "rank {rank}: observed {observed}, expected {expected}"
            );
        }
        // Rank 1 is drawn about twice as often as rank 2.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.0).abs() < 0.1, "rank 1 / rank 2 = {ratio}");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(&mut StdRng::seed_from_u64(3), 360);
        p.sort_unstable();
        assert_eq!(p, (0..360).collect::<Vec<_>>());
    }
}
