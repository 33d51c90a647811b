//! Dual-antenna selection diversity.
//!
//! "The receiver selects between two perpendicular antennas and multiple
//! incoming signal paths to combat multipath interference" (paper Section 2).
//! Each packet, the receiver evaluates the preamble on both antennas and
//! commits to the better one; the *antenna selected* is part of the status
//! reported to the host.
//!
//! We model the per-antenna small-scale fade as an independent Gaussian
//! perturbation in dB and take the max. Selection diversity is why the
//! effective per-packet fade distribution has a much thinner deep-fade tail
//! than a single Rayleigh branch would — one of the reasons the paper found
//! WaveLAN "explicitly designed to resist" multipath effects.

use crate::baseband::gaussian;
use rand::Rng;

/// Which of the two antennas the receiver committed to for a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Antenna {
    /// First antenna.
    A = 0,
    /// Second (perpendicular) antenna.
    B = 1,
}

impl Antenna {
    /// Numeric id as reported in the modem status (0 or 1).
    pub(crate) fn id(self) -> u8 {
        self as u8
    }
}

/// Per-packet diversity fade model.
#[derive(Debug, Clone, Copy)]
pub struct DiversityReceiver {
    /// Standard deviation of the per-antenna packet fade, dB.
    pub branch_sigma_db: f64,
}

impl Default for DiversityReceiver {
    fn default() -> Self {
        // Calibrated jointly with the link model so that the fraction of
        // body-damaged packets at the paper's human-body operating point
        // (~6 dB mean SINR) lands near Table 8's ≈15%.
        DiversityReceiver {
            branch_sigma_db: 2.6,
        }
    }
}

impl DiversityReceiver {
    /// Draws the two branch fades for one packet and returns the selected
    /// antenna and the selected (max) fade in dB.
    pub fn select<R: Rng + ?Sized>(&self, rng: &mut R) -> (Antenna, f64) {
        let fade_a = gaussian(rng, self.branch_sigma_db);
        let fade_b = gaussian(rng, self.branch_sigma_db);
        if fade_a >= fade_b {
            (Antenna::A, fade_a)
        } else {
            (Antenna::B, fade_b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn both_antennas_get_used() {
        let mut rng = StdRng::seed_from_u64(1);
        let rx = DiversityReceiver::default();
        let mut counts = [0u32; 2];
        for _ in 0..10_000 {
            let (ant, _) = rx.select(&mut rng);
            counts[usize::from(ant.id())] += 1;
        }
        // Symmetric branches → roughly 50/50.
        assert!((4500..5500).contains(&counts[0]), "{counts:?}");
    }

    #[test]
    fn selection_improves_mean_fade() {
        let mut rng = StdRng::seed_from_u64(2);
        let rx = DiversityReceiver::default();
        let n = 50_000;
        let div: f64 = (0..n).map(|_| rx.select(&mut rng).1).sum::<f64>() / f64::from(n);
        let single: f64 = (0..n)
            .map(|_| gaussian(&mut rng, rx.branch_sigma_db))
            .sum::<f64>()
            / f64::from(n);
        // E[max of two N(0,σ)] = σ/√π ≈ 0.564σ.
        assert!(div > single + 1.0, "diversity {div} vs single {single}");
        assert!((div - rx.branch_sigma_db * 0.564).abs() < 0.05, "{div}");
    }

    #[test]
    fn selection_thins_deep_fade_tail() {
        let mut rng = StdRng::seed_from_u64(3);
        let rx = DiversityReceiver::default();
        let n = 100_000;
        let threshold = -2.0 * rx.branch_sigma_db; // a 2σ fade
        let deep_div = (0..n).filter(|_| rx.select(&mut rng).1 < threshold).count();
        let deep_single = (0..n)
            .filter(|_| gaussian(&mut rng, rx.branch_sigma_db) < threshold)
            .count();
        // P(both branches < -2σ) = P(one < -2σ)² — orders of magnitude rarer.
        assert!(deep_div * 10 < deep_single, "{deep_div} vs {deep_single}");
    }

    #[test]
    fn antenna_ids() {
        assert_eq!(Antenna::A.id(), 0);
        assert_eq!(Antenna::B.id(), 1);
    }
}
