//! The 4-bit *signal quality* metric.
//!
//! Paper Section 2: "The signal quality (4 bits) is sampled just after the
//! beginning of the packet and is derived from the information the receiver
//! uses to select between the two antennas" — i.e. from the confidence of the
//! chip correlator / diversity combiner, not from absolute power.
//!
//! The study's key empirical findings about quality, which this model is
//! calibrated to reproduce:
//!
//! * quality pins at 15 whenever the despread SINR is comfortable, *even at
//!   low signal level* (Table 6: Tx5 at level 9.5 still shows quality 15);
//! * "Very low signal quality seems to be a good predictor of truncation"
//!   (Section 7.3; Table 13 truncated μ ≈ 8.8);
//! * "If the signal level is high but signal quality is not outstanding, bit
//!   errors are likely" (Section 7.3; Table 13 body-damaged μ ≈ 13.6);
//! * narrowband interference leaves quality at 15 because the correlator
//!   suppresses it (Table 10).

use crate::baseband::gaussian;
use rand::Rng;

/// Largest reportable quality (4-bit field).
pub(crate) const MAX_QUALITY: u8 = 15;

/// Maps despread-domain SINR to the reported 4-bit quality.
#[derive(Debug, Clone, Copy)]
pub struct QualityModel {
    /// Despread SINR (dB) below which quality starts to fall.
    pub knee_sinr_db: f64,
    /// Quality units lost per dB below the knee.
    pub slope_units_per_db: f64,
    /// Reporting jitter, in quality units.
    pub jitter_sigma: f64,
}

impl Default for QualityModel {
    fn default() -> Self {
        QualityModel {
            // At ≥5 dB despread SINR the correlator is fully confident.
            knee_sinr_db: 5.0,
            // ≈0.8 units/dB reproduces Table 13's truncated μ≈8.8 at the
            // jam-adjacent SINRs and Table 3's truncated μ≈10.
            slope_units_per_db: 0.8,
            jitter_sigma: 0.22,
        }
    }
}

impl QualityModel {
    /// Reports quality for the given despread-domain SINR observed over the
    /// early part of the packet (the minimum across early segments — a nearby
    /// interference burst drags quality down even when the exact sampling
    /// instant was clean).
    pub(crate) fn report<R: Rng + ?Sized>(&self, early_min_sinr_db: f64, rng: &mut R) -> u8 {
        let penalty = (self.knee_sinr_db - early_min_sinr_db).max(0.0) * self.slope_units_per_db;
        let q = f64::from(MAX_QUALITY) - penalty + gaussian(rng, self.jitter_sigma);
        q.round().clamp(1.0, f64::from(MAX_QUALITY)) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_quality(sinr_db: f64) -> f64 {
        let mut rng = StdRng::seed_from_u64(3);
        let m = QualityModel::default();
        let n = 20_000;
        (0..n)
            .map(|_| f64::from(m.report(sinr_db, &mut rng)))
            .sum::<f64>()
            / f64::from(n)
    }

    #[test]
    fn comfortable_sinr_pins_at_15() {
        // Tx5 in Table 6: low level but clean channel → quality 15.
        assert!(mean_quality(9.0) > 14.9);
        assert!(mean_quality(30.0) > 14.9);
    }

    #[test]
    fn jam_adjacent_sinr_matches_truncation_signature() {
        // Table 13: truncated packets under SS-phone interference μ ≈ 8.8.
        let q = mean_quality(-2.5);
        assert!((7.5..10.5).contains(&q), "{q}");
    }

    #[test]
    fn moderate_degradation_matches_bit_error_signature() {
        // Table 13: body-damaged μ ≈ 13.6 — "not outstanding".
        let q = mean_quality(3.0);
        assert!((12.5..14.7).contains(&q), "{q}");
    }

    #[test]
    fn quality_is_monotone_in_sinr() {
        let mut prev = 0.0;
        for sinr in [-8.0, -4.0, 0.0, 3.0, 6.0] {
            let q = mean_quality(sinr);
            assert!(q >= prev, "quality not monotone at {sinr}: {q} < {prev}");
            prev = q;
        }
    }

    #[test]
    fn quality_never_reports_zero() {
        // The 4-bit field's observed floor in the paper's tables is 1.
        let mut rng = StdRng::seed_from_u64(4);
        let m = QualityModel::default();
        for _ in 0..1000 {
            assert!(m.report(-40.0, &mut rng) >= 1);
        }
    }
}
