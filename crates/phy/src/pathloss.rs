//! Large-scale propagation: free-space and log-distance path loss.
//!
//! The paper observes that "distance alone seemed to have little effect in a
//! fairly large area" (Section 10) — indoor log-distance attenuation over tens
//! of feet costs only a handful of AGC level units — while walls and bodies
//! dominate. We model the distance term with the standard log-distance form
//!
//! ```text
//! PL(d) = PL(d0) + 10·n·log10(d / d0)
//! ```
//!
//! calibrated at `d0 = 1 m` from the free-space loss at 915 MHz, with an
//! indoor exponent `n` (default 2.2 — see `wavelan-core::calibration` for how
//! this value is pinned against the paper's Tables 6 and 9).

/// Free-space path loss in dB at distance `d_m` meters and frequency `f_hz`.
///
/// `FSPL = 20·log10(d) + 20·log10(f) − 147.55` (d in m, f in Hz).
pub(crate) fn free_space_db(d_m: f64, f_hz: f64) -> f64 {
    // Guard the near-field singularity: clamp below 10 cm.
    let d = d_m.max(0.1);
    20.0 * d.log10() + 20.0 * f_hz.log10() - 147.55
}

/// Log-distance path loss model.
#[derive(Debug, Clone, Copy)]
pub struct LogDistance {
    /// Reference loss at `d0 = 1 m`, dB.
    pub pl0_db: f64,
    /// Path loss exponent (2 = free space; 2–4 typical indoors).
    pub exponent: f64,
}

impl LogDistance {
    /// An indoor model at the given carrier: free-space reference at 1 m plus
    /// the supplied exponent.
    pub fn indoor(f_hz: f64, exponent: f64) -> LogDistance {
        LogDistance {
            pl0_db: free_space_db(1.0, f_hz),
            exponent,
        }
    }

    /// Path loss in dB at distance `d_m` meters. Distances under 0.3 m clamp
    /// (physical contact of the two modem units in Figure 1's zero point).
    pub fn loss_db(&self, d_m: f64) -> f64 {
        let d = d_m.max(0.3);
        self.pl0_db + 10.0 * self.exponent * d.log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_space_at_915mhz_1m() {
        // Known anchor: FSPL(1 m, 915 MHz) ≈ 31.7 dB.
        let l = free_space_db(1.0, 915.0e6);
        assert!((l - 31.68).abs() < 0.05, "{l}");
    }

    #[test]
    fn free_space_doubles_distance_costs_6db() {
        let a = free_space_db(10.0, 915.0e6);
        let b = free_space_db(20.0, 915.0e6);
        assert!((b - a - 6.0206).abs() < 1e-3);
    }

    #[test]
    fn log_distance_reduces_to_free_space_when_n_2() {
        let m = LogDistance::indoor(915.0e6, 2.0);
        for d in [1.0, 3.0, 10.0, 30.0] {
            assert!((m.loss_db(d) - free_space_db(d, 915.0e6)).abs() < 1e-9);
        }
    }

    #[test]
    fn higher_exponent_attenuates_more() {
        let lo = LogDistance::indoor(915.0e6, 2.0);
        let hi = LogDistance::indoor(915.0e6, 3.0);
        assert!(hi.loss_db(20.0) > lo.loss_db(20.0));
        assert!((hi.loss_db(10.0) - lo.loss_db(10.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn contact_distance_clamps() {
        let m = LogDistance::indoor(915.0e6, 2.2);
        assert_eq!(m.loss_db(0.0), m.loss_db(0.3));
        assert!(m.loss_db(0.0).is_finite());
    }

    #[test]
    fn loss_is_monotone_in_distance() {
        let m = LogDistance::indoor(915.0e6, 2.2);
        let mut prev = m.loss_db(0.3);
        for i in 1..100 {
            let d = 0.3 + f64::from(i) * 0.5;
            let l = m.loss_db(d);
            assert!(l >= prev);
            prev = l;
        }
    }
}
