//! Numeric helpers: complementary error function, Gaussian tail probability,
//! and decibel conversions.
//!
//! Implemented locally (rather than pulling in a special-functions crate)
//! because the whole PHY needs exactly two special functions and the
//! Abramowitz & Stegun rational approximation is accurate to ~1.5e-7, far
//! below the statistical noise of any experiment in the paper.

/// Complementary error function, `erfc(x) = 1 - erf(x)`.
///
/// Uses Abramowitz & Stegun formula 7.1.26 with the symmetry
/// `erfc(-x) = 2 - erfc(x)`. Maximum absolute error ≈ 1.5e-7.
pub(crate) fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    // A&S 7.1.26 constants.
    const P: f64 = 0.3275911;
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    let t = 1.0 / (1.0 + P * x);
    let poly = t * (A1 + t * (A2 + t * (A3 + t * (A4 + t * A5))));
    poly * (-x * x).exp()
}

/// Gaussian tail probability `Q(x) = P[N(0,1) > x] = erfc(x / √2) / 2`.
pub fn q(x: f64) -> f64 {
    0.5 * erfc(x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Converts a decibel ratio to a linear power ratio.
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts a linear power ratio to decibels. Clamps zero/negative input to
/// a very small floor so callers can safely take the dB of an empty power sum.
pub fn linear_to_db(lin: f64) -> f64 {
    10.0 * lin.max(1e-30).log10()
}

/// Converts milliwatts to dBm.
pub(crate) fn mw_to_dbm(mw: f64) -> f64 {
    linear_to_db(mw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_known_values() {
        // Reference values from standard tables.
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(2.0) - 0.004_677_7).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
    }

    #[test]
    fn q_known_values() {
        assert!((q(0.0) - 0.5).abs() < 1e-9);
        assert!((q(1.0) - 0.158_655_3).abs() < 1e-6);
        assert!((q(3.0) - 1.349_898e-3).abs() < 1e-7);
        // Q is monotone decreasing.
        assert!(q(2.0) > q(2.5));
    }

    #[test]
    fn db_round_trip() {
        for db in [-100.0, -3.0, 0.0, 3.0, 27.0] {
            assert!((linear_to_db(db_to_linear(db)) - db).abs() < 1e-9);
        }
    }

    #[test]
    fn db_to_linear_anchors() {
        assert!((db_to_linear(3.0103) - 2.0).abs() < 1e-4);
        assert!((db_to_linear(10.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn linear_to_db_handles_zero() {
        assert!(linear_to_db(0.0).is_finite());
        assert!(linear_to_db(0.0) < -250.0);
    }
}
