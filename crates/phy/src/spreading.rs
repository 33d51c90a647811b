//! Direct-sequence spreading: the 11-chip Barker code, correlation
//! despreading, and processing-gain arithmetic.
//!
//! WaveLAN multiplies each 1 Mbaud symbol by an 11-chip sequence, producing an
//! 11 MHz-wide signal (paper Section 2). The receiver correlates against the
//! same sequence; in-band *narrowband* interference decorrelates and is
//! suppressed by the processing gain (10·log₁₀ 11 ≈ 10.4 dB plus the
//! despreader's excision of a narrow line), which is exactly why the paper's
//! cordless-FM-phone experiments (Table 10) show raised silence levels but
//! zero damaged packets, while the in-band *spread-spectrum* phone — whose
//! energy looks like wideband noise to the correlator — causes severe damage
//! (Table 11).
//!
//! The paper also discusses (Section 8) extending WaveLAN with *multiple*
//! spreading sequences for cell isolation; [`cross_correlation`] and
//! [`SpreadingCode::family`] model such a code family (no artifact runs
//! that extension study).

use crate::baseband::Complex;

/// The length-11 Barker sequence, the classic DSSS chip code with ±1 sidelobes.
pub const BARKER_11: [i8; 11] = [1, 1, 1, -1, -1, -1, 1, -1, -1, 1, -1];

/// Processing gain of an `n`-chip spreading code against wideband interference,
/// in dB: `10·log₁₀ n`.
pub fn processing_gain_db(chips: usize) -> f64 {
    10.0 * (chips as f64).log10()
}

/// A binary (±1) spreading code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpreadingCode {
    chips: Vec<i8>,
}

impl SpreadingCode {
    /// The WaveLAN code: Barker-11.
    pub fn barker11() -> SpreadingCode {
        SpreadingCode {
            chips: BARKER_11.to_vec(),
        }
    }

    /// Builds a code from explicit chips; values must be ±1.
    pub fn new(chips: Vec<i8>) -> SpreadingCode {
        assert!(
            chips.iter().all(|&c| c == 1 || c == -1),
            "spreading chips must be ±1"
        );
        SpreadingCode { chips }
    }

    /// Generates a family of `count` pseudo-random ±1 codes of length `len`,
    /// seeded deterministically. Used by the CDMA extension experiments: the
    /// paper notes "it is difficult to construct large sequence families which
    /// simultaneously have low self-correlation and low cross-correlation".
    /// A simple LFSR-style generator is intentionally *not* optimized for low
    /// cross-correlation — the extension experiment measures the penalty.
    pub fn family(count: usize, len: usize, seed: u64) -> Vec<SpreadingCode> {
        let mut state = seed | 1;
        let mut next_bit = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 63) & 1
        };
        (0..count)
            .map(|_| {
                let chips = (0..len)
                    .map(|_| if next_bit() == 1 { 1 } else { -1 })
                    .collect();
                SpreadingCode { chips }
            })
            .collect()
    }

    /// Number of chips per symbol.
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// True if the code is empty (never the case for built-in codes).
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// Chip values.
    pub fn chips(&self) -> &[i8] {
        &self.chips
    }

    /// Spreads one symbol into `len()` chips.
    pub fn spread_symbol(&self, symbol: Complex) -> Vec<Complex> {
        self.chips
            .iter()
            .map(|&c| symbol.scale(f64::from(c)))
            .collect()
    }

    /// Spreads a symbol stream.
    pub fn spread(&self, symbols: &[Complex]) -> Vec<Complex> {
        let mut out = Vec::with_capacity(symbols.len() * self.len());
        for &s in symbols {
            for &c in &self.chips {
                out.push(s.scale(f64::from(c)));
            }
        }
        out
    }

    /// Despreads by correlating each `len()`-chip window against the code and
    /// normalizing, recovering one symbol per window. The correlation averages
    /// noise across chips — this is where the processing gain comes from.
    pub fn despread(&self, chips: &[Complex]) -> Vec<Complex> {
        let n = self.len();
        let mut out = Vec::with_capacity(chips.len() / n);
        for window in chips.chunks_exact(n) {
            let mut acc = Complex::default();
            for (&rx, &c) in window.iter().zip(&self.chips) {
                acc = acc + rx.scale(f64::from(c));
            }
            out.push(acc.scale(1.0 / n as f64));
        }
        out
    }

    /// Normalized periodic autocorrelation at a chip lag (1.0 at lag 0).
    pub fn autocorrelation(&self, lag: usize) -> f64 {
        let n = self.len();
        let sum: i32 = (0..n)
            .map(|i| i32::from(self.chips[i]) * i32::from(self.chips[(i + lag) % n]))
            .sum();
        f64::from(sum) / n as f64
    }
}

/// Normalized cross-correlation of two equal-length codes at lag 0.
///
/// For ideal CDMA this would be 0; real finite families leak — the `cell`
/// crate quantifies the resulting error floor.
pub fn cross_correlation(a: &SpreadingCode, b: &SpreadingCode) -> f64 {
    assert_eq!(a.len(), b.len(), "codes must have equal length");
    let sum: i32 = a
        .chips
        .iter()
        .zip(&b.chips)
        .map(|(&x, &y)| i32::from(x) * i32::from(y))
        .sum();
    f64::from(sum) / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseband::{add_awgn, gaussian};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn barker_autocorrelation_sidelobes() {
        // Barker codes have periodic autocorrelation sidelobes of magnitude
        // ≤ 1/11 — the property that makes them multipath-resistant.
        let code = SpreadingCode::barker11();
        assert!((code.autocorrelation(0) - 1.0).abs() < 1e-12);
        for lag in 1..11 {
            assert!(
                code.autocorrelation(lag).abs() <= 1.0 / 11.0 + 1e-12,
                "lag {lag}: {}",
                code.autocorrelation(lag)
            );
        }
    }

    #[test]
    fn spread_despread_identity() {
        let code = SpreadingCode::barker11();
        let symbols: Vec<Complex> = (0..64)
            .map(|i| Complex::from_phase(f64::from(i) * 0.37))
            .collect();
        let chips = code.spread(&symbols);
        assert_eq!(chips.len(), symbols.len() * 11);
        let back = code.despread(&chips);
        for (a, b) in symbols.iter().zip(&back) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn processing_gain_value() {
        assert!((processing_gain_db(11) - 10.4139).abs() < 1e-3);
    }

    #[test]
    fn despreading_averages_noise() {
        // SNR after despreading should improve by ≈ the processing gain.
        let mut rng = StdRng::seed_from_u64(3);
        let code = SpreadingCode::barker11();
        let symbols = vec![Complex::new(1.0, 0.0); 20_000];
        let mut chips = code.spread(&symbols);
        let n0 = 1.0; // chip-level SNR = 0 dB
        add_awgn(&mut rng, &mut chips, n0);
        let out = code.despread(&chips);
        // Signal power stays 1; noise power should fall to n0/11.
        let noise_power: f64 = out
            .iter()
            .map(|s| (*s - Complex::new(1.0, 0.0)).norm_sq())
            .sum::<f64>()
            / out.len() as f64;
        let gain_db = crate::math::linear_to_db(n0 / noise_power);
        assert!(
            (gain_db - processing_gain_db(11)).abs() < 0.5,
            "measured gain {gain_db} dB"
        );
    }

    #[test]
    fn narrowband_tone_is_suppressed() {
        // A constant-envelope tone at a non-zero frequency offset decorrelates
        // against the Barker code: after despreading its residual power drops.
        let code = SpreadingCode::barker11();
        let symbols = vec![Complex::new(1.0, 0.0); 5_000];
        let mut chips = code.spread(&symbols);
        // Tone at 0.23 cycles/chip, equal power to the signal.
        for (i, c) in chips.iter_mut().enumerate() {
            *c = *c + Complex::from_phase(2.0 * std::f64::consts::PI * 0.23 * i as f64);
        }
        let out = code.despread(&chips);
        let residual: f64 = out
            .iter()
            .map(|s| (*s - Complex::new(1.0, 0.0)).norm_sq())
            .sum::<f64>()
            / out.len() as f64;
        // 0 dB tone should leave well under -9 dB residual after an 11-chip
        // correlation (exact value depends on the tone frequency).
        assert!(residual < 0.125, "residual {residual}");
    }

    #[test]
    fn code_family_properties() {
        let family = SpreadingCode::family(8, 11, 0xFEED);
        assert_eq!(family.len(), 8);
        for code in &family {
            assert_eq!(code.len(), 11);
        }
        // Deterministic for a given seed.
        let again = SpreadingCode::family(8, 11, 0xFEED);
        assert_eq!(family, again);
        // Different seed, different family.
        assert_ne!(family, SpreadingCode::family(8, 11, 0xBEEF));
    }

    #[test]
    fn cross_correlation_bounds() {
        let family = SpreadingCode::family(6, 11, 1);
        for i in 0..family.len() {
            for j in 0..family.len() {
                let xc = cross_correlation(&family[i], &family[j]);
                assert!((-1.0..=1.0).contains(&xc));
                if i == j {
                    assert!((xc - 1.0).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn despread_with_wrong_code_leaves_noiselike_output() {
        // CDMA premise: a signal spread with code A despread with code B is
        // attenuated by roughly the cross-correlation.
        let mut rng = StdRng::seed_from_u64(9);
        let family = SpreadingCode::family(2, 33, 77);
        let (a, b) = (&family[0], &family[1]);
        let symbols: Vec<Complex> = (0..1000)
            .map(|_| Complex::from_phase(rng.gen::<f64>() * std::f64::consts::TAU))
            .collect();
        let chips = a.spread(&symbols);
        let leaked = b.despread(&chips);
        let leak_power: f64 = leaked.iter().map(|s| s.norm_sq()).sum::<f64>() / leaked.len() as f64;
        let xc = cross_correlation(a, b);
        assert!(
            (leak_power - xc * xc).abs() < 0.05,
            "leak {leak_power}, xc² {}",
            xc * xc
        );
        let _ = gaussian(&mut rng, 1.0); // keep rng used symmetrically
    }
}
