//! Small-scale fading: a deterministic two-ray multipath ripple.
//!
//! Figure 1 of the paper shows signal level falling smoothly with distance
//! *except* for dips "at six and thirty feet ... probably due to multipath
//! interference ... likely to be particular to the room where the measurements
//! were taken". We reproduce the mechanism, not the specific room: a two-ray
//! model (direct path plus one reflection off a nearby surface) produces
//! destructive-interference dips whose positions follow from the geometry.
//! With the default reflector offset of 1.25 m the dips land near 5.7 ft and
//! 30.7 ft — deliberately close to the paper's, to show the mechanism accounts
//! for the observation.
//!
//! Lognormal shadowing, which models everything else that changes when
//! "slight variations of receiver position, orientation, and obstacles" occur
//! between trials (the paper's Table 3 aggregation), is deterministic per
//! placement and lives in `wavelan-sim`'s propagation model.

/// Two-ray (direct + single reflection) multipath model.
///
/// The reflected ray travels `√(d² + 4h²)` for a reflector plane offset `h`
/// from the line between the antennas; it arrives attenuated by the extra
/// distance and by the reflection coefficient, and phase-shifted by the path
/// difference. The composite amplitude ripples with distance.
#[derive(Debug, Clone, Copy)]
pub struct TwoRay {
    /// Perpendicular offset of the reflecting surface, meters.
    pub reflector_offset_m: f64,
    /// Reflection coefficient (negative: phase inversion on reflection).
    pub reflection_coeff: f64,
    /// Carrier wavelength, meters (≈ 0.3277 m at 915 MHz).
    pub wavelength_m: f64,
}

impl TwoRay {
    /// The default lecture-hall geometry used for the Figure 1 reproduction.
    pub fn lecture_hall() -> TwoRay {
        TwoRay {
            reflector_offset_m: 1.25,
            reflection_coeff: -0.6,
            wavelength_m: 299_792_458.0 / crate::CARRIER_HZ,
        }
    }

    /// Multipath gain relative to the direct ray alone, in dB (≤ ~+3, ≥ ~−12).
    pub fn gain_db(&self, d_m: f64) -> f64 {
        let d = d_m.max(0.1);
        let h2 = 4.0 * self.reflector_offset_m * self.reflector_offset_m;
        let d_refl = (d * d + h2).sqrt();
        let delta = d_refl - d;
        let phase = 2.0 * std::f64::consts::PI * delta / self.wavelength_m;
        // Reflected amplitude relative to direct: coefficient × (d / d_refl)
        // (amplitude falls as 1/distance).
        let rel = self.reflection_coeff * (d / d_refl);
        let re = 1.0 + rel * phase.cos();
        let im = rel * phase.sin();
        let gain = (re * re + im * im).sqrt();
        // Clamp pathological deep nulls; a real receiver with antenna
        // diversity never sees a perfect null on both antennas.
        crate::math::linear_to_db(gain * gain).clamp(-12.0, 3.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distances (in meters, ascending) at which destructive dips occur, i.e.
    /// where the path difference equals an integer number of wavelengths
    /// (the reflection coefficient being negative).
    fn dip_distances_m(model: &TwoRay, max_m: f64) -> Vec<f64> {
        let h2 = 4.0 * model.reflector_offset_m * model.reflector_offset_m;
        let lambda = model.wavelength_m;
        let mut dips = Vec::new();
        for k in 1..1000 {
            let k = f64::from(k);
            let d = (h2 - k * k * lambda * lambda) / (2.0 * k * lambda);
            if d <= 0.1 {
                break;
            }
            if d <= max_m {
                dips.push(d);
            }
        }
        dips.sort_by(|a, b| a.partial_cmp(b).unwrap());
        dips
    }

    #[test]
    fn dips_land_near_six_and_thirty_feet() {
        let model = TwoRay::lecture_hall();
        let dips_ft: Vec<f64> = dip_distances_m(&model, 12.0)
            .into_iter()
            .map(|d| d / 0.3048)
            .collect();
        assert!(
            dips_ft.iter().any(|&d| (5.0..7.0).contains(&d)),
            "no dip near 6 ft: {dips_ft:?}"
        );
        assert!(
            dips_ft.iter().any(|&d| (28.0..33.0).contains(&d)),
            "no dip near 30 ft: {dips_ft:?}"
        );
    }

    #[test]
    fn gain_at_dip_is_depressed() {
        // Close-in dips are shallow (the reflected ray is relatively weak
        // there), so only check dips beyond 1 m.
        let model = TwoRay::lecture_hall();
        for dip in dip_distances_m(&model, 12.0)
            .into_iter()
            .filter(|&d| d > 1.0)
        {
            let at_dip = model.gain_db(dip);
            let off_dip = model.gain_db(dip * 1.12 + 0.15);
            assert!(at_dip < off_dip, "dip at {dip} m: {at_dip} !< {off_dip}");
            assert!(at_dip < -2.0, "dip at {dip} too shallow: {at_dip}");
        }
    }

    #[test]
    fn gain_is_bounded() {
        let model = TwoRay::lecture_hall();
        let mut d = 0.1;
        while d < 25.0 {
            let g = model.gain_db(d);
            assert!((-12.0..=3.0).contains(&g), "gain {g} at {d} m");
            d += 0.05;
        }
    }

    #[test]
    fn far_field_gain_approaches_destructive_limit() {
        // As d → ∞ the path difference → 0 and the inverted reflection
        // partially cancels the direct ray.
        let model = TwoRay::lecture_hall();
        let g = model.gain_db(500.0);
        let expected = crate::math::linear_to_db((1.0 + model.reflection_coeff).powi(2));
        assert!((g - expected).abs() < 0.5, "{g} vs {expected}");
    }
}
