//! Calibration: every constant that pins the simulator to a number the paper
//! reports, in one place.
//!
//! The chain of anchors, from the bottom up:
//!
//! 1. **AGC unit scale** — 1.5 dB/unit, floor −93 dBm
//!    (`wavelan_phy::agc`). Pinned by Table 4's wall costs (plaster+mesh
//!    ≈ 5 units, concrete ≈ 2 units, which are 7.5 dB and 3 dB — textbook
//!    values for those materials at 900 MHz) and by the quiet silence level
//!    of ≈3 against a −88.5 dBm thermal floor.
//! 2. **Link budget** — `SYSTEM_LOSS_DB = 36`
//!    (`wavelan_sim::propagation`). Pinned by Table 2 (in-room level ≈29.5
//!    at ≈7 ft) and independently confirmed by Table 9 (level 12.55 at 56 ft
//!    through two concrete walls — the model gives 12.8).
//! 3. **Path-loss exponent** — 2.2 indoors (open lecture hall: 2.0 plus the
//!    two-ray ripple whose dips land near 6 ft and 31 ft, as in Figure 1).
//! 4. **Acquisition** — two mechanisms (`wavelan_phy::agc`): AGC slowness,
//!    a logistic in absolute level units (center 3.85, width 0.78), pinned
//!    by the human-body trial (≈2.5% loss at level 6.73) and multi-room Tx5
//!    (≈0.1% at level 9.5); and correlation failure, a logistic in despread
//!    SINR (center −3 dB, width 1 dB), pinned by the SS-phone jam trials
//!    (≈52% loss at 52% lethal duty).
//! 5. **Host loss floor** — 2.5 × 10⁻⁴ (`wavelan_phy::link`), the Table 2
//!    residual loss "even in a near perfect environment".
//! 6. **Interferer presets** — the functions below, each documented against
//!    the trial it reproduces.

use wavelan_phy::interference::DutyCycle;
use wavelan_phy::InterferenceKind;
use wavelan_sim::{AmbientSource, Emitter};

/// A narrowband 900 MHz FM cordless phone at a given delivered power.
///
/// Table 10's silence levels pin the powers (silence = phone power ⊕ thermal
/// on the AGC scale):
///
/// | trial | silence μ | preset power |
/// |---|---|---|
/// | cluster (handsets + bases inches away) | 15.45 | −69.8 dBm |
/// | handsets nearby | 11.33 | −76.2 dBm |
/// | handsets nearby, talking | 6.11 | −84.9 dBm |
/// | bases nearby | 19.32 | −64.1 dBm |
///
/// The phones transmit FM carriers continuously while active.
pub fn narrowband_phone(power_dbm: f64) -> AmbientSource {
    AmbientSource {
        kind: InterferenceKind::NarrowbandInBand,
        duty: DutyCycle::Continuous,
        burst_sigma_db: 0.5,
        emitter: Emitter::FixedPower(power_dbm),
    }
}

/// Power presets for the four active Table 10 trials (see
/// [`narrowband_phone`]).
pub mod narrowband_power {
    /// "Cluster": both handsets and bases a few inches from the receiver.
    pub const CLUSTER: f64 = -69.8;
    /// "Handsets nearby".
    pub(crate) const HANDSETS_NEARBY: f64 = -76.2;
    /// "Handsets nearby talking" (power control engaged).
    pub(crate) const HANDSETS_TALKING: f64 = -84.9;
    /// "Bases nearby" (handsets distant: full power to reach them).
    pub const BASES_NEARBY: f64 = -64.1;
}

/// A 900 MHz spread-spectrum cordless phone unit close enough to jam
/// (the Table 11 "near" placements: "several inches from the receiver's
/// modem unit").
///
/// TDD frame of 4 ms with ≈52% lethal airtime reproduces the paper's
/// signature: ≈52% packet loss (preamble inside a burst) and ≈100%
/// truncation of the packets that do start (every 4.3 ms packet meets the
/// next burst). −38 dBm at the receiver puts the despread SINR near −11 dB —
/// far below both the acquisition and tracking floors.
pub fn ss_phone_jamming() -> AmbientSource {
    AmbientSource {
        kind: InterferenceKind::WidebandInBand,
        duty: DutyCycle::Burst {
            period_bits: 8_000,
            on_bits: 4_200,
        },
        burst_sigma_db: 2.0,
        emitter: Emitter::FixedPower(-38.0),
    }
}

/// The *other* unit of a jamming phone (TDD partner plus sidebands), audible
/// between the lethal bursts: keeps the silence level high between bursts as
/// in Table 12, while staying decodable-through.
pub fn ss_phone_jamming_residual() -> AmbientSource {
    AmbientSource {
        kind: InterferenceKind::WidebandInBand,
        duty: DutyCycle::Continuous,
        burst_sigma_db: 1.0,
        emitter: Emitter::FixedPower(-55.0),
    }
}

/// The "RS remote cluster" placement: phone ≈14 ft from the receiver, 20 ft
/// from the transmitter — audible to the AGC (raised silence level) but
/// harmless to decoding, as in Table 11's only clean active-phone row.
pub fn ss_phone_remote() -> AmbientSource {
    AmbientSource {
        kind: InterferenceKind::WidebandInBand,
        duty: DutyCycle::Burst {
            period_bits: 8_000,
            on_bits: 7_000,
        },
        burst_sigma_db: 1.0,
        emitter: Emitter::FixedPower(-58.0),
    }
}

/// The "AT&T handset" placement (handset near, base far): the paper's
/// *intermediate* regime — 1% loss, 4% truncated, but 59% of the remaining
/// packets carry correctable body errors (worst 4.9% of bits).
///
/// 10 ms frames with 3.5 ms active bursts at −49 dBm, ±2 dB per-burst
/// fading. The resulting despread SINR sits right in the correctable-error
/// band: ≈80% of packets overlap a burst and roughly half collect a few
/// dozen corrupted bits (paper: 59% body-damaged), a strong-burst tail
/// unlocks the modem occasionally (paper: 4% truncated), and acquisition
/// almost always survives (paper: 1% loss).
pub fn ss_phone_handset_only() -> AmbientSource {
    AmbientSource {
        kind: InterferenceKind::WidebandInBand,
        duty: DutyCycle::Burst {
            period_bits: 20_000,
            on_bits: 7_000,
        },
        burst_sigma_db: 2.0,
        emitter: Emitter::FixedPower(-49.0),
    }
}

/// The distant base the handset talks to in the "AT&T handset" trial — a
/// steady moderate floor that lifts the between-burst silence level.
pub fn ss_phone_handset_residual() -> AmbientSource {
    AmbientSource {
        kind: InterferenceKind::WidebandInBand,
        duty: DutyCycle::Continuous,
        burst_sigma_db: 1.0,
        emitter: Emitter::FixedPower(-62.0),
    }
}

/// A microwave oven in contact with the receiver (Section 7.1): powerful but
/// out of band; below the front-end overload point it contributes nothing.
pub fn microwave_oven() -> AmbientSource {
    AmbientSource {
        kind: InterferenceKind::OutOfBand,
        duty: DutyCycle::Burst {
            period_bits: 33_000,
            on_bits: 16_000,
        }, // 60 Hz magnetron duty
        burst_sigma_db: 1.0,
        emitter: Emitter::FixedPower(-10.0),
    }
}

/// A 2 W, 144 MHz amateur-radio FM transmitter in contact with the
/// receiver's modem unit (Section 7.1).
pub fn ham_transmitter() -> AmbientSource {
    AmbientSource {
        kind: InterferenceKind::OutOfBand,
        duty: DutyCycle::Continuous,
        burst_sigma_db: 0.0,
        emitter: Emitter::FixedPower(-8.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavelan_phy::agc::{power_to_level_units, THERMAL_NOISE_DBM};
    use wavelan_phy::math::{db_to_linear, linear_to_db};

    /// The Table 10 power presets must reproduce the reported silence means
    /// (phone ⊕ thermal on the AGC scale) to within a unit.
    #[test]
    fn narrowband_powers_match_silence_targets() {
        for (power, target) in [
            (narrowband_power::CLUSTER, 15.45),
            (narrowband_power::HANDSETS_NEARBY, 11.33),
            (narrowband_power::HANDSETS_TALKING, 6.11),
            (narrowband_power::BASES_NEARBY, 19.32),
        ] {
            let silence = power_to_level_units(linear_to_db(
                db_to_linear(power) + db_to_linear(THERMAL_NOISE_DBM),
            ));
            assert!(
                (silence - target).abs() < 1.0,
                "power {power}: {silence} vs {target}"
            );
        }
    }

    #[test]
    fn jamming_phone_has_half_lethal_duty() {
        let phone = ss_phone_jamming();
        let duty = match phone.duty {
            DutyCycle::Burst {
                period_bits,
                on_bits,
            } => on_bits as f64 / period_bits as f64,
            DutyCycle::Continuous => 1.0,
        };
        assert!((duty - 0.525).abs() < 0.01, "{duty}");
    }

    #[test]
    fn out_of_band_sources_stay_below_overload() {
        use wavelan_phy::interference::FRONT_END_OVERLOAD_DBM;
        for src in [microwave_oven(), ham_transmitter()] {
            let Emitter::FixedPower(p) = src.emitter else {
                panic!()
            };
            assert!(p < FRONT_END_OVERLOAD_DBM, "{p}");
            assert_eq!(src.kind, InterferenceKind::OutOfBand);
        }
    }
}
