//! Competing radiation sources (paper Section 7).
//!
//! Four interference classes, distinguished by what the WaveLAN front end and
//! despreader do to them:
//!
//! * **Narrowband, in-band** (FM cordless phones, Section 7.2): fully visible
//!   to the AGC (it raises the silence level) but suppressed by the
//!   despreading correlation — processing gain plus the narrowband line's
//!   decorrelation. The paper observed *zero* damage from these phones even
//!   "a few inches from the receiver's modem unit".
//! * **Wideband, in-band** (900 MHz spread-spectrum cordless phones, Section
//!   7.3): looks like noise to the correlator, so no suppression — and its
//!   chip structure collides with the desired chips, so it degrades the
//!   demodulator *more* than Gaussian noise of equal power (the
//!   `demod_penalty_db` term). This is the paper's worst interferer.
//! * **Out-of-band** (microwave oven, 144 MHz amateur transmitter, Section
//!   7.1): rejected by the front-end filters unless strong enough to overload
//!   them. The paper observed no errors; the overload path exists in the
//!   model so the mechanism can be explored.
//! * **WaveLAN** (competing units, Section 7.4): a same-waveform transmitter,
//!   suppressed by roughly the processing gain when chip-unaligned, fully
//!   visible to the AGC and to carrier sense.

use crate::baseband::gaussian;
use crate::spreading::processing_gain_db;
use rand::Rng;

/// Interference class, determining front-end and despreader behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterferenceKind {
    /// Narrowband FM inside the 902–928 MHz band.
    NarrowbandInBand,
    /// Spread-spectrum (wideband) energy inside the band.
    WidebandInBand,
    /// Energy outside the band (microwave oven, VHF transmitter).
    OutOfBand,
    /// Another WaveLAN transmitter.
    WaveLan,
}

impl InterferenceKind {
    /// Gain applied by the receive chain *before* the AGC measures power,
    /// in dB (0 = fully visible). Out-of-band energy is mostly filtered.
    pub(crate) fn agc_visibility_db(self) -> f64 {
        match self {
            InterferenceKind::NarrowbandInBand
            | InterferenceKind::WidebandInBand
            | InterferenceKind::WaveLan => 0.0,
            InterferenceKind::OutOfBand => -45.0,
        }
    }

    /// Change from raw received power to *effective* interference power in
    /// the despread (decision) domain, in dB.
    ///
    /// * Narrowband: −(processing gain + 17 dB line-decorrelation) ≈ −27 dB.
    ///   Calibrated so the paper's loudest cordless-FM case (silence level
    ///   ≈ 19, Table 10) still yields zero bit damage.
    /// * Wideband in-band: −4 dB. A foreign spread-spectrum waveform is
    ///   uncorrelated with the Barker code, so the correlator averages it
    ///   like noise (≈ −10.4 dB) — but its chip structure degrades the DQPSK
    ///   decision more than Gaussian noise of equal post-correlation power,
    ///   clawing back ≈6 dB. The net −4 dB jointly reproduces the paper's
    ///   three SS-phone regimes (jam / intermediate / harmless, Table 11).
    /// * Out-of-band: −60 dB after the front-end filters (when not
    ///   overloaded).
    /// * WaveLAN: −processing gain (chip-unaligned same-code interference
    ///   decorrelates like noise spread over 11 chips).
    pub(crate) fn despread_delta_db(self) -> f64 {
        match self {
            InterferenceKind::NarrowbandInBand => -(processing_gain_db(11) + 17.0),
            InterferenceKind::WidebandInBand => -4.0,
            InterferenceKind::OutOfBand => -60.0,
            InterferenceKind::WaveLan => -processing_gain_db(11),
        }
    }
}

/// Raw front-end power (dBm) above which out-of-band energy overloads the
/// receiver's early filter stages and leaks in as wideband noise (paper
/// Section 7.1's "front end overload"). The paper's microwave-oven and
/// 2 W VHF tests stayed below this and produced no errors.
pub const FRONT_END_OVERLOAD_DBM: f64 = -5.0;

/// Transmission pattern of an interferer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DutyCycle {
    /// Always on (FM phone carrier, saturating WaveLAN jammer).
    Continuous,
    /// Periodic bursts: `on_bits` of every `period_bits` (TDD phone frames).
    /// Times are expressed in units of 2 Mb/s bit durations (0.5 µs).
    Burst {
        /// Frame period.
        period_bits: u64,
        /// On-time per frame.
        on_bits: u64,
    },
}

/// One interval of interference overlapping a packet, in bit-time units
/// relative to the packet start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Emission {
    /// First bit index covered.
    pub start_bit: u64,
    /// One past the last bit index covered.
    pub end_bit: u64,
    /// Raw power at the receive antenna during this interval, dBm.
    pub raw_dbm: f64,
    /// Interference class.
    pub kind: InterferenceKind,
}

impl Emission {
    /// Power as seen by the AGC (after front-end filtering), dBm.
    pub(crate) fn agc_dbm(&self) -> f64 {
        self.raw_dbm + self.kind.agc_visibility_db()
    }

    /// Effective power in the despread decision domain, dBm. Out-of-band
    /// energy above the overload point bypasses the filters and lands as
    /// wideband noise 20 dB below its raw power.
    pub(crate) fn despread_dbm(&self) -> f64 {
        if self.kind == InterferenceKind::OutOfBand && self.raw_dbm > FRONT_END_OVERLOAD_DBM {
            self.raw_dbm - 20.0
        } else {
            self.raw_dbm + self.kind.despread_delta_db()
        }
    }
}

/// An interference source positioned near the receiver.
#[derive(Debug, Clone, Copy)]
pub struct Interferer {
    /// Interference class.
    pub kind: InterferenceKind,
    /// Mean raw power delivered to the victim receiver, dBm.
    pub power_dbm: f64,
    /// Transmission pattern.
    pub duty: DutyCycle,
    /// Per-burst lognormal power jitter, dB (0 for a stable carrier).
    pub burst_sigma_db: f64,
}

impl Interferer {
    /// Produces the emission intervals overlapping a packet of `len_bits`
    /// bits. The burst phase is drawn uniformly per call, modelling the lack
    /// of synchronization between the interferer and the victim link. For
    /// *temporal* correlation across packets (loss runs, outage structure)
    /// use [`Interferer::emissions_at_into`], which anchors the phase to
    /// absolute time.
    pub fn emissions<R: Rng + ?Sized>(&self, len_bits: u64, rng: &mut R) -> Vec<Emission> {
        let mut out = Vec::new();
        self.emissions_into(len_bits, rng, &mut out);
        out
    }

    /// [`Interferer::emissions`], appending into a caller-owned buffer so
    /// the per-packet hot path can reuse its allocation. Identical RNG draw
    /// sequence and emissions as the allocating variant.
    pub(crate) fn emissions_into<R: Rng + ?Sized>(
        &self,
        len_bits: u64,
        rng: &mut R,
        out: &mut Vec<Emission>,
    ) {
        let phase = match self.duty {
            DutyCycle::Continuous => 0,
            DutyCycle::Burst { period_bits, .. } => rng.gen_range(0..period_bits),
        };
        self.emissions_with_phase_into(len_bits, phase, rng, out);
    }

    /// Appends the emission intervals overlapping a packet that starts at
    /// bit time `start_bit_time` to a caller-owned buffer, with the burst
    /// phase anchored to absolute time.
    pub fn emissions_at_into<R: Rng + ?Sized>(
        &self,
        start_bit_time: u64,
        len_bits: u64,
        rng: &mut R,
        out: &mut Vec<Emission>,
    ) {
        let phase = match self.duty {
            DutyCycle::Continuous => 0,
            DutyCycle::Burst { period_bits, .. } => start_bit_time % period_bits,
        };
        self.emissions_with_phase_into(len_bits, phase, rng, out);
    }

    /// The common core: `phase` is where in its frame the interferer is at
    /// the packet's bit 0. Appends to `out`.
    fn emissions_with_phase_into<R: Rng + ?Sized>(
        &self,
        len_bits: u64,
        phase: u64,
        rng: &mut R,
        out: &mut Vec<Emission>,
    ) {
        match self.duty {
            DutyCycle::Continuous => {
                let power = self.power_dbm + gaussian(rng, self.burst_sigma_db);
                out.push(Emission {
                    start_bit: 0,
                    end_bit: len_bits,
                    raw_dbm: power,
                    kind: self.kind,
                });
            }
            DutyCycle::Burst {
                period_bits,
                on_bits,
            } => {
                assert!(
                    period_bits > 0 && on_bits <= period_bits,
                    "invalid duty cycle"
                );
                assert!(phase < period_bits, "phase must lie within a period");
                // Walk frames covering [0, len_bits).
                let mut frame_start = -(phase as i64);
                while (frame_start as i128) < len_bits as i128 {
                    let on_start = frame_start;
                    let on_end = frame_start + on_bits as i64;
                    let s = on_start.max(0) as u64;
                    let e = (on_end.max(0) as u64).min(len_bits);
                    if e > s {
                        let power = self.power_dbm + gaussian(rng, self.burst_sigma_db);
                        out.push(Emission {
                            start_bit: s,
                            end_bit: e,
                            raw_dbm: power,
                            kind: self.kind,
                        });
                    }
                    frame_start += period_bits as i64;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl Interferer {
        /// A continuous source of the given kind and power (a test fixture;
        /// production interferers come from scenario specs).
        pub(crate) fn continuous(kind: InterferenceKind, power_dbm: f64) -> Interferer {
            Interferer {
                kind,
                power_dbm,
                duty: DutyCycle::Continuous,
                burst_sigma_db: 0.0,
            }
        }
    }

    #[test]
    fn narrowband_is_suppressed_wideband_is_not() {
        let nb = Emission {
            start_bit: 0,
            end_bit: 100,
            raw_dbm: -60.0,
            kind: InterferenceKind::NarrowbandInBand,
        };
        let wb = Emission {
            kind: InterferenceKind::WidebandInBand,
            ..nb
        };
        assert!(nb.despread_dbm() < -85.0, "{}", nb.despread_dbm());
        // Wideband is only partially suppressed: >20 dB more effective
        // interference than the narrowband line.
        assert!(
            wb.despread_dbm() > nb.despread_dbm() + 20.0,
            "{}",
            wb.despread_dbm()
        );
        // Both fully visible to the AGC.
        assert_eq!(nb.agc_dbm(), -60.0);
        assert_eq!(wb.agc_dbm(), -60.0);
    }

    #[test]
    fn out_of_band_rejected_below_overload() {
        let e = Emission {
            start_bit: 0,
            end_bit: 1,
            raw_dbm: -20.0,
            kind: InterferenceKind::OutOfBand,
        };
        assert!(e.agc_dbm() < -60.0);
        assert!(e.despread_dbm() < -75.0);
    }

    #[test]
    fn out_of_band_overload_leaks() {
        let e = Emission {
            start_bit: 0,
            end_bit: 1,
            raw_dbm: 0.0,
            kind: InterferenceKind::OutOfBand,
        };
        // Above the overload point: −20 dB leak instead of −60 dB rejection.
        assert!((e.despread_dbm() - (-20.0)).abs() < 1e-9);
    }

    #[test]
    fn wavelan_suppressed_by_processing_gain() {
        let e = Emission {
            start_bit: 0,
            end_bit: 1,
            raw_dbm: -70.0,
            kind: InterferenceKind::WaveLan,
        };
        assert!((e.despread_dbm() - (-80.41)).abs() < 0.01);
    }

    #[test]
    fn continuous_emissions_cover_packet() {
        let mut rng = StdRng::seed_from_u64(1);
        let i = Interferer::continuous(InterferenceKind::NarrowbandInBand, -70.0);
        let e = i.emissions(8560, &mut rng);
        assert_eq!(e.len(), 1);
        assert_eq!((e[0].start_bit, e[0].end_bit), (0, 8560));
        assert_eq!(e[0].raw_dbm, -70.0);
    }

    #[test]
    fn burst_emissions_respect_duty() {
        let mut rng = StdRng::seed_from_u64(2);
        let i = Interferer {
            kind: InterferenceKind::WidebandInBand,
            power_dbm: -45.0,
            duty: DutyCycle::Burst {
                period_bits: 8000,
                on_bits: 4000,
            },
            burst_sigma_db: 0.0,
        };
        // Average covered fraction over many draws ≈ 50%.
        let len = 8560u64;
        let n = 2000;
        let covered: u64 = (0..n)
            .map(|_| {
                i.emissions(len, &mut rng)
                    .iter()
                    .map(|e| e.end_bit - e.start_bit)
                    .sum::<u64>()
            })
            .sum();
        let frac = covered as f64 / (len * n) as f64;
        assert!((frac - 0.5).abs() < 0.02, "{frac}");
    }

    #[test]
    fn burst_emissions_are_sorted_and_disjoint() {
        let mut rng = StdRng::seed_from_u64(3);
        let i = Interferer {
            kind: InterferenceKind::WidebandInBand,
            power_dbm: -45.0,
            duty: DutyCycle::Burst {
                period_bits: 3000,
                on_bits: 1000,
            },
            burst_sigma_db: 2.0,
        };
        for _ in 0..200 {
            let es = i.emissions(8560, &mut rng);
            for w in es.windows(2) {
                assert!(w[0].end_bit <= w[1].start_bit, "{es:?}");
            }
            for e in &es {
                assert!(e.start_bit < e.end_bit);
                assert!(e.end_bit <= 8560);
            }
        }
    }

    #[test]
    fn every_long_packet_meets_a_burst() {
        // A packet longer than (period − on) must overlap at least one burst —
        // the mechanism behind the paper's "100% of received packets truncated"
        // under a nearby SS phone.
        let mut rng = StdRng::seed_from_u64(4);
        let i = Interferer {
            kind: InterferenceKind::WidebandInBand,
            power_dbm: -45.0,
            duty: DutyCycle::Burst {
                period_bits: 8000,
                on_bits: 4200,
            },
            burst_sigma_db: 0.0,
        };
        for _ in 0..500 {
            assert!(!i.emissions(8560, &mut rng).is_empty());
        }
    }

    #[test]
    fn burst_sigma_varies_power() {
        let mut rng = StdRng::seed_from_u64(5);
        let i = Interferer {
            kind: InterferenceKind::WidebandInBand,
            power_dbm: -50.0,
            duty: DutyCycle::Continuous,
            burst_sigma_db: 4.0,
        };
        let powers: Vec<f64> = (0..500)
            .map(|_| i.emissions(100, &mut rng)[0].raw_dbm)
            .collect();
        let mean = powers.iter().sum::<f64>() / powers.len() as f64;
        let var = powers.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / powers.len() as f64;
        assert!((mean - (-50.0)).abs() < 0.6, "{mean}");
        assert!((var.sqrt() - 4.0).abs() < 0.5, "{}", var.sqrt());
    }
}
