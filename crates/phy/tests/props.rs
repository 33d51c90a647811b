//! Property-based tests for the PHY substrates.

use proptest::prelude::*;
use wavelan_phy::agc::{level_units_to_dbm, power_to_level_units, AgcModel};
use wavelan_phy::interference::{DutyCycle, Emission, InterferenceKind, Interferer};
use wavelan_phy::link::{LinkModel, PacketOutcome};
use wavelan_phy::math::{db_to_linear, linear_to_db, q};
use wavelan_phy::modulation::{dqpsk_ber, DqpskDemodulator, DqpskModulator};
use wavelan_phy::pathloss::LogDistance;
use wavelan_phy::spreading::SpreadingCode;

proptest! {
    /// dB ↔ linear conversion is a bijection on the sane range.
    #[test]
    fn db_linear_round_trip(db in -120.0f64..40.0) {
        let back = linear_to_db(db_to_linear(db));
        prop_assert!((back - db).abs() < 1e-9);
    }

    /// Q is a valid decreasing tail probability.
    #[test]
    fn q_is_monotone_probability(a in -6.0f64..6.0, b in -6.0f64..6.0) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        prop_assert!(q(lo) >= q(hi));
        prop_assert!((0.0..=1.0).contains(&q(a)));
    }

    /// DQPSK BER is a decreasing function of Eb/N0, bounded by 1/2.
    #[test]
    fn dqpsk_ber_monotone(ebn0_db in -5.0f64..20.0, delta in 0.1f64..10.0) {
        let lo = dqpsk_ber(db_to_linear(ebn0_db));
        let hi = dqpsk_ber(db_to_linear(ebn0_db + delta));
        prop_assert!(hi <= lo);
        prop_assert!(lo <= 0.5 + 1e-12);
        prop_assert!(hi > 0.0);
    }

    /// The modem chain is the identity on clean channels for any payload.
    #[test]
    fn dqpsk_identity(data in proptest::collection::vec(any::<u8>(), 1..256)) {
        let symbols = DqpskModulator::new().modulate_bytes(&data);
        prop_assert_eq!(DqpskDemodulator::new().demodulate_bytes(&symbols), data);
    }

    /// Spreading/despreading is the identity for any ±1 chip code.
    #[test]
    fn spreading_identity(
        chips in proptest::collection::vec(any::<bool>().prop_map(|b| if b { 1i8 } else { -1 }), 11),
        data in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let code = SpreadingCode::new(chips);
        let symbols = DqpskModulator::new().modulate_bytes(&data);
        let back = code.despread(&code.spread(&symbols));
        for (a, b) in symbols.iter().zip(&back) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    /// Path loss is monotone in distance for any positive exponent.
    #[test]
    fn pathloss_monotone(n in 1.5f64..4.5, d1 in 0.5f64..100.0, d2 in 0.5f64..100.0) {
        let model = LogDistance::indoor(915e6, n);
        let (lo, hi) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(model.loss_db(hi) >= model.loss_db(lo));
    }

    /// AGC level mapping round-trips and clamps correctly.
    #[test]
    fn agc_level_round_trip(units in 0.0f64..63.0) {
        let back = power_to_level_units(level_units_to_dbm(units));
        prop_assert!((back - units).abs() < 1e-9);
    }

    /// Both miss-probability mechanisms are monotone and valid probabilities.
    #[test]
    fn miss_probabilities_behave(x in -20.0f64..30.0, d in 0.01f64..10.0) {
        let agc = AgcModel::default();
        let p1a = agc.agc_miss_probability(level_units_to_dbm(x.max(0.0)));
        let p1b = agc.agc_miss_probability(level_units_to_dbm(x.max(0.0) + d));
        prop_assert!(p1b <= p1a + 1e-12);
        let p2a = agc.corr_miss_probability(x);
        let p2b = agc.corr_miss_probability(x + d);
        prop_assert!(p2b <= p2a + 1e-12);
        for p in [p1a, p1b, p2a, p2b] {
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }

    /// Interferer emissions are sorted, disjoint, within the packet, and at
    /// most one per frame period.
    #[test]
    fn emissions_well_formed(
        period in 1_000u64..30_000,
        on_frac in 0.05f64..0.95,
        len in 1_000u64..20_000,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let on = ((period as f64 * on_frac) as u64).max(1);
        let i = Interferer {
            kind: InterferenceKind::WidebandInBand,
            power_dbm: -50.0,
            duty: DutyCycle::Burst { period_bits: period, on_bits: on },
            burst_sigma_db: 1.0,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let es = i.emissions(len, &mut rng);
        for e in &es {
            prop_assert!(e.start_bit < e.end_bit);
            prop_assert!(e.end_bit <= len);
            prop_assert!(e.end_bit - e.start_bit <= on);
        }
        for w in es.windows(2) {
            prop_assert!(w[0].end_bit <= w[1].start_bit);
        }
    }

    /// The cached hot path (`receive_with` + `RxScratch`) is bit-identical
    /// to the uncached reference `receive`: same outcome (every field, every
    /// f64) and the same RNG draw sequence, across randomized signal levels,
    /// emission sets, and seeds. The scratch persists across cases, so the
    /// memo tables carry state from *other* inputs — exactly the steady
    /// state the simulator runs in.
    #[test]
    fn cached_receive_is_bit_identical(
        signal in -95.0f64..-40.0,
        emission_specs in proptest::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, -95.0f64..-40.0, 0usize..4),
            0..5,
        ),
        len in 100u64..10_000,
        repeats in 1usize..4,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        use wavelan_phy::scratch::RxScratch;
        thread_local! {
            static SCRATCH: std::cell::RefCell<RxScratch> =
                std::cell::RefCell::new(RxScratch::new());
        }
        let model = LinkModel::default();
        let kinds = [
            InterferenceKind::WidebandInBand,
            InterferenceKind::NarrowbandInBand,
            InterferenceKind::OutOfBand,
            InterferenceKind::WaveLan,
        ];
        let em: Vec<Emission> = emission_specs
            .iter()
            .map(|&(a, b, power, k)| {
                let s = (a * len as f64) as u64;
                let e = (b * len as f64) as u64;
                let (s, e) = if s <= e { (s, e) } else { (e, s) };
                Emission {
                    start_bit: s,
                    end_bit: (e + 1).min(len),
                    raw_dbm: power,
                    kind: kinds[k],
                }
            })
            .collect();
        // Repeat the same packet so the timeline cache actually hits.
        for rep in 0..repeats {
            let mut rng_ref = rand::rngs::StdRng::seed_from_u64(seed ^ rep as u64);
            let mut rng_hot = rng_ref.clone();
            let reference = model.receive(signal, &em, len, &mut rng_ref);
            let cached = SCRATCH.with(|s| {
                model.receive_with(signal, &em, len, &mut rng_hot, &mut s.borrow_mut())
            });
            prop_assert_eq!(&reference, &cached);
            // Same number of draws consumed: the streams stay aligned.
            prop_assert_eq!(rng_ref.gen::<u64>(), rng_hot.gen::<u64>());
        }
    }

    /// The link model never produces out-of-range outputs, whatever the
    /// channel: error positions within delivered bits, metrics in field
    /// ranges, truncation within the packet.
    #[test]
    fn link_outputs_always_valid(
        signal in -95.0f64..-40.0,
        int_power in -95.0f64..-40.0,
        len in 100u64..10_000,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let model = LinkModel::default();
        let em = [Emission {
            start_bit: 0,
            end_bit: len / 2,
            raw_dbm: int_power,
            kind: InterferenceKind::WidebandInBand,
        }];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        match model.receive(signal, &em, len, &mut rng) {
            PacketOutcome::Lost(_) => {}
            PacketOutcome::Received(r) => {
                let delivered = r.delivered_bits(len);
                prop_assert!(delivered <= len);
                if let Some(t) = r.truncated_at_bit {
                    prop_assert!(t <= len);
                }
                for w in r.error_bits.windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
                if let Some(&last) = r.error_bits.last() {
                    prop_assert!(last < delivered);
                }
                prop_assert!(r.metrics.level.value() <= 63);
                prop_assert!(r.metrics.silence.value() <= 63);
                prop_assert!((1..=15).contains(&r.metrics.quality));
                prop_assert!(r.metrics.antenna <= 1);
            }
        }
    }
}
