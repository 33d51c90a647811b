//! Effect directions of the design choices DESIGN.md calls out: each test
//! runs two variants of one mechanism on fixed seeds and asserts which way
//! the effect goes.
//!
//! * DSSS despreading suppresses a narrowband interferer that the same
//!   power, spread wideband, would not (the Table 10 mechanism);
//! * dual-antenna selection cuts the deep-fade tail of a single branch;
//! * soft-decision Viterbi leaves no more residual errors than hard;
//! * the block interleaver turns bursts the plain code cannot correct into
//!   ones it can;
//! * the capture effect lifts hidden-terminal delivery.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wavelan_fec::convolutional::ConvolutionalEncoder;
use wavelan_fec::{BlockInterleaver, ViterbiDecoder};
use wavelan_phy::antenna::DiversityReceiver;
use wavelan_phy::interference::{Emission, InterferenceKind};
use wavelan_phy::link::{LinkModel, PacketOutcome};

/// Counts damaged and lost packets over `n` receives.
fn run_link(
    model: &LinkModel,
    signal: f64,
    emissions: &[Emission],
    n: u32,
    seed: u64,
) -> (u32, u32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut bad, mut lost) = (0, 0);
    for _ in 0..n {
        match model.receive(signal, emissions, 8_576, &mut rng) {
            PacketOutcome::Lost(_) => lost += 1,
            PacketOutcome::Received(r) => {
                if !r.error_bits.is_empty() || r.truncated_at_bit.is_some() {
                    bad += 1;
                }
            }
        }
    }
    (bad, lost)
}

#[test]
fn dsss_suppresses_narrowband_interference() {
    let model = LinkModel::default();
    // The same power, treated as narrowband (suppressed by the correlator)
    // and as if it were wideband (no suppression).
    let nb = [Emission {
        start_bit: 0,
        end_bit: 8_576,
        raw_dbm: -52.0,
        kind: InterferenceKind::NarrowbandInBand,
    }];
    let wb = [Emission {
        kind: InterferenceKind::WidebandInBand,
        ..nb[0]
    }];
    let (bad_nb, lost_nb) = run_link(&model, -60.0, &nb, 4_000, 1);
    let (bad_wb, lost_wb) = run_link(&model, -60.0, &wb, 4_000, 1);
    assert!(
        bad_nb + lost_nb < (bad_wb + lost_wb) / 5 + 5,
        "narrowband {bad_nb} damaged/{lost_nb} lost vs wideband {bad_wb}/{lost_wb}"
    );
}

#[test]
fn diversity_cuts_deep_fades() {
    // Deep-fade tail at the body operating point: selection vs one branch.
    let rx = DiversityReceiver::default();
    let n = 200_000;
    let mut rng = StdRng::seed_from_u64(3);
    let deep = |fade: f64| fade < -5.2; // the error-region entry at level ~6.7
    let div_deep = (0..n).filter(|_| deep(rx.select(&mut rng).1)).count();
    let single_deep = (0..n).filter(|_| deep(rx.single_branch(&mut rng))).count();
    assert!(
        div_deep * 5 < single_deep,
        "deep fades per {n}: selection {div_deep}, single antenna {single_deep}"
    );
}

#[test]
fn soft_viterbi_leaves_no_more_errors_than_hard() {
    let dec = ViterbiDecoder::new();
    let mut rng = StdRng::seed_from_u64(5);
    let bits: Vec<u8> = (0..800).map(|_| rng.gen_range(0..2)).collect();
    let coded = ConvolutionalEncoder::new().encode_terminated(&bits);
    // A soft channel at low SNR.
    let soft: Vec<f64> = coded
        .iter()
        .map(|&b| {
            let tx = if b == 1 { 1.0 } else { -1.0 };
            tx + wavelan_phy::baseband::gaussian(&mut rng, 0.8)
        })
        .collect();
    let hard: Vec<u8> = soft.iter().map(|&s| u8::from(s > 0.0)).collect();
    let errors = |decoded: Vec<u8>| decoded.iter().zip(&bits).filter(|(a, b)| a != b).count();
    let soft_errs = errors(dec.decode_terminated(&soft));
    let hard_errs = errors(dec.decode_hard(&hard));
    assert!(
        soft_errs <= hard_errs,
        "residual errors at equal channel: soft {soft_errs}, hard {hard_errs}"
    );
}

#[test]
fn interleaving_rescues_burst_errors() {
    let dec = ViterbiDecoder::new();
    let il = BlockInterleaver::new(26, 62); // 26×62 = 1612 = the coded length exactly
    let mut rng = StdRng::seed_from_u64(6);
    let bits: Vec<u8> = (0..800).map(|_| rng.gen_range(0..2)).collect();
    let coded = ConvolutionalEncoder::new().encode_terminated(&bits);
    let burst = |data: &[u8], at: usize| {
        let mut d = data.to_vec();
        for s in d.iter_mut().skip(at).take(20) {
            *s ^= 1;
        }
        d
    };
    let mut plain_fail = 0;
    let mut il_fail = 0;
    for at in (100..1500).step_by(50) {
        if dec.decode_hard(&burst(&coded, at)) != bits {
            plain_fail += 1;
        }
        let rx_bits = il.deinterleave(&burst(&il.interleave(&coded), at));
        if dec.decode_hard(&rx_bits) != bits {
            il_fail += 1;
        }
    }
    assert!(
        il_fail < plain_fail,
        "20-bit bursts: {plain_fail} decode failures plain, {il_fail} interleaved"
    );
}

#[test]
fn capture_lifts_hidden_terminal_delivery() {
    let on = wavelan_core::experiments::hidden_terminal::run(300, 9);
    let (with, without) = (on.with_capture.delivery(), on.without_capture.delivery());
    assert!(
        with > without + 0.25,
        "hidden-terminal delivery: capture on {with:.3}, ablated {without:.3}"
    );
}
