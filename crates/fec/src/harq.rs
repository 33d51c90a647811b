//! Type-II hybrid ARQ: retransmission with *incremental redundancy*.
//!
//! The paper's Section 9.4 cites Kallel's "efficient hybrid ARQ protocols
//! with adaptive forward error correction" \[22\]; rate-compatible punctured
//! codes exist precisely to make this work. The protocol:
//!
//! 1. Transmit the payload at the weakest code (rate 8/9 — 12.5% overhead).
//! 2. If decoding fails (CRC), the sender does **not** repeat the packet; it
//!    sends only the *additional* mother-code symbols that upgrade the
//!    receiver's copy to the next rate (8/9 → 4/5 costs 1 extra symbol per
//!    period, not 10).
//! 3. The receiver soft-combines everything received so far and decodes
//!    with the mother-code Viterbi, erasing still-missing positions.
//! 4. Repeat down the ladder; at rate 1/4 further retransmissions resend
//!    the mother code (Chase combining).
//!
//! Because the kept-position sets are nested ([`crate::rcpc`]), every
//! transmitted symbol remains useful forever — the defining advantage over
//! plain ARQ (which throws away the failed copy) and over fixed-rate FEC
//! (which pays worst-case overhead on every packet).

use crate::convolutional::bits_to_bytes_into;
use crate::rcpc::PERIOD_CODED_BITS;
use crate::scratch::FecScratch;
use crate::viterbi::{SoftSymbol, ViterbiDecoder};

/// Priority order of mother-code positions within a period (mirrors
/// `rcpc`'s nesting; re-derived here so the sender can enumerate
/// *increments* between rates).
const PRIORITY: [usize; PERIOD_CODED_BITS] = [0, 1, 3, 5, 7, 9, 11, 13, 15, 4, 8, 12, 2, 6, 10, 14];

/// Bitmask of the positions (within a period) that rate `r` transmits.
const fn kept_mask(n: usize) -> u16 {
    let mut mask = 0u16;
    let mut i = 0;
    while i < n {
        mask |= 1 << PRIORITY[i];
        i += 1;
    }
    mask
}

/// Per-round transmitted-position masks, precomputed from the ladder's
/// nesting: round 0 is everything rate 8/9 sends; each later ladder round
/// is the set difference between consecutive rates; Chase rounds resend
/// every position.
const ROUND_MASKS: [u16; 4] = [
    kept_mask(9),
    kept_mask(10) & !kept_mask(9),
    kept_mask(12) & !kept_mask(10),
    kept_mask(16) & !kept_mask(12),
];

/// Mask of positions transmitted in (0-based) round `round`.
fn round_mask(round: usize) -> u16 {
    if round < ROUND_MASKS.len() {
        ROUND_MASKS[round]
    } else {
        kept_mask(PERIOD_CODED_BITS) // Chase: repeat everything
    }
}

/// Outcome of running the whole protocol over a BSC-like channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarqOutcome {
    /// Rounds used (1 = first transmission sufficed).
    pub rounds: usize,
    /// Total bits on the air, across all rounds.
    pub bits_sent: usize,
    /// Whether the payload was eventually delivered.
    pub delivered: bool,
}

/// Runs sender and receiver against a caller-supplied channel until decode
/// success or `max_rounds`. The channel maps each transmitted hard bit to a
/// received soft value (e.g. flip with probability p, magnitude 1), one
/// call per transmitted bit in mother order within each round.
///
/// `mother` must be the terminated encoding of `payload`
/// ([`ConvolutionalEncoder::encode_terminated`](crate::convolutional::ConvolutionalEncoder::encode_terminated) of its bits), so drivers
/// that retransmit one payload many times (shootouts, benches) pay the
/// encode once per payload instead of once per packet. The soft-combining
/// accumulators and all decode buffers live in `scratch` and are reused
/// across packets and rounds — the whole protocol runs without a single
/// steady-state allocation.
pub fn run_harq_encoded_with<C: FnMut(u8) -> SoftSymbol>(
    payload: &[u8],
    mother: &[u8],
    max_rounds: usize,
    mut channel: C,
    scratch: &mut FecScratch,
) -> HarqOutcome {
    let mut soft = std::mem::take(&mut scratch.harq_soft);
    let mut acc = std::mem::take(&mut scratch.harq_acc);
    let mut dbits = std::mem::take(&mut scratch.bits);
    let mut decoded = std::mem::take(&mut scratch.harq_payload);
    soft.clear();
    soft.resize(mother.len(), 0.0);
    acc.clear();
    acc.resize(mother.len(), 0);
    // While every channel output is integer-valued and every combined slot
    // stays within the fixed-point bound, `acc` mirrors `soft` exactly and
    // the decode can skip the per-round f64 quantization scan. The flag is
    // a pure fast-path hint: once false, decodes go through the f64
    // accumulator, which re-checks eligibility itself.
    let mut fast = true;
    // While every received symbol carries the transmitted bit's sign (no
    // flips, no erasures among received copies), the true path's metric
    // strictly beats every other path's: any distinct trellis path differs
    // from the true one at some position the cumulative kept set covers
    // (the rate patterns have positive punctured distance), where the true
    // path earns +|s| and the impostor −|s|. The argmax is therefore unique
    // and equals the transmitted payload, so the decode can be skipped.
    let mut clean = true;
    let decoder = ViterbiDecoder::new();
    let mut bits_sent = 0;
    let mut delivered_round = None;
    for round in 1..=max_rounds {
        // Kept slots of this round's period mask, ascending (mother order).
        let mask = round_mask(round - 1);
        let mut slots = [0u8; PERIOD_CODED_BITS];
        let mut kept = 0usize;
        for p in 0..PERIOD_CODED_BITS {
            if (mask >> p) & 1 == 1 {
                slots[kept] = p as u8;
                kept += 1;
            }
        }
        let mut base = 0usize;
        while base < mother.len() {
            for &slot in &slots[..kept] {
                let i = base + slot as usize;
                if i >= mother.len() {
                    break;
                }
                bits_sent += 1;
                let bit = mother[i];
                let s = channel(bit);
                soft[i] += s; // soft combining across rounds
                clean &= if bit == 1 { s > 0.0 } else { s < 0.0 };
                if fast {
                    let q = s as i16;
                    if f64::from(q) == s && f64::from(q).abs() <= ViterbiDecoder::MAX_FIXED_MAG {
                        acc[i] += q;
                        if f64::from(acc[i]).abs() > ViterbiDecoder::MAX_FIXED_MAG {
                            fast = false;
                        }
                    } else {
                        fast = false;
                    }
                }
            }
            base += PERIOD_CODED_BITS;
        }
        if clean {
            delivered_round = Some(round);
            break;
        }
        if fast {
            decoder.decode_quantized_with(&acc, scratch, &mut dbits);
        } else {
            decoder.decode_terminated_with(&soft, scratch, &mut dbits);
        }
        bits_to_bytes_into(&dbits, &mut decoded);
        if decoded == payload {
            delivered_round = Some(round);
            break;
        }
    }
    scratch.harq_soft = soft;
    scratch.harq_acc = acc;
    scratch.bits = dbits;
    scratch.harq_payload = decoded;
    match delivered_round {
        Some(rounds) => HarqOutcome {
            rounds,
            bits_sent,
            delivered: true,
        },
        None => HarqOutcome {
            rounds: max_rounds,
            bits_sent,
            delivered: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolutional::{bytes_to_bits, ConvolutionalEncoder};
    use crate::rcpc::CodeRate;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Encodes `payload` and runs the protocol on a fresh scratch.
    fn run_harq<C: FnMut(u8) -> SoftSymbol>(
        payload: &[u8],
        max_rounds: usize,
        channel: C,
    ) -> HarqOutcome {
        let mother = ConvolutionalEncoder::new().encode_terminated(&bytes_to_bits(payload));
        run_harq_encoded_with(
            payload,
            &mother,
            max_rounds,
            channel,
            &mut FecScratch::new(),
        )
    }

    fn payload() -> Vec<u8> {
        (0..128u8).collect()
    }

    /// Channel closure: BSC with the given flip probability.
    fn bsc(p: f64, seed: u64) -> impl FnMut(u8) -> SoftSymbol {
        let mut rng = StdRng::seed_from_u64(seed);
        move |bit| {
            let tx = if bit == 1 { 1.0 } else { -1.0 };
            if rng.gen::<f64>() < p {
                -tx
            } else {
                tx
            }
        }
    }

    #[test]
    fn round_masks_match_priority_set_differences() {
        // The precomputed masks must equal the first-principles derivation
        // from the PRIORITY prefixes (what the old scan computed per bit).
        let prefix = |n: usize| -> Vec<usize> { PRIORITY[..n].to_vec() };
        let sizes = [9usize, 10, 12, 16];
        for (round, mask) in ROUND_MASKS.iter().enumerate() {
            let cur = prefix(sizes[round]);
            let prev: Vec<usize> = if round == 0 {
                Vec::new()
            } else {
                prefix(sizes[round - 1])
            };
            for p in 0..PERIOD_CODED_BITS {
                let expected = cur.contains(&p) && !prev.contains(&p);
                assert_eq!((mask >> p) & 1 == 1, expected, "round {round} pos {p}");
            }
        }
        assert_eq!(round_mask(4), 0xFFFF, "Chase rounds resend everything");
    }

    #[test]
    fn clean_channel_delivers_in_one_round() {
        let outcome = run_harq(&payload(), 8, bsc(0.0, 1));
        assert!(outcome.delivered);
        assert_eq!(outcome.rounds, 1);
        // First round ≈ 9/16 of mother ≈ 0.5625 × 2 × (1024 + 6) bits.
        assert!((outcome.bits_sent as f64 / 2060.0 - 0.5625).abs() < 0.01);
    }

    #[test]
    fn noisy_channel_uses_more_rounds_but_delivers() {
        let outcome = run_harq(&payload(), 8, bsc(0.02, 2));
        assert!(outcome.delivered, "{outcome:?}");
        assert!(outcome.rounds > 1, "{outcome:?}");
        // Incremental redundancy: total bits stay below two full copies of
        // the rate-8/9 transmission unless we hit Chase rounds.
        if outcome.rounds <= 4 {
            assert!(outcome.bits_sent < 2 * 1159, "{outcome:?}");
        }
    }

    #[test]
    fn very_noisy_channel_reaches_chase_combining() {
        let outcome = run_harq(&payload(), 10, bsc(0.12, 3));
        assert!(outcome.delivered, "{outcome:?}");
        assert!(outcome.rounds >= 5, "expected Chase rounds: {outcome:?}");
    }

    #[test]
    fn hopeless_channel_gives_up_honestly() {
        let outcome = run_harq(&payload(), 3, bsc(0.5, 4));
        assert!(!outcome.delivered);
        assert_eq!(outcome.rounds, 3);
    }

    #[test]
    fn harq_beats_plain_arq_on_bits() {
        // Plain ARQ resends the whole rate-8/9 packet until one copy decodes
        // *alone*; IR-HARQ accumulates across rounds. Compare total bits to
        // deliver 25 packets at a BER where single copies fail often but not
        // always (0.15% — a fresh 8/9 copy decodes maybe half the time).
        let codec = crate::rcpc::RcpcCodec::new();
        let data = payload();
        let ber = 0.0015;
        let mut rng = StdRng::seed_from_u64(7);
        let mut plain_bits = 0usize;
        for _ in 0..25 {
            let mut delivered = false;
            for _attempt in 0..200 {
                let mut tx = codec.encode(&data, CodeRate::R8_9);
                plain_bits += tx.len();
                for b in tx.iter_mut() {
                    if rng.gen::<f64>() < ber {
                        *b ^= 1;
                    }
                }
                if codec.decode_hard(&tx, data.len(), CodeRate::R8_9) == data {
                    delivered = true;
                    break;
                }
            }
            assert!(delivered, "plain ARQ failed to deliver within 200 copies");
        }
        let mut harq_bits = 0usize;
        for i in 0..25 {
            let outcome = run_harq(&data, 12, bsc(ber, 100 + i));
            assert!(outcome.delivered);
            harq_bits += outcome.bits_sent;
        }
        assert!(
            harq_bits < plain_bits,
            "IR-HARQ {harq_bits} bits should beat plain ARQ {plain_bits}"
        );
    }
}
