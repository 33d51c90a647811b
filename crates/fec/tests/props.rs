//! Property-based tests for the FEC stack.

use proptest::prelude::*;
use wavelan_fec::convolutional::ConvolutionalEncoder;
use wavelan_fec::interleaver::BlockInterleaver;
use wavelan_fec::rcpc::{CodeRate, RcpcCodec};
use wavelan_fec::viterbi::ViterbiDecoder;

proptest! {

    /// Encoding is linear: code(a ⊕ b) = code(a) ⊕ code(b).
    #[test]
    fn encoder_linearity(
        a in proptest::collection::vec(0u8..2, 1..200),
        b_seed in any::<u64>(),
    ) {
        let b: Vec<u8> = a.iter().enumerate()
            .map(|(i, _)| ((b_seed >> (i % 64)) & 1) as u8)
            .collect();
        let xor: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let ca = ConvolutionalEncoder::new().encode_terminated(&a);
        let cb = ConvolutionalEncoder::new().encode_terminated(&b);
        let cx = ConvolutionalEncoder::new().encode_terminated(&xor);
        for i in 0..ca.len() {
            prop_assert_eq!(cx[i], ca[i] ^ cb[i]);
        }
    }

    /// Viterbi inverts the encoder on any clean frame.
    #[test]
    fn viterbi_inverts_encoder(bits in proptest::collection::vec(0u8..2, 1..300)) {
        let coded = ConvolutionalEncoder::new().encode_terminated(&bits);
        prop_assert_eq!(ViterbiDecoder::new().decode_hard(&coded), bits);
    }

    /// Viterbi corrects any single bit error anywhere in the frame.
    #[test]
    fn viterbi_corrects_any_single_error(
        bits in proptest::collection::vec(0u8..2, 8..120),
        pos in any::<proptest::sample::Index>(),
    ) {
        let mut coded = ConvolutionalEncoder::new().encode_terminated(&bits);
        let idx = pos.index(coded.len());
        coded[idx] ^= 1;
        prop_assert_eq!(ViterbiDecoder::new().decode_hard(&coded), bits);
    }

    /// Every RCPC rate round-trips any payload on a clean channel, and its
    /// transmitted size matches the advertised overhead.
    #[test]
    fn rcpc_round_trip_all_rates(payload in proptest::collection::vec(any::<u8>(), 1..96)) {
        let codec = RcpcCodec::new();
        for rate in CodeRate::ALL {
            let tx = codec.encode(&payload, rate);
            prop_assert_eq!(codec.decode_hard(&tx, payload.len(), rate), payload.clone());
            let info_bits = (payload.len() * 8 + 6) as f64;
            let actual = tx.len() as f64 / info_bits;
            prop_assert!((actual - 1.0 / rate.rate()).abs() < 0.06,
                "{rate:?}: {actual} vs {}", 1.0 / rate.rate());
        }
    }

    /// The interleaver is a permutation (round-trips) for any block shape
    /// and any input length, including partial trailing blocks.
    #[test]
    fn interleaver_round_trip(
        rows in 1usize..24,
        cols in 1usize..24,
        data in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let il = BlockInterleaver::new(rows, cols);
        prop_assert_eq!(il.deinterleave(&il.interleave(&data)), data);
    }

    /// Interleaving preserves the multiset of symbols in every full block.
    #[test]
    fn interleaver_is_permutation(
        rows in 2usize..12,
        cols in 2usize..12,
        seed in any::<u64>(),
    ) {
        let il = BlockInterleaver::new(rows, cols);
        let n = il.block_len();
        let data: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(seed as u32 | 1)).collect();
        let mut out = il.interleave(&data);
        let mut expect = data.clone();
        out.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(out, expect);
    }
}
