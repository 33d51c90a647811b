//! The K=7, rate-1/2 convolutional encoder.
//!
//! Generators 133/171 (octal) — the de-facto standard code used by the
//! Qualcomm Q1650 "k=7 multi-code rate Viterbi decoder" the paper cites
//! \[31\], by IEEE 802.11a, DVB, and deep-space links. Each input bit produces
//! two coded bits from the convolution of the last 7 input bits with the two
//! generator polynomials. Frames are *terminated*: six tail zeros flush the
//! encoder so the decoder can end in the zero state.

/// Constraint length.
pub(crate) const CONSTRAINT: usize = 7;
/// Number of trellis states (2^(K−1)).
pub(crate) const STATES: usize = 1 << (CONSTRAINT - 1);
/// Generator polynomial G0 = 133 octal.
pub(crate) const G0: u32 = 0o133;
/// Generator polynomial G1 = 171 octal.
pub(crate) const G1: u32 = 0o171;
/// Tail bits appended to terminate a frame.
pub(crate) const TAIL_BITS: usize = CONSTRAINT - 1;

/// Computes the two output bits for (input bit, state). `state` holds the
/// previous K−1 input bits, most recent in the high bit.
#[inline]
pub(crate) fn branch_output(input: u8, state: usize) -> (u8, u8) {
    // Shift register contents: input bit followed by state bits.
    let reg = ((input as u32) << (CONSTRAINT - 1)) | state as u32;
    let o0 = (reg & G0).count_ones() & 1;
    let o1 = (reg & G1).count_ones() & 1;
    (o0 as u8, o1 as u8)
}

/// Advances the shift register.
#[inline]
pub(crate) fn next_state(input: u8, state: usize) -> usize {
    ((state >> 1) | ((input as usize) << (CONSTRAINT - 2))) & (STATES - 1)
}

/// The convolutional encoder.
#[derive(Debug, Clone, Default)]
pub struct ConvolutionalEncoder {
    state: usize,
}

impl ConvolutionalEncoder {
    /// A fresh encoder in the zero state.
    pub fn new() -> ConvolutionalEncoder {
        ConvolutionalEncoder::default()
    }

    /// Encodes one bit, returning the two coded bits.
    pub(crate) fn encode_bit(&mut self, bit: u8) -> (u8, u8) {
        let out = branch_output(bit & 1, self.state);
        self.state = next_state(bit & 1, self.state);
        out
    }

    /// Encodes a bit slice and appends the 6-zero tail, returning the coded
    /// bit stream (`2 × (len + 6)` bits, one bit per byte).
    pub fn encode_terminated(&mut self, bits: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_terminated_into(bits, &mut out);
        out
    }

    /// [`ConvolutionalEncoder::encode_terminated`] into a caller-provided
    /// buffer (cleared first) — no per-frame allocation in steady state.
    pub(crate) fn encode_terminated_into(&mut self, bits: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.reserve(2 * (bits.len() + TAIL_BITS));
        for &b in bits {
            let (a, c) = self.encode_bit(b);
            out.push(a);
            out.push(c);
        }
        for _ in 0..TAIL_BITS {
            let (a, c) = self.encode_bit(0);
            out.push(a);
            out.push(c);
        }
        self.state = 0;
    }
}

/// Unpacks bytes into bits, MSB first.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::new();
    bytes_to_bits_into(bytes, &mut bits);
    bits
}

/// [`bytes_to_bits`] into a caller-provided buffer (cleared first).
pub(crate) fn bytes_to_bits_into(bytes: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(bytes.len() * 8);
    for &b in bytes {
        for shift in (0..8).rev() {
            out.push((b >> shift) & 1);
        }
    }
}

/// Packs bits (one per byte, MSB first) back into bytes in a caller-provided
/// buffer (cleared first); trailing bits that do not fill a byte are dropped.
pub(crate) fn bits_to_bytes_into(bits: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(bits.len() / 8);
    out.extend(
        bits.chunks_exact(8)
            .map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | (b & 1))),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_impulse_response() {
        // A single 1 followed by zeros reads out the generators.
        let mut enc = ConvolutionalEncoder::new();
        let coded = enc.encode_terminated(&[1]);
        assert_eq!(coded.len(), 2 * (1 + TAIL_BITS));
        // First output pair: both generators tap the newest bit.
        assert_eq!((coded[0], coded[1]), (1, 1));
        // The full response must equal the generator taps read out in time:
        // bit i of the response pair = coefficient of x^i in G.
        for (i, pair) in coded.chunks_exact(2).enumerate() {
            let g0_bit = ((G0 >> (CONSTRAINT - 1 - i)) & 1) as u8;
            let g1_bit = ((G1 >> (CONSTRAINT - 1 - i)) & 1) as u8;
            assert_eq!((pair[0], pair[1]), (g0_bit, g1_bit), "tap {i}");
        }
    }

    #[test]
    fn encoder_is_linear() {
        // code(a ⊕ b) = code(a) ⊕ code(b) — the defining property of a
        // linear code; an excellent whole-implementation check.
        let a = [1u8, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0];
        let b = [0u8, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1];
        let xor: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let ca = ConvolutionalEncoder::new().encode_terminated(&a);
        let cb = ConvolutionalEncoder::new().encode_terminated(&b);
        let cx = ConvolutionalEncoder::new().encode_terminated(&xor);
        for i in 0..ca.len() {
            assert_eq!(cx[i], ca[i] ^ cb[i], "position {i}");
        }
    }

    #[test]
    fn termination_returns_to_zero_state() {
        let mut enc = ConvolutionalEncoder::new();
        enc.encode_terminated(&[1, 1, 1, 0, 1, 0, 1, 1]);
        assert_eq!(enc.state, 0);
    }

    #[test]
    fn next_state_shifts_correctly() {
        assert_eq!(next_state(1, 0), 0b100000);
        assert_eq!(next_state(0, 0b100000), 0b010000);
        assert_eq!(next_state(1, 0b000001), 0b100000);
    }

    #[test]
    fn bit_packing_round_trip() {
        let bytes = vec![0xDEu8, 0xAD, 0xBE, 0xEF, 0x00, 0xFF];
        let mut packed = Vec::new();
        bits_to_bytes_into(&bytes_to_bits(&bytes), &mut packed);
        assert_eq!(packed, bytes);
        assert_eq!(bytes_to_bits(&[0x80])[0], 1);
        assert_eq!(bytes_to_bits(&[0x01])[7], 1);
    }

    #[test]
    fn rate_is_one_half_plus_tail() {
        let bits = vec![0u8; 100];
        let coded = ConvolutionalEncoder::new().encode_terminated(&bits);
        assert_eq!(coded.len(), 2 * 106);
    }

    proptest::proptest! {
        /// Bit packing round-trips for any byte string.
        #[test]
        fn bit_packing_round_trips_any_bytes(bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..128)) {
            let mut packed = Vec::new();
            bits_to_bytes_into(&bytes_to_bits(&bytes), &mut packed);
            proptest::prop_assert_eq!(packed, bytes);
        }
    }
}
