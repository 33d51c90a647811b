//! Rate-compatible punctured convolutional (RCPC) codes.
//!
//! Paper Section 9.4: "Hagenauer presents a family of codes called
//! rate-compatible punctured convolution codes which use the popular Viterbi
//! decoding algorithm. One example code family has 13 codes with redundancy
//! overhead varying from 12.5% to 300%."
//!
//! We build a family over the K=7 mother code with puncturing period 8
//! (8 information bits → 16 mother-coded bits per period):
//!
//! | rate  | kept of 16 | redundancy overhead |
//! |-------|------------|---------------------|
//! | 8/9   | 9          | 12.5%               |
//! | 4/5   | 10         | 25%                 |
//! | 2/3   | 12         | 50%                 |
//! | 1/2   | 16         | 100%                |
//! | 1/4   | 16 × 2     | 300% (repetition)   |
//!
//! *Rate compatibility* means the kept-position sets are nested: every
//! symbol transmitted at a high rate is also transmitted at every lower
//! rate. A sender can therefore *add* redundancy incrementally (hybrid ARQ)
//! and the receiver always decodes with the same mother-code Viterbi by
//! treating missing positions as erasures.

use crate::convolutional::{
    bits_to_bytes_into, bytes_to_bits_into, ConvolutionalEncoder, TAIL_BITS,
};
use crate::scratch::FecScratch;
use crate::viterbi::{SoftSymbol, ViterbiDecoder};

/// Puncturing period in information bits.
pub(crate) const PERIOD_INFO_BITS: usize = 8;
/// Mother-coded bits per period.
pub(crate) const PERIOD_CODED_BITS: usize = 16;

/// The code rates in the family, highest (least redundancy) first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CodeRate {
    /// 8/9: 12.5% overhead — "FEC would be useless overhead in most
    /// situations" territory, nearly free insurance.
    R8_9,
    /// 4/5: 25% overhead.
    R4_5,
    /// 2/3: 50% overhead.
    R2_3,
    /// 1/2: the unpunctured mother code, 100% overhead.
    R1_2,
    /// 1/4: mother code with every symbol repeated, 300% overhead.
    R1_4,
}

impl CodeRate {
    /// All rates, highest rate (least protection) first.
    pub const ALL: [CodeRate; 5] = [
        CodeRate::R8_9,
        CodeRate::R4_5,
        CodeRate::R2_3,
        CodeRate::R1_2,
        CodeRate::R1_4,
    ];

    /// Coded symbols kept per period at this rate (with repetition counted).
    pub(crate) fn kept_per_period(self) -> usize {
        match self {
            CodeRate::R8_9 => 9,
            CodeRate::R4_5 => 10,
            CodeRate::R2_3 => 12,
            CodeRate::R1_2 => 16,
            CodeRate::R1_4 => 32,
        }
    }

    /// Redundancy overhead (transmitted bits over information bits, minus 1).
    pub fn overhead(self) -> f64 {
        self.kept_per_period() as f64 / PERIOD_INFO_BITS as f64 - 1.0
    }

    /// Information rate k/n.
    pub fn rate(self) -> f64 {
        PERIOD_INFO_BITS as f64 / self.kept_per_period() as f64
    }

    /// The next-stronger (lower) rate, if any.
    pub(crate) fn stronger(self) -> Option<CodeRate> {
        let all = CodeRate::ALL;
        let idx = all.iter().position(|&r| r == self).unwrap();
        all.get(idx + 1).copied()
    }

    /// The next-weaker (higher) rate, if any.
    pub(crate) fn weaker(self) -> Option<CodeRate> {
        let all = CodeRate::ALL;
        let idx = all.iter().position(|&r| r == self).unwrap();
        idx.checked_sub(1).map(|i| all[i])
    }
}

/// Transmission priority of the 16 mother-code positions within a period:
/// the first 9 entries are what rate 8/9 sends, the first 10 what 4/5 sends,
/// and so on — nested by construction, which is the rate-compatibility
/// property. The order interleaves the two generator streams and spreads
/// punctures evenly (a standard good heuristic).
const PRIORITY: [usize; PERIOD_CODED_BITS] = [0, 1, 3, 5, 7, 9, 11, 13, 15, 4, 8, 12, 2, 6, 10, 14];

/// Precomputed puncture map for one punctured rate: everything the encode
/// and depuncture loops need, derived once at compile time from
/// [`PRIORITY`] instead of `contains`-scanning it per bit per frame.
#[derive(Debug, Clone, Copy)]
struct PunctureMap {
    /// Bit `p` set ⇔ mother position `p mod 16` is transmitted.
    mask: u16,
    /// Kept positions within a period, ascending (mother order); only the
    /// first `kept` entries are meaningful.
    list: [u8; PERIOD_CODED_BITS],
    /// Number of kept positions per period.
    kept: usize,
}

const fn puncture_map(kept: usize) -> PunctureMap {
    let mut mask = 0u16;
    let mut i = 0;
    while i < kept {
        mask |= 1 << PRIORITY[i];
        i += 1;
    }
    let mut list = [0u8; PERIOD_CODED_BITS];
    let mut n = 0;
    let mut p = 0;
    while p < PERIOD_CODED_BITS {
        if (mask >> p) & 1 == 1 {
            list[n] = p as u8;
            n += 1;
        }
        p += 1;
    }
    PunctureMap {
        mask,
        list,
        kept: n,
    }
}

/// Maps for the three genuinely punctured rates, in [`CodeRate::ALL`]
/// order (R1_2 and R1_4 keep every position and skip the map entirely).
const MAPS: [PunctureMap; 3] = [puncture_map(9), puncture_map(10), puncture_map(12)];

impl CodeRate {
    fn map(self) -> Option<&'static PunctureMap> {
        match self {
            CodeRate::R8_9 => Some(&MAPS[0]),
            CodeRate::R4_5 => Some(&MAPS[1]),
            CodeRate::R2_3 => Some(&MAPS[2]),
            CodeRate::R1_2 | CodeRate::R1_4 => None,
        }
    }
}

/// Encoder/decoder pair for the RCPC family.
#[derive(Debug)]
pub struct RcpcCodec {
    decoder: ViterbiDecoder,
}

impl Default for RcpcCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl RcpcCodec {
    /// Builds the codec.
    pub fn new() -> RcpcCodec {
        RcpcCodec {
            decoder: ViterbiDecoder::new(),
        }
    }

    /// Positions (within a period) transmitted at `rate`, in mother order
    /// (test oracle for the precomputed maps).
    #[cfg(test)]
    fn kept_positions(rate: CodeRate) -> Vec<usize> {
        match rate.map() {
            Some(map) => map.list[..map.kept].iter().map(|&p| p as usize).collect(),
            None => (0..PERIOD_CODED_BITS).collect(),
        }
    }

    /// Encodes payload bytes at `rate`: mother-encode, then puncture (or
    /// repeat, for 1/4). Returns the transmitted bit stream.
    pub fn encode(&self, payload: &[u8], rate: CodeRate) -> Vec<u8> {
        let mut scratch = FecScratch::new();
        let mut out = Vec::new();
        self.encode_with(payload, rate, &mut scratch, &mut out);
        out
    }

    /// [`RcpcCodec::encode`] into a caller-provided buffer (cleared first),
    /// staging the mother code in `scratch` — allocation-free in steady
    /// state.
    pub fn encode_with(
        &self,
        payload: &[u8],
        rate: CodeRate,
        scratch: &mut FecScratch,
        out: &mut Vec<u8>,
    ) {
        let mut bits = std::mem::take(&mut scratch.info_bits);
        let mut mother = std::mem::take(&mut scratch.coded);
        bytes_to_bits_into(payload, &mut bits);
        ConvolutionalEncoder::new().encode_terminated_into(&bits, &mut mother);
        out.clear();
        match rate.map() {
            None if rate == CodeRate::R1_2 => out.extend_from_slice(&mother),
            None => {
                out.reserve(mother.len() * 2);
                for &b in &mother {
                    out.push(b);
                    out.push(b);
                }
            }
            Some(map) => {
                out.reserve(mother.len() * map.kept / PERIOD_CODED_BITS + PERIOD_CODED_BITS);
                for (i, &b) in mother.iter().enumerate() {
                    if (map.mask >> (i % PERIOD_CODED_BITS)) & 1 == 1 {
                        out.push(b);
                    }
                }
            }
        }
        scratch.info_bits = bits;
        scratch.coded = mother;
    }

    /// Number of transmitted bits for a payload of `payload_len` bytes at
    /// `rate` (including the mother code's tail).
    pub(crate) fn transmitted_bits(&self, payload_len: usize, rate: CodeRate) -> usize {
        let mother_len = 2 * (payload_len * 8 + TAIL_BITS);
        match rate.map() {
            None if rate == CodeRate::R1_2 => mother_len,
            None => mother_len * 2,
            Some(map) => {
                let full = mother_len / PERIOD_CODED_BITS;
                let tail = mother_len % PERIOD_CODED_BITS;
                full * map.kept + (map.mask & ((1u16 << tail) - 1)).count_ones() as usize
            }
        }
    }

    /// Decodes received *soft* symbols (in transmitted order) at `rate`,
    /// reinserting erasures at punctured positions, and returns the payload
    /// bytes.
    pub fn decode_soft(
        &self,
        received: &[SoftSymbol],
        payload_len: usize,
        rate: CodeRate,
    ) -> Vec<u8> {
        let mut scratch = FecScratch::new();
        let mut out = Vec::new();
        self.decode_soft_with(received, payload_len, rate, &mut scratch, &mut out);
        out
    }

    /// [`RcpcCodec::decode_soft`] into a caller-provided buffer (cleared
    /// first), reusing `scratch` for the depunctured mother codeword and
    /// the Viterbi survivor storage.
    pub fn decode_soft_with(
        &self,
        received: &[SoftSymbol],
        payload_len: usize,
        rate: CodeRate,
        scratch: &mut FecScratch,
        out: &mut Vec<u8>,
    ) {
        let mother_len = 2 * (payload_len * 8 + TAIL_BITS);
        let mut mother = std::mem::take(&mut scratch.mother);
        mother.clear();
        mother.resize(mother_len, 0.0);
        match rate.map() {
            None if rate == CodeRate::R1_2 => {
                let n = received.len().min(mother_len);
                mother[..n].copy_from_slice(&received[..n]);
            }
            None => {
                // Combine the two copies of each symbol (soft combining).
                for (i, m) in mother.iter_mut().enumerate() {
                    let a = received.get(2 * i).copied().unwrap_or(0.0);
                    let b = received.get(2 * i + 1).copied().unwrap_or(0.0);
                    *m = a + b;
                }
            }
            Some(map) => {
                // Walk the kept slots directly, one puncture period at a
                // time: received symbol `k` lands at mother position
                // period(k)·16 + list[k mod kept].
                let expected = self.transmitted_bits(payload_len, rate);
                let slots = &map.list[..map.kept];
                let mut base = 0usize;
                for chunk in received[..expected.min(received.len())].chunks(map.kept) {
                    for (&value, &slot) in chunk.iter().zip(slots) {
                        mother[base + slot as usize] = value;
                    }
                    base += PERIOD_CODED_BITS;
                }
            }
        }
        let mut bits = std::mem::take(&mut scratch.bits);
        self.decoder
            .decode_terminated_with(&mother, scratch, &mut bits);
        bits_to_bytes_into(&bits, out);
        scratch.mother = mother;
        scratch.bits = bits;
    }

    /// Hard-decision decode convenience.
    pub fn decode_hard(&self, received: &[u8], payload_len: usize, rate: CodeRate) -> Vec<u8> {
        let mut scratch = FecScratch::new();
        let mut out = Vec::new();
        self.decode_hard_with(received, payload_len, rate, &mut scratch, &mut out);
        out
    }

    /// Allocation-free hard-decision decode: depunctures straight into the
    /// integer symbol domain (±1 received, 0 erased; rate 1/4 copies sum to
    /// ±2/0) and feeds the fixed-point kernels without building an f64
    /// soft vector — bit-identical to `decode_soft(hard_to_soft(..))`.
    pub fn decode_hard_with(
        &self,
        received: &[u8],
        payload_len: usize,
        rate: CodeRate,
        scratch: &mut FecScratch,
        out: &mut Vec<u8>,
    ) {
        let mother_len = 2 * (payload_len * 8 + TAIL_BITS);
        let mut qsyms = std::mem::take(&mut scratch.qsyms);
        qsyms.clear();
        qsyms.resize(mother_len, 0);
        let pm1 = |b: u8| if b & 1 == 1 { 1i16 } else { -1i16 };
        match rate.map() {
            None if rate == CodeRate::R1_2 => {
                let n = received.len().min(mother_len);
                for (q, &b) in qsyms[..n].iter_mut().zip(received) {
                    *q = pm1(b);
                }
            }
            None => {
                for (i, q) in qsyms.iter_mut().enumerate() {
                    let a = received.get(2 * i).map(|&b| pm1(b)).unwrap_or(0);
                    let b = received.get(2 * i + 1).map(|&b| pm1(b)).unwrap_or(0);
                    *q = a + b;
                }
            }
            Some(map) => {
                let expected = self.transmitted_bits(payload_len, rate);
                let slots = &map.list[..map.kept];
                let mut base = 0usize;
                for chunk in received[..expected.min(received.len())].chunks(map.kept) {
                    for (&b, &slot) in chunk.iter().zip(slots) {
                        qsyms[base + slot as usize] = pm1(b);
                    }
                    base += PERIOD_CODED_BITS;
                }
            }
        }
        let mut bits = std::mem::take(&mut scratch.bits);
        self.decoder
            .decode_quantized_with(&qsyms, scratch, &mut bits);
        bits_to_bytes_into(&bits, out);
        scratch.qsyms = qsyms;
        scratch.bits = bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::viterbi::hard_to_soft;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn overheads_span_the_hagenauer_range() {
        // "redundancy overhead varying from 12.5% to 300%".
        assert!((CodeRate::R8_9.overhead() - 0.125).abs() < 1e-12);
        assert!((CodeRate::R4_5.overhead() - 0.25).abs() < 1e-12);
        assert!((CodeRate::R2_3.overhead() - 0.5).abs() < 1e-12);
        assert!((CodeRate::R1_2.overhead() - 1.0).abs() < 1e-12);
        assert!((CodeRate::R1_4.overhead() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn kept_positions_are_nested() {
        // Rate compatibility: each rate's kept set contains the weaker's.
        let mut prev: Vec<usize> = Vec::new();
        for rate in [
            CodeRate::R8_9,
            CodeRate::R4_5,
            CodeRate::R2_3,
            CodeRate::R1_2,
        ] {
            let keep = RcpcCodec::kept_positions(rate);
            for p in &prev {
                assert!(keep.contains(p), "{rate:?} lost position {p}");
            }
            prev = keep;
        }
    }

    #[test]
    fn all_rates_round_trip_clean_data() {
        let codec = RcpcCodec::new();
        let payload: Vec<u8> = (0..64u8).collect();
        for rate in CodeRate::ALL {
            let tx = codec.encode(&payload, rate);
            let rx = codec.decode_hard(&tx, payload.len(), rate);
            assert_eq!(rx, payload, "{rate:?}");
            // Rate accounting.
            let expected_bits = ((payload.len() * 8 + 6) as f64
                * (rate.kept_per_period() as f64 / 8.0))
                .round() as usize;
            assert_eq!(tx.len(), expected_bits, "{rate:?}");
        }
    }

    #[test]
    fn stronger_rates_survive_more_errors() {
        let codec = RcpcCodec::new();
        let payload: Vec<u8> = (0..128u8).collect();
        // Seed recalibrated for the vendored xoshiro RNG stream.
        let mut rng = StdRng::seed_from_u64(2);
        // Find, per rate, the max random BER at which 10/10 frames decode.
        let survives = |rate: CodeRate, ber: f64, rng: &mut StdRng| -> bool {
            for _ in 0..10 {
                let mut tx = codec.encode(&payload, rate);
                for b in tx.iter_mut() {
                    if rng.gen::<f64>() < ber {
                        *b ^= 1;
                    }
                }
                if codec.decode_hard(&tx, payload.len(), rate) != payload {
                    return false;
                }
            }
            true
        };
        // 1/2 handles 2% random BER easily; 8/9 does not handle 2%.
        assert!(survives(CodeRate::R1_2, 0.02, &mut rng));
        assert!(!survives(CodeRate::R8_9, 0.02, &mut rng));
        // 8/9 handles only a very mild channel (punctured d_free is small).
        assert!(survives(CodeRate::R8_9, 0.0002, &mut rng));
        // 1/4 shrugs off 5%.
        assert!(survives(CodeRate::R1_4, 0.05, &mut rng));
    }

    #[test]
    fn rate_navigation() {
        assert_eq!(CodeRate::R8_9.stronger(), Some(CodeRate::R4_5));
        assert_eq!(CodeRate::R1_4.stronger(), None);
        assert_eq!(CodeRate::R8_9.weaker(), None);
        assert_eq!(CodeRate::R1_2.weaker(), Some(CodeRate::R2_3));
    }

    #[test]
    fn repetition_rate_soft_combines() {
        // With rate 1/4, one corrupted copy of a symbol is outvoted by its
        // clean twin — even a fairly dense corruption of one copy decodes.
        let codec = RcpcCodec::new();
        let payload = vec![0xA5u8; 32];
        let tx = codec.encode(&payload, CodeRate::R1_4);
        let mut soft = hard_to_soft(&tx);
        for i in (0..soft.len()).step_by(2) {
            if i % 6 == 0 {
                soft[i] = -soft[i]; // flip every 3rd pair's first copy
            }
        }
        assert_eq!(
            codec.decode_soft(&soft, payload.len(), CodeRate::R1_4),
            payload
        );
    }
}
