//! Reusable scratch buffers for the FEC decode hot path.
//!
//! The Section 9.4 experiments decode hundreds of ~16k-symbol RCPC frames
//! per trial; allocating survivor storage, depuncture buffers and bit
//! staging per frame dominated the profile. One [`FecScratch`] per worker
//! (threaded through `Executor::map_with`, the same idiom `wavelan-phy`
//! uses for `RxScratch`) makes the steady-state decode loop allocation-free:
//! every buffer below is `clear()`ed and refilled in place, so capacity is
//! paid once during warm-up and reused for the rest of the run.

use crate::viterbi::SoftSymbol;

/// Scratch buffers threaded through the RCPC/Viterbi/HARQ decode path.
///
/// Create one per worker and pass it to the `_with` variants of the codec
/// APIs ([`crate::ViterbiDecoder::decode_terminated_with`],
/// [`crate::RcpcCodec::decode_soft_with`], [`crate::harq::run_harq_encoded_with`],
/// …). The buffers hold no semantic state between calls — any mixture of
/// rates, lengths and codecs may share one scratch.
#[derive(Debug, Default)]
pub struct FecScratch {
    /// Bit-packed survivor decisions: one `u64` per trellis step (64 states).
    pub(crate) decisions: Vec<u64>,
    /// Quantized fixed-point soft symbols for the integer ACS kernels.
    pub(crate) qsyms: Vec<i16>,
    /// Depunctured mother-domain soft symbols (RCPC decode staging).
    pub(crate) mother: Vec<SoftSymbol>,
    /// Decoded information bits (one per byte) before byte packing.
    pub(crate) bits: Vec<u8>,
    /// Payload-bit staging for the encode path.
    pub(crate) info_bits: Vec<u8>,
    /// Mother-coded bit staging for the encode path.
    pub(crate) coded: Vec<u8>,
    /// HARQ soft-combining accumulator, reused across rounds and packets.
    pub(crate) harq_soft: Vec<SoftSymbol>,
    /// Fixed-point mirror of `harq_soft`, valid while every combined symbol
    /// stays integer-valued within the quantizer bound (the common case);
    /// lets HARQ decodes skip the per-round f64 quantization scan.
    pub(crate) harq_acc: Vec<i16>,
    /// HARQ decode-attempt payload buffer (compared against the original).
    pub(crate) harq_payload: Vec<u8>,
}

impl FecScratch {
    /// Creates an empty scratch; buffers grow to steady-state capacity on
    /// first use and are reused thereafter.
    pub fn new() -> FecScratch {
        FecScratch::default()
    }
}
