//! Viterbi maximum-likelihood decoding of the K=7 code.
//!
//! "Hagenauer presents a family of codes called rate-compatible punctured
//! convolution codes which use the popular Viterbi decoding algorithm"
//! (paper Section 9.4, citing Viterbi 1967 and Forney 1973).
//!
//! The decoder works on *soft symbols*: each received coded bit is a value
//! in `[-1.0, +1.0]` where the sign is the hard decision and the magnitude
//! the confidence. Punctured (never transmitted) positions are erasures —
//! magnitude 0 — which contribute nothing to any branch metric; this is what
//! makes one decoder serve the whole RCPC family. Hard-decision decoding is
//! the special case where every magnitude is 1.
//!
//! # The bit-sliced fixed-point hot path
//!
//! The production workload (RCPC puncturing, HARQ soft combining, hard
//! decisions) only ever presents *integer-valued* symbols: ±1 hard
//! decisions, 0 erasures, and small integer sums from combining rounds.
//! For those inputs the decode runs on an integer add-compare-select over
//! the butterfly-ordered trellis:
//!
//! * **Butterfly structure.** State `ns` has predecessors `2·(ns mod 32)`
//!   and `2·(ns mod 32)+1` with input bit `ns div 32`. Both generators
//!   (133, 171 octal) tap shift-register bits 0 and 6, so flipping either
//!   the oldest state bit or the input bit negates *both* outputs. With
//!   `g[i]` the branch metric of `(state 2i, input 0)`, the four metrics of
//!   butterfly `i` are `±g[i]` — and `g[i]` itself is one of only four
//!   values `±r0±r1`, so each step builds a 4-entry table from two scalar
//!   adds and gathers it per butterfly with a single permute.
//! * **Bit-packed survivors.** 64 states fit one `u64` per trellis step
//!   (bit `ns` = which predecessor won), replacing the old
//!   `Vec<Vec<(u16, u8)>>` matrix; traceback is branchless shifts.
//! * **i16 metrics + renormalization.** Symbols are bounded by
//!   `ViterbiDecoder::MAX_FIXED_MAG`, so metrics grow ≤ 128 per step;
//!   subtracting the running maximum every 64 steps (a uniform shift that
//!   preserves every comparison) keeps all values in `i16` with margin.
//! * **SIMD kernels.** On x86-64 the ACS inner loop runs 32 butterflies at
//!   once in AVX-512BW (two `__m512i` metric vectors, `vpermi2w`
//!   deinterleave, compare-into-mask decisions) or AVX2 (four `__m256i`
//!   vectors, shuffle/permute deinterleave, `movemask` decisions), selected
//!   at runtime; a portable scalar i16 path is always available.
//!
//! **Bit identity.** The fixed-point path is *provably* identical to the
//! retained f64 reference ([`ViterbiDecoder::decode_terminated_reference`])
//! for eligible inputs: f64 arithmetic on integers of this size is exact,
//! the strict-greater tie-break (`prefer the even predecessor`) is
//! replicated, the `-20000` sentinel loses every comparison a `-inf`
//! skipped state would have lost (unreachable states exist only in the
//! first 6 steps, before the first renormalization, and are never on the
//! traceback path of a terminated frame), and renormalization subtracts a
//! common constant. Inputs that are not integer-valued (e.g. true AWGN
//! soft values) automatically fall back to the reference, so the public
//! API is exact for *all* inputs. Property tests in `tests/bit_identity.rs`
//! check every compiled kernel against the reference across rates, lengths,
//! erasure patterns and engineered tie-break cases.

use crate::convolutional::{branch_output, next_state, CONSTRAINT, STATES, TAIL_BITS};
use crate::scratch::FecScratch;

/// A received soft symbol: sign = hard decision, magnitude = confidence,
/// 0.0 = erasure (punctured or lost).
pub type SoftSymbol = f64;

/// Butterfly count: half the state count.
const HALF: usize = STATES / 2;

/// Metric placeholder for not-yet-reachable states. Real metrics stay in
/// roughly `[-9728, 8192]` (see the renormalization bound in the module
/// docs), so any real candidate beats any sentinel-derived candidate, which
/// is exactly how the reference's `-inf` skip behaves for states that
/// matter; sentinel states die out after the first 6 steps.
const SENTINEL: i16 = -20_000;

/// Trellis steps between metric renormalizations.
const RENORM_INTERVAL: usize = 64;

/// Converts hard bits to soft symbols (±1).
pub fn hard_to_soft(bits: &[u8]) -> Vec<SoftSymbol> {
    let mut out = Vec::new();
    hard_to_soft_into(bits, &mut out);
    out
}

/// Converts hard bits to soft symbols (±1) into a caller-provided buffer,
/// avoiding the per-frame allocation of [`hard_to_soft`].
pub(crate) fn hard_to_soft_into(bits: &[u8], out: &mut Vec<SoftSymbol>) {
    out.clear();
    out.reserve(bits.len());
    out.extend(bits.iter().map(|&b| if b & 1 == 1 { 1.0 } else { -1.0 }));
}

/// The integer ACS kernel selected at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// The Viterbi decoder for the K=7, rate-1/2 code (with erasures).
#[derive(Debug, Clone)]
pub struct ViterbiDecoder {
    /// Precomputed branch outputs as ±1 pairs, indexed by [state][input]
    /// (reference path).
    branch: [[(f64, f64); 2]; STATES],
    /// Per-butterfly selector into the step's 4-entry branch-metric table
    /// `[r0+r1, r0-r1, -r0+r1, -r0-r1]`: `g[i]` only ever takes one of
    /// those four values, so the kernels build the table once per step and
    /// gather it with one permute instead of re-deriving ±r0±r1 per lane.
    gsel: [i16; HALF],
    kernel: Kernel,
}

impl Default for ViterbiDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ViterbiDecoder {
    /// Largest symbol magnitude the fixed-point path accepts. Larger (or
    /// non-integer) symbols decode via the f64 reference instead — still
    /// correct, just slower. 64 covers every workload in this repo (HARQ
    /// combining sums stay far below it) with proven `i16` headroom.
    pub(crate) const MAX_FIXED_MAG: f64 = 64.0;

    /// Builds the decoder (precomputes the trellis outputs) and selects the
    /// fastest ACS kernel the host supports.
    pub fn new() -> ViterbiDecoder {
        Self::with_kernel_choice(None).expect("scalar kernel always available")
    }

    /// Builds a decoder forced to the named kernel (`"scalar"`, `"avx2"`,
    /// `"avx512"`); returns `None` if the host does not support it. Used by
    /// the bit-identity tests and benches to exercise every compiled path.
    pub fn with_kernel(name: &str) -> Option<ViterbiDecoder> {
        Self::with_kernel_choice(Some(name))
    }

    /// Name of the ACS kernel this decoder dispatches to.
    pub fn kernel_name(&self) -> &'static str {
        match self.kernel {
            Kernel::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => "avx512",
        }
    }

    fn with_kernel_choice(name: Option<&str>) -> Option<ViterbiDecoder> {
        let mut branch = [[(0.0, 0.0); 2]; STATES];
        for (state, entry) in branch.iter_mut().enumerate() {
            for input in 0..2u8 {
                let (o0, o1) = branch_output(input, state);
                let map = |b: u8| if b == 1 { 1.0 } else { -1.0 };
                entry[usize::from(input)] = (map(o0), map(o1));
            }
        }
        let mut gsel = [0i16; HALF];
        for (i, sel) in gsel.iter_mut().enumerate() {
            // Sign of each generator output for (state 2i, input 0):
            // output bit 1 ⇒ the symbol counts positively (+r), 0 ⇒
            // negatively (−r); the two sign bits select the table lane.
            let (o0, o1) = branch_output(0, 2 * i);
            let neg0 = i16::from(o0 != 1);
            let neg1 = i16::from(o1 != 1);
            *sel = 2 * neg0 + neg1;
        }
        let kernel = match name {
            None => {
                #[cfg(target_arch = "x86_64")]
                {
                    if is_x86_feature_detected!("avx512bw") {
                        Kernel::Avx512
                    } else if is_x86_feature_detected!("avx2") {
                        Kernel::Avx2
                    } else {
                        Kernel::Scalar
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    Kernel::Scalar
                }
            }
            Some("scalar") => Kernel::Scalar,
            #[cfg(target_arch = "x86_64")]
            Some("avx2") if is_x86_feature_detected!("avx2") => Kernel::Avx2,
            #[cfg(target_arch = "x86_64")]
            Some("avx512") if is_x86_feature_detected!("avx512bw") => Kernel::Avx512,
            Some(_) => return None,
        };
        Some(ViterbiDecoder {
            branch,
            gsel,
            kernel,
        })
    }

    /// Decodes a *terminated* frame of soft symbols (2 per trellis step,
    /// including the tail) back into the information bits.
    ///
    /// Correlation metric: larger is better; erasures add 0 either way.
    ///
    /// Convenience wrapper over [`ViterbiDecoder::decode_terminated_with`]
    /// that allocates fresh buffers; hot loops should hold a
    /// [`FecScratch`] and call the `_with` variant instead.
    pub fn decode_terminated(&self, symbols: &[SoftSymbol]) -> Vec<u8> {
        let mut scratch = FecScratch::new();
        let mut out = Vec::new();
        self.decode_terminated_with(symbols, &mut scratch, &mut out);
        out
    }

    /// Allocation-free decode of a terminated frame into `out` (cleared
    /// first), reusing `scratch` buffers. Bit-identical to
    /// [`ViterbiDecoder::decode_terminated_reference`] for every input:
    /// integer-valued symbols with magnitude ≤
    /// `ViterbiDecoder::MAX_FIXED_MAG` take the fixed-point kernels;
    /// anything else falls back to the reference.
    pub fn decode_terminated_with(
        &self,
        symbols: &[SoftSymbol],
        scratch: &mut FecScratch,
        out: &mut Vec<u8>,
    ) {
        assert!(
            symbols.len().is_multiple_of(2),
            "soft symbols come in pairs"
        );
        out.clear();
        let steps = symbols.len() / 2;
        if steps < TAIL_BITS {
            return;
        }
        let mut qsyms = std::mem::take(&mut scratch.qsyms);
        if quantize_into(symbols, &mut qsyms) {
            self.acs_traceback(&qsyms, &mut scratch.decisions, out);
        } else {
            // Rare path: genuinely fractional soft input (e.g. AWGN tests).
            out.extend_from_slice(&self.decode_terminated_reference(symbols));
        }
        scratch.qsyms = qsyms;
    }

    /// Decodes pre-quantized integer symbols (each in
    /// `[-MAX_FIXED_MAG, MAX_FIXED_MAG]`, 0 = erasure) without touching f64
    /// at all — the fastest entry point when the caller already has hard
    /// decisions or integer combining sums.
    pub fn decode_quantized_with(
        &self,
        qsyms: &[i16],
        scratch: &mut FecScratch,
        out: &mut Vec<u8>,
    ) {
        assert!(qsyms.len().is_multiple_of(2), "soft symbols come in pairs");
        debug_assert!(qsyms
            .iter()
            .all(|&q| f64::from(q).abs() <= Self::MAX_FIXED_MAG));
        out.clear();
        let steps = qsyms.len() / 2;
        if steps < TAIL_BITS {
            return;
        }
        self.acs_traceback(qsyms, &mut scratch.decisions, out);
    }

    /// The retained f64 reference decoder: the original formulation with
    /// per-state float correlation metrics and an explicit survivor matrix.
    /// The fixed-point kernels are property-tested bit-identical against
    /// it; it also serves fractional soft inputs directly.
    pub fn decode_terminated_reference(&self, symbols: &[SoftSymbol]) -> Vec<u8> {
        assert!(
            symbols.len().is_multiple_of(2),
            "soft symbols come in pairs"
        );
        let steps = symbols.len() / 2;
        if steps < TAIL_BITS {
            return Vec::new();
        }
        const NEG_INF: f64 = f64::NEG_INFINITY;

        let mut metric = vec![NEG_INF; STATES];
        metric[0] = 0.0; // encoder starts in state 0
        let mut new_metric = vec![NEG_INF; STATES];
        // survivor[t][next_state] = (prev_state, input bit)
        let mut survivor: Vec<Vec<(u16, u8)>> = Vec::with_capacity(steps);

        for t in 0..steps {
            let r0 = symbols[2 * t];
            let r1 = symbols[2 * t + 1];
            new_metric.iter_mut().for_each(|m| *m = NEG_INF);
            let mut col = vec![(0u16, 0u8); STATES];
            #[allow(clippy::needless_range_loop)] // trellis walk reads clearest indexed
            for state in 0..STATES {
                let m = metric[state];
                if m == NEG_INF {
                    continue;
                }
                for input in 0..2u8 {
                    let (e0, e1) = self.branch[state][usize::from(input)];
                    let bm = m + r0 * e0 + r1 * e1;
                    let ns = next_state(input, state);
                    if bm > new_metric[ns] {
                        new_metric[ns] = bm;
                        col[ns] = (state as u16, input);
                    }
                }
            }
            std::mem::swap(&mut metric, &mut new_metric);
            survivor.push(col);
        }

        // Terminated frame: trace back from state 0.
        let mut state = 0usize;
        let mut bits_rev = Vec::with_capacity(steps);
        for t in (0..steps).rev() {
            let (prev, input) = survivor[t][state];
            bits_rev.push(input);
            state = usize::from(prev);
        }
        bits_rev.reverse();
        bits_rev.truncate(steps - TAIL_BITS); // drop the tail
        bits_rev
    }

    /// Hard-decision convenience wrapper (allocates; see
    /// `ViterbiDecoder::decode_hard_with`).
    pub fn decode_hard(&self, coded_bits: &[u8]) -> Vec<u8> {
        let mut scratch = FecScratch::new();
        let mut out = Vec::new();
        self.decode_hard_with(coded_bits, &mut scratch, &mut out);
        out
    }

    /// Allocation-free hard-decision decode: quantizes bits straight to
    /// integer ±1 symbols in a scratch buffer (no f64 soft vector at all).
    pub(crate) fn decode_hard_with(
        &self,
        coded_bits: &[u8],
        scratch: &mut FecScratch,
        out: &mut Vec<u8>,
    ) {
        assert!(
            coded_bits.len().is_multiple_of(2),
            "coded bits come in pairs"
        );
        out.clear();
        let steps = coded_bits.len() / 2;
        if steps < TAIL_BITS {
            return;
        }
        let mut qsyms = std::mem::take(&mut scratch.qsyms);
        qsyms.clear();
        qsyms.reserve(coded_bits.len());
        qsyms.extend(
            coded_bits
                .iter()
                .map(|&b| if b & 1 == 1 { 1i16 } else { -1i16 }),
        );
        self.acs_traceback(&qsyms, &mut scratch.decisions, out);
        scratch.qsyms = qsyms;
    }

    /// Runs the selected ACS kernel over the whole frame, then the
    /// branchless traceback over the bit-packed survivor words.
    fn acs_traceback(&self, qsyms: &[i16], decisions: &mut Vec<u64>, out: &mut Vec<u8>) {
        let steps = qsyms.len() / 2;
        decisions.clear();
        decisions.reserve(steps);
        match self.kernel {
            Kernel::Scalar => self.acs_scalar(qsyms, decisions),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: kernel selection verified the CPU feature at
            // construction via is_x86_feature_detected.
            Kernel::Avx2 => unsafe { self.acs_avx2(qsyms, decisions) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above, for avx512bw.
            Kernel::Avx512 => unsafe { self.acs_avx512(qsyms, decisions) },
        }
        // Terminated frame: trace back from state 0. Decision bit `b` at
        // step t for state `ns` names predecessor `2·(ns mod 32)+b`; the
        // input that led into `ns` is its top bit.
        out.resize(steps, 0);
        let dp = decisions.as_ptr();
        let op = out.as_mut_ptr();
        let mut state = 0usize;
        // SAFETY: `decisions` and `out` both hold exactly `steps` entries,
        // and `state` stays masked below STATES; raw pointers keep the
        // serial shift-or chain free of bounds checks.
        unsafe {
            for t in (0..steps).rev() {
                *op.add(t) = (state >> (CONSTRAINT - 2)) as u8;
                let bit = ((*dp.add(t) >> state) & 1) as usize;
                state = ((state << 1) | bit) & (STATES - 1);
            }
        }
        out.truncate(steps - TAIL_BITS); // drop the tail
    }

    /// Portable fixed-point ACS: 32 butterflies per step in plain i16.
    fn acs_scalar(&self, qsyms: &[i16], decisions: &mut Vec<u64>) {
        let steps = qsyms.len() / 2;
        let mut m = [SENTINEL; STATES];
        m[0] = 0;
        let mut nm = [0i16; STATES];
        for t in 0..steps {
            let r0 = qsyms[2 * t];
            let r1 = qsyms[2 * t + 1];
            // The 4-entry branch-metric table gathered by `gsel` (wrapping
            // matches the SIMD lanes; in-range inputs never wrap).
            let gtab = [
                r0.wrapping_add(r1),
                r0.wrapping_sub(r1),
                r1.wrapping_sub(r0),
                r0.wrapping_add(r1).wrapping_neg(),
            ];
            let mut word = 0u64;
            for i in 0..HALF {
                let g = gtab[self.gsel[i] as usize];
                let a = m[2 * i];
                let b = m[2 * i + 1];
                // ns = i (input 0): candidates a+g from pred 2i, b-g from 2i+1.
                let c0 = a + g;
                let c1 = b - g;
                let dlo = u64::from(c1 > c0);
                nm[i] = if c1 > c0 { c1 } else { c0 };
                // ns = i+32 (input 1): signs flip.
                let c0h = a - g;
                let c1h = b + g;
                let dhi = u64::from(c1h > c0h);
                nm[i + HALF] = if c1h > c0h { c1h } else { c0h };
                word |= (dlo << i) | (dhi << (i + HALF));
            }
            std::mem::swap(&mut m, &mut nm);
            decisions.push(word);
            if (t + 1) % RENORM_INTERVAL == 0 {
                let mx = *m.iter().max().unwrap();
                for v in m.iter_mut() {
                    *v -= mx;
                }
            }
        }
    }

    /// AVX2 ACS: metrics in four `__m256i` (16 × i16 each), shuffle/permute
    /// deinterleave into butterfly (even, odd) operand vectors, decisions
    /// packed to a `u64` per step via `packs` + `movemask`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn acs_avx2(&self, qsyms: &[i16], decisions: &mut Vec<u64>) {
        use std::arch::x86_64::*;
        let steps = qsyms.len() / 2;
        // Per-128-bit-lane byte shuffle gathering even i16s then odd i16s.
        #[rustfmt::skip]
        let deint = _mm256_setr_epi8(
            0, 1, 4, 5, 8, 9, 12, 13, 2, 3, 6, 7, 10, 11, 14, 15,
            0, 1, 4, 5, 8, 9, 12, 13, 2, 3, 6, 7, 10, 11, 14, 15,
        );
        // Byte selectors gathering each butterfly's ±r0±r1 value from the
        // step's 4×i16 branch-metric table (see `gsel`): i16 lane i wants
        // table lane gsel[i], i.e. bytes 2·gsel[i] and 2·gsel[i]+1 of the
        // 8-byte pattern repeated across the register.
        let mut sel = [0u8; 2 * STATES];
        for i in 0..HALF {
            let idx = self.gsel[i] as u8;
            sel[2 * i] = 2 * idx;
            sel[2 * i + 1] = 2 * idx + 1;
        }
        let sela = _mm256_loadu_si256(sel.as_ptr().cast());
        let selb = _mm256_loadu_si256(sel.as_ptr().add(32).cast());
        let mut init = [SENTINEL; STATES];
        init[0] = 0;
        // Metric vectors in natural state order: m0 = states 0..16, etc.
        let mut m0 = _mm256_loadu_si256(init.as_ptr().cast());
        let mut m1 = _mm256_loadu_si256(init.as_ptr().add(16).cast());
        let mut m2 = _mm256_loadu_si256(init.as_ptr().add(32).cast());
        let mut m3 = _mm256_loadu_si256(init.as_ptr().add(48).cast());
        // Splits a (lo, hi) register pair into (evens, odds) across both.
        #[inline(always)]
        unsafe fn split(deint: __m256i, lo: __m256i, hi: __m256i) -> (__m256i, __m256i) {
            let p = _mm256_permute4x64_epi64(_mm256_shuffle_epi8(lo, deint), 0b11011000);
            let q = _mm256_permute4x64_epi64(_mm256_shuffle_epi8(hi, deint), 0b11011000);
            (
                _mm256_permute2x128_si256(p, q, 0x20),
                _mm256_permute2x128_si256(p, q, 0x31),
            )
        }
        // Compresses 16+16 i16 compare results into 32 mask bits.
        #[inline(always)]
        unsafe fn mask32(da: __m256i, db: __m256i) -> u64 {
            let packed = _mm256_permute4x64_epi64(_mm256_packs_epi16(da, db), 0b11011000);
            _mm256_movemask_epi8(packed) as u32 as u64
        }
        let qp = qsyms.as_ptr();
        let dp = decisions.as_mut_ptr();
        // Same blocked structure as the AVX-512 kernel: per renorm interval,
        // a pre-pass builds the 4-entry branch-metric tables ([r0+r1, r0-r1,
        // r1-r0, -r0-r1] packed per step as one u64) so the ACS loop carries
        // only metric-recursion work.
        let mut quads = [0u64; RENORM_INTERVAL];
        let mut t0 = 0usize;
        while t0 < steps {
            let block = RENORM_INTERVAL.min(steps - t0);
            for (j, q) in quads[..block].iter_mut().enumerate() {
                let r0 = *qp.add(2 * (t0 + j));
                let r1 = *qp.add(2 * (t0 + j) + 1);
                let sum = r0.wrapping_add(r1);
                let diff = r0.wrapping_sub(r1);
                *q = (sum as u16 as u64)
                    | ((diff as u16 as u64) << 16)
                    | ((diff.wrapping_neg() as u16 as u64) << 32)
                    | ((sum.wrapping_neg() as u16 as u64) << 48);
            }
            for (j, &quad) in quads[..block].iter().enumerate() {
                let t = t0 + j;
                let table = _mm256_set1_epi64x(quad as i64);
                let ga = _mm256_shuffle_epi8(table, sela);
                let gb = _mm256_shuffle_epi8(table, selb);
                // Butterfly operands: a = m[2i], b = m[2i+1].
                let (aa, ba) = split(deint, m0, m1); // butterflies 0..16
                let (ab, bb) = split(deint, m2, m3); // butterflies 16..32
                                                     // ns = i (input 0): c0 = a+g, c1 = b-g.
                let c0a = _mm256_add_epi16(aa, ga);
                let c1a = _mm256_sub_epi16(ba, ga);
                let dla = _mm256_cmpgt_epi16(c1a, c0a);
                let nla = _mm256_max_epi16(c0a, c1a);
                let c0b = _mm256_add_epi16(ab, gb);
                let c1b = _mm256_sub_epi16(bb, gb);
                let dlb = _mm256_cmpgt_epi16(c1b, c0b);
                let nlb = _mm256_max_epi16(c0b, c1b);
                // ns = i+32 (input 1): signs flip.
                let e0a = _mm256_sub_epi16(aa, ga);
                let e1a = _mm256_add_epi16(ba, ga);
                let dha = _mm256_cmpgt_epi16(e1a, e0a);
                let nha = _mm256_max_epi16(e0a, e1a);
                let e0b = _mm256_sub_epi16(ab, gb);
                let e1b = _mm256_add_epi16(bb, gb);
                let dhb = _mm256_cmpgt_epi16(e1b, e0b);
                let nhb = _mm256_max_epi16(e0b, e1b);
                // SAFETY: caller reserved `steps` entries; set_len below.
                *dp.add(t) = mask32(dla, dlb) | (mask32(dha, dhb) << 32);
                m0 = nla;
                m1 = nlb;
                m2 = nha;
                m3 = nhb;
            }
            t0 += block;
            if block == RENORM_INTERVAL {
                // Horizontal max across all 64 metrics, broadcast, subtract.
                let mx = _mm256_max_epi16(_mm256_max_epi16(m0, m1), _mm256_max_epi16(m2, m3));
                let mx = _mm256_max_epi16(mx, _mm256_permute2x128_si256(mx, mx, 0x01));
                let mx = _mm256_max_epi16(mx, _mm256_shuffle_epi32(mx, 0b01001110));
                let mx = _mm256_max_epi16(mx, _mm256_shuffle_epi32(mx, 0b10110001));
                let mx = _mm256_max_epi16(mx, _mm256_shufflelo_epi16(mx, 0b10110001));
                let mx = _mm256_broadcastw_epi16(_mm256_castsi256_si128(mx));
                m0 = _mm256_sub_epi16(m0, mx);
                m1 = _mm256_sub_epi16(m1, mx);
                m2 = _mm256_sub_epi16(m2, mx);
                m3 = _mm256_sub_epi16(m3, mx);
            }
        }
        // SAFETY: every slot 0..steps was written through `dp`.
        decisions.set_len(steps);
    }

    /// AVX-512BW ACS: all 64 metrics in two `__m512i`, one `vpermi2w` per
    /// butterfly operand, compare-into-`__mmask32` decisions — the shortest
    /// loop-carried dependency chain of the three kernels.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512bw")]
    unsafe fn acs_avx512(&self, qsyms: &[i16], decisions: &mut Vec<u64>) {
        use std::arch::x86_64::*;
        let steps = qsyms.len() / 2;
        let mut even_idx = [0i16; HALF];
        let mut odd_idx = [0i16; HALF];
        for i in 0..HALF {
            even_idx[i] = (2 * i) as i16; // index bit 5 selects the hi vector
            odd_idx[i] = (2 * i + 1) as i16;
        }
        let idx_e = _mm512_loadu_si512(even_idx.as_ptr().cast());
        let idx_o = _mm512_loadu_si512(odd_idx.as_ptr().cast());
        // Branch-metric gather indices: lane i takes table lane gsel[i]
        // (the table pattern repeats every 4 lanes, so indices 0..4 work).
        let gsel = _mm512_loadu_si512(self.gsel.as_ptr().cast());
        let mut init = [SENTINEL; STATES];
        init[0] = 0;
        let mut m0 = _mm512_loadu_si512(init.as_ptr().cast()); // states 0..32
        let mut m1 = _mm512_loadu_si512(init.as_ptr().add(HALF).cast()); // 32..64
        let qp = qsyms.as_ptr();
        let dp = decisions.as_mut_ptr();
        // Steps are processed in renorm-interval blocks: a tight pre-pass
        // builds the block's 4-entry branch-metric tables ([r0+r1, r0-r1,
        // r1-r0, -r0-r1] packed per step as one u64), then the ACS loop
        // carries only the metric-recursion work. Splitting the loops keeps
        // the scalar table arithmetic out of the serial ACS dependency
        // chain's issue slots.
        let mut quads = [0u64; RENORM_INTERVAL];
        let mut t = 0usize;
        while t < steps {
            let block = RENORM_INTERVAL.min(steps - t);
            for (j, q) in quads[..block].iter_mut().enumerate() {
                let r0 = *qp.add(2 * (t + j));
                let r1 = *qp.add(2 * (t + j) + 1);
                let sum = r0.wrapping_add(r1);
                let diff = r0.wrapping_sub(r1);
                *q = (sum as u16 as u64)
                    | ((diff as u16 as u64) << 16)
                    | ((diff.wrapping_neg() as u16 as u64) << 32)
                    | ((sum.wrapping_neg() as u16 as u64) << 48);
            }
            for (j, &quad) in quads[..block].iter().enumerate() {
                let g = _mm512_permutexvar_epi16(gsel, _mm512_set1_epi64(quad as i64));
                let a = _mm512_permutex2var_epi16(m0, idx_e, m1); // m[2i]
                let b = _mm512_permutex2var_epi16(m0, idx_o, m1); // m[2i+1]
                let c0 = _mm512_add_epi16(a, g);
                let c1 = _mm512_sub_epi16(b, g);
                let k_lo = _mm512_cmpgt_epi16_mask(c1, c0);
                let n0 = _mm512_max_epi16(c0, c1);
                let c0h = _mm512_sub_epi16(a, g);
                let c1h = _mm512_add_epi16(b, g);
                let k_hi = _mm512_cmpgt_epi16_mask(c1h, c0h);
                let n1 = _mm512_max_epi16(c0h, c1h);
                // SAFETY: caller reserved `steps` entries; set_len below.
                *dp.add(t + j) = u64::from(k_lo) | (u64::from(k_hi) << 32);
                m0 = n0;
                m1 = n1;
            }
            t += block;
            if block == RENORM_INTERVAL {
                // Horizontal max via log2 shuffle-reduce (no scalar pass).
                let v = _mm512_max_epi16(m0, m1);
                let h =
                    _mm256_max_epi16(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64(v, 1));
                let q = _mm_max_epi16(_mm256_castsi256_si128(h), _mm256_extracti128_si256(h, 1));
                let q = _mm_max_epi16(q, _mm_srli_si128(q, 8));
                let q = _mm_max_epi16(q, _mm_srli_si128(q, 4));
                let q = _mm_max_epi16(q, _mm_srli_si128(q, 2));
                let mx = _mm512_broadcastw_epi16(q);
                m0 = _mm512_sub_epi16(m0, mx);
                m1 = _mm512_sub_epi16(m1, mx);
            }
        }
        // SAFETY: every slot 0..steps was written through `dp`.
        decisions.set_len(steps);
    }
}

/// Quantizes symbols to i16 if *every* symbol is integer-valued with
/// magnitude ≤ [`ViterbiDecoder::MAX_FIXED_MAG`]; returns false (leaving
/// `out` in an unspecified state) otherwise.
fn quantize_into(symbols: &[SoftSymbol], out: &mut Vec<i16>) -> bool {
    out.clear();
    out.reserve(symbols.len());
    for &s in symbols {
        // Written so NaN fails the magnitude test too (`>` is false for
        // NaN, as is `<=` — hence no simple negation).
        if s.abs() > ViterbiDecoder::MAX_FIXED_MAG || s.is_nan() {
            return false;
        }
        let q = s as i16;
        if f64::from(q) != s {
            return false;
        }
        out.push(q);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolutional::ConvolutionalEncoder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The constraint span in coded bits (for tests that place error patterns).
    const SPAN_CODED_BITS: usize = 2 * CONSTRAINT;

    fn random_bits(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..2u8)).collect()
    }

    #[test]
    fn decodes_clean_frames_exactly() {
        let dec = ViterbiDecoder::new();
        for len in [1usize, 7, 64, 500] {
            let bits = random_bits(len, len as u64);
            let coded = ConvolutionalEncoder::new().encode_terminated(&bits);
            assert_eq!(dec.decode_hard(&coded), bits, "len {len}");
        }
    }

    #[test]
    fn corrects_scattered_errors() {
        // Up to 2 bit errors per constraint span are comfortably correctable
        // (free distance 10 ⇒ up to 4 in ideal placement).
        let dec = ViterbiDecoder::new();
        let bits = random_bits(300, 3);
        let mut coded = ConvolutionalEncoder::new().encode_terminated(&bits);
        // One flipped bit every 40 coded bits.
        let mut i = 7;
        while i < coded.len() {
            coded[i] ^= 1;
            i += 40;
        }
        assert_eq!(dec.decode_hard(&coded), bits);
    }

    #[test]
    fn corrects_any_double_error_in_a_span() {
        let dec = ViterbiDecoder::new();
        let bits = random_bits(60, 4);
        let clean = ConvolutionalEncoder::new().encode_terminated(&bits);
        // All double-error patterns within one span near the middle.
        let base = 40;
        for i in 0..SPAN_CODED_BITS {
            for j in (i + 1)..SPAN_CODED_BITS {
                let mut coded = clean.clone();
                coded[base + i] ^= 1;
                coded[base + j] ^= 1;
                assert_eq!(dec.decode_hard(&coded), bits, "errors at {i},{j}");
            }
        }
    }

    #[test]
    fn erasures_are_recoverable() {
        // Puncture 4 of every 16 symbols (rate 2/3): still decodes clean input.
        let dec = ViterbiDecoder::new();
        let bits = random_bits(200, 5);
        let coded = ConvolutionalEncoder::new().encode_terminated(&bits);
        let mut soft = hard_to_soft(&coded);
        for (i, s) in soft.iter_mut().enumerate() {
            if i % 4 == 3 {
                *s = 0.0;
            }
        }
        assert_eq!(dec.decode_terminated(&soft), bits);
    }

    #[test]
    fn soft_decisions_beat_hard_decisions() {
        // At the same raw error rate, giving the decoder confidence values
        // must not decode worse; over many frames it decodes strictly better.
        let mut rng = StdRng::seed_from_u64(6);
        let dec = ViterbiDecoder::new();
        let mut hard_errors = 0u32;
        let mut soft_errors = 0u32;
        for frame in 0..30 {
            let bits = random_bits(120, 100 + frame);
            let coded = ConvolutionalEncoder::new().encode_terminated(&bits);
            // AWGN-ish soft channel at low SNR.
            let soft: Vec<f64> = coded
                .iter()
                .map(|&b| {
                    let tx = if b == 1 { 1.0 } else { -1.0 };
                    let noise: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
                    tx + noise * 0.85
                })
                .collect();
            let hard: Vec<u8> = soft.iter().map(|&s| u8::from(s > 0.0)).collect();
            let soft_dec = dec.decode_terminated(&soft);
            let hard_dec = dec.decode_hard(&hard);
            soft_errors += soft_dec
                .iter()
                .zip(&bits)
                .map(|(a, b)| u32::from(a != b))
                .sum::<u32>();
            hard_errors += hard_dec
                .iter()
                .zip(&bits)
                .map(|(a, b)| u32::from(a != b))
                .sum::<u32>();
        }
        assert!(
            soft_errors < hard_errors,
            "soft {soft_errors} should beat hard {hard_errors}"
        );
    }

    #[test]
    fn burst_beyond_capability_fails_but_returns_right_length() {
        let dec = ViterbiDecoder::new();
        let bits = random_bits(100, 8);
        let mut coded = ConvolutionalEncoder::new().encode_terminated(&bits);
        for s in coded.iter_mut().skip(50).take(30) {
            *s ^= 1; // a 30-bit solid burst: uncorrectable
        }
        let decoded = dec.decode_hard(&coded);
        assert_eq!(decoded.len(), bits.len());
        assert_ne!(decoded, bits);
    }

    #[test]
    fn scratch_reuse_across_mixed_frames() {
        // One scratch serving interleaved lengths and codecs must not leak
        // state between calls.
        let dec = ViterbiDecoder::new();
        let mut scratch = FecScratch::new();
        let mut out = Vec::new();
        for round in 0..3 {
            for len in [9usize, 250, 31, 500] {
                let bits = random_bits(len, 7_000 + len as u64 + round);
                let coded = ConvolutionalEncoder::new().encode_terminated(&bits);
                dec.decode_hard_with(&coded, &mut scratch, &mut out);
                assert_eq!(out, bits, "len {len} round {round}");
            }
        }
    }

    #[test]
    fn fractional_soft_input_falls_back_to_reference() {
        let dec = ViterbiDecoder::new();
        let bits = random_bits(80, 11);
        let coded = ConvolutionalEncoder::new().encode_terminated(&bits);
        let soft: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 1 { 0.75 } else { -0.75 })
            .collect();
        assert_eq!(dec.decode_terminated(&soft), bits);
        assert_eq!(dec.decode_terminated_reference(&soft), bits);
    }

    #[test]
    fn forced_kernels_resolve() {
        assert!(ViterbiDecoder::with_kernel("scalar").is_some());
        assert!(ViterbiDecoder::with_kernel("never-a-kernel").is_none());
        // The auto choice reports whatever it picked.
        let name = ViterbiDecoder::new().kernel_name();
        assert!(["scalar", "avx2", "avx512"].contains(&name));
    }
}
