//! Reusable per-trial workspaces for the reception hot path: [`RxScratch`]
//! and `ChannelCache`.
//!
//! Every table and figure in the paper is an aggregate over millions of
//! simulated receptions, so [`crate::link::LinkModel::receive`] is the
//! throughput-limiting inner loop of the whole reproduction. Two costs
//! dominate a naive implementation:
//!
//! 1. **heap churn** — the segment timeline and the error-bit list were
//!    rebuilt in fresh `Vec`s for every packet;
//! 2. **transcendental recomputation** — `10^(x/10)`, `log10`, and the
//!    `erfc`-based DQPSK error rate were recomputed per segment per packet,
//!    even though stationary scenarios (fixed geometry, repeating emission
//!    schedules — the common case in all sixteen experiments) present the
//!    same handful of inputs billions of times.
//!
//! [`RxScratch`] removes both: it owns the cut/segment buffers, a pool of
//! recycled error-bit vectors, a one-entry memo of the last segment
//! timeline, and a `ChannelCache` of *exact* memoized conversions. In
//! steady state, [`crate::link::LinkModel::receive_with`] performs **zero
//! heap allocations** (asserted by `tests/zero_alloc.rs`).
//!
//! # Bit-identical by construction
//!
//! The caches memoize exact `f64` values keyed by [`f64::to_bits`] of the
//! input — they are *never* lookup-table approximations. A cache hit returns
//! the identical bits the direct computation would have produced, so the
//! cached path draws the same RNG sequence and emits the same `f64` results
//! as the uncached reference path (`LinkModel::receive`). This is enforced
//! by the property test `cached_receive_is_bit_identical` in
//! `crates/phy/tests/props.rs` and, end to end, by the repo's golden
//! transcript and determinism suites.
//!
//! # Ownership rules
//!
//! * An [`RxScratch`] is **owned by one worker** (one thread) and reused
//!   across packets and trials; it is never shared. It carries no
//!   trial-observable state — only buffers and exact memos — so reusing one
//!   scratch across trials cannot change any result, and a fresh scratch
//!   per packet is merely slower, never different.
//! * Callers that consume a [`crate::link::Reception`] should return its
//!   `error_bits` vector via [`RxScratch::recycle_error_buf`] so the
//!   allocation is reused by a later packet (the simulator's runner does
//!   this; forgetting to recycle costs at most one allocation per damaged
//!   packet, never correctness).
//! * The memos are bounded (fixed-size, direct-mapped, overwrite on
//!   collision), so a scratch never grows without bound even under
//!   non-stationary workloads (e.g. per-burst lognormal power jitter, where
//!   keys rarely repeat).

use crate::interference::Emission;
use crate::link::{segment_timeline_into, Segment};
use crate::math::{db_to_linear, mw_to_dbm};
use crate::modulation::dqpsk_ber;

/// Slots per memo table. 2^11 entries × 16 bytes ≈ 32 KiB per table —
/// resident in L1/L2 for the handful of hot keys a stationary trial has.
const MEMO_SLOTS: usize = 1 << 11;

/// Sentinel key marking an empty slot. `u64::MAX` is the bit pattern of a
/// negative NaN; a NaN input can therefore never be cached (it is always
/// recomputed), which is correct — just never faster.
const EMPTY: u64 = u64::MAX;

/// A fixed-size, direct-mapped memo from `f64` input bits to an exact `f64`
/// output. Collisions simply overwrite: the table trades a rare recompute
/// for never growing and never probing more than one slot.
#[derive(Debug, Clone)]
struct Memo {
    slots: Box<[(u64, f64)]>,
}

impl Memo {
    fn new() -> Memo {
        Memo {
            slots: vec![(EMPTY, 0.0); MEMO_SLOTS].into_boxed_slice(),
        }
    }

    /// Fibonacci-hash the key into a slot index.
    #[inline]
    fn index(bits: u64) -> usize {
        (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - 11)) as usize
    }

    /// Returns the memoized value for `key`, computing and storing it on a
    /// miss. `compute` must be a pure function of `key` for the memo to be
    /// exact — every call site here passes exactly that.
    #[inline]
    fn get_or_insert(&mut self, key: f64, compute: impl FnOnce(f64) -> f64) -> f64 {
        let bits = key.to_bits();
        let slot = &mut self.slots[Self::index(bits)];
        if slot.0 == bits {
            return slot.1;
        }
        let value = compute(key);
        *slot = (bits, value);
        value
    }
}

/// Exact-value memoization of the per-packet channel math: dB→linear and
/// mW→dBm conversions, the composed `dqpsk_ber(db_to_linear(·))` error
/// rate, and the `e^(−mean)` threshold of the Poisson error-count sampler.
///
/// See the module docs for the bit-identity and ownership rules. The cache
/// is embedded in [`RxScratch`]; it is also usable standalone by code that
/// performs the same conversions outside `receive` (nothing does today).
#[derive(Debug, Clone)]
pub(crate) struct ChannelCache {
    db_to_linear: Memo,
    mw_to_dbm: Memo,
    ber_from_ebn0_db: Memo,
    exp_neg: Memo,
}

impl Default for ChannelCache {
    fn default() -> Self {
        ChannelCache::new()
    }
}

impl ChannelCache {
    /// An empty cache.
    pub(crate) fn new() -> ChannelCache {
        ChannelCache {
            db_to_linear: Memo::new(),
            mw_to_dbm: Memo::new(),
            ber_from_ebn0_db: Memo::new(),
            exp_neg: Memo::new(),
        }
    }

    /// Memoized [`crate::math::db_to_linear`].
    #[inline]
    pub(crate) fn db_to_linear(&mut self, db: f64) -> f64 {
        self.db_to_linear.get_or_insert(db, db_to_linear)
    }

    /// Memoized [`crate::math::mw_to_dbm`].
    #[inline]
    pub(crate) fn mw_to_dbm(&mut self, mw: f64) -> f64 {
        self.mw_to_dbm.get_or_insert(mw, mw_to_dbm)
    }

    /// Memoized `dqpsk_ber(db_to_linear(ebn0_db))` — the per-segment error
    /// rate, keyed on the dB-domain Eb/N0 so one lookup replaces the whole
    /// `powf`+`erfc` chain. Within a packet the fade is fixed and the
    /// interference alternates between a few power states, so consecutive
    /// segments repeat a handful of keys even though the fade makes every
    /// *packet* unique.
    #[inline]
    pub(crate) fn dqpsk_ber_from_db(&mut self, ebn0_db: f64) -> f64 {
        self.ber_from_ebn0_db
            .get_or_insert(ebn0_db, |db| dqpsk_ber(db_to_linear(db)))
    }

    /// Memoized `e^(−x)` (the Poisson inversion threshold in
    /// [`crate::link::sample_bit_errors`]; segment lengths repeat in
    /// periodic interference schedules, so the mean does too).
    #[inline]
    pub(crate) fn exp_neg(&mut self, x: f64) -> f64 {
        self.exp_neg.get_or_insert(x, |x| (-x).exp())
    }
}

/// The reusable reception workspace threaded from the simulator's runner
/// through [`crate::link::LinkModel::receive_with`]. See the module docs
/// for what it caches and who may own it.
#[derive(Debug, Default, Clone)]
pub struct RxScratch {
    /// Exact-value math memos.
    cache: Option<Box<ChannelCache>>,
    /// Cut-point buffer for timeline construction.
    cuts: Vec<u64>,
    /// Segment buffer (also the one-entry timeline cache's value).
    segments: Vec<Segment>,
    /// Timeline cache key: the emission list the current `segments` were
    /// built from, plus the packet length. Valid only when `timeline_valid`.
    key_emissions: Vec<Emission>,
    key_len_bits: u64,
    timeline_valid: bool,
    /// Recycled error-bit vectors, ready for reuse.
    error_buf_pool: Vec<Vec<u64>>,
}

impl RxScratch {
    /// A fresh scratch. Buffers grow to steady-state capacity over the
    /// first few packets and are then reused indefinitely.
    pub fn new() -> RxScratch {
        RxScratch::default()
    }

    /// Returns the segment timeline for `(emissions, len_bits)`, rebuilding
    /// only when the pair differs from the previous call. Power sums inside
    /// segments go through the exact-value cache, so a rebuilt timeline is
    /// bit-identical to the uncached [`segment_timeline_into`] output.
    pub(crate) fn segments_for(&mut self, emissions: &[Emission], len_bits: u64) -> &[Segment] {
        if !(self.timeline_valid
            && self.key_len_bits == len_bits
            && self.key_emissions == emissions)
        {
            let cache = self
                .cache
                .get_or_insert_with(|| Box::new(ChannelCache::new()));
            segment_timeline_into(
                emissions,
                len_bits,
                &mut self.cuts,
                &mut self.segments,
                |db| cache.db_to_linear(db),
            );
            self.key_emissions.clear();
            self.key_emissions.extend_from_slice(emissions);
            self.key_len_bits = len_bits;
            self.timeline_valid = true;
        }
        &self.segments
    }

    /// Splits the scratch into the pieces `receive_with` needs
    /// simultaneously: the math cache and the (already prepared) segments.
    #[inline]
    pub(crate) fn cache_and_segments(&mut self) -> (&mut ChannelCache, &[Segment]) {
        let cache = self
            .cache
            .get_or_insert_with(|| Box::new(ChannelCache::new()));
        (cache, &self.segments)
    }

    /// Takes a recycled error-bit buffer (empty, capacity preserved) or a
    /// fresh one if the pool is dry.
    #[inline]
    pub(crate) fn take_error_buf(&mut self) -> Vec<u64> {
        self.error_buf_pool.pop().unwrap_or_default()
    }

    /// Returns an error-bit vector to the pool for reuse. Call this with
    /// `std::mem::take(&mut reception.error_bits)` once a reception has
    /// been fully consumed; the next damaged packet then reuses the
    /// allocation instead of growing a fresh vector.
    #[inline]
    pub fn recycle_error_buf(&mut self, mut buf: Vec<u64>) {
        // An unbounded pool cannot form: each in-flight reception holds at
        // most one buffer, but cap it anyway so a caller that recycles
        // foreign vectors cannot hoard memory.
        if self.error_buf_pool.len() < 8 {
            buf.clear();
            self.error_buf_pool.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_returns_exact_values() {
        let mut cache = ChannelCache::new();
        for db in [-120.0, -88.5, -48.0, 0.0, 7.403, 27.0] {
            // First call computes, second call hits; both must be the exact
            // direct computation.
            assert_eq!(cache.db_to_linear(db).to_bits(), db_to_linear(db).to_bits());
            assert_eq!(cache.db_to_linear(db).to_bits(), db_to_linear(db).to_bits());
            let mw = db_to_linear(db);
            assert_eq!(cache.mw_to_dbm(mw).to_bits(), mw_to_dbm(mw).to_bits());
            assert_eq!(
                cache.dqpsk_ber_from_db(db).to_bits(),
                dqpsk_ber(db_to_linear(db)).to_bits()
            );
            assert_eq!(
                cache.exp_neg(db.abs()).to_bits(),
                (-db.abs()).exp().to_bits()
            );
        }
    }

    #[test]
    fn memo_handles_colliding_and_negative_zero_keys() {
        let mut cache = ChannelCache::new();
        // -0.0 and 0.0 have different bit patterns: distinct keys, and each
        // must return its own exact value.
        assert_eq!(cache.db_to_linear(0.0), 1.0);
        assert_eq!(cache.db_to_linear(-0.0), db_to_linear(-0.0));
        // Hammer many distinct keys (forcing collisions/overwrites in the
        // direct-mapped table); values must stay exact throughout.
        for i in 0..10_000 {
            let db = -120.0 + (i as f64) * 0.013;
            assert_eq!(cache.db_to_linear(db).to_bits(), db_to_linear(db).to_bits());
        }
    }

    #[test]
    fn timeline_cache_invalidates_on_changed_emissions() {
        use crate::interference::InterferenceKind;
        let em = |p: f64| Emission {
            start_bit: 100,
            end_bit: 700,
            raw_dbm: p,
            kind: InterferenceKind::WidebandInBand,
        };
        let mut scratch = RxScratch::new();
        let n1 = scratch.segments_for(&[em(-50.0)], 1_000).len();
        assert_eq!(n1, 3);
        // Same inputs: cache hit, same answer.
        assert_eq!(scratch.segments_for(&[em(-50.0)], 1_000).len(), 3);
        // Changed power: rebuild with the new emission's power.
        let seg_mw = scratch.segments_for(&[em(-44.0)], 1_000)[1].despread_mw;
        assert!(seg_mw > 0.0);
        // Changed length: rebuild.
        assert_eq!(scratch.segments_for(&[em(-50.0)], 800).len(), 3);
        assert_eq!(scratch.key_len_bits, 800);
    }

    #[test]
    fn error_buf_pool_recycles_capacity() {
        let mut scratch = RxScratch::new();
        let mut buf = scratch.take_error_buf();
        buf.extend_from_slice(&[1, 2, 3]);
        let cap = buf.capacity();
        scratch.recycle_error_buf(buf);
        let buf = scratch.take_error_buf();
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), cap);
    }
}
