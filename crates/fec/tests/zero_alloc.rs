//! Steady-state FEC decode through `FecScratch` performs **zero heap
//! allocations** — the acceptance criterion for the bit-sliced hot path.
//! A counting global allocator observes every alloc/realloc; after a
//! warm-up pass (scratch buffers grown to steady-state capacity) a full
//! encode → interleave → corrupt → deinterleave → decode cycle across all
//! five RCPC rates, an erasure-heavy soft frame, and a complete multi-round
//! HARQ exchange must allocate nothing at all.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use wavelan_fec::convolutional::{bytes_to_bits, ConvolutionalEncoder};
use wavelan_fec::harq::run_harq_encoded_with;
use wavelan_fec::interleaver::BlockInterleaver;
use wavelan_fec::rcpc::{CodeRate, RcpcCodec};
use wavelan_fec::scratch::FecScratch;
use wavelan_fec::viterbi::SoftSymbol;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Reused driver-side buffers (wire copy, soft staging, decode output) —
/// the counterpart of what the experiment drivers hold per worker — plus
/// the payload's HARQ mother codeword, encoded once as the drivers do.
struct Buffers {
    mother: Vec<u8>,
    wire: Vec<u8>,
    channel: Vec<u8>,
    received: Vec<u8>,
    soft: Vec<SoftSymbol>,
    decoded: Vec<u8>,
}

/// One full cycle over every rate plus an erasure-heavy soft decode and a
/// multi-round HARQ exchange; returns a checksum so nothing is optimized
/// away.
fn cycle(
    codec: &RcpcCodec,
    il: &BlockInterleaver,
    payload: &[u8],
    scratch: &mut FecScratch,
    bufs: &mut Buffers,
    rng: &mut StdRng,
) -> u64 {
    let mut sum = 0u64;
    for rate in CodeRate::ALL {
        codec.encode_with(payload, rate, scratch, &mut bufs.wire);
        il.interleave_into(&bufs.wire, &mut bufs.channel);
        for b in bufs.channel.iter_mut() {
            if rng.gen::<f64>() < 0.005 {
                *b ^= 1;
            }
        }
        il.deinterleave_into(&bufs.channel, &mut bufs.received);
        codec.decode_hard_with(
            &bufs.received,
            payload.len(),
            rate,
            scratch,
            &mut bufs.decoded,
        );
        sum += u64::from(bufs.decoded == payload);
    }
    // Erasure-heavy soft frame: half the symbols punctured away.
    bufs.soft.clear();
    bufs.soft
        .extend(bufs.received.iter().enumerate().map(|(i, &b)| {
            if i % 2 == 0 {
                0.0
            } else if b & 1 == 1 {
                1.0
            } else {
                -1.0
            }
        }));
    codec.decode_soft_with(
        &bufs.soft,
        payload.len(),
        CodeRate::R1_2,
        scratch,
        &mut bufs.decoded,
    );
    sum += bufs.decoded.len() as u64;
    // A noisy HARQ exchange that runs several incremental-redundancy rounds.
    let outcome = run_harq_encoded_with(
        payload,
        &bufs.mother,
        8,
        |bit| {
            let tx = if bit == 1 { 1.0 } else { -1.0 };
            if rng.gen::<f64>() < 0.03 {
                -tx
            } else {
                tx
            }
        },
        scratch,
    );
    sum + outcome.bits_sent as u64
}

#[test]
fn steady_state_decode_is_allocation_free() {
    let codec = RcpcCodec::new();
    let il = BlockInterleaver::new(16, 64);
    let payload: Vec<u8> = (0..128u32).map(|i| (i * 7 + 3) as u8).collect();
    let mut scratch = FecScratch::new();
    let mut bufs = Buffers {
        mother: ConvolutionalEncoder::new().encode_terminated(&bytes_to_bits(&payload)),
        wire: Vec::new(),
        channel: Vec::new(),
        received: Vec::new(),
        soft: Vec::new(),
        decoded: Vec::new(),
    };
    let mut rng = StdRng::seed_from_u64(1996);

    // Warm-up: buffers grow to their steady-state capacity.
    let mut warm = 0;
    for _ in 0..3 {
        warm += cycle(&codec, &il, &payload, &mut scratch, &mut bufs, &mut rng);
    }
    assert!(warm > 0);

    // Measured window: not a single allocation.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut sum = 0;
    for _ in 0..10 {
        sum += cycle(&codec, &il, &payload, &mut scratch, &mut bufs, &mut rng);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(sum > 0);
    assert_eq!(
        after - before,
        0,
        "steady-state FEC decode allocated {} times in 10 cycles",
        after - before
    );
}
