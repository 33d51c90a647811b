#![warn(missing_docs)]

//! # wavelan-phy
//!
//! Physical-layer model of the AT&T WaveLAN 900 MHz radio, built for the
//! reproduction of the SIGCOMM '96 error-characteristics study.
//!
//! The real device (paper Section 2) applies DQPSK modulation to a 2 Mb/s data
//! stream, producing a 1 megabaud symbol stream, spreads each symbol with an
//! 11-chip direct sequence, transmits at 500 mW in the 902–928 MHz ISM band,
//! and receives through a dual-antenna diversity front end with an AGC that
//! reports *signal level*, *silence level* and *signal quality* for every
//! packet. This crate models each of those pieces:
//!
//! * [`math`] — erfc/Q-function and dB↔linear helpers (no external deps),
//! * [`baseband`] — a tiny complex-baseband simulation used by the slow-path
//!   chip-level modem and its tests,
//! * [`modulation`] — DQPSK symbol mapping plus closed-form error rates,
//! * [`spreading`] — 11-chip Barker spreading, correlation despreading, and
//!   processing-gain arithmetic,
//! * [`pathloss`] — free-space and log-distance propagation,
//! * [`materials`] — per-material wall attenuation (plaster+mesh, concrete,
//!   human body, ...; calibrated to the paper's Tables 4, 8–9),
//! * [`fading`] — two-ray multipath ripple and lognormal shadowing,
//! * [`agc`] — received-power → signal/silence level mapping and AGC
//!   preamble-capture behaviour,
//! * [`quality`] — the 4-bit diversity-correlator quality metric,
//! * [`antenna`] — dual-antenna selection diversity,
//! * [`gilbert`] — the Gilbert–Elliott two-state burst channel (generator
//!   and parameter fitting), for FEC studies over bursty errors,
//! * [`interference`] — narrowband FM, in-band spread-spectrum, out-of-band
//!   (front-end overload) and competing-WaveLAN interference sources,
//! * [`link`] — the per-packet reception pipeline tying it all together:
//!   given a desired-signal power and an interference timeline, produce the
//!   packet outcome (lost / truncated / bit errors) and the reported signal
//!   metrics.
//!
//! ## Fast path vs slow path
//!
//! Packet-level experiments (millions of packets, 10^10 body bits for the
//! paper's Table 2) use *closed-form* error rates driven by per-segment SINR —
//! see [`link`]. The *chip-level* modem in [`baseband`]/[`modulation`]/
//! [`spreading`] exists so the closed forms can be validated against an actual
//! waveform simulation (see `tests/modem_validation.rs`) and so the
//! processing-gain claims are demonstrated rather than asserted.
//!
//! ## Reception hot path: `RxScratch` and `ChannelCache`
//!
//! [`link::LinkModel::receive_with`] is the allocation-free variant of the
//! pipeline. It threads a [`scratch::RxScratch`] workspace through reception
//! so that steady-state packet processing performs **zero heap allocations**
//! and memoizes the expensive transcendental conversions (`powf`, `log10`,
//! `erfc`) in a `scratch::ChannelCache`. The caches store *exact* `f64`
//! results keyed by input bit pattern, so the hot path is bit-identical to
//! the plain [`link::LinkModel::receive`] reference — same RNG draw
//! sequence, same outcomes (property-tested in `tests/props.rs`).
//!
//! Ownership rules:
//!
//! * One `RxScratch` per worker thread (or per [`sim` runner]); it is `Send`
//!   but not shared — never hand one scratch to two concurrent receivers.
//! * Reusing a scratch across packets, trials, and seeds is always safe: it
//!   carries no trial-observable state (caches are exact-value memos and the
//!   segment timeline is re-validated against the emission set per packet).
//! * Consumers of a [`link::Reception`] should return the `error_bits`
//!   buffer via [`scratch::RxScratch::recycle_error_buf`] once done, e.g.
//!   `scratch.recycle_error_buf(std::mem::take(&mut reception.error_bits))`;
//!   skipping this is correct but reintroduces one allocation per errored
//!   packet.
//!
//! [`sim` runner]: link::LinkModel::receive_with

pub mod agc;
pub mod antenna;
pub mod baseband;
pub mod fading;
pub mod gilbert;
pub mod interference;
pub mod link;
pub mod materials;
pub mod math;
pub mod modulation;
pub mod pathloss;
pub mod quality;
pub mod scratch;
pub mod spreading;

pub use agc::SignalLevel;
pub use interference::InterferenceKind;
pub use link::RxMetrics;
pub use materials::Material;
pub use scratch::RxScratch;

/// Transmit power: 500 mW ≈ +27 dBm.
pub const TX_POWER_DBM: f64 = 26.99;

/// Carrier frequency of the 900 MHz product, Hz.
pub const CARRIER_HZ: f64 = 915.0e6;
