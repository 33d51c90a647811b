#![warn(missing_docs)]

//! # wavelan-fec
//!
//! Forward error correction for the paper's Section 8 conjecture:
//!
//! > "Our observations, especially the spread spectrum phone results in
//! > Section 7.3, argue that the errors we did observe might be recoverable
//! > through a variable FEC mechanism."
//!
//! and its Section 9.4 survey of adaptive FEC systems (Hagenauer's
//! rate-compatible punctured convolutional codes decoded with the Viterbi
//! algorithm; the Qualcomm K=7 decoder chip; Karn's software FEC).
//!
//! We implement that exact stack from scratch:
//!
//! * [`convolutional`] — the industry-standard K=7, rate-1/2 convolutional
//!   encoder (generators 133/171 octal, the code in the Qualcomm Q1650 the
//!   paper cites),
//! * [`viterbi`] — maximum-likelihood Viterbi decoding, hard- and
//!   soft-decision, with erasure support for punctured symbols,
//! * [`rcpc`] — a Hagenauer-style rate-compatible punctured family spanning
//!   redundancy overheads from 12.5% to 300% (the paper quotes exactly this
//!   range for the 13-code RCPC example family),
//! * [`interleaver`] — block interleaving to spread the bursty errors that
//!   interference segments produce (Viterbi codes hate bursts),
//! * [`adaptive`] — a rate controller driven by the modem's signal-quality
//!   reports and observed syndromes, with hysteresis,
//! * [`harq`] — type-II hybrid ARQ with incremental redundancy over the
//!   RCPC ladder (the protocol family the paper's citation \[22\] studies),
//! * [`scratch`] — reusable decode buffers ([`FecScratch`]) that make the
//!   whole hot path allocation-free; the `_with` API variants thread one
//!   scratch per worker.
//!
//! The decode hot path runs on bit-sliced fixed-point Viterbi kernels
//! (scalar i16 / AVX2 / AVX-512BW, runtime-selected) that are proven
//! bit-identical to the retained f64 reference — see [`viterbi`].

pub mod adaptive;
pub mod convolutional;
pub mod harq;
pub mod interleaver;
pub mod rcpc;
pub mod scratch;
pub mod viterbi;

pub use adaptive::AdaptiveFec;
pub use harq::HarqOutcome;
pub use interleaver::BlockInterleaver;
pub use rcpc::RcpcCodec;
pub use scratch::FecScratch;
pub use viterbi::ViterbiDecoder;
