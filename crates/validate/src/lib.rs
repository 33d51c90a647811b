#![warn(missing_docs)]

//! # wavelan-validate
//!
//! Paper-fidelity validation: does this reproduction still land where
//! Eckhardt & Steenkiste's published numbers say it should?
//!
//! The golden-transcript tests pin one seed's exact bytes — they catch
//! regressions but shatter on every legitimate output change and say
//! nothing about closeness to the paper. This crate instead encodes the
//! paper's Tables 2–14 and Figures 1–3 as a typed expectation corpus
//! ([`corpus()`]): each [`Check`](expect::Check) names a quantity inside a structured
//! [`Report`](wavelan_analysis::Report) (a cell, a difference, or a
//! ratio — always scale-free) and the band the paper puts on it, with the
//! tolerance calibration documented in EXPERIMENTS.md ("Fidelity"
//! section).
//!
//! The harness ([`run`]) resolves every expectation against the
//! experiment registry, runs each artifact across N consecutive seeds,
//! judges the across-seed mean of each quantity, and emits a
//! [`FidelityReport`](harness::FidelityReport) with per-table pass/warn/fail verdicts — `repro
//! --validate` renders it as text or JSON, and `ci.sh` gates on it
//! (`FIDELITY.json`).

pub mod corpus;
pub mod expect;
pub mod harness;

pub use corpus::corpus;
pub use harness::{run, Config};
