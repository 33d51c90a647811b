#![warn(missing_docs)]

//! # wavelan-core
//!
//! Experiment definitions reproducing every table and figure of
//! *Measurement and Analysis of the Error Characteristics of an In-Building
//! Wireless Network* (Eckhardt & Steenkiste, SIGCOMM 1996).
//!
//! Each submodule of [`experiments`] owns one experiment: it assembles the
//! scenario (floor plan, station placement, interference), runs trials
//! through `wavelan-sim`, pushes the receiver trace through
//! `wavelan-analysis`, and returns a typed result that can render itself as
//! the paper's corresponding table or figure series.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Table 2 (in-room base case) | [`experiments::in_room`] |
//! | Figure 1 (level vs distance) | [`experiments::path_loss`] |
//! | Table 3 + Figure 2 (error conditions vs signal) | [`experiments::signal_vs_error`] |
//! | Figure 3 (receive threshold) | [`experiments::threshold`] |
//! | Table 4 (single wall) | [`experiments::walls`] |
//! | Tables 5–7 (multi-room) | [`experiments::multiroom`] |
//! | Tables 8–9 (human body) | [`experiments::body`] |
//! | Table 10 (narrowband phones) | [`experiments::narrowband`] |
//! | Tables 11–13 (spread-spectrum phones) | [`experiments::ss_phone`] |
//! | Table 14 (competing WaveLAN) | [`experiments::competing`] |
//! | Section 8 conjecture (variable FEC) | [`experiments::adaptive_fec`] |
//! | Sections 8/9.4 (hybrid ARQ) | [`experiments::harq`] |
//! | Section 9.1 (Duchamp & Reynolds) | [`experiments::related_work`] |
//! | Section 1 (TDMA argument) | [`experiments::tdma`] |
//! | Footnote 1 (quality threshold) | [`experiments::quality_threshold`] |
//! | Section 7.4 (roaming/border zone) | [`experiments::roaming`] |
//! | Section 7.4 (hidden terminals) | [`experiments::hidden_terminal`] |
//!
//! Every module's experiment is also registered in [`registry`], which is
//! how the bench crate and the `repro` binary enumerate and dispatch them.
//!
//! [`calibration`] documents every constant that ties the simulator to a
//! number in the paper; [`layouts`] holds the floor plans.
//!
//! [`scenario`] is the event-DAG scripting layer: declarative multi-station
//! choreography (place / move / transmit / set_knob / wait / assert on a
//! happens-after graph) compiled onto the simulator's directive timetable,
//! with `require` conditions judged after the run — the substrate of the
//! MAC/capture conformance suite and of `repro --scenario`.

pub mod calibration;
pub mod capture;
pub mod executor;
pub mod experiments;
pub mod layouts;
pub mod registry;
pub mod scenario;
pub mod spec;
pub mod sweep;

pub use capture::{
    capture_report, export_trace, reanalyze_file, registry_spec_hashes, spec_hash, trace_info,
    CaptureMode,
};
pub use executor::{trial_seed, Executor};
pub use experiments::common::Scale;
pub use registry::{find, Experiment, NAMES};
pub use spec::ScenarioSpec;
