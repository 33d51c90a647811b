#![warn(missing_docs)]

//! # wavelan-analysis
//!
//! The study's offline analysis pipeline (paper Section 4), reimplemented
//! over the [`wavelan_sim::trace`] format.
//!
//! The receiver logs *everything* — damaged, truncated, misaddressed, foreign
//! — so deciding what each logged packet *is* requires heuristics:
//!
//! > "we use a heuristic matching procedure to determine whether a given
//! > packet is one of the test series. ... We apply a second heuristic
//! > procedure to determine the sequence number of any packet we believe is
//! > a test packet. Since the packet body consists of a single word repeated
//! > multiple times, truncated packet bodies are ambiguous ... Therefore, we
//! > produce an estimated error syndrome (bit corruption pattern) only for
//! > those test packets which are damaged but not truncated. ... Due to these
//! > factors, our packet loss rate and bit error rate (BER) figures are
//! > necessarily only estimates."
//!
//! Modules:
//!
//! * [`matcher`] — is this logged packet one of ours? (score-based heuristic
//!   over addresses, ports, frame length and the repeated-word body),
//! * [`classify`] — Undamaged / Truncated / Wrapper-damaged / Body-damaged /
//!   Outsider, plus the body-bit error syndrome,
//! * [`stats`] — streaming min / mean / σ / max, the paper's `↓ μ (σ) ↑`
//!   columns,
//! * [`summary`] — per-trial aggregation into the paper's Table 1 column set,
//! * [`report`] — the structured report model (typed tables, notes) plus the
//!   one generic plain-text renderer that mirrors the paper's tables,
//! * [`json`] — serde-based JSON writer and round-trip parser for reports,
//! * [`bursts`] — error-burst statistics and Gilbert–Elliott fitting over
//!   measured syndromes (feeds interleaver-depth choices in `wavelan-fec`),
//! * [`lossruns`] — temporal structure of packet loss from recovered
//!   sequence numbers (isolated drops vs multi-packet outages),
//! * [`stream`] — the classifier + Table 1 aggregation as a constant-memory
//!   [`wavelan_sim::TraceSink`] fold (bit-identical to the buffered path),
//! * [`tracecodec`] — the self-describing columnar trace export format
//!   ("WLTC") for offline re-analysis.
//!
//! The pipeline never reads the simulator's ground truth; tests score it
//! against the truth after the fact.

pub mod bursts;
pub mod classify;
pub mod json;
pub mod lossruns;
pub mod matcher;
pub mod report;
pub mod stats;
pub mod stream;
pub mod summary;
pub mod tracecodec;

pub use bursts::burst_report;
pub use classify::{ClassifyScratch, PacketClass, TraceAnalysis};
pub use lossruns::{loss_runs, LossRunReport};
pub use matcher::ExpectedSeries;
pub use report::{Align, Block, Cell, Column, Report, RunDocument, StatField, StatsCell, Table};
pub use stats::SignalStats;
pub use stream::StreamAnalysis;
pub use summary::TrialSummary;
pub use tracecodec::TraceWriter;

use wavelan_sim::Trace;

/// Runs the full pipeline over a trace: match, classify, aggregate.
pub fn analyze(trace: &Trace, expected: &ExpectedSeries) -> TraceAnalysis {
    classify::classify_trace(trace, expected)
}
