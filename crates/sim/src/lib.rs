#![warn(missing_docs)]

//! # wavelan-sim
//!
//! The in-building wireless testbed: a deterministic discrete-event simulator
//! that stands in for the physical environment of the SIGCOMM '96 study —
//! the CMU office building, the laptops, and the hours of trials.
//!
//! The observable interface is the one the paper's measurement software saw:
//! a promiscuous receiver produces a [`trace::Trace`] of per-packet records,
//! each carrying the (possibly corrupted, possibly truncated) on-air bytes
//! plus the modem's reported signal level, silence level, signal quality and
//! antenna. Everything downstream (`wavelan-analysis`, the experiment
//! definitions in `wavelan-core`) consumes only that trace format and would
//! work unchanged on a trace captured from real hardware.
//!
//! Modules, bottom-up:
//!
//! * [`geometry`] — points and segments in a 2-D floor plan (meters; feet
//!   helpers, because the paper reports feet),
//! * [`floorplan`] — material-tagged walls and obstacles; which walls a
//!   propagation path crosses,
//! * [`propagation`] — path loss + wall attenuation + two-ray ripple +
//!   deterministic lognormal shadowing: slow-scale received power,
//! * [`event`] — the discrete-event queue (u64 nanoseconds of virtual time),
//! * [`medium`] — the shared radio channel: concurrent transmissions and
//!   ambient interferers,
//! * [`frame`] — on-air frames as `Copy` recipes, written out only when a
//!   record is logged,
//! * [`station`] — a WaveLAN host: PHY + MAC + CSMA/CA + trace capture,
//! * [`runner`] — scenario assembly and trial execution,
//! * [`trace`] — the packet trace format (persisted by the WLTC codec in
//!   `wavelan-analysis::tracecodec`).

pub mod event;
pub mod floorplan;
pub mod frame;
mod gains;
pub mod geometry;
pub mod medium;
pub mod propagation;
pub mod runner;
pub mod station;
pub mod trace;

pub use floorplan::{FloorPlan, Wall};
pub use geometry::{Point, Segment};
pub use medium::{AmbientSource, Emitter};
pub use propagation::Propagation;
pub use runner::{
    Directive, DirectiveOp, Scenario, ScenarioBuilder, SimScratch, SnapshotData, StationCounters,
    TrialResult,
};
pub use station::{Station, StationConfig, StationId};
pub use trace::{BufferSink, RecordView, Tee, Trace, TraceRecord, TraceSink};
