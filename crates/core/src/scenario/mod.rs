//! # Event-DAG scenario scripting
//!
//! A declarative layer for multi-station MAC/capture choreography: a
//! [`ScenarioScript`] is a set of typed events — `place`, `move`,
//! `transmit`, `set_knob`, `wait`, `assert` — with explicit happens-after
//! edges, plus `require` conditions judged after the run.
//!
//! The execution contract:
//!
//! * **Deterministic firing.** Ready events fire in a pinned canonical
//!   order (`Action::priority`, ties by event name), so the same seed and
//!   the same DAG — in *any* declaration order — produce a bit-identical
//!   trace.
//! * **Static elaboration.** The DAG compiles
//!   ([`ScenarioScript::compile`]) into a timetable of simulator
//!   directives: each event starts at the latest end of its happens-after
//!   parents, waits and walks advance time, and the trial runs until the
//!   timetable is exhausted and the MAC drains.
//! * **Structured verdicts.** Mid-run `assert` probes and post-run
//!   `require` conditions become [`run::Judgment`]s; a failed one names
//!   the violated condition, its value and bound, and quotes the relevant
//!   trace slice ([`run::Judgment::context`]). Malformed scripts — cyclic
//!   DAGs, unknown stations, late placements — fail compilation with typed
//!   [`ScenarioError`]s, never panics.
//!
//! [`library`] holds the named scenarios (`repro --scenario <name>`): the
//! ported capture/chatter conformance scripts plus the walk-by,
//! oven-sweep, and dense-cell studies. The vocabulary holds only what they
//! use; a unit test there fails if some `Action`, `Role` or `Quantity`
//! variant has no library user.

pub mod compile;
pub mod error;
pub mod library;
pub mod model;
pub mod run;

pub use error::ScenarioError;
pub use library::{run_named, ScenarioRun, SCENARIO_NAMES};
pub use model::{Action, Cmp, Quantity, Require, Role, ScenarioScript, StationSpec};
