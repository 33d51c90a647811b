//! # Event-DAG scenario scripting
//!
//! A declarative layer for multi-station MAC/capture choreography. A
//! [`ScenarioScript`] is a [`ScenarioSpec`](crate::spec::ScenarioSpec) —
//! the same station, interferer and propagation model every registry
//! artifact builds from — plus one name per spec station, a seed, a set of
//! typed events (`move`, `transmit`, `wait`, `assert`) with explicit
//! happens-after edges, and `require` conditions judged after the run. The
//! spec says who is where; the DAG says only what happens when.
//!
//! The execution contract:
//!
//! * **Deterministic firing.** Ready events fire in a pinned canonical
//!   order (`Action::priority`, ties by event name), so the same seed and
//!   the same DAG — in *any* declaration order — produce a bit-identical
//!   trace.
//! * **Static elaboration.** The DAG compiles
//!   ([`ScenarioScript::compile`]) into the spec's simulator scenario plus a
//!   timetable of directives: each event starts at the latest end of its
//!   happens-after parents, waits and walks advance time, a `transmit`
//!   turns its spec sender into a script-driven one, and the trial runs
//!   until the timetable is exhausted and the MAC drains.
//! * **Structured verdicts.** Mid-run `assert` probes and post-run
//!   `require` conditions become [`run::Judgment`]s; a failed one names
//!   the violated condition, its value and bound, and quotes the relevant
//!   trace slice ([`run::Judgment::context`]). Malformed scripts — cyclic
//!   DAGs, unknown or duplicate station names, a `transmit` aimed at a
//!   non-sender, a spec that does not build — fail compilation with typed
//!   [`ScenarioError`]s, never panics.
//!
//! [`library`] holds the named scenarios (`repro --scenario <name>`): the
//! ported capture/chatter conformance scripts plus the walk-by,
//! oven-sweep, and dense-cell studies. The vocabulary holds only what they
//! use; a unit test there fails if some `Action` or `Quantity` variant has
//! no library user.

pub mod compile;
pub mod error;
pub mod library;
pub mod model;
pub mod run;

pub use error::ScenarioError;
pub use library::{run_named, ScenarioRun, SCENARIO_NAMES};
pub use model::{Action, Cmp, Quantity, Require, ScenarioScript};
