//! Typed failures of scenario compilation. Every variant names the
//! offending event or require — scripts fail with diagnoses, never panics.
//! A condition that does not hold at run time is not an error: it is a
//! failed [`super::run::Judgment`].

use std::fmt;

/// Why a scenario script could not be compiled.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// Two events share a name.
    DuplicateEvent {
        /// The repeated name.
        event: String,
    },
    /// An event's `after` list names an event that does not exist.
    UnknownDependency {
        /// The event with the bad edge.
        event: String,
        /// The missing dependency name.
        dependency: String,
    },
    /// The happens-after graph has a cycle: these events can never fire.
    Cycle {
        /// The events stuck in (or behind) the cycle, in name order.
        events: Vec<String>,
    },
    /// Two `place` events declare the same station name.
    DuplicateStation {
        /// The place event at fault.
        event: String,
        /// The repeated station name.
        station: String,
    },
    /// An event or require references a station no `place` event declares.
    UnknownStation {
        /// The referencing event or require name.
        context: String,
        /// The unknown station name.
        station: String,
    },
    /// A `place` (or `place_interferer`) event would fire after time 0 —
    /// stations and ambient sources must exist before the trial starts.
    LatePlacement {
        /// The misplaced event.
        event: String,
    },
    /// A knob was turned at a time its model cannot honour (for example
    /// shadowing σ after time 0: propagation is frozen once the trial runs).
    KnobNotScriptable {
        /// The set_knob event at fault.
        event: String,
        /// Which knob.
        knob: &'static str,
        /// Why it cannot fire here.
        detail: String,
    },
    /// A `transmit` event targets a station that is not [`super::Role::Scripted`].
    NotScripted {
        /// The transmit event at fault.
        event: String,
        /// The mis-roled station.
        station: String,
    },
    /// A quantity needs a receive trace but the named station records none.
    NeedsTrace {
        /// The require or assert at fault.
        context: String,
        /// The traceless station.
        station: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::DuplicateEvent { event } => {
                write!(f, "duplicate event name {event:?}")
            }
            ScenarioError::UnknownDependency { event, dependency } => {
                write!(
                    f,
                    "event {event:?} happens after unknown event {dependency:?}"
                )
            }
            ScenarioError::Cycle { events } => {
                write!(
                    f,
                    "happens-after cycle: events {} can never fire",
                    events.join(", ")
                )
            }
            ScenarioError::DuplicateStation { event, station } => {
                write!(f, "event {event:?} re-places station {station:?}")
            }
            ScenarioError::UnknownStation { context, station } => {
                write!(f, "{context} references unknown station {station:?}")
            }
            ScenarioError::LatePlacement { event } => {
                write!(
                    f,
                    "placement event {event:?} would fire after t=0; places cannot happen after time-advancing events"
                )
            }
            ScenarioError::KnobNotScriptable {
                event,
                knob,
                detail,
            } => {
                write!(f, "event {event:?} cannot set knob {knob}: {detail}")
            }
            ScenarioError::NotScripted { event, station } => {
                write!(
                    f,
                    "transmit event {event:?} targets station {station:?}, whose role is not scripted"
                )
            }
            ScenarioError::NeedsTrace { context, station } => {
                write!(
                    f,
                    "{context} needs a receive trace, but station {station:?} records none"
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}
