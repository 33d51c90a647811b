//! Typed failures of scenario compilation. Every variant names what is at
//! fault — an event, a station, a require or the spec — so scripts fail
//! with diagnoses, never panics.
//! A condition that does not hold at run time is not an error: it is a
//! failed [`super::run::Judgment`].

use crate::spec::SpecError;
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
    /// The station name list and the spec's station list differ in length.
    StationNames {
        /// Names the script gives.
        names: usize,
        /// Stations the spec declares.
        stations: usize,
    },
    /// Two spec stations share a script name.
    DuplicateStation {
        /// The repeated station name.
        station: String,
    },
    /// An event or require references a station the script does not name.
    UnknownStation {
        /// The referencing event or require name.
        context: String,
        /// The unknown station name.
        station: String,
    },
    /// The spec does not build.
    Spec(SpecError),
    /// A `transmit` event targets a station that is not a spec
    /// [`Role::Sender`](crate::spec::Role::Sender).
    NotSender {
        /// The transmit event at fault.
        event: String,
        /// The station.
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
            ScenarioError::StationNames { names, stations } => {
                write!(f, "{names} station names for {stations} spec stations")
            }
            ScenarioError::DuplicateStation { station } => {
                write!(f, "station name {station:?} is given twice")
            }
            ScenarioError::UnknownStation { context, station } => {
                write!(f, "{context} references unknown station {station:?}")
            }
            ScenarioError::Spec(e) => write!(f, "spec: {e}"),
            ScenarioError::NotSender { event, station } => {
                write!(
                    f,
                    "transmit event {event:?} targets station {station:?}, which is not a sender"
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
