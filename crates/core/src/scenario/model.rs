//! The declarative scenario value model: a [`ScenarioSpec`] setup, a name
//! per spec station, typed events on a happens-after DAG, and the `require`
//! conditions judged after the run.
//!
//! A [`ScenarioScript`] is data, not code. The spec says who is where —
//! receiver, senders, jammers, outsiders, interferers, propagation — exactly
//! as it does for a registry artifact; the script adds only the
//! choreography: named [`EventSpec`]s (each an [`Action`] plus the names of
//! the events it happens after) and a list of [`Require`] conditions.
//! Compilation ([`super::compile`]) builds the spec, checks the graph, fires
//! ready events in a pinned canonical order, and lowers them onto the
//! `wavelan-sim` directive timetable; running judges every `require` with
//! structured diagnostics.

use crate::spec::ScenarioSpec;
use wavelan_sim::Point;

/// A complete declarative scenario: a spec with one name per station,
/// events on a happens-after DAG, and the post-quiescence `require`
/// conditions.
#[derive(Debug, Clone)]
pub struct ScenarioScript {
    /// Master seed, from which the spec builds: same seed + same DAG ⇒
    /// bit-identical trace.
    pub seed: u64,
    /// The setup; its name names the scenario in diagnostics and reports.
    pub spec: ScenarioSpec,
    /// The script-scoped name of each spec station, in spec order (the
    /// handles events and requires use).
    pub stations: Vec<String>,
    /// The event DAG.
    pub events: Vec<EventSpec>,
    /// Conditions judged against the final state.
    pub requires: Vec<Require>,
}

impl ScenarioScript {
    /// A script over `spec` with no events, naming its stations in spec
    /// order. It drains for 50 ms after its last event (see
    /// [`super::compile`]).
    pub fn new(spec: ScenarioSpec, stations: &[&str], seed: u64) -> ScenarioScript {
        ScenarioScript {
            seed,
            spec,
            stations: stations.iter().map(|s| s.to_string()).collect(),
            events: Vec::new(),
            requires: Vec::new(),
        }
    }

    /// Adds an event named `name` that happens after the named events.
    pub fn event(&mut self, name: &str, after: &[&str], action: Action) -> &mut ScenarioScript {
        self.events.push(EventSpec {
            name: name.to_string(),
            after: after.iter().map(|s| s.to_string()).collect(),
            action,
        });
        self
    }

    /// Adds a post-run `require` condition.
    pub fn require(
        &mut self,
        name: &str,
        quantity: Quantity,
        cmp: Cmp,
        bound: f64,
    ) -> &mut ScenarioScript {
        self.requires.push(Require {
            name: name.to_string(),
            quantity,
            cmp,
            bound,
        });
        self
    }
}

/// One node of the event DAG.
#[derive(Debug, Clone)]
pub struct EventSpec {
    /// Unique event name.
    pub name: String,
    /// Names of the events this one happens after (its DAG parents).
    pub after: Vec<String>,
    /// What the event does when it fires.
    pub action: Action,
}

/// The typed actions an event can perform.
#[derive(Debug, Clone)]
pub enum Action {
    /// Move a station to `to`. With `duration_ns > 0` the station walks
    /// there linearly in `steps` hops; the event completes on arrival.
    Move {
        /// Station to move.
        station: String,
        /// Destination.
        to: Point,
        /// Walk duration (0 = teleport).
        duration_ns: u64,
        /// Interpolation hops for a timed walk (min 1).
        steps: u32,
    },
    /// Hand `packets` frames to a spec sender, one every `spacing_ns`. The
    /// sender then sends only what transmit events hand it. The event
    /// completes when the last frame has been handed over (airtime drains
    /// during subsequent waits and the scenario drain).
    Transmit {
        /// The sender.
        station: String,
        /// Number of frames.
        packets: u64,
        /// Application-level spacing, ns.
        spacing_ns: u64,
    },
    /// Advance virtual time by `duration_ns`.
    Wait {
        /// How long.
        duration_ns: u64,
    },
    /// Judge a condition against a counter snapshot taken the instant this
    /// event fires (a mid-run probe; the run continues regardless and the
    /// verdict is reported with the requires).
    Assert {
        /// The condition.
        require: Require,
    },
}

impl Action {
    /// Canonical firing priority when several events are ready at once:
    /// moves → transmits → waits → asserts, ties broken by event *name*
    /// (not declaration order, so permuting the declaration of a script
    /// never changes the trace).
    pub(crate) fn priority(&self) -> u8 {
        match self {
            Action::Move { .. } => 0,
            Action::Transmit { .. } => 1,
            Action::Wait { .. } => 2,
            Action::Assert { .. } => 3,
        }
    }
}

/// A judged condition: `quantity cmp bound`.
#[derive(Debug, Clone)]
pub struct Require {
    /// Condition name (what a failure diagnostic leads with).
    pub name: String,
    /// The measured quantity.
    pub quantity: Quantity,
    /// The comparison.
    pub cmp: Cmp,
    /// The bound.
    pub bound: f64,
}

impl Require {
    /// Builds a condition.
    pub fn new(name: &str, quantity: Quantity, cmp: Cmp, bound: f64) -> Require {
        Require {
            name: name.to_string(),
            quantity,
            cmp,
            bound,
        }
    }
}

/// The measurable quantities a [`Require`] can reference. Stations are
/// referenced by their script-scoped names.
#[derive(Debug, Clone)]
pub enum Quantity {
    /// Packets `station` put on the air.
    Transmitted {
        /// Sender name.
        station: String,
    },
    /// Packets `receiver` delivered up its receive path, optionally only
    /// those sent by `from` (which needs the receiver to record a trace).
    Delivered {
        /// Receiver name.
        receiver: String,
        /// Restrict to this sender.
        from: Option<String>,
    },
    /// Delivered packets cut short (capture cut or PHY unlock).
    Truncated {
        /// Receiver name.
        receiver: String,
        /// Restrict to this sender (trace-based when set).
        from: Option<String>,
    },
    /// Times `receiver` abandoned a locked packet for a ≥-margin stronger
    /// one (Section 7.4's capture effect).
    CapturesMade {
        /// Receiver name.
        receiver: String,
    },
    /// CSMA deferrals: MAC attempts that found the medium busy.
    Deferrals {
        /// Station name.
        station: String,
    },
    /// Transmissions that began while a foreign one was already on the air
    /// (global). Zero means the choreography never actually overlapped —
    /// the PR 4 mutual-CSMA-deferral failure mode.
    OverlapCount,
    /// `Delivered{receiver, from: sender} / Transmitted{sender}` (0 when
    /// nothing was sent). Trace-based.
    DeliveryRatio {
        /// Receiver name.
        receiver: String,
        /// Sender name.
        sender: String,
    },
    /// Packets from `sender` that `receiver` got intact (not truncated,
    /// zero corrupted bits) over `Transmitted{sender}` — the paper's
    /// error-free delivery rate. Trace-based.
    IntactRatio {
        /// Receiver name.
        receiver: String,
        /// Sender name.
        sender: String,
    },
}

impl Quantity {
    /// Station names this quantity reads, with whether each must record a
    /// trace: `(name, needs_trace)`.
    pub(crate) fn station_refs(&self) -> Vec<(&str, bool)> {
        match self {
            Quantity::Transmitted { station } | Quantity::Deferrals { station } => {
                vec![(station, false)]
            }
            Quantity::CapturesMade { receiver } => vec![(receiver, false)],
            Quantity::Delivered { receiver, from } | Quantity::Truncated { receiver, from } => {
                let mut refs = vec![(receiver.as_str(), from.is_some())];
                if let Some(f) = from {
                    refs.push((f.as_str(), false));
                }
                refs
            }
            Quantity::OverlapCount => Vec::new(),
            Quantity::DeliveryRatio { receiver, sender }
            | Quantity::IntactRatio { receiver, sender } => {
                vec![(receiver.as_str(), true), (sender.as_str(), false)]
            }
        }
    }

    /// Human rendering, with station names inline.
    pub(crate) fn describe(&self) -> String {
        let from_part = |from: &Option<String>| match from {
            Some(f) => format!(" from {f}"),
            None => String::new(),
        };
        match self {
            Quantity::Transmitted { station } => format!("transmitted({station})"),
            Quantity::Delivered { receiver, from } => {
                format!("delivered({receiver}{})", from_part(from))
            }
            Quantity::Truncated { receiver, from } => {
                format!("truncated({receiver}{})", from_part(from))
            }
            Quantity::CapturesMade { receiver } => format!("captures_made({receiver})"),
            Quantity::Deferrals { station } => format!("deferrals({station})"),
            Quantity::OverlapCount => String::from("overlap_count"),
            Quantity::DeliveryRatio { receiver, sender } => {
                format!("delivery_ratio({receiver} ← {sender})")
            }
            Quantity::IntactRatio { receiver, sender } => {
                format!("intact_ratio({receiver} ← {sender})")
            }
        }
    }
}

/// Comparison operator of a [`Require`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `actual >= bound`.
    Ge,
    /// `actual > bound`.
    Gt,
    /// `actual <= bound`.
    Le,
    /// `actual < bound`.
    Lt,
    /// `actual == bound` (exact; the counters are integers).
    Eq,
}

impl Cmp {
    /// Whether `actual cmp bound` holds.
    pub(crate) fn holds(self, actual: f64, bound: f64) -> bool {
        match self {
            Cmp::Ge => actual >= bound,
            Cmp::Gt => actual > bound,
            Cmp::Le => actual <= bound,
            Cmp::Lt => actual < bound,
            Cmp::Eq => actual == bound,
        }
    }

    /// The operator's symbol.
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            Cmp::Ge => ">=",
            Cmp::Gt => ">",
            Cmp::Le => "<=",
            Cmp::Lt => "<",
            Cmp::Eq => "==",
        }
    }
}
