//! Compilation of a [`ScenarioScript`] into a runnable trial: graph
//! validation, the canonical-order toposort, static time elaboration, the
//! spec build, and lowering onto the `wavelan-sim` directive timetable.
//!
//! Determinism contract: compilation is a pure function of the script's
//! *content*. Station ids are spec indices, and ready events fire in the
//! canonical order of `Action::priority` with ties broken by event name, so
//! permuting the declaration order of a script's events changes nothing —
//! not the firing order, not a single directive.

use super::error::ScenarioError;
use super::model::{Action, Require, ScenarioScript};
use crate::spec::Role;
use std::collections::{BTreeMap, HashMap};
use wavelan_sim::station::Traffic;
use wavelan_sim::{
    Directive, DirectiveOp, Point, Scenario as SimScenario, StationConfig, StationId,
};

/// Virtual time every scenario runs past its last scheduled event before it
/// is declared quiescent, ns: gives in-flight MAC backlogs time to drain.
const DRAIN_NS: u64 = 50_000_000;

/// A mid-run probe: an `assert` event lowered to a counter snapshot plus the
/// condition judged against it.
#[derive(Debug, Clone)]
pub(crate) struct Probe {
    /// The assert event's name.
    pub event: String,
    /// The condition.
    pub require: Require,
    /// Index into [`wavelan_sim::TrialResult::snapshots`].
    pub snapshot_id: usize,
}

/// A compiled, runnable scenario: the assembled sim plus the directive
/// timetable and the conditions to judge.
#[derive(Debug)]
pub struct CompiledScenario {
    /// The script's name.
    pub name: String,
    pub(crate) sim: SimScenario,
    pub(crate) directives: Vec<Directive>,
    pub(crate) probes: Vec<Probe>,
    pub(crate) requires: Vec<Require>,
    /// Station names, indexed by [`StationId`] (the spec's station order).
    pub(crate) station_names: Vec<String>,
    pub(crate) limit_ns: u64,
    /// Event names in the order they fired during elaboration.
    pub fire_order: Vec<String>,
}

impl CompiledScenario {
    /// The sim station id bound to a script station name.
    pub(crate) fn station_id(&self, name: &str) -> Option<StationId> {
        self.station_names.iter().position(|n| n == name)
    }
}

impl ScenarioScript {
    /// Validates the script, builds its spec at the script's seed
    /// ([`ScenarioSpec::build`](crate::spec::ScenarioSpec::build)) and
    /// compiles it to a runnable trial. Every failure is a typed
    /// [`ScenarioError`] naming what is at fault.
    pub fn compile(&self) -> Result<CompiledScenario, ScenarioError> {
        // --- Graph validation -------------------------------------------
        let mut index_of: HashMap<&str, usize> = HashMap::new();
        for (i, e) in self.events.iter().enumerate() {
            if index_of.insert(&e.name, i).is_some() {
                return Err(ScenarioError::DuplicateEvent {
                    event: e.name.clone(),
                });
            }
        }
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); self.events.len()];
        let mut indegree: Vec<usize> = vec![0; self.events.len()];
        for (i, e) in self.events.iter().enumerate() {
            for dep in &e.after {
                let Some(&d) = index_of.get(dep.as_str()) else {
                    return Err(ScenarioError::UnknownDependency {
                        event: e.name.clone(),
                        dependency: dep.clone(),
                    });
                };
                dependents[d].push(i);
                indegree[i] += 1;
            }
        }

        // --- Canonical-order toposort + static time elaboration ---------
        // Ready events fire in (priority, name) order; each event starts at
        // the latest end time of its happens-after parents.
        let mut ready: BTreeMap<(u8, &str), usize> = BTreeMap::new();
        for (i, e) in self.events.iter().enumerate() {
            if indegree[i] == 0 {
                ready.insert((e.action.priority(), &e.name), i);
            }
        }
        let mut start_ns: Vec<u64> = vec![0; self.events.len()];
        let mut end_ns: Vec<u64> = vec![0; self.events.len()];
        let mut fire_order: Vec<usize> = Vec::with_capacity(self.events.len());
        while let Some((&key, &i)) = ready.iter().next() {
            ready.remove(&key);
            let e = &self.events[i];
            start_ns[i] = e
                .after
                .iter()
                .map(|dep| end_ns[index_of[dep.as_str()]])
                .max()
                .unwrap_or(0);
            end_ns[i] = start_ns[i] + event_duration(&e.action);
            fire_order.push(i);
            for &next in &dependents[i] {
                indegree[next] -= 1;
                if indegree[next] == 0 {
                    let n = &self.events[next];
                    ready.insert((n.action.priority(), &n.name), next);
                }
            }
        }
        if fire_order.len() < self.events.len() {
            let mut stuck: Vec<String> = self
                .events
                .iter()
                .enumerate()
                .filter(|(i, _)| !fire_order.contains(i))
                .map(|(_, e)| e.name.clone())
                .collect();
            stuck.sort();
            return Err(ScenarioError::Cycle { events: stuck });
        }

        // --- Station names and the spec build ---------------------------
        if self.stations.len() != self.spec.stations.len() {
            return Err(ScenarioError::StationNames {
                names: self.stations.len(),
                stations: self.spec.stations.len(),
            });
        }
        for (i, name) in self.stations.iter().enumerate() {
            if self.stations[..i].contains(name) {
                return Err(ScenarioError::DuplicateStation {
                    station: name.clone(),
                });
            }
        }
        let station_names = &self.stations;
        let station_id = |name: &str, context: String| -> Result<StationId, ScenarioError> {
            station_names
                .iter()
                .position(|n| n == name)
                .ok_or(ScenarioError::UnknownStation {
                    context,
                    station: name.to_string(),
                })
        };
        let (mut sim, _, _) = self.spec.build(self.seed).map_err(ScenarioError::Spec)?;
        let mut positions: Vec<Point> = sim.stations.iter().map(|s| s.pos).collect();

        // --- Lower the events to directives -----------------------------
        let mut directives: Vec<Directive> = Vec::new();
        let mut probes: Vec<Probe> = Vec::new();

        for &i in &fire_order {
            let e = &self.events[i];
            let at_ns = start_ns[i];
            let ctx = || format!("event {:?}", e.name);
            match &e.action {
                Action::Move {
                    station,
                    to,
                    duration_ns,
                    steps,
                } => {
                    let id = station_id(station, ctx())?;
                    let from = positions[id];
                    let steps = (*steps).max(1) as u64;
                    if *duration_ns == 0 {
                        directives.push(Directive {
                            at_ns,
                            op: DirectiveOp::MoveStation {
                                station: id,
                                to: *to,
                            },
                        });
                    } else {
                        // A linear walk: `steps` hops, arriving exactly at
                        // the event's end.
                        for k in 1..=steps {
                            let frac = k as f64 / steps as f64;
                            let pos = Point::new(
                                from.x + (to.x - from.x) * frac,
                                from.y + (to.y - from.y) * frac,
                            );
                            directives.push(Directive {
                                at_ns: at_ns + duration_ns * k / steps,
                                op: DirectiveOp::MoveStation {
                                    station: id,
                                    to: pos,
                                },
                            });
                        }
                    }
                    positions[id] = *to;
                }
                Action::Transmit {
                    station,
                    packets,
                    spacing_ns,
                } => {
                    let id = station_id(station, ctx())?;
                    // A transmit event turns a spec sender into one that
                    // sends only what the script hands it.
                    let config = &mut sim.stations[id];
                    config.traffic = match (self.spec.stations[id].role, config.traffic) {
                        (
                            Role::Sender,
                            Traffic::Periodic { peer, .. } | Traffic::Saturate { peer },
                        ) => Traffic::Scripted { peer },
                        _ => {
                            return Err(ScenarioError::NotSender {
                                event: e.name.clone(),
                                station: station.clone(),
                            })
                        }
                    };
                    directives.push(Directive {
                        at_ns,
                        op: DirectiveOp::Enqueue {
                            station: id,
                            packets: *packets,
                            spacing_ns: *spacing_ns,
                        },
                    });
                }
                Action::Wait { .. } => {}
                Action::Assert { require } => {
                    validate_require(
                        require,
                        format!("assert event {:?}", e.name),
                        station_names,
                        &sim.stations,
                    )?;
                    let snapshot_id = probes.len();
                    directives.push(Directive {
                        at_ns,
                        op: DirectiveOp::Snapshot { id: snapshot_id },
                    });
                    probes.push(Probe {
                        event: e.name.clone(),
                        require: require.clone(),
                        snapshot_id,
                    });
                }
            }
        }

        for require in &self.requires {
            validate_require(
                require,
                format!("require {:?}", require.name),
                station_names,
                &sim.stations,
            )?;
        }

        let limit_ns = end_ns.iter().copied().max().unwrap_or(0) + DRAIN_NS;
        Ok(CompiledScenario {
            name: self.spec.name.clone(),
            sim,
            directives,
            probes,
            requires: self.requires.clone(),
            station_names: self.stations.clone(),
            limit_ns,
            fire_order: fire_order
                .into_iter()
                .map(|i| self.events[i].name.clone())
                .collect(),
        })
    }
}

/// How long an event occupies virtual time (its end − start).
fn event_duration(action: &Action) -> u64 {
    match action {
        Action::Wait { duration_ns } => *duration_ns,
        Action::Move { duration_ns, .. } => *duration_ns,
        // A transmit event spans its handover schedule plus one trailing
        // spacing, so a dependent event starts after the last frame's
        // handover *and* (at the study's rates) its airtime.
        Action::Transmit {
            packets,
            spacing_ns,
            ..
        } => packets.saturating_mul(*spacing_ns),
        Action::Assert { .. } => 0,
    }
}

/// Checks every station a quantity references: known name, and a recorded
/// trace where the quantity needs one.
fn validate_require(
    require: &Require,
    context: String,
    station_names: &[String],
    stations: &[StationConfig],
) -> Result<(), ScenarioError> {
    for (name, needs_trace) in require.quantity.station_refs() {
        let Some(id) = station_names.iter().position(|n| n == name) else {
            return Err(ScenarioError::UnknownStation {
                context,
                station: name.to_string(),
            });
        };
        if needs_trace && !stations[id].record_trace {
            return Err(ScenarioError::NeedsTrace {
                context,
                station: name.to_string(),
            });
        }
    }
    Ok(())
}
