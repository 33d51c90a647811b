//! Section 7.4's border zone, walked: the roaming disruption experiment.
//!
//! The mechanics live in `wavelan_cell::roaming`; this module binds the
//! walk into the experiment registry with the fixed geometry the
//! reproduction uses (two cells 200 ft apart at threshold 12, a 17-step
//! walk from 20 ft to 180 ft, 2 s of saturated traffic per step).

use super::common::Scale;
use crate::executor::Executor;
use crate::registry::Experiment;
use crate::spec::{Role, ScenarioSpec, StationSpec};
use wavelan_analysis::Report;
use wavelan_cell::roaming::{walk, RoamReport, TwoCells};

/// This experiment's registry id (the walk drives `wavelan-cell` directly,
/// so the id is only a registry discriminator).
pub(crate) const EXPERIMENT_ID: u64 = 17;

/// Steps in the registry configuration of the walk.
const STEPS: usize = 17;

/// Saturated-traffic duration per step, milliseconds.
const TRIAL_MS: u64 = 2_000;

/// Runs the walk in the registry configuration.
pub(crate) fn run(seed: u64) -> RoamReport {
    walk(
        TwoCells {
            separation_ft: 200.0,
            threshold: 12,
        },
        20.0,
        180.0,
        STEPS,
        TRIAL_MS,
        seed,
    )
}

/// Registry entry for the Section 7.4 roaming walk.
pub(crate) struct Roaming;

impl Experiment for Roaming {
    fn id(&self) -> u64 {
        EXPERIMENT_ID
    }

    fn artifact_name(&self) -> &'static str {
        "roaming"
    }

    fn paper_artifact(&self) -> &'static str {
        "Section 7.4 (roaming/border zone)"
    }

    fn packet_budget(&self, _scale: Scale) -> u64 {
        // Saturated airtime trials, not a fixed transmission quota: the
        // budget reports the step count times the per-step duration in ms.
        (STEPS as u64) * TRIAL_MS
    }

    fn spec(&self) -> ScenarioSpec {
        // The walk's midpoint: the roamer halfway between the two base
        // stations (200 ft apart, receive threshold 12). The walk itself
        // lives in `wavelan-cell`; sweeps can slide the roamer
        // (`stations[1].x_ft`) through the border zone.
        let mut home = StationSpec::new(Role::Receiver, 0.0, 0.0);
        home.receive_threshold = 12;
        let mut roamer = StationSpec::new(Role::Sender, 100.0, 0.0);
        roamer.receive_threshold = 12;
        roamer.interval_ns = 0;
        ScenarioSpec {
            name: "roaming".into(),
            stations: vec![home, roamer],
            packet_budget: (STEPS as u64) * TRIAL_MS,
            ..ScenarioSpec::default()
        }
    }

    fn run(&self, _scale: Scale, seed: u64, _exec: &Executor) -> Report {
        // The walk is inherently serial (each step's geometry depends only
        // on its index, but the cell crate owns the loop), so the executor
        // is unused here.
        let result = run(seed);
        Report::new(
            self.artifact_name(),
            self.paper_artifact(),
            self.packet_budget(_scale),
            result.blocks(),
        )
    }
}
