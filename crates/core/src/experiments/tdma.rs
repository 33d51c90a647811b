//! The introduction's MAC argument, quantified: CSMA/CA vs reservation TDMA.
//!
//! Paper Section 1: "we believe that a Time Division Multiple Access (TDMA)
//! MAC layer atop a per-cell shared medium is attractive because TDMA allows
//! flexible bandwidth sharing among stations whose needs will vary with
//! time" — and Section 8 expects future pico-cells to hand "substantial
//! bandwidth to individual client machines", which a collision-avoidance MAC
//! squanders under load.
//!
//! This experiment sweeps offered load over a cell of stations and compares
//! the two MACs on aggregate throughput and Jain fairness, using the
//! slot-level shootout in `wavelan-mac::tdma`.

use super::common::Scale;
use crate::executor::{trial_seed, Executor};
use crate::registry::Experiment;
use crate::spec::{Role, ScenarioSpec, StationSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wavelan_analysis::report::{Cell, Column, Table};
use wavelan_analysis::{Block, Report};
use wavelan_mac::tdma::{compare_with_csma, MacComparison};

/// This experiment's stream id for [`trial_seed`].
pub(crate) const EXPERIMENT_ID: u64 = 14;

/// One load point of the sweep.
#[derive(Debug, Clone)]
pub struct LoadSample {
    /// Per-station packet arrival probability per slot.
    pub arrival_prob: f64,
    /// Offered load as a fraction of channel capacity.
    pub offered_load: f64,
    /// The shootout numbers at this load.
    pub comparison: MacComparison,
}

/// The experiment result.
#[derive(Debug, Clone)]
pub struct TdmaResult {
    /// Stations in the cell.
    pub stations: usize,
    /// Samples in increasing-load order.
    pub samples: Vec<LoadSample>,
}

impl TdmaResult {
    /// The lowest offered load at which TDMA's throughput exceeds CSMA's by
    /// more than 10% of capacity (the "reservation pays off" point), if any.
    pub(crate) fn crossover_load(&self) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.comparison.tdma_throughput > s.comparison.csma_throughput + 0.10)
            .map(|s| s.offered_load)
    }

    /// The report blocks: the sweep table, plus the crossover note if one
    /// exists.
    pub(crate) fn blocks(&self) -> Vec<Block> {
        let table = Table {
            heading: Some(format!(
                "CSMA/CA vs reservation TDMA, {} stations (paper Section 1's argument)",
                self.stations
            )),
            columns: vec![
                Column::new("offered_pct", "offered")
                    .width(6)
                    .sep("")
                    .suffix("%")
                    .header_width(7),
                Column::new("csma_throughput_pct", "csma thru")
                    .width(10)
                    .precision(1)
                    .suffix("%")
                    .header_width(11),
                Column::new("tdma_throughput_pct", "tdma thru")
                    .width(9)
                    .precision(1)
                    .suffix("%")
                    .header_width(10),
                Column::new("csma_fairness", "csma fair")
                    .width(10)
                    .precision(3),
                Column::new("tdma_fairness", "tdma fair")
                    .width(10)
                    .precision(3),
            ],
            rows: self
                .samples
                .iter()
                .map(|s| {
                    vec![
                        Cell::Float(s.offered_load * 100.0),
                        Cell::Float(s.comparison.csma_throughput * 100.0),
                        Cell::Float(s.comparison.tdma_throughput * 100.0),
                        Cell::Float(s.comparison.csma_fairness),
                        Cell::Float(s.comparison.tdma_fairness),
                    ]
                })
                .collect(),
        };
        let mut blocks = vec![Block::Table(table)];
        if let Some(load) = self.crossover_load() {
            blocks.push(Block::Blank);
            blocks.push(Block::Note(format!(
                "reservation TDMA pulls decisively ahead from ≈{:.0}% offered load",
                load * 100.0
            )));
        }
        blocks
    }
}

/// Stations in the registry configuration of the sweep.
const REGISTRY_STATIONS: usize = 8;

/// Frames per load point in the registry configuration.
const REGISTRY_FRAMES: usize = 500;

/// Registry entry for the Section 1 MAC argument.
pub(crate) struct Tdma;

impl Experiment for Tdma {
    fn id(&self) -> u64 {
        EXPERIMENT_ID
    }

    fn artifact_name(&self) -> &'static str {
        "tdma"
    }

    fn paper_artifact(&self) -> &'static str {
        "Section 1 (TDMA argument)"
    }

    fn packet_budget(&self, _scale: Scale) -> u64 {
        // Slot-level shootout: 8 load points × frames × slots, not packets
        // through the radio sim; the budget reports the slot count.
        (REGISTRY_STATIONS * REGISTRY_FRAMES * 16) as u64
    }

    fn spec(&self) -> ScenarioSpec {
        // The shootout is slot-level, not radio-level; the spec records the
        // cell it models — one receiver and eight saturating stations in an
        // open room (the load sweep itself is a driver-only knob).
        let mut stations = vec![StationSpec::new(Role::Receiver, 0.0, 0.0)];
        for i in 0..REGISTRY_STATIONS {
            let mut s = StationSpec::new(Role::Sender, 7.0 + i as f64, 0.0);
            s.interval_ns = 0;
            stations.push(s);
        }
        ScenarioSpec {
            name: "tdma".into(),
            stations,
            packet_budget: (REGISTRY_STATIONS * REGISTRY_FRAMES * 16) as u64,
            ..ScenarioSpec::default()
        }
    }

    fn run(&self, _scale: Scale, seed: u64, exec: &Executor) -> Report {
        let result = run_with(REGISTRY_STATIONS, REGISTRY_FRAMES, seed, exec);
        Report::new(
            self.artifact_name(),
            self.paper_artifact(),
            self.packet_budget(_scale),
            result.blocks(),
        )
    }
}

/// Runs the experiment on an explicit executor. Each load point gets its own RNG seeded
/// from its index (the slot shootout used to thread one RNG through the
/// sweep, which would have serialized it).
pub fn run_with(stations: usize, frames: usize, seed: u64, exec: &Executor) -> TdmaResult {
    let slots_per_frame = 2 * stations;
    let weights = vec![1.0; stations];
    let samples = exec.map_indices(8, |idx| {
        let i = idx as u32 + 1;
        let offered_load = f64::from(i) * 0.2;
        // offered_load = stations × arrival_prob (per slot).
        let arrival_prob = offered_load / stations as f64;
        let mut rng = StdRng::seed_from_u64(trial_seed(EXPERIMENT_ID, idx as u64, seed));
        let comparison = compare_with_csma(
            stations,
            slots_per_frame,
            frames,
            arrival_prob,
            &weights,
            &mut rng,
        );
        LoadSample {
            arrival_prob,
            offered_load,
            comparison,
        }
    });
    TdmaResult { stations, samples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavelan_analysis::report::render_blocks;

    #[test]
    fn reservation_wins_under_load() {
        let result = run_with(8, 400, 5, &Executor::default());

        // Light load: both MACs deliver what's offered.
        let light = &result.samples[0];
        assert!(
            (light.comparison.csma_throughput - light.offered_load).abs() < 0.05,
            "{light:?}"
        );
        assert!(
            (light.comparison.tdma_throughput - light.offered_load).abs() < 0.05,
            "{light:?}"
        );

        // Saturation: TDMA fills the channel, CSMA collapses into collisions.
        let heavy = result.samples.last().unwrap();
        assert!(heavy.comparison.tdma_throughput > 0.85, "{heavy:?}");
        assert!(heavy.comparison.csma_throughput < 0.60, "{heavy:?}");
        assert!(heavy.comparison.tdma_fairness > 0.98, "{heavy:?}");

        // The crossover exists and sits near/above full offered load.
        let crossover = result
            .crossover_load()
            .expect("a crossover under saturation");
        assert!((0.5..=1.7).contains(&crossover), "{crossover}");

        assert!(render_blocks(&result.blocks()).contains("reservation TDMA"));
    }
}
