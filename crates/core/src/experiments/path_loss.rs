//! Figure 1: signal level as a function of distance.
//!
//! "The receiver is held fixed against one wall of a large lecture hall
//! while the transmitter is moved away from it to various distances (the
//! zero point represents the two modem units in physical contact). ...
//! one would expect to see a smooth dropoff in signal level as distance
//! increases. Indeed, that is the dominant theme. The dips at six and thirty
//! feet are probably due to multipath interference."
//!
//! For each distance we run a short packet burst and record the min / mean /
//! max *reported* level — the error bars of Figure 1.

use super::common::Scale;
use crate::executor::{trial_seed, Executor};
use crate::registry::Experiment;
use crate::spec::{PropagationSpec, ScenarioSpec};
use wavelan_analysis::report::{Cell, Column, Table};
use wavelan_analysis::{Block, Report, SignalStats};
use wavelan_sim::SimScratch;

/// This experiment's stream id for [`trial_seed`].
pub(crate) const EXPERIMENT_ID: u64 = 2;

/// One Figure 1 sample.
#[derive(Debug, Clone)]
pub struct DistanceSample {
    /// Transmitter distance, feet.
    pub distance_ft: f64,
    /// Reported-level statistics over the burst.
    pub level: SignalStats,
}

/// The Figure 1 series.
#[derive(Debug, Clone)]
pub struct PathLossResult {
    /// Samples in distance order.
    pub samples: Vec<DistanceSample>,
}

impl PathLossResult {
    /// The report blocks: `distance  min mean max` rows with a crude ASCII
    /// bar, as one headerless table.
    pub(crate) fn blocks(&self) -> Vec<Block> {
        let table = Table {
            heading: Some(
                "Figure 1: Signal level as a function of distance (min/mean/max)".to_string(),
            ),
            columns: vec![
                Column::new("distance_ft", "")
                    .width(5)
                    .precision(1)
                    .sep("")
                    .suffix(" ft"),
                Column::new("min", "").width(2).sep("  "),
                Column::new("mean", "").width(5).precision(2),
                Column::new("max", "").width(2),
                Column::new("bar", "").sep("  |"),
            ],
            rows: self
                .samples
                .iter()
                .map(|s| {
                    vec![
                        Cell::Float(s.distance_ft),
                        Cell::UInt(u64::from(s.level.min())),
                        Cell::Float(s.level.mean()),
                        Cell::UInt(u64::from(s.level.max())),
                        Cell::Bar(s.level.mean().round().max(0.0) as u64),
                    ]
                })
                .collect(),
        };
        vec![Block::Table(table)]
    }
}

/// Registry entry reproducing Figure 1.
pub(crate) struct Figure1;

impl Experiment for Figure1 {
    fn id(&self) -> u64 {
        EXPERIMENT_ID
    }

    fn artifact_name(&self) -> &'static str {
        "figure1"
    }

    fn paper_artifact(&self) -> &'static str {
        "Figure 1 (level vs distance)"
    }

    fn paper_tables(&self) -> &'static [&'static str] {
        &["Figure 1"]
    }

    fn packet_budget(&self, scale: Scale) -> u64 {
        31 * scale.packets(1_440)
    }

    fn spec(&self) -> ScenarioSpec {
        // The far end of the figure's ladder (60 ft) in the open lecture hall;
        // the driver and sweeps move `stations[1].x_ft` to walk the ladder.
        ScenarioSpec::pair("figure1", (0.0, 0.0), (60.0, 0.0), 1_440)
            .with_propagation(PropagationSpec::lecture_hall())
    }

    fn run(&self, scale: Scale, seed: u64, exec: &Executor) -> Report {
        let result = run_with(&[], scale.packets(1_440), seed, exec);
        Report::new(
            self.artifact_name(),
            self.paper_artifact(),
            self.packet_budget(scale),
            result.blocks(),
        )
    }
}

/// Runs the experiment on an explicit executor; each distance point is an
/// independent trial of the spec with the sender moved. The lecture-hall
/// fading realization is shared (one room, one afternoon: propagation seed
/// `seed`), while point `i`'s scenario seed is `trial_seed(2, i)`.
pub fn run_with(
    distances_ft: &[f64],
    packets_per_point: u64,
    seed: u64,
    exec: &Executor,
) -> PathLossResult {
    let default: Vec<f64> = (0..=30).map(|i| f64::from(i) * 2.0).collect();
    let distances = if distances_ft.is_empty() {
        &default[..]
    } else {
        distances_ft
    };
    let base = Figure1.spec();
    let samples = exec.map_with(distances.to_vec(), SimScratch::new, |scratch, i, d| {
        let mut spec = base.clone();
        spec.stations[1].x_ft = d.max(0.1);
        let trial = spec
            .run_pair(
                packets_per_point,
                trial_seed(EXPERIMENT_ID, i as u64, seed),
                seed,
                scratch,
            )
            .expect("the figure1 spec builds");
        let (level, _, _) = trial.analysis.stats_where(|p| p.is_test);
        DistanceSample {
            distance_ft: d,
            level,
        }
    });
    PathLossResult { samples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavelan_analysis::report::render_blocks;

    /// Distances (ft) where the level sits noticeably below the local trend
    /// (the average of its neighbours) — the multipath dips the paper calls
    /// out at six and thirty feet. Detrending matters: close to the
    /// transmitter the path-loss slope is steep enough to mask a dip from a
    /// naive local-minimum test.
    fn dip_distances(result: &PathLossResult) -> Vec<f64> {
        let s = &result.samples;
        let mut dips = Vec::new();
        for i in 1..s.len().saturating_sub(1) {
            let prev = s[i - 1].level.mean();
            let here = s[i].level.mean();
            let next = s[i + 1].level.mean();
            if (prev + next) / 2.0 - here > 0.75 {
                dips.push(s[i].distance_ft);
            }
        }
        dips
    }

    #[test]
    fn figure_1_shape_holds() {
        let result = run_with(&[], 120, 7, &Executor::default());
        assert_eq!(result.samples.len(), 31);
        // Contact reads very hot; 60 ft is much lower but still strong.
        let first = result.samples.first().unwrap().level.mean();
        let last = result.samples.last().unwrap().level.mean();
        assert!(first > 38.0, "contact level {first}");
        assert!((14.0..24.0).contains(&last), "60 ft level {last}");
        // The dominant theme is a smooth dropoff...
        assert!(first > last + 15.0);
        // ...with multipath dips near 6 and 30 ft.
        let dips = dip_distances(&result);
        assert!(
            dips.iter().any(|&d| (4.0..8.0).contains(&d)),
            "no dip near 6 ft: {dips:?}"
        );
        assert!(
            dips.iter().any(|&d| (28.0..34.0).contains(&d)),
            "no dip near 30 ft: {dips:?}"
        );
        let text = render_blocks(&result.blocks());
        assert!(text.contains("Figure 1"));
    }
}
