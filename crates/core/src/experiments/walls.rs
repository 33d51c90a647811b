//! Table 4: signal metrics with a single wall.
//!
//! "In the first scenario a transmitter and receiver are separated by
//! approximately 7 feet, and then further separated by approximately 6
//! inches of wall (in the second case, approximately four feet of free space
//! were added in addition to the wall). ... In each location we collected
//! 10⁸ bits with no loss or error whatsoever. ... The first wall is plaster
//! with a wire mesh core and it reduces the signal level by about 5 points.
//! The second wall consists of concrete blocks and reduces the signal level
//! by only 2 points."

use super::common::Scale;
use crate::executor::{trial_seed, Executor};
use crate::layouts;
use crate::registry::Experiment;
use crate::spec::{material_name, ScenarioSpec};
use wavelan_analysis::report::{signal_table, SignalRow};
use wavelan_analysis::{Block, Report, TraceAnalysis};
use wavelan_phy::Material;
use wavelan_sim::SimScratch;

/// This experiment's stream id for [`trial_seed`].
pub(crate) const EXPERIMENT_ID: u64 = 5;

/// The paper collected ≈12,720 packets (10⁸ body bits) per trial.
pub(crate) const PAPER_PACKETS: u64 = 12_720;

/// One trial row.
#[derive(Debug)]
pub struct WallTrial {
    /// Trial label (`Air 1`, `Wall 1`, ...).
    pub name: &'static str,
    /// Full analysis (for the signal metrics).
    pub analysis: TraceAnalysis,
}

/// The Table 4 result.
#[derive(Debug)]
pub struct WallsResult {
    /// Trials in the paper's order.
    pub trials: Vec<WallTrial>,
}

impl WallsResult {
    /// The Table 4 report blocks.
    pub(crate) fn blocks(&self) -> Vec<Block> {
        let rows: Vec<SignalRow> = self
            .trials
            .iter()
            .map(|t| SignalRow::new(t.name, t.analysis.stats_where(|p| p.is_test)))
            .collect();
        vec![Block::Table(signal_table(
            "Table 4: Signal metrics with a single wall",
            &rows,
        ))]
    }
}

/// Registry entry reproducing Table 4.
pub(crate) struct Table4;

impl Experiment for Table4 {
    fn id(&self) -> u64 {
        EXPERIMENT_ID
    }

    fn artifact_name(&self) -> &'static str {
        "table4"
    }

    fn paper_artifact(&self) -> &'static str {
        "Table 4 (single wall)"
    }

    fn paper_tables(&self) -> &'static [&'static str] {
        &["Table 4"]
    }

    fn packet_budget(&self, scale: Scale) -> u64 {
        4 * scale.packets(PAPER_PACKETS)
    }

    fn spec(&self) -> ScenarioSpec {
        // The Wall 1 trial: 7 ft separation through the plaster/wire-mesh wall.
        // The paper measured these placements once each; its tight per-trial level
        // spreads say the slow fading realization must not vary, so shadowing is
        // pinned to zero and the calibrated wall/distance budget carries the
        // level. Sweeps can move the wall (`walls[0].*`) or the sender
        // (`stations[1].x_ft`).
        let (plan, _, _) = layouts::single_wall(Material::PlasterWireMesh, 0.0);
        let mut spec =
            ScenarioSpec::pair("table4", (0.0, 0.0), (7.0, 0.0), PAPER_PACKETS).with_plan(&plan);
        spec.propagation.shadowing_sigma_db = 0.0;
        spec
    }

    fn run(&self, scale: Scale, seed: u64, exec: &Executor) -> Report {
        let result = run_with(scale, seed, exec);
        Report::new(
            self.artifact_name(),
            self.paper_artifact(),
            self.packet_budget(scale),
            result.blocks(),
        )
    }
}

/// Runs the experiment on an explicit executor; the four trials fan out
/// independently. Each trial is the spec with the wall's material swapped
/// (or the wall removed for the matched air trial) and the sender moved
/// back; an air/wall pair shares one seed, `trial_seed(5, pair)`, for both
/// its scenario and its propagation, keeping the paper's matched-placement
/// method intact under parallel execution.
pub fn run_with(scale: Scale, seed: u64, exec: &Executor) -> WallsResult {
    let packets = scale.packets(PAPER_PACKETS);
    let base = Table4.spec();
    let cases: [(&'static str, Option<Material>, f64, u64); 4] = [
        ("Air 1", None, 0.0, 0),
        ("Wall 1", Some(Material::PlasterWireMesh), 0.0, 0),
        ("Air 2", None, 4.0, 1),
        ("Wall 2", Some(Material::ConcreteBlock), 4.0, 1),
    ];
    let trials = exec.map_with(
        cases.to_vec(),
        SimScratch::new,
        |scratch, _, (name, material, extra_ft, pair)| {
            let mut spec = base.clone();
            match material {
                Some(m) => spec.walls[0].material = material_name(m),
                None => spec.walls.clear(),
            }
            spec.stations[1].x_ft += extra_ft;
            let s = trial_seed(EXPERIMENT_ID, pair, seed);
            let trial = spec
                .run_pair(packets, s, s, scratch)
                .expect("the table4 spec builds");
            WallTrial {
                name,
                analysis: trial.analysis,
            }
        },
    );
    WallsResult { trials }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavelan_analysis::report::render_blocks;

    /// Mean test-packet signal level of one trial.
    fn mean_level(result: &WallsResult, name: &str) -> f64 {
        let t = result
            .trials
            .iter()
            .find(|t| t.name == name)
            .expect("trial exists");
        t.analysis.stats_where(|p| p.is_test).0.mean()
    }

    #[test]
    fn table_4_shape_holds() {
        let result = run_with(Scale::Smoke, 11, &Executor::default());
        // "no loss or error whatsoever" (at smoke scale allow the host-loss
        // floor a packet or two).
        for t in &result.trials {
            assert_eq!(t.analysis.body_ber(), 0.0, "{}", t.name);
            assert!(t.analysis.packet_loss() < 0.005, "{}", t.name);
        }
        // Plaster ≈ 5 points, concrete ≈ 2 points, plaster > concrete.
        let plaster = mean_level(&result, "Air 1") - mean_level(&result, "Wall 1");
        let concrete = mean_level(&result, "Air 2") - mean_level(&result, "Wall 2");
        assert!((plaster - 5.0).abs() < 1.0, "plaster drop {plaster}");
        assert!((concrete - 2.0).abs() < 1.0, "concrete drop {concrete}");
        assert!(plaster > concrete);
        // Quality unaffected by walls (paper: 15.00 everywhere).
        for t in &result.trials {
            let (_, _, quality) = t.analysis.stats_where(|p| p.is_test);
            assert!(quality.mean() > 14.7, "{}: {}", t.name, quality.mean());
        }
        assert!(render_blocks(&result.blocks()).contains("Wall 2"));
    }
}
