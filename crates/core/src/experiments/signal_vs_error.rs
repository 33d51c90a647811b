//! Table 3 and Figure 2: packet error conditions versus signal metrics.
//!
//! "Table 3 presents the aggregated results of several trials, with slight
//! variations of receiver position, orientation, and obstacles within each
//! trial. While undamaged packets may have a signal level as low as 5, and
//! damaged packets one as high as 12, the main body of damaged packets has
//! signal levels below 8, whereas it is well above 8 for undamaged packets."
//!
//! We aggregate trials across a ladder of sender positions whose levels span
//! the whole usable range, plus an outsider pair from "another building".
//! Figure 2 is derived from the same sweep: mean level and error rate per
//! position, from which the shaded "error region" (level < 8) falls out.

use super::common::Scale;
use crate::executor::{trial_seed, Executor};
use crate::registry::Experiment;
use crate::spec::ScenarioSpec;
use wavelan_analysis::report::{signal_table, Cell, Column, SignalRow, Table};
use wavelan_analysis::{Block, PacketClass, Report, TraceAnalysis};
use wavelan_sim::SimScratch;

/// Sender distances (ft) whose calibrated levels ladder from ≈27 down into
/// the error region (see the module docs of `crate::layouts` on distances).
pub(crate) const POSITION_LADDER_FT: [f64; 9] =
    [11.0, 40.0, 90.0, 150.0, 210.0, 250.0, 280.0, 305.0, 330.0];

/// One Figure 2 point.
#[derive(Debug, Clone)]
pub struct PositionSample {
    /// Sender distance, feet.
    pub distance_ft: f64,
    /// Mean reported level of received test packets.
    pub mean_level: f64,
    /// Loss rate at this position.
    pub loss: f64,
    /// Fraction of received test packets damaged (truncated or corrupted).
    pub damaged_fraction: f64,
}

/// The combined Table 3 / Figure 2 result.
#[derive(Debug)]
pub struct SignalVsErrorResult {
    /// Pooled analysis across all positions.
    pub pooled: TraceAnalysis,
    /// Per-position samples for Figure 2.
    pub positions: Vec<PositionSample>,
}

/// The signal level below which the paper shades the "error region".
pub const ERROR_REGION_LEVEL: f64 = 8.0;

impl SignalVsErrorResult {
    /// The Table 3 rows, in the paper's order.
    pub fn table3_rows(&self) -> Vec<SignalRow> {
        let a = &self.pooled;
        vec![
            SignalRow::new("All test packets", a.stats_where(|p| p.is_test)),
            SignalRow::new(
                "Undamaged",
                a.stats_where(|p| p.is_test && p.class == PacketClass::Undamaged),
            ),
            SignalRow::new(
                "Truncated",
                a.stats_where(|p| p.is_test && p.class == PacketClass::Truncated),
            ),
            SignalRow::new(
                "Wrapper damaged",
                a.stats_where(|p| p.is_test && p.class == PacketClass::WrapperDamaged),
            ),
            SignalRow::new(
                "Body damaged",
                a.stats_where(|p| p.is_test && p.class == PacketClass::BodyDamaged),
            ),
            SignalRow::new(
                "Undamaged outsiders",
                a.stats_where(|p| !p.is_test && p.class == PacketClass::Undamaged),
            ),
            SignalRow::new(
                "Damaged outsiders",
                a.stats_where(|p| !p.is_test && p.class != PacketClass::Undamaged),
            ),
        ]
    }

    /// The Table 3 report blocks.
    pub(crate) fn blocks_table3(&self) -> Vec<Block> {
        vec![Block::Table(signal_table(
            "Table 3: Packet error conditions versus signal metrics",
            &self.table3_rows(),
        ))]
    }

    /// The Figure 2 report blocks.
    pub(crate) fn blocks_figure2(&self) -> Vec<Block> {
        let table = Table {
            heading: Some(
                "Figure 2: Signal level vs distance with the error region (level < 8)".to_string(),
            ),
            columns: vec![
                Column::new("distance_ft", "distance")
                    .width(7)
                    .sep("")
                    .suffix("ft"),
                Column::new("level", "level").width(6).precision(2),
                Column::new("loss_pct", "loss%").width(6).precision(2),
                Column::new("damaged_pct", "damaged%")
                    .width(8)
                    .precision(2)
                    .header_width(9),
                Column::new("region", "region").sep("  "),
            ],
            rows: self
                .positions
                .iter()
                .map(|p| {
                    vec![
                        Cell::Float(p.distance_ft),
                        Cell::Float(p.mean_level),
                        Cell::Float(p.loss * 100.0),
                        Cell::Float(p.damaged_fraction * 100.0),
                        Cell::from(if p.mean_level < ERROR_REGION_LEVEL {
                            "ERROR"
                        } else {
                            "ok"
                        }),
                    ]
                })
                .collect(),
        };
        vec![Block::Table(table)]
    }
}

/// Registry entry reproducing Table 3 (shares trials with [`Figure2`]).
pub(crate) struct Table3;

/// Registry entry reproducing Figure 2 (shares trials with [`Table3`]).
pub(crate) struct Figure2;

fn budget(scale: Scale) -> u64 {
    POSITION_LADDER_FT.len() as u64 * scale.packets(8_634 / POSITION_LADDER_FT.len() as u64)
}

/// The ladder's deepest error-region rung (330 ft) with the outsider pair
/// from a nearby building (one marginally audible, level ≈ 4–5 and usually
/// damaged, the other far beyond it) — the trial that produces the
/// damaged-packet population both artifacts are about. The driver and
/// sweeps walk `stations[1].x_ft` back up the ladder.
fn ladder_spec(name: &str) -> ScenarioSpec {
    let far = POSITION_LADDER_FT[POSITION_LADDER_FT.len() - 1];
    ScenarioSpec::pair(
        name,
        (0.0, 0.0),
        (far, 0.0),
        8_634 / POSITION_LADDER_FT.len() as u64,
    )
    .with_outsiders()
}

impl Experiment for Table3 {
    fn id(&self) -> u64 {
        EXPERIMENT_ID
    }

    fn artifact_name(&self) -> &'static str {
        "table3"
    }

    fn paper_artifact(&self) -> &'static str {
        "Table 3 (error conditions vs signal)"
    }

    fn paper_tables(&self) -> &'static [&'static str] {
        &["Table 3"]
    }

    fn packet_budget(&self, scale: Scale) -> u64 {
        budget(scale)
    }

    fn spec(&self) -> ScenarioSpec {
        ladder_spec("table3")
    }

    fn run(&self, scale: Scale, seed: u64, exec: &Executor) -> Report {
        let result = run_with(scale, seed, exec);
        Report::new(
            self.artifact_name(),
            self.paper_artifact(),
            self.packet_budget(scale),
            result.blocks_table3(),
        )
    }
}

impl Experiment for Figure2 {
    fn id(&self) -> u64 {
        EXPERIMENT_ID
    }

    fn artifact_name(&self) -> &'static str {
        "figure2"
    }

    fn paper_artifact(&self) -> &'static str {
        "Figure 2 (level vs distance, error region)"
    }

    fn paper_tables(&self) -> &'static [&'static str] {
        &["Figure 2"]
    }

    fn packet_budget(&self, scale: Scale) -> u64 {
        budget(scale)
    }

    fn spec(&self) -> ScenarioSpec {
        ladder_spec("figure2")
    }

    fn run(&self, scale: Scale, seed: u64, exec: &Executor) -> Report {
        let result = run_with(scale, seed, exec);
        Report::new(
            self.artifact_name(),
            self.paper_artifact(),
            self.packet_budget(scale),
            result.blocks_figure2(),
        )
    }
}

/// This experiment's stream id for [`trial_seed`].
pub(crate) const EXPERIMENT_ID: u64 = 3;

/// Runs the experiment on an explicit executor. Position `i` is the spec
/// with the sender on rung `i`, seeded `trial_seed(3, i)` for both its
/// scenario and its propagation. Positions fan out independently; the
/// pooled Table 3 trace concatenates per-position packets in ladder order,
/// which the executor's ordered merge preserves exactly.
pub fn run_with(scale: Scale, seed: u64, exec: &Executor) -> SignalVsErrorResult {
    let packets_per_position = scale.packets(8_634 / POSITION_LADDER_FT.len() as u64);
    let base = ladder_spec("table3");

    let per_position =
        exec.map_indices_with(POSITION_LADDER_FT.len(), SimScratch::new, |scratch, i| {
            let d = POSITION_LADDER_FT[i];
            let mut spec = base.clone();
            spec.stations[1].x_ft = d;
            let s = trial_seed(EXPERIMENT_ID, i as u64, seed);
            let analysis = spec
                .run_pair(packets_per_position, s, s, scratch)
                .expect("the table3 spec builds")
                .analysis;

            let (level, _, _) = analysis.stats_where(|p| p.is_test);
            let received = analysis.test_packets().count();
            let damaged = received - analysis.count(PacketClass::Undamaged);
            let sample = PositionSample {
                distance_ft: d,
                mean_level: level.mean(),
                loss: analysis.packet_loss(),
                damaged_fraction: if received == 0 {
                    0.0
                } else {
                    damaged as f64 / received as f64
                },
            };
            (sample, analysis)
        });

    let mut pooled_packets = Vec::new();
    let mut transmitted = 0u64;
    let mut positions = Vec::new();
    for (sample, analysis) in per_position {
        positions.push(sample);
        transmitted += analysis.transmitted;
        pooled_packets.extend(analysis.packets);
    }

    SignalVsErrorResult {
        pooled: TraceAnalysis {
            packets: pooled_packets,
            transmitted,
        },
        positions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavelan_analysis::report::render_blocks;

    #[test]
    fn table3_and_figure2_shape_holds() {
        let result = run_with(Scale::Smoke, 5, &Executor::default());

        // Figure 2: level decreases with distance; the far end is in the
        // error region and errors concentrate there.
        let first = &result.positions[0];
        let last = result.positions.last().unwrap();
        assert!(first.mean_level > 24.0, "{}", first.mean_level);
        assert!(
            last.mean_level < ERROR_REGION_LEVEL + 1.0,
            "{}",
            last.mean_level
        );
        assert!(last.loss + last.damaged_fraction > 0.05);
        // A percent or two of loss at close range comes from the receiver
        // being busy with outsider chatter when a test packet arrives.
        assert!(first.loss < 0.03, "{}", first.loss);
        assert_eq!(first.damaged_fraction, 0.0);

        // Table 3: undamaged packets sit well above damaged ones in level.
        let rows = result.table3_rows();
        let undamaged = &rows[1];
        let body_damaged = &rows[4];
        assert!(undamaged.packets > 1_000);
        assert!(body_damaged.packets > 5, "{}", body_damaged.packets);
        assert!(
            undamaged.level.mean() > body_damaged.level.mean() + 3.0,
            "undamaged {} vs damaged {}",
            undamaged.level.mean(),
            body_damaged.level.mean()
        );
        // "the main body of damaged packets has signal levels below 8".
        assert!(
            body_damaged.level.mean() < 9.0,
            "{}",
            body_damaged.level.mean()
        );
        // Damaged packets keep high-ish quality under pure attenuation, but
        // their quality dips below the undamaged packets' near-constant 15.
        assert!(body_damaged.quality.mean() <= undamaged.quality.mean());

        // Outsiders appear, and the damaged ones dominate (paper: 867 of 940).
        let undamaged_out = &rows[5];
        let damaged_out = &rows[6];
        let outsiders = undamaged_out.packets + damaged_out.packets;
        assert!(outsiders > 3, "{outsiders}");
        // Damaged outsiders form a substantial share (the paper's outsiders
        // were overwhelmingly damaged; our antenna-diversity model lets a
        // few more through clean — see EXPERIMENTS.md).
        assert!(
            damaged_out.packets * 2 >= undamaged_out.packets,
            "damaged {} vs undamaged {}",
            damaged_out.packets,
            undamaged_out.packets
        );
        // Damaged outsiders have distinctly poorer quality than the test
        // packets (paper: μ 7.49 vs 14.9+) — "the most striking difference
        // ... is their signal quality".
        if damaged_out.packets > 0 {
            assert!(
                damaged_out.quality.mean() < undamaged.quality.mean() - 1.0,
                "{} vs {}",
                damaged_out.quality.mean(),
                undamaged.quality.mean()
            );
        }

        let t3 = render_blocks(&result.blocks_table3());
        assert!(t3.contains("Damaged outsiders"));
        let f2 = render_blocks(&result.blocks_figure2());
        assert!(f2.contains("ERROR"));
    }
}
