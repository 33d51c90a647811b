//! Tables 8–9: the effect of a human body in the path.
//!
//! "In order to obtain a path with significant attenuation, we separated two
//! WaveLAN units by placing them in two rooms across a hallway. ... We
//! collected two packet streams, with the second impaired by the presence of
//! a person bending over as if to examine the laptop screen closely. ...
//! Interposing a person has induced packet loss, truncation, and packet body
//! damage. Furthermore, we observe a noticeable reduction in signal level."

use super::common::Scale;
use crate::executor::{trial_seed, Executor};
use crate::layouts;
use crate::registry::Experiment;
use crate::spec::ScenarioSpec;
use wavelan_analysis::report::{results_table, signal_table, SignalRow};
use wavelan_analysis::{Block, PacketClass, Report, TraceAnalysis, TrialSummary};
use wavelan_sim::SimScratch;

/// This experiment's stream id for [`trial_seed`].
pub(crate) const EXPERIMENT_ID: u64 = 7;

/// The paper collected ≈1,440 packets per stream.
pub(crate) const PAPER_PACKETS: u64 = 1_440;

/// The Tables 8–9 result.
#[derive(Debug)]
pub struct BodyResult {
    /// The unimpaired stream.
    pub no_body: TraceAnalysis,
    /// The stream with the person in the path.
    pub body: TraceAnalysis,
}

impl BodyResult {
    /// Table 8 rows.
    pub(crate) fn table8(&self) -> Vec<TrialSummary> {
        vec![
            TrialSummary::from_analysis("No body", &self.no_body),
            TrialSummary::from_analysis("Body", &self.body),
        ]
    }

    /// Table 9 rows.
    pub(crate) fn table9(&self) -> Vec<SignalRow> {
        let b = &self.body;
        vec![
            SignalRow::new(
                "No body: All Packets",
                self.no_body.stats_where(|p| p.is_test),
            ),
            SignalRow::new("Body: All Packets", b.stats_where(|p| p.is_test)),
            SignalRow::new(
                "Body: Undamaged",
                b.stats_where(|p| p.is_test && p.class == PacketClass::Undamaged),
            ),
            SignalRow::new(
                "Body: Truncated",
                b.stats_where(|p| p.is_test && p.class == PacketClass::Truncated),
            ),
            SignalRow::new(
                "Body: Wrapper damaged",
                b.stats_where(|p| p.is_test && p.class == PacketClass::WrapperDamaged),
            ),
            SignalRow::new(
                "Body: Body damaged",
                b.stats_where(|p| p.is_test && p.class == PacketClass::BodyDamaged),
            ),
        ]
    }

    /// The report blocks: both tables with a blank separator.
    pub(crate) fn blocks(&self) -> Vec<Block> {
        vec![
            Block::Table(results_table(
                "Table 8: Effects of human body on packet loss and errors",
                &self.table8(),
            )),
            Block::Blank,
            Block::Table(signal_table(
                "Table 9: Effect of human body on signal measurements",
                &self.table9(),
            )),
        ]
    }
}

/// Registry entry reproducing Tables 8–9.
pub(crate) struct Tables8To9;

impl Experiment for Tables8To9 {
    fn id(&self) -> u64 {
        EXPERIMENT_ID
    }

    fn artifact_name(&self) -> &'static str {
        "table8-9"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["table8", "table9"]
    }

    fn paper_artifact(&self) -> &'static str {
        "Tables 8-9 (human body)"
    }

    fn paper_tables(&self) -> &'static [&'static str] {
        &["Table 8", "Table 9"]
    }

    fn packet_budget(&self, scale: Scale) -> u64 {
        2 * scale.packets(PAPER_PACKETS)
    }

    fn spec(&self) -> ScenarioSpec {
        // The impaired stream: the hallway layout with the person bent over the
        // receiver's laptop (the last wall). The paper measured this placement
        // once; its tight per-trial level spreads say the slow fading realization
        // must not vary, so shadowing is pinned to zero and the calibrated
        // wall/distance budget carries the level. Sweeps can slide the body
        // (`walls[3].*`) or remove its effect by moving it off the path.
        let (mut plan, _, _) = layouts::hallway();
        layouts::add_body(&mut plan);
        let mut spec =
            ScenarioSpec::pair("table8-9", (0.0, 0.0), (56.0, 0.0), PAPER_PACKETS).with_plan(&plan);
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

/// Runs the experiment on an explicit executor; the two streams fan out as
/// independent trials: stream 0 is the spec without the body wall, stream 1
/// the spec itself. Both share propagation seed `seed`; stream `i`'s
/// scenario seed is `trial_seed(7, i)`.
pub fn run_with(scale: Scale, seed: u64, exec: &Executor) -> BodyResult {
    let packets = scale.packets(PAPER_PACKETS);
    let impaired = Tables8To9.spec();
    let mut analyses = exec.map_indices_with(2, SimScratch::new, |scratch, i| {
        let mut spec = impaired.clone();
        if i == 0 {
            spec.walls.pop();
        }
        spec.run_pair(
            packets,
            trial_seed(EXPERIMENT_ID, i as u64, seed),
            seed,
            scratch,
        )
        .expect("the table8-9 spec builds")
        .analysis
    });
    let body = analyses.pop().expect("body stream");
    let no_body = analyses.pop().expect("no-body stream");
    BodyResult { no_body, body }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavelan_analysis::report::render_blocks;

    /// Level drop the person causes.
    fn body_level_drop(result: &BodyResult) -> f64 {
        result.no_body.stats_where(|p| p.is_test).0.mean()
            - result.body.stats_where(|p| p.is_test).0.mean()
    }

    #[test]
    fn tables_8_and_9_shape_holds() {
        let result = run_with(Scale::Smoke, 31, &Executor::default());

        // Without the body: clean (paper: 1440 received, 0 everything).
        assert_eq!(result.no_body.body_ber(), 0.0);
        assert!(result.no_body.packet_loss() < 0.005);

        // With the body: loss of a few percent, body damage in the
        // 5–30% range, level down ≈6 units.
        let loss = result.body.packet_loss();
        assert!((0.003..0.12).contains(&loss), "loss {loss}");
        let received = result.body.test_packets().count();
        let damaged = result.body.count(PacketClass::BodyDamaged);
        let dmg_rate = damaged as f64 / received as f64;
        assert!((0.03..0.35).contains(&dmg_rate), "damage rate {dmg_rate}");
        let drop = body_level_drop(&result);
        assert!((4.5..7.5).contains(&drop), "level drop {drop}");

        // Damaged bits per packet stay small ("a handful").
        let worst = result
            .body
            .test_packets()
            .map(|p| p.body_bit_errors)
            .max()
            .unwrap();
        assert!(worst <= 80, "worst {worst}");

        let rendered = render_blocks(&result.blocks());
        assert!(rendered.contains("Table 8"));
        assert!(rendered.contains("Body: Body damaged"));
    }
}
