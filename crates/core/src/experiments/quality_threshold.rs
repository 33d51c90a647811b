//! The paper's footnote 1, explored: "There is also a threshold which
//! allows filtering based on signal quality, though we do not employ it."
//!
//! Section 7.3 found that "very low signal quality seems to be a good
//! predictor of truncation" and that mediocre quality at high level predicts
//! bit errors. So what *would* the quality threshold have bought? We rerun
//! the intermediate SS-phone trial (the AT&T handset case) across quality
//! thresholds and measure the trade: every threshold converts some damaged
//! deliveries into silent drops — better for applications that prefer loss
//! to corruption (video with FEC prefers corruption; TCP prefers loss).

use super::common::Scale;
use crate::calibration;
use crate::executor::{trial_seed, Executor};
use crate::registry::Experiment;
use crate::spec::{interferer_from_source, ScenarioSpec};
use wavelan_analysis::report::{Cell, Column, Table};
use wavelan_analysis::{Block, PacketClass, Report};
use wavelan_sim::SimScratch;

/// One threshold's outcome.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QualitySample {
    /// The quality threshold in force.
    pub threshold: u8,
    /// Packets delivered to the host.
    pub delivered: usize,
    /// Of those, damaged (truncated or corrupted).
    pub damaged_delivered: usize,
    /// Of those, truncated (the class quality predicts best).
    pub truncated_delivered: usize,
    /// Packets masked by thresholds (loss from the application's view).
    pub filtered: u64,
}

impl QualitySample {
    /// Fraction of *delivered* packets that are damaged.
    pub(crate) fn damage_fraction(&self) -> f64 {
        if self.delivered == 0 {
            return 0.0;
        }
        self.damaged_delivered as f64 / self.delivered as f64
    }
}

/// The sweep result.
#[derive(Debug, Clone)]
pub(crate) struct QualityThresholdResult {
    /// Samples in threshold order.
    pub samples: Vec<QualitySample>,
}

impl QualityThresholdResult {
    /// The report blocks: the trade-off table plus the closing note.
    pub(crate) fn blocks(&self) -> Vec<Block> {
        let table = Table {
            heading: Some(String::from("AT&T-handset interference trial:")),
            columns: vec![
                Column::new("qthresh", "qthresh").width(7).sep(""),
                Column::new("delivered", "delivered").width(10),
                Column::new("damaged", "damaged").width(8),
                Column::new("trunc", "trunc").width(6),
                Column::new("damaged_pct", "damaged%")
                    .width(8)
                    .precision(1)
                    .suffix("%")
                    .header_width(9),
                Column::new("filtered", "filtered").width(9),
            ],
            rows: self
                .samples
                .iter()
                .map(|s| {
                    vec![
                        Cell::UInt(u64::from(s.threshold)),
                        Cell::UInt(s.delivered as u64),
                        Cell::UInt(s.damaged_delivered as u64),
                        Cell::UInt(s.truncated_delivered as u64),
                        Cell::Float(s.damage_fraction() * 100.0),
                        Cell::UInt(s.filtered),
                    ]
                })
                .collect(),
        };
        vec![
            Block::Note(String::from(
                "The quality threshold the paper left unused (footnote 1), on the",
            )),
            Block::Table(table),
            Block::Blank,
            Block::Note(String::from(
                "Raising the threshold trades damaged deliveries for silent loss — but\n\
                 only for damage the early quality sample can *see*. Bursts that start\n\
                 after the sample corrupt or truncate the packet anyway, so a sizable\n\
                 damaged fraction escapes even at quality 15. The quality threshold is\n\
                 a partial tool, which may be why the paper left it unused.",
            )),
        ]
    }
}

/// Registry entry for the footnote-1 quality-threshold sweep.
pub(crate) struct QualityThreshold;

impl Experiment for QualityThreshold {
    fn id(&self) -> u64 {
        EXPERIMENT_ID
    }

    fn artifact_name(&self) -> &'static str {
        "quality-threshold"
    }

    fn paper_artifact(&self) -> &'static str {
        "Footnote 1 (quality threshold)"
    }

    fn packet_budget(&self, scale: Scale) -> u64 {
        5 * scale.packets(1_440)
    }

    fn spec(&self) -> ScenarioSpec {
        // The mid rung of the quality ladder (threshold 11) over the AT&T-handset
        // interference stream, shadowing pinned as in Tables 11–13. The driver and
        // sweeps walk `stations[0].quality_threshold` through 1..=15.
        let mut spec = ScenarioSpec::pair("quality-threshold", (0.0, 0.0), (12.0, 0.0), 1_440)
            .with_interferer(interferer_from_source(&calibration::ss_phone_handset_only()))
            .with_interferer(interferer_from_source(
                &calibration::ss_phone_handset_residual(),
            ));
        spec.stations[0].quality_threshold = 11;
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
pub(crate) const EXPERIMENT_ID: u64 = 11;

/// [`run`] on an explicit executor: each sample is the spec at one
/// receiver quality threshold. All five thresholds deliberately share one
/// derived seed, `trial_seed(11, 0)`, for both scenario and propagation:
/// the sweep filters the *same* packet stream, so the monotone
/// filtered/delivered trade is exact, not statistical.
pub(crate) fn run_with(scale: Scale, seed: u64, exec: &Executor) -> QualityThresholdResult {
    let packets = scale.packets(1_440);
    let shared = trial_seed(EXPERIMENT_ID, 0, seed);
    let base = QualityThreshold.spec();
    let samples = exec.map_with(
        vec![1u8, 8, 11, 13, 15],
        SimScratch::new,
        |scratch, _, threshold| {
            let mut spec = base.clone();
            spec.stations[0].quality_threshold = threshold;
            let trial = spec
                .run_pair(packets, shared, shared, scratch)
                .expect("the quality-threshold spec builds");
            let analysis = &trial.analysis;
            let delivered = analysis.test_packets().count();
            QualitySample {
                threshold,
                delivered,
                damaged_delivered: delivered - analysis.count(PacketClass::Undamaged),
                truncated_delivered: analysis.count(PacketClass::Truncated),
                filtered: trial.result.packets_filtered[trial.rx],
            }
        },
    );
    QualityThresholdResult { samples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavelan_analysis::report::render_blocks;

    #[test]
    fn quality_threshold_trades_corruption_for_loss() {
        let result = run_with(Scale::Smoke, 19, &Executor::default());
        let first = result.samples.first().unwrap();
        let last = result.samples.last().unwrap();

        // At the study's configuration (quality ≥ 1) plenty of damage gets
        // delivered; a strict threshold reduces the damaged fraction, but
        // only partially — late bursts are invisible to the early sample.
        assert!(first.damage_fraction() > 0.25, "{first:?}");
        assert!(
            last.damage_fraction() < first.damage_fraction() - 0.05,
            "{last:?} vs {first:?}"
        );
        assert!(
            last.truncated_delivered <= first.truncated_delivered,
            "{last:?}"
        );

        // The filtering is monotone, and it costs deliveries.
        for w in result.samples.windows(2) {
            assert!(w[1].filtered >= w[0].filtered, "{w:?}");
            assert!(w[1].delivered <= w[0].delivered, "{w:?}");
        }
        assert!(last.filtered > first.filtered);
        assert!(render_blocks(&result.blocks()).contains("footnote 1"));
    }
}
