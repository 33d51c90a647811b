//! Table 10: narrowband 900 MHz cordless phones.
//!
//! "We placed our WaveLAN transmitter and receiver approximately 20 feet
//! apart in a large lecture hall and subjected them to various telephone
//! interference. ... the WaveLAN experienced no damaged test packets, and
//! only background levels of packet loss. ... The telephones affected the
//! silence level to varying degrees."
//!
//! The five trials differ only in the phones' placement/power (see
//! `crate::calibration::narrowband_power` for the silence-level anchors).
//! In the two low-silence trials the paper also logged outsider packets from
//! nearby buildings; we add the outsider pair there.

use super::common::Scale;
use crate::calibration::{narrowband_phone, narrowband_power};
use crate::executor::{trial_seed, Executor};
use crate::registry::Experiment;
use crate::spec::{interferer_from_source, ScenarioSpec};
use wavelan_analysis::report::{signal_table, SignalRow};
use wavelan_analysis::{Block, Report, TraceAnalysis};
use wavelan_sim::SimScratch;

/// The paper collected ≈1,440 packets per trial.
pub(crate) const PAPER_PACKETS: u64 = 1_440;

/// One Table 10 trial.
#[derive(Debug)]
pub struct NarrowbandTrial {
    /// Trial label.
    pub name: &'static str,
    /// Analysis of the receiver trace.
    pub analysis: TraceAnalysis,
}

/// The Table 10 result.
#[derive(Debug)]
pub struct NarrowbandResult {
    /// Trials in the paper's order.
    pub trials: Vec<NarrowbandTrial>,
}

impl NarrowbandResult {
    /// The Table 10 report blocks (test rows, plus outsider rows where
    /// present).
    pub(crate) fn blocks(&self) -> Vec<Block> {
        let mut rows = Vec::new();
        for t in &self.trials {
            rows.push(SignalRow::new(
                t.name,
                t.analysis.stats_where(|p| p.is_test),
            ));
            let outsiders = t.analysis.outsiders().count();
            if outsiders > 0 {
                rows.push(SignalRow::new(
                    "  Outsiders",
                    t.analysis.stats_where(|p| !p.is_test),
                ));
            }
        }
        vec![Block::Table(signal_table(
            "Table 10: The effects of narrowband 900 MHz cordless phones",
            &rows,
        ))]
    }
}

/// Registry entry reproducing Table 10.
pub(crate) struct Table10;

impl Experiment for Table10 {
    fn id(&self) -> u64 {
        EXPERIMENT_ID
    }

    fn artifact_name(&self) -> &'static str {
        "table10"
    }

    fn paper_artifact(&self) -> &'static str {
        "Table 10 (narrowband phones)"
    }

    fn paper_tables(&self) -> &'static [&'static str] {
        &["Table 10"]
    }

    fn packet_budget(&self, scale: Scale) -> u64 {
        5 * scale.packets(PAPER_PACKETS)
    }

    fn spec(&self) -> ScenarioSpec {
        // The "Handsets nearby talking" trial: the pair ≈10 ft apart, the phones
        // raising the silence level, outsiders logged. Sweeps can walk the phone
        // power (`interferers[0].power_dbm`).
        ScenarioSpec::pair("table10", (0.0, 0.0), (10.0, 0.0), PAPER_PACKETS)
            .with_interferer(interferer_from_source(&narrowband_phone(
                narrowband_power::HANDSETS_TALKING,
            )))
            .with_outsiders()
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

/// The five trials: name, phone power (None = phones off), outsiders.
const TRIALS: [(&str, Option<f64>, bool); 5] = [
    ("Phones off", None, true),
    ("Cluster", Some(narrowband_power::CLUSTER), false),
    (
        "Handsets nearby",
        Some(narrowband_power::HANDSETS_NEARBY),
        false,
    ),
    (
        "Handsets nearby talking",
        Some(narrowband_power::HANDSETS_TALKING),
        true,
    ),
    ("Bases nearby", Some(narrowband_power::BASES_NEARBY), false),
];

/// This experiment's stream id for [`trial_seed`].
pub(crate) const EXPERIMENT_ID: u64 = 8;

/// Runs the experiment on an explicit executor; the five trials fan out
/// independently. Each is the spec with the phone power set (or the phones
/// removed) and the outsider pair dropped where the paper logged none; all
/// share propagation seed `seed`, and trial `i`'s scenario seed is
/// `trial_seed(8, i)`.
pub fn run_with(scale: Scale, seed: u64, exec: &Executor) -> NarrowbandResult {
    let packets = scale.packets(PAPER_PACKETS);
    let base = Table10.spec();
    let trials = exec.map_with(
        TRIALS.to_vec(),
        SimScratch::new,
        |scratch, i, (name, phone_power, outsiders)| {
            let mut spec = base.clone();
            match phone_power {
                Some(power) => spec.interferers[0].power_dbm = power,
                None => spec.interferers.clear(),
            }
            if !outsiders {
                spec.stations.truncate(2);
            }
            let trial = spec
                .run_pair(
                    packets,
                    trial_seed(EXPERIMENT_ID, i as u64, seed),
                    seed,
                    scratch,
                )
                .expect("the table10 spec builds");
            NarrowbandTrial {
                name,
                analysis: trial.analysis,
            }
        },
    );
    NarrowbandResult { trials }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavelan_analysis::report::render_blocks;

    /// Total damaged test packets across all trials (the paper saw zero).
    fn total_damaged(result: &NarrowbandResult) -> usize {
        use wavelan_analysis::PacketClass;
        result
            .trials
            .iter()
            .map(|t| t.analysis.test_packets().count() - t.analysis.count(PacketClass::Undamaged))
            .sum()
    }

    #[test]
    fn table_10_shape_holds() {
        let result = run_with(Scale::Smoke, 13, &Executor::default());

        // The headline: zero damaged test packets in every trial.
        assert_eq!(total_damaged(&result), 0);

        // Loss stays at background levels.
        for t in &result.trials {
            assert!(
                t.analysis.packet_loss() < 0.005,
                "{}: {}",
                t.name,
                t.analysis.packet_loss()
            );
        }

        // Silence levels order as the paper's: off < talking < handsets <
        // cluster < bases; and the quiet/loud extremes match the anchors.
        let silence: Vec<f64> = result
            .trials
            .iter()
            .map(|t| t.analysis.stats_where(|p| p.is_test).1.mean())
            .collect();
        assert!(silence[0] < 4.5, "phones off silence {}", silence[0]);
        assert!(
            (silence[1] - 15.45).abs() < 1.5,
            "cluster silence {}",
            silence[1]
        );
        assert!(
            (silence[2] - 11.33).abs() < 1.5,
            "handsets silence {}",
            silence[2]
        );
        assert!(
            (silence[3] - 6.11).abs() < 1.5,
            "talking silence {}",
            silence[3]
        );
        assert!(
            (silence[4] - 19.32).abs() < 1.5,
            "bases silence {}",
            silence[4]
        );

        // Quality untouched by narrowband interference (DSSS suppression).
        for t in &result.trials {
            let q = t.analysis.stats_where(|p| p.is_test).2.mean();
            assert!(q > 14.5, "{}: quality {q}", t.name);
        }

        // Level essentially unchanged across trials (paper: 26.3–26.9).
        let levels: Vec<f64> = result
            .trials
            .iter()
            .map(|t| t.analysis.stats_where(|p| p.is_test).0.mean())
            .collect();
        let spread = levels.iter().fold(f64::MIN, |a, &b| a.max(b))
            - levels.iter().fold(f64::MAX, |a, &b| a.min(b));
        assert!(spread < 2.0, "levels vary too much: {levels:?}");

        // Outsiders logged in the trials that had them.
        assert!(result.trials[0].analysis.outsiders().count() > 0);
        assert!(render_blocks(&result.blocks()).contains("Table 10"));
    }
}
