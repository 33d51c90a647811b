//! Table 2: the in-room, line-of-sight base case.
//!
//! "In Table 2 we present the results of several long trials in an office
//! for a signal level of approximately 29.5. ... These trials represent more
//! than 10¹⁰ bits, and we have experienced very few errors. ... some process
//! is causing packets to be lost even in a near perfect environment, though
//! at a rate of well under one per thousand."
//!
//! Nine trials; the paper's packet counts are kept verbatim and scaled by
//! the caller's [`Scale`]. Each trial gets its own seed (its own shadowing
//! realization and host-loss draws), which is what spreads the loss column
//! across 0%–.07% exactly as in the paper.

use super::common::Scale;
use crate::executor::{trial_seed, Executor};
use crate::registry::Experiment;
use crate::spec::ScenarioSpec;
use wavelan_analysis::report::results_table;
use wavelan_analysis::{Block, Report, TrialSummary};
use wavelan_sim::SimScratch;

/// This experiment's stream id for [`trial_seed`].
pub(crate) const EXPERIMENT_ID: u64 = 1;

/// The paper's per-trial packet counts (Table 2, "Packets Received" column,
/// adjusted up by the reported loss — transmitted counts).
pub(crate) const PAPER_TRIALS: [(&str, u64); 9] = [
    ("office1", 102_751),
    ("office2", 40_080),
    ("office3", 102_730),
    ("office4", 122_183),
    ("office5", 488_741),
    ("office6", 122_209),
    ("office7", 122_184),
    ("office8", 125_065),
    ("office9", 122_184),
];

/// Result of the experiment: one summary row per trial.
#[derive(Debug, Clone)]
pub struct InRoomResult {
    /// Table rows, one per trial.
    pub trials: Vec<TrialSummary>,
}

impl InRoomResult {
    /// The report blocks of the Table 2 reproduction.
    pub(crate) fn blocks(&self) -> Vec<Block> {
        vec![Block::Table(results_table(
            "Table 2: Results of in-room experiment",
            &self.trials,
        ))]
    }
}

/// Registry entry reproducing Table 2.
pub(crate) struct Table2;

impl Experiment for Table2 {
    fn id(&self) -> u64 {
        EXPERIMENT_ID
    }

    fn artifact_name(&self) -> &'static str {
        "table2"
    }

    fn paper_artifact(&self) -> &'static str {
        "Table 2 (in-room base case)"
    }

    fn paper_tables(&self) -> &'static [&'static str] {
        &["Table 2"]
    }

    fn packet_budget(&self, scale: Scale) -> u64 {
        PAPER_TRIALS.iter().map(|(_, p)| scale.packets(*p)).sum()
    }

    fn spec(&self) -> ScenarioSpec {
        // The in-room scenario as a declarative spec: an open office, receiver
        // and sender 7 ft apart line-of-sight, no walls, no interference. The
        // driver's nine trials all run this geometry; the budget is the longest
        // trial's (office5).
        ScenarioSpec::pair("table2", (0.0, 0.0), (7.0, 0.0), PAPER_TRIALS[4].1)
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

/// Runs the experiment on an explicit executor. Trials fan out across the
/// pool; trial `i` is the spec at its own packet count, seeded
/// `(trial_seed(1, 2i), trial_seed(1, 2i + 1))` for its scenario and its
/// propagation, so the result is identical at any worker count.
pub fn run_with(scale: Scale, base_seed: u64, exec: &Executor) -> InRoomResult {
    let spec = Table2.spec();
    let trials = exec.map_indices_with(PAPER_TRIALS.len(), SimScratch::new, |scratch, i| {
        let (name, paper_packets) = PAPER_TRIALS[i];
        let trial = spec
            .run_pair(
                scale.packets(paper_packets),
                trial_seed(EXPERIMENT_ID, 2 * i as u64, base_seed),
                trial_seed(EXPERIMENT_ID, 2 * i as u64 + 1, base_seed),
                scratch,
            )
            .expect("the table2 spec builds");
        TrialSummary::from_analysis(name, &trial.analysis)
    });
    InRoomResult { trials }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavelan_analysis::report::render_blocks;

    #[test]
    fn base_case_shape_holds() {
        let result = run_with(Scale::Smoke, 42, &Executor::default());
        assert_eq!(result.trials.len(), 9);
        for t in &result.trials {
            // "well under one per thousand" loss.
            assert!(t.packet_loss < 0.002, "{}: loss {}", t.name, t.packet_loss);
            // Essentially no body damage (paper: 1 bit over 10^10).
            assert_eq!(t.body_bits_damaged, 0, "{}", t.name);
            assert_eq!(t.packets_truncated, 0, "{}", t.name);
        }
        assert!(result.trials.iter().map(|t| t.bits_received).sum::<u64>() > 10_000_000);
        let table = render_blocks(&result.blocks());
        assert!(table.contains("office5"));
    }
}
