//! Table 14 (and the Section 7.4 narrative): competing WaveLAN units.
//!
//! "We placed additional WaveLAN transmitters at the Tx4 and Tx5 locations,
//! and raised their receive threshold to 35, thus ensuring they would
//! transmit continuously ... Using the standard receive threshold value of
//! 3, the link was completely unusable. ... However, raising the receive
//! threshold to 25 ... allowed the communicating stations to completely mask
//! out the competition. ... the background ('silence') level has increased
//! significantly, but the signal level and quality are essentially
//! unchanged."

use super::common::Scale;
use crate::executor::{trial_seed, Executor};
use crate::layouts;
use crate::registry::Experiment;
use crate::spec::{Role, ScenarioSpec, StationSpec};
use wavelan_analysis::report::{signal_table, SignalRow};
use wavelan_analysis::{Block, PacketClass, Report, TraceAnalysis};
use wavelan_mac::csma::MacStats;
use wavelan_sim::SimScratch;

/// The paper collected 10⁸ bits ≈ 12,715 packets per trial.
pub(crate) const PAPER_PACKETS: u64 = 12_720;

/// One trial of the experiment.
#[derive(Debug)]
pub(crate) struct CompetingTrial {
    /// Receiver-trace analysis.
    pub analysis: TraceAnalysis,
    /// The victim sender's MAC counters.
    pub sender_mac: MacStats,
    /// Packets the victim sender actually got on the air.
    pub sender_transmitted: u64,
}

/// The Table 14 result (plus the threshold-3 narrative trial).
#[derive(Debug)]
pub(crate) struct CompetingResult {
    /// Clean baseline (threshold 25, no jammers).
    pub without_interference: CompetingTrial,
    /// Jammers on, threshold 25: the Table 14 "with interference" row.
    pub with_interference: CompetingTrial,
    /// Jammers on, standard threshold 3: "completely unusable".
    pub threshold3: CompetingTrial,
}

impl CompetingResult {
    /// Table 14 rows.
    pub(crate) fn table14(&self) -> Vec<SignalRow> {
        let mut rows = vec![
            SignalRow::new(
                "Without interference",
                self.without_interference
                    .analysis
                    .stats_where(|p| p.is_test),
            ),
            SignalRow::new(
                "With interference",
                self.with_interference.analysis.stats_where(|p| p.is_test),
            ),
        ];
        if self.with_interference.analysis.outsiders().count() > 0 {
            rows.push(SignalRow::new(
                "  Outsiders",
                self.with_interference.analysis.stats_where(|p| !p.is_test),
            ));
        }
        rows
    }

    /// The report blocks: the table plus the threshold-3 narrative note.
    pub(crate) fn blocks(&self) -> Vec<Block> {
        let t3 = &self.threshold3;
        vec![
            Block::Table(signal_table(
                "Table 14: Signal metrics with and without interfering WaveLAN transmitters",
                &self.table14(),
            )),
            Block::Blank,
            Block::Note(format!(
                "At the standard receive threshold of 3 the link is unusable:\n\
                 victim transmitted {} packets ({} collisions on {} attempts, {} frames \
                 dropped); receiver logged {} packets of which {} were foreign and {} \
                 damaged.",
                t3.sender_transmitted,
                t3.sender_mac.collisions,
                t3.sender_mac.attempts,
                t3.sender_mac.drops,
                t3.analysis.packets.len(),
                t3.analysis.outsiders().count(),
                t3.analysis.packets.len()
                    - t3.analysis.count(PacketClass::Undamaged)
                    - t3.analysis
                        .outsiders()
                        .filter(|p| p.class == PacketClass::Undamaged)
                        .count(),
            )),
        ]
    }
}

/// Registry entry reproducing Table 14 (plus the threshold-3 narrative).
pub(crate) struct Table14;

impl Experiment for Table14 {
    fn id(&self) -> u64 {
        EXPERIMENT_ID
    }

    fn artifact_name(&self) -> &'static str {
        "table14"
    }

    fn paper_artifact(&self) -> &'static str {
        "Table 14 (competing WaveLAN)"
    }

    fn paper_tables(&self) -> &'static [&'static str] {
        &["Table 14"]
    }

    fn packet_budget(&self, scale: Scale) -> u64 {
        let packets = scale.packets(PAPER_PACKETS);
        2 * packets + packets.min(500)
    }

    fn spec(&self) -> ScenarioSpec {
        // The "With interference" trial: test pair at threshold 25 in the
        // multi-room building (receiver and Tx1), deaf competing units
        // saturating at Tx4/Tx5 that talk to each other, not to the victim.
        // Placements are fixed and measured once (see `layouts::multiroom`),
        // so shadowing is pinned; the run is bounded at 120 s of virtual
        // time because at threshold 3 the victim may never finish its quota.
        // Sweeps can walk the victim's threshold
        // (`stations[0].receive_threshold`) through the masking window.
        let mut victim = StationSpec::new(Role::Receiver, 0.0, 0.0);
        victim.receive_threshold = 25;
        let mut sender = StationSpec::new(Role::Sender, 6.0, 6.5);
        sender.receive_threshold = 25;
        let mut tx4 = StationSpec::new(Role::Jammer, 45.0, 0.0);
        tx4.peer = Some(3);
        let mut tx5 = StationSpec::new(Role::Jammer, 28.5, -9.5);
        tx5.peer = Some(2);
        let mut spec = ScenarioSpec {
            name: "table14".into(),
            stations: vec![victim, sender, tx4, tx5],
            packet_budget: PAPER_PACKETS,
            time_limit_ns: Some(120_000_000_000),
            ..ScenarioSpec::default()
        }
        .with_plan(&layouts::multiroom());
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

/// Runs one trial of the spec: the jammers kept or dropped, both ends of
/// the test pair at the given receive/carrier threshold.
fn run_trial(
    spec: &ScenarioSpec,
    jammers: bool,
    threshold: u8,
    packets: u64,
    seed: u64,
    scratch: &mut SimScratch,
) -> CompetingTrial {
    let mut spec = spec.clone();
    if !jammers {
        spec.stations.truncate(2);
    }
    spec.stations[0].receive_threshold = threshold;
    spec.stations[1].receive_threshold = threshold;
    let trial = spec
        .run_pair(packets, seed, seed, scratch)
        .expect("the table14 spec builds");
    CompetingTrial {
        analysis: trial.analysis,
        sender_mac: trial.result.mac_stats[trial.tx],
        sender_transmitted: trial.result.packets_transmitted[trial.tx],
    }
}

/// This experiment's stream id for [`trial_seed`].
pub(crate) const EXPERIMENT_ID: u64 = 10;

/// [`run`] on an explicit executor; the three trials fan out independently.
/// All three share one derived seed, `trial_seed(10, 0)`, for both scenario
/// and propagation — the paper reused a single physical placement and only
/// changed thresholds and jammers between trials.
pub(crate) fn run_with(scale: Scale, seed: u64, exec: &Executor) -> CompetingResult {
    let packets = scale.packets(PAPER_PACKETS);
    let shared = trial_seed(EXPERIMENT_ID, 0, seed);
    let base = Table14.spec();
    let configs: [(bool, u8, u64); 3] = [
        // Without interference, then with it.
        (false, 25, packets),
        (true, 25, packets),
        // The threshold-3 narrative trial runs for a fixed (shorter) quota;
        // it will hit the time bound instead.
        (true, 3, packets.min(500)),
    ];
    let mut trials = exec.map_with(
        configs.to_vec(),
        SimScratch::new,
        |scratch, _, (jammers, threshold, quota)| {
            run_trial(&base, jammers, threshold, quota, shared, scratch)
        },
    );
    let threshold3 = trials.pop().expect("threshold-3 trial");
    let with_interference = trials.pop().expect("jammed trial");
    let without_interference = trials.pop().expect("clean trial");
    CompetingResult {
        without_interference,
        with_interference,
        threshold3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavelan_analysis::report::render_blocks;

    #[test]
    fn table_14_shape_holds() {
        let result = run_with(Scale::Smoke, 23, &Executor::default());
        let clean = &result.without_interference;
        let jammed = &result.with_interference;

        // Loss stays at background levels and no bit errors with threshold 25.
        assert!(clean.analysis.packet_loss() < 0.01);
        assert!(
            jammed.analysis.packet_loss() < 0.01,
            "{}",
            jammed.analysis.packet_loss()
        );
        assert_eq!(jammed.analysis.body_ber(), 0.0);
        assert_eq!(jammed.analysis.count(PacketClass::Truncated), 0);

        // Silence jumps (paper: μ 3.35 → 13.62); level and quality unchanged.
        let (clean_level, clean_silence, clean_quality) = clean.analysis.stats_where(|p| p.is_test);
        let (jam_level, jam_silence, jam_quality) = jammed.analysis.stats_where(|p| p.is_test);
        assert!(clean_silence.mean() < 5.0, "{}", clean_silence.mean());
        assert!(
            (jam_silence.mean() - 13.62).abs() < 2.5,
            "silence {}",
            jam_silence.mean()
        );
        assert!((jam_level.mean() - clean_level.mean()).abs() < 1.0);
        assert!((jam_quality.mean() - clean_quality.mean()).abs() < 0.3);

        // The sender is not deferring to the (masked) jammers.
        assert!(jammed.sender_mac.collision_free_fraction() > 0.95);

        // Threshold 3: starved MAC and a garbage-filled trace.
        let t3 = &result.threshold3;
        assert!(
            t3.sender_mac.collisions > t3.sender_mac.transmissions,
            "{:?}",
            t3.sender_mac
        );
        assert!(t3.sender_transmitted < result.with_interference.sender_transmitted);
        // The receiver's log is swamped by the jammers' packets: the victim's
        // own test series all but vanishes from it. (Most jammer packets
        // decode cleanly thanks to the capture effect the paper conjectures
        // in Section 7.4 — "WaveLAN seems to be able to sense carrier even
        // when it cannot receive complete packets, and ... a 'capture
        // effect' inherent in its multipath-resistant receiver design".)
        let logged = t3.analysis.packets.len();
        let foreign = t3.analysis.outsiders().count();
        let test_received = t3.analysis.test_packets().count();
        assert!(logged > 50, "{logged}");
        assert!(foreign as f64 > logged as f64 * 0.8, "{foreign}/{logged}");
        assert!(test_received < logged / 10, "{test_received}/{logged}");

        assert!(render_blocks(&result.blocks()).contains("Table 14"));
    }
}
