//! Figure 3: effects of the receive threshold.
//!
//! "One station, the 'enemy,' was configured to transmit packets
//! continuously. As the 'victim' station varied its receive threshold
//! through a window around the received packets' signal level, we observed
//! both the packet loss rate from the 'enemy' and the collision rate when
//! the 'victim' attempted to transmit. ... Ideally, both curves would range
//! from 0% at the left line ... to 100% at the right line. As the figure
//! shows, the threshold is not perfect, and we have observed that it is wise
//! to allow a margin of several units when choosing a threshold."
//!
//! The imperfection emerges from the per-packet AGC level jitter: a
//! threshold inside the level window filters *some* packets and hides *some*
//! carrier-sense events. A second paper observation is also checked by the
//! tests: "the receive threshold ... seems to cleanly filter packets" — no
//! damaged packets appear, they simply vanish.

use super::common::Scale;
use crate::executor::{trial_seed, Executor};
use crate::registry::Experiment;
use crate::spec::{Role, ScenarioSpec, StationSpec};
use wavelan_analysis::report::{Cell, Column, Table};
use wavelan_analysis::{Block, PacketClass, Report};
use wavelan_sim::SimScratch;

/// One point of the Figure 3 curves.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdSample {
    /// The victim's receive threshold for this trial.
    pub threshold: u8,
    /// Percentage of the enemy's packets filtered out (0–100).
    pub filtered_pct: f64,
    /// Percentage of victim transmission attempts without collision (0–100).
    pub collision_free_pct: f64,
    /// Of the packets that *were* delivered, how many arrived damaged
    /// (the paper observed none — the threshold filters cleanly).
    pub damaged_delivered: u64,
}

/// The Figure 3 result.
#[derive(Debug, Clone)]
pub struct ThresholdResult {
    /// Signal-level window of the enemy's packets (min, max observed).
    pub signal_window: (u8, u8),
    /// Samples in threshold order.
    pub samples: Vec<ThresholdSample>,
}

impl ThresholdResult {
    /// The Figure 3 report blocks.
    pub(crate) fn blocks(&self) -> Vec<Block> {
        let table = Table {
            heading: Some(format!(
                "Figure 3: Effects of receive threshold (signal window {}..{})",
                self.signal_window.0, self.signal_window.1
            )),
            columns: vec![
                Column::new("threshold", "threshold").width(9).sep(""),
                Column::new("filtered_pct", "filtered%")
                    .width(10)
                    .precision(1),
                Column::new("collision_free_pct", "collision-free%")
                    .width(16)
                    .precision(1),
            ],
            rows: self
                .samples
                .iter()
                .map(|s| {
                    vec![
                        Cell::UInt(u64::from(s.threshold)),
                        Cell::Float(s.filtered_pct),
                        Cell::Float(s.collision_free_pct),
                    ]
                })
                .collect(),
        };
        vec![Block::Table(table)]
    }
}

/// Registry entry reproducing Figure 3.
pub(crate) struct Figure3;

impl Experiment for Figure3 {
    fn id(&self) -> u64 {
        EXPERIMENT_ID
    }

    fn artifact_name(&self) -> &'static str {
        "figure3"
    }

    fn paper_artifact(&self) -> &'static str {
        "Figure 3 (receive threshold)"
    }

    fn paper_tables(&self) -> &'static [&'static str] {
        &["Figure 3"]
    }

    fn packet_budget(&self, scale: Scale) -> u64 {
        13 * scale.packets(1_440)
    }

    fn spec(&self) -> ScenarioSpec {
        // The mid-window rung of the sweep: victim filtering at 20 against
        // a saturating, carrier-deaf enemy 40 ft away (level ≈ 20). The
        // victim also sends to the enemy every 25 ms, so collisions can be
        // counted: a light rate, so it spends most of its time *receiving*
        // (the filtering curve) while still generating enough attempts for
        // the collision curve. Sweeps walk `stations[0].receive_threshold`
        // through the window.
        let mut victim = StationSpec::new(Role::Receiver, 0.0, 0.0);
        victim.receive_threshold = 20;
        victim.interval_ns = 25_000_000;
        victim.peer = Some(1);
        let mut enemy = StationSpec::new(Role::Sender, 40.0, 0.0);
        enemy.receive_threshold = 35;
        enemy.interval_ns = 0;
        ScenarioSpec {
            name: "figure3".into(),
            stations: vec![victim, enemy],
            packet_budget: 1_440,
            ..ScenarioSpec::default()
        }
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

/// This experiment's stream id for [`trial_seed`].
pub(crate) const EXPERIMENT_ID: u64 = 4;

/// Runs the experiment on an explicit executor; each threshold setting is an independent
/// trial. The signal window is folded from the per-trial level extremes
/// after the ordered merge, so it is identical at any worker count.
pub fn run_with(thresholds: &[u8], packets: u64, seed: u64, exec: &Executor) -> ThresholdResult {
    let default_sweep: Vec<u8> = (14..=26).collect();
    let sweep = if thresholds.is_empty() {
        &default_sweep[..]
    } else {
        thresholds
    };

    // Every rung runs under the same shadowing realization: propagation
    // seed `seed`, scenario seed `trial_seed(4, i)`.
    let base = Figure3.spec();
    let per_threshold = exec.map_with(sweep.to_vec(), SimScratch::new, |scratch, i, threshold| {
        let mut spec = base.clone();
        spec.stations[0].receive_threshold = threshold;
        let trial = spec
            .run_pair(
                packets,
                trial_seed(EXPERIMENT_ID, i as u64, seed),
                seed,
                scratch,
            )
            .expect("the figure3 spec builds");
        let analysis = &trial.analysis;
        let delivered = analysis.packets.len() as u64;
        let filtered = trial.result.packets_filtered[trial.rx];
        let observable = delivered + filtered;
        let filtered_pct = if observable == 0 {
            100.0
        } else {
            filtered as f64 / observable as f64 * 100.0
        };
        let damaged_delivered = analysis
            .packets
            .iter()
            .filter(|p| p.class != PacketClass::Undamaged)
            .count() as u64;
        let mac = trial.result.mac_stats[trial.rx];
        let (level_stats, _, _) = analysis.stats_where(|p| p.is_test);
        let extremes = if level_stats.count() > 0 {
            Some((level_stats.min(), level_stats.max()))
        } else {
            None
        };
        let sample = ThresholdSample {
            threshold,
            filtered_pct,
            collision_free_pct: mac.collision_free_fraction() * 100.0,
            damaged_delivered,
        };
        (sample, extremes)
    });

    let mut samples = Vec::new();
    let mut window = (u8::MAX, 0u8);
    for (sample, extremes) in per_threshold {
        if let Some((lo, hi)) = extremes {
            window.0 = window.0.min(lo);
            window.1 = window.1.max(hi);
        }
        samples.push(sample);
    }

    ThresholdResult {
        signal_window: window,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavelan_analysis::report::render_blocks;

    #[test]
    fn figure_3_shape_holds() {
        let result = run_with(&[], 250, 3, &Executor::default());
        let first = result.samples.first().unwrap();
        let last = result.samples.last().unwrap();

        // Below the window: nothing filtered, every attempt collides.
        assert!(first.filtered_pct < 5.0, "{first:?}");
        assert!(first.collision_free_pct < 10.0, "{first:?}");
        // Above the window: everything filtered, transmissions flow freely.
        assert!(last.filtered_pct > 95.0, "{last:?}");
        assert!(last.collision_free_pct > 90.0, "{last:?}");

        // Both curves are (weakly) monotone across the sweep, with a
        // transition that spans more than one threshold value — the
        // "margin of several units" finding.
        let mut mid_values = 0;
        for w in result.samples.windows(2) {
            assert!(w[1].filtered_pct >= w[0].filtered_pct - 8.0, "{w:?}");
        }
        for s in &result.samples {
            let filtered_mid = s.filtered_pct > 2.0 && s.filtered_pct < 98.0;
            let collision_mid = s.collision_free_pct > 5.0 && s.collision_free_pct < 95.0;
            if filtered_mid || collision_mid {
                mid_values += 1;
            }
        }
        assert!(
            mid_values >= 2,
            "transition too sharp: {:?}",
            result.samples
        );

        // "we did not receive any damaged or truncated packets": filtering
        // is clean at every threshold.
        for s in &result.samples {
            assert_eq!(s.damaged_delivered, 0, "{s:?}");
        }

        // The signal window brackets the enemy's level (≈20).
        assert!(
            result.signal_window.0 >= 16 && result.signal_window.1 <= 25,
            "{:?}",
            result.signal_window
        );
        assert!(render_blocks(&result.blocks()).contains("Figure 3"));
    }
}
