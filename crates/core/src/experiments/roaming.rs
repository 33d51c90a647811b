//! Section 7.4's border zone, walked: the roaming disruption experiment.
//!
//! Section 7.4: "if a mobile host in the border zone communicates with a
//! host in a cell, the carrier will be sensed in other cells, thus
//! preventing communication in those other cells and reducing overall
//! throughput. Second, ... a mobile host in the border zone may receive
//! badly damaged packets." WaveLAN has no power control and one spreading
//! sequence, so the receive threshold is the only cell-forming tool, and
//! the border zones between such pseudo-cells host exactly these clients.
//!
//! [`walk`] steps a client along a path between two threshold-isolated
//! cells. At every position it runs a short trial in which the client sends
//! to its best-heard base while the *other* cell runs its own internal
//! traffic, and measures:
//!
//! * the client's own delivery rate (handoff performance), and
//! * the other cell's internal throughput relative to a client-free baseline
//!   (the carrier-sense disruption footprint).
//!
//! The registry entry runs the walk with the fixed geometry the
//! reproduction uses (two cells 200 ft apart at threshold 12, a 17-step
//! walk from 20 ft to 180 ft, 2 s of saturated traffic per step).

use super::common::Scale;
use crate::executor::Executor;
use crate::registry::Experiment;
use crate::spec::{Role, ScenarioSpec, StationSpec};
use wavelan_analysis::report::{Cell, Column, Table};
use wavelan_analysis::{Block, Report};
use wavelan_mac::Thresholds;
use wavelan_net::testpkt::Endpoint;
use wavelan_phy::agc::power_to_level_units;
use wavelan_sim::station::Traffic;
use wavelan_sim::{FloorPlan, Point, Propagation, ScenarioBuilder, StationConfig};

/// This experiment's registry id (the walk builds its own trials, so the
/// id is only a registry discriminator).
pub(crate) const EXPERIMENT_ID: u64 = 17;

/// Steps in the registry configuration of the walk.
const STEPS: usize = 17;

/// Saturated-traffic duration per step, milliseconds.
const TRIAL_MS: u64 = 2_000;

/// Registry entry for the Section 7.4 roaming walk.
pub(crate) struct Roaming;

impl Experiment for Roaming {
    fn id(&self) -> u64 {
        EXPERIMENT_ID
    }

    fn artifact_name(&self) -> &'static str {
        "roaming"
    }

    fn paper_artifact(&self) -> &'static str {
        "Section 7.4 (roaming/border zone)"
    }

    fn packet_budget(&self, _scale: Scale) -> u64 {
        // Saturated airtime trials, not a fixed transmission quota: the
        // budget reports the step count times the per-step duration in ms.
        (STEPS as u64) * TRIAL_MS
    }

    fn spec(&self) -> ScenarioSpec {
        // The walk's midpoint: the roamer halfway between the two base
        // stations (200 ft apart, receive threshold 12). The walk itself
        // is [`walk`]; sweeps can slide the roamer
        // (`stations[1].x_ft`) through the border zone.
        let mut home = StationSpec::new(Role::Receiver, 0.0, 0.0);
        home.receive_threshold = 12;
        let mut roamer = StationSpec::new(Role::Sender, 100.0, 0.0);
        roamer.receive_threshold = 12;
        roamer.interval_ns = 0;
        ScenarioSpec {
            name: "roaming".into(),
            stations: vec![home, roamer],
            packet_budget: (STEPS as u64) * TRIAL_MS,
            ..ScenarioSpec::default()
        }
    }

    fn run(&self, _scale: Scale, seed: u64, _exec: &Executor) -> Report {
        // The walk runs its steps serially in [`walk`], so the executor is
        // unused here.
        let cells = TwoCells {
            separation_ft: 200.0,
            threshold: 12,
        };
        let result = walk(cells, 20.0, 180.0, STEPS, TRIAL_MS, seed);
        Report::new(
            self.artifact_name(),
            self.paper_artifact(),
            self.packet_budget(_scale),
            result.blocks(),
        )
    }
}

/// One step of the walk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoamStep {
    /// Client position, feet along the path (x coordinate).
    x_ft: f64,
    /// Which cell's base the client associated with (best heard).
    serving_cell: usize,
    /// Level from the client to the serving base.
    serving_level: f64,
    /// Fraction of the client's packets its base received.
    client_delivery: f64,
    /// The *other* cell's internal throughput, normalized to its
    /// client-free baseline (1.0 = undisturbed).
    other_cell_throughput: f64,
}

/// Result of the walk.
#[derive(Debug, Clone)]
pub(crate) struct RoamReport {
    /// Steps in path order.
    steps: Vec<RoamStep>,
}

impl RoamReport {
    /// The report blocks: one table over the walk.
    pub(crate) fn blocks(&self) -> Vec<Block> {
        let table = Table {
            heading: Some(String::from(
                "Roaming client between two pseudo-cells (Section 7.4's border zone)",
            )),
            columns: vec![
                Column::new("pos_ft", "pos")
                    .width(4)
                    .sep("")
                    .suffix("ft")
                    .header_width(3),
                Column::new("cell", "cell")
                    .width(3)
                    .sep("  ")
                    .header_width(6),
                Column::new("level", "level").width(6).precision(1),
                Column::new("client_delivery_pct", "client-delivery")
                    .width(14)
                    .suffix("%")
                    .header_width(16),
                Column::new("other_cell_throughput_pct", "other-cell-throughput")
                    .width(18)
                    .suffix("%")
                    .header_width(22),
            ],
            rows: self
                .steps
                .iter()
                .map(|s| {
                    vec![
                        Cell::Float(s.x_ft),
                        Cell::UInt(s.serving_cell as u64),
                        Cell::Float(s.serving_level),
                        Cell::Float(s.client_delivery * 100.0),
                        Cell::Float(s.other_cell_throughput * 100.0),
                    ]
                })
                .collect(),
        };
        vec![Block::Table(table)]
    }
}

/// The fixed geometry: two cells, each a base + one member station, with
/// the bases `separation_ft` apart on the x axis.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TwoCells {
    /// Distance between the two bases, feet.
    separation_ft: f64,
    /// Receive/carrier threshold both cells run.
    threshold: u8,
}

impl TwoCells {
    /// Base position of cell `i` (0 or 1).
    fn base(&self, i: usize) -> Point {
        Point::feet(if i == 0 { 0.0 } else { self.separation_ft }, 0.0)
    }

    /// Member position of cell `i` (8 ft from its base).
    fn member(&self, i: usize) -> Point {
        Point::feet(
            if i == 0 {
                8.0
            } else {
                self.separation_ft - 8.0
            },
            4.0,
        )
    }
}

/// Measures cell 1's internal throughput without any roamer over a fixed
/// duration, as the normalization baseline (delivered packet count). Both
/// the baseline and the walk trials use *saturating* senders over the same
/// duration, so the counts compare airtime head-on.
fn baseline_cell1(cells: TwoCells, duration_ns: u64, seed: u64, prop: &Propagation) -> u64 {
    let mut b = ScenarioBuilder::new(seed);
    let thresholds = Thresholds {
        receive_level: cells.threshold,
        quality: 1,
    };
    let base1 = b.station(StationConfig {
        thresholds,
        ..StationConfig::receiver(Endpoint::station(11), cells.base(1))
    });
    let mut member = StationConfig::sender(Endpoint::station(12), cells.member(1), base1);
    member.thresholds = thresholds;
    member.traffic = Traffic::Saturate { peer: base1 };
    let member1 = b.station(member);
    let mut scenario = b.build();
    scenario.propagation = prop.clone();
    let result = scenario.run_for(duration_ns);
    result.traces[base1]
        .as_ref()
        .map(|t| {
            t.records
                .iter()
                .filter(|r| r.truth.unwrap().src_station == member1)
                .count() as u64
        })
        .unwrap_or(0)
}

/// Walks the client from `x_start_ft` to `x_end_ft` in `steps` steps. Each
/// step runs `trial_ms` of saturated traffic.
pub(crate) fn walk(
    cells: TwoCells,
    x_start_ft: f64,
    x_end_ft: f64,
    steps: usize,
    trial_ms: u64,
    seed: u64,
) -> RoamReport {
    let duration_ns = trial_ms * 1_000_000;
    let mut prop = Propagation::indoor(seed);
    prop.shadowing_sigma_db = 0.0; // the walk wants the deterministic field
    let plan = FloorPlan::open();
    let baseline = baseline_cell1(cells, duration_ns, seed ^ 0xBA5E, &prop).max(1);

    let mut out = Vec::with_capacity(steps);
    for i in 0..steps {
        let x = x_start_ft + (x_end_ft - x_start_ft) * i as f64 / (steps - 1).max(1) as f64;
        let client_pos = Point::feet(x, 2.0);
        // Associate with the best-heard base.
        let levels: Vec<f64> = (0..2)
            .map(|c| power_to_level_units(prop.wavelan_rx_dbm(client_pos, cells.base(c), &plan)))
            .collect();
        let serving = if levels[0] >= levels[1] { 0 } else { 1 };

        let thresholds = Thresholds {
            receive_level: cells.threshold,
            quality: 1,
        };
        let mut b = ScenarioBuilder::new(seed.wrapping_add(i as u64));
        // Serving base (traced receiver).
        let serving_base = b.station(StationConfig {
            thresholds,
            ..StationConfig::receiver(Endpoint::station(1), cells.base(serving))
        });
        // The client, saturating toward its base.
        let mut client = StationConfig::sender(Endpoint::station(2), client_pos, serving_base);
        client.thresholds = thresholds;
        client.traffic = Traffic::Saturate { peer: serving_base };
        let client_id = b.station(client);
        // The *other* cell's internal pair (traced receiver + sender).
        let other = 1 - serving;
        let other_base = b.station(StationConfig {
            thresholds,
            ..StationConfig::receiver(Endpoint::foreign(11), cells.base(other))
        });
        let mut other_member =
            StationConfig::sender(Endpoint::foreign(12), cells.member(other), other_base);
        other_member.thresholds = thresholds;
        other_member.traffic = Traffic::Saturate { peer: other_base };
        let other_member_id = b.station(other_member);

        let mut scenario = b.build();
        scenario.propagation = prop.clone();
        let result = scenario.run_for(duration_ns);

        let client_rx = result.traces[serving_base]
            .as_ref()
            .map(|t| {
                t.records
                    .iter()
                    .filter(|r| r.truth.unwrap().src_station == client_id)
                    .count()
            })
            .unwrap_or(0);
        let other_rx = result.traces[other_base]
            .as_ref()
            .map(|t| {
                t.records
                    .iter()
                    .filter(|r| r.truth.unwrap().src_station == other_member_id)
                    .count()
            })
            .unwrap_or(0);

        out.push(RoamStep {
            x_ft: x,
            serving_cell: serving,
            serving_level: levels[serving],
            client_delivery: client_rx as f64 / result.packets_transmitted[client_id].max(1) as f64,
            other_cell_throughput: (other_rx as f64 / baseline as f64).min(1.0),
        });
    }
    RoamReport { steps: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavelan_analysis::report::render_blocks;

    #[test]
    fn border_zone_disrupts_the_other_cell() {
        let cells = TwoCells {
            separation_ft: 200.0,
            threshold: 12,
        };
        let report = walk(cells, 20.0, 180.0, 9, 1_500, 7);

        // Near its own base the client is clean and the other cell
        // undisturbed.
        let first = report.steps.first().unwrap();
        assert_eq!(first.serving_cell, 0);
        assert!(first.client_delivery > 0.95, "{first:?}");
        assert!(first.other_cell_throughput > 0.9, "{first:?}");
        let last = report.steps.last().unwrap();
        assert_eq!(last.serving_cell, 1);
        assert!(last.client_delivery > 0.95, "{last:?}");

        // Somewhere in the middle the roamer's transmissions reach the other
        // cell's base above threshold: its internal throughput drops — the
        // paper's carrier-sense disruption.
        let zone: Vec<f64> = report
            .steps
            .iter()
            .filter(|s| s.other_cell_throughput < 0.8)
            .map(|s| s.x_ft)
            .collect();
        assert!(
            !zone.is_empty(),
            "no disruption zone: {}",
            render_blocks(&report.blocks())
        );
        for &x in &zone {
            assert!((40.0..160.0).contains(&x), "disruption outside border: {x}");
        }
        assert!(render_blocks(&report.blocks()).contains("Roaming"));
    }

    #[test]
    fn handoff_point_sits_midway() {
        let cells = TwoCells {
            separation_ft: 200.0,
            threshold: 12,
        };
        let report = walk(cells, 20.0, 180.0, 9, 600, 9);
        // Serving cell switches exactly once along the walk.
        let switches = report
            .steps
            .windows(2)
            .filter(|w| w[0].serving_cell != w[1].serving_cell)
            .count();
        assert_eq!(switches, 1, "{}", render_blocks(&report.blocks()));
    }
}
