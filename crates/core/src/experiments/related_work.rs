//! Section 9.1's baseline study, reproduced: Duchamp & Reynolds, "Measured
//! performance of a wireless LAN" (LCN 1992).
//!
//! "Their testing regime included a propagation environment impeded by
//! distance and local scatter induced by reflections from a wall. In this
//! environment they observed packet loss and corruption rates both typically
//! below 1%, except when a combination of attenuation and local scatter
//! produced packet loss rates in the vicinity of 10% with a peak around 15%
//! and packet corruption rates ranging as high as 40%. In the difficult
//! environment, both rates varied nonmonotonically with distance, making it
//! very unstable and unpredictable in the face of small motions."
//!
//! We reproduce both regimes with the same simulator: a benign sweep (their
//! typical case) and a "difficult environment" — attenuation to the cell
//! edge plus an aggressive close reflector whose ripple swings the level
//! across the error boundary as the transmitter moves.

use super::common::{expected_series, test_receiver, test_sender, Scale};
use crate::executor::{trial_seed, Executor};
use crate::registry::Experiment;
use crate::spec::{PropagationSpec, ScenarioSpec};
use wavelan_analysis::report::{Cell, Column, Table};
use wavelan_analysis::{analyze, Block, PacketClass, Report};
use wavelan_phy::fading::TwoRay;
use wavelan_sim::runner::attach_tx_count;
use wavelan_sim::{FloorPlan, Point, Propagation, ScenarioBuilder, SimScratch, StationConfig};

/// One distance sample of the sweep.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScatterSample {
    /// Transmitter distance, feet.
    pub distance_ft: f64,
    /// Mean reported level.
    pub mean_level: f64,
    /// Packet loss rate (0–1).
    pub loss: f64,
    /// Corruption rate among received packets (0–1).
    pub corruption: f64,
}

/// The experiment result: benign and difficult sweeps.
#[derive(Debug, Clone)]
pub(crate) struct RelatedWorkResult {
    /// The typical environment (short range, mild scatter).
    pub benign: Vec<ScatterSample>,
    /// The difficult environment (cell edge + strong local scatter).
    pub difficult: Vec<ScatterSample>,
}

impl RelatedWorkResult {
    /// The report blocks: the headline note plus one table per regime.
    pub(crate) fn blocks(&self) -> Vec<Block> {
        let mut blocks = vec![Block::Note(String::from(
            "Duchamp & Reynolds (LCN '92) regimes, reproduced (paper Section 9.1)",
        ))];
        for (name, series) in [("typical", &self.benign), ("difficult", &self.difficult)] {
            blocks.push(Block::Blank);
            blocks.push(Block::Table(Table {
                heading: Some(format!("{name} environment:")),
                columns: vec![
                    Column::new("distance_ft", "dist")
                        .width(5)
                        .sep("")
                        .suffix("ft")
                        .header_width(6),
                    Column::new("level", "level")
                        .width(6)
                        .precision(1)
                        .header_width(7),
                    Column::new("loss_pct", "loss%").width(7).precision(2),
                    Column::new("corrupt_pct", "corrupt%")
                        .width(8)
                        .precision(2)
                        .header_width(9),
                ],
                rows: series
                    .iter()
                    .map(|s| {
                        vec![
                            Cell::Float(s.distance_ft),
                            Cell::Float(s.mean_level),
                            Cell::Float(s.loss * 100.0),
                            Cell::Float(s.corruption * 100.0),
                        ]
                    })
                    .collect(),
            }));
        }
        blocks
    }
}

/// Registry entry reproducing the Section 9.1 baseline study.
pub(crate) struct RelatedWork;

impl RelatedWork {
    /// Packets per distance point (their runs were short; cap at 800).
    fn per_point(scale: Scale) -> u64 {
        scale.packets(1_440).min(800)
    }
}

impl Experiment for RelatedWork {
    fn id(&self) -> u64 {
        EXPERIMENT_ID
    }

    fn artifact_name(&self) -> &'static str {
        "related-work"
    }

    fn paper_artifact(&self) -> &'static str {
        "Section 9.1 (Duchamp & Reynolds)"
    }

    fn packet_budget(&self, scale: Scale) -> u64 {
        16 * Self::per_point(scale)
    }

    fn spec(&self) -> ScenarioSpec {
        // The far end of the benign sweep (60 ft, open lecture hall); the
        // difficult regime's two-ray reflector is a driver-only knob.
        // Sweeps perturb `stations[1].x_ft` to walk either regime's ladder.
        ScenarioSpec::pair("related-work", (0.0, 0.0), (60.0, 0.0), 800)
            .with_propagation(PropagationSpec::lecture_hall())
    }

    fn run(&self, scale: Scale, seed: u64, exec: &Executor) -> Report {
        let result = run_with(Self::per_point(scale), seed, exec);
        Report::new(
            self.artifact_name(),
            self.paper_artifact(),
            self.packet_budget(scale),
            result.blocks(),
        )
    }
}

/// This experiment's stream id for [`trial_seed`].
pub(crate) const EXPERIMENT_ID: u64 = 12;

fn sweep(
    distances: &[f64],
    propagation: &Propagation,
    plan: &FloorPlan,
    packets: u64,
    seed: u64,
    stream_offset: u64,
    exec: &Executor,
) -> Vec<ScatterSample> {
    exec.map_with(distances.to_vec(), SimScratch::new, |scratch, i, d| {
        let mut b = ScenarioBuilder::new(trial_seed(EXPERIMENT_ID, stream_offset + i as u64, seed));
        let rx = b.station(StationConfig::receiver(
            test_receiver(),
            Point::feet(0.0, 0.0),
        ));
        let tx = b.station(StationConfig::sender(
            test_sender(),
            Point::feet(d, 0.0),
            rx,
        ));
        let mut scenario = b.floorplan(plan.clone()).build();
        scenario.propagation = propagation.clone();
        let mut result = scenario.run_in(tx, packets, scratch);
        attach_tx_count(&mut result, rx, tx);
        let analysis = analyze(result.trace(rx), &expected_series());
        let received = analysis.test_packets().count().max(1);
        let corrupted = received - analysis.count(PacketClass::Undamaged);
        let (level, _, _) = analysis.stats_where(|p| p.is_test);
        ScatterSample {
            distance_ft: d,
            mean_level: level.mean(),
            loss: analysis.packet_loss(),
            corruption: corrupted as f64 / received as f64,
        }
    })
}

/// [`run`] on an explicit executor; the two regimes' distance points all fan
/// out independently (the difficult sweep gets a disjoint index range).
pub(crate) fn run_with(packets: u64, seed: u64, exec: &Executor) -> RelatedWorkResult {
    // Typical: 10–60 ft, ordinary lecture-hall propagation, open space.
    let benign_distances: Vec<f64> = (1..=6).map(|i| f64::from(i) * 10.0).collect();
    let benign = sweep(
        &benign_distances,
        &Propagation::lecture_hall(seed),
        &FloorPlan::open(),
        packets,
        seed,
        0,
        exec,
    );

    // Difficult: attenuation (a metal partition drags the level to the cell
    // edge) combined with local scatter from a large reflecting wall 6 m
    // off-axis. At 70–110 ft that geometry packs destructive dips every
    // 10–20 ft, so the level ripples across the error boundary as the
    // transmitter moves — Duchamp & Reynolds' unstable regime.
    let mut difficult_prop = Propagation::lecture_hall(seed + 1);
    difficult_prop.two_ray = Some(TwoRay {
        reflector_offset_m: 6.0,
        reflection_coeff: -0.45,
        wavelength_m: 299_792_458.0 / wavelan_phy::CARRIER_HZ,
    });
    let partition = FloorPlan::open().with_wall(
        wavelan_sim::Segment::feet(35.0, -40.0, 35.0, 40.0),
        wavelan_phy::Material::Metal,
    );
    let difficult_distances: Vec<f64> = (0..10).map(|i| 72.0 + f64::from(i) * 5.0).collect();
    let difficult = sweep(
        &difficult_distances,
        &difficult_prop,
        &partition,
        packets,
        seed + 1,
        100,
        exec,
    );

    RelatedWorkResult { benign, difficult }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavelan_analysis::report::render_blocks;

    /// Peak of one series.
    fn peak(samples: &[ScatterSample], pick: fn(&ScatterSample) -> f64) -> f64 {
        samples.iter().map(pick).fold(0.0, f64::max)
    }

    /// Whether a series is non-monotone (has an interior local extremum well
    /// above noise).
    fn is_nonmonotone(samples: &[ScatterSample], pick: fn(&ScatterSample) -> f64) -> bool {
        samples.windows(3).any(|w| {
            let (a, b, c) = (pick(&w[0]), pick(&w[1]), pick(&w[2]));
            (b > a + 0.03 && b > c + 0.03) || (b + 0.03 < a && b + 0.03 < c)
        })
    }

    #[test]
    fn both_regimes_reproduce() {
        let result = run_with(400, 3, &Executor::default());

        // Typical: both rates below 1%.
        for s in &result.benign {
            assert!(s.loss < 0.01, "{s:?}");
            assert!(s.corruption < 0.01, "{s:?}");
        }

        // Difficult: loss peaks around 10–15%+, corruption reaches tens of
        // percent, and both vary nonmonotonically with distance.
        assert!(
            (0.05..0.8).contains(&peak(&result.difficult, |s| s.loss)),
            "peak loss {}",
            peak(&result.difficult, |s| s.loss)
        );
        assert!(
            peak(&result.difficult, |s| s.corruption) > 0.15,
            "peak corruption {}",
            peak(&result.difficult, |s| s.corruption)
        );
        assert!(
            is_nonmonotone(&result.difficult, |s| s.loss)
                || is_nonmonotone(&result.difficult, |s| s.corruption),
            "difficult environment should be unstable: {:#?}",
            result.difficult
        );
        assert!(render_blocks(&result.blocks()).contains("difficult environment"));
    }
}
