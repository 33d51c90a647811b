//! Shared experiment harness: the two-station trial every experiment builds
//! on, plus run-size scaling.

use wavelan_analysis::{analyze, ExpectedSeries, TraceAnalysis};
use wavelan_mac::network_id::NetworkId;
use wavelan_mac::Thresholds;
use wavelan_net::testpkt::Endpoint;
use wavelan_sim::runner::attach_tx_count;
use wavelan_sim::{
    AmbientSource, FloorPlan, Point, Propagation, Scenario, ScenarioBuilder, SimScratch,
    StationConfig, Trace, TrialResult,
};

/// How large to run each trial relative to the paper.
///
/// The paper's long trials (up to 488,399 packets) are exact reproductions
/// only at [`Scale::Paper`]; tests use [`Scale::Smoke`] and the `repro`
/// binary defaults to [`Scale::Reduced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast: a few hundred packets per trial (CI tests).
    Smoke,
    /// One eighth of the paper's packet counts (interactive runs).
    Reduced,
    /// The paper's exact packet counts.
    Paper,
}

impl Scale {
    /// Scales a paper packet count.
    pub fn packets(self, paper_count: u64) -> u64 {
        match self {
            Scale::Smoke => (paper_count / 64).clamp(300, 2_000),
            Scale::Reduced => (paper_count / 8).max(500),
            Scale::Paper => paper_count,
        }
    }

    /// The CLI/JSON name of the scale (`smoke`, `reduced`, `paper`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Reduced => "reduced",
            Scale::Paper => "paper",
        }
    }
}

/// The conventional endpoints: station 1 receives, station 2 transmits.
pub(crate) fn test_receiver() -> Endpoint {
    Endpoint::station(1)
}

/// See [`test_receiver`].
pub(crate) fn test_sender() -> Endpoint {
    Endpoint::station(2)
}

/// The analyzer's knowledge of the test series.
pub fn expected_series() -> ExpectedSeries {
    ExpectedSeries {
        src: test_sender(),
        dst: test_receiver(),
        network_id: NetworkId::TESTBED,
    }
}

/// A single sender → receiver trial specification.
#[derive(Debug)]
pub(crate) struct PointTrial {
    /// Building geometry.
    pub plan: FloorPlan,
    /// Propagation model.
    pub propagation: Propagation,
    /// Receiver position.
    pub rx: Point,
    /// Sender position.
    pub tx: Point,
    /// Receiver thresholds (default: the study's 3/1).
    pub rx_thresholds: Thresholds,
    /// Ambient interference sources.
    pub ambient: Vec<AmbientSource>,
    /// Packets to transmit.
    pub packets: u64,
    /// Trial seed.
    pub seed: u64,
}

impl PointTrial {
    /// A trial with default thresholds and no interference.
    pub(crate) fn new(
        plan: FloorPlan,
        propagation: Propagation,
        rx: Point,
        tx: Point,
        packets: u64,
        seed: u64,
    ) -> PointTrial {
        PointTrial {
            plan,
            propagation,
            rx,
            tx,
            rx_thresholds: Thresholds::default(),
            ambient: Vec::new(),
            packets,
            seed,
        }
    }

    /// Builds the scenario (receiver is station 0, sender station 1).
    pub(crate) fn scenario(&self) -> (Scenario, usize, usize) {
        let mut b = ScenarioBuilder::new(self.seed);
        let rx = b.station(StationConfig {
            thresholds: self.rx_thresholds,
            ..StationConfig::receiver(test_receiver(), self.rx)
        });
        let tx = b.station(StationConfig::sender(test_sender(), self.tx, rx));
        for src in &self.ambient {
            b.ambient(*src);
        }
        let mut scenario = b.floorplan(self.plan.clone()).build();
        scenario.propagation = self.propagation.clone();
        (scenario, rx, tx)
    }

    /// [`PointTrial::run`] with a caller-owned scratch workspace, so
    /// buffers and memo caches persist across trials (bit-identical).
    pub(crate) fn run_in(&self, scratch: &mut SimScratch) -> (Trace, TrialResult) {
        let (scenario, rx, tx) = self.scenario();
        let mut result = scenario.run_in(tx, self.packets, scratch);
        attach_tx_count(&mut result, rx, tx);
        let trace = result.traces[rx].clone().expect("receiver records");
        (trace, result)
    }

    /// [`PointTrial::analyze`] with a caller-owned scratch workspace.
    pub(crate) fn analyze_in(&self, scratch: &mut SimScratch) -> TraceAnalysis {
        let (trace, _) = self.run_in(scratch);
        analyze(&trace, &expected_series())
    }
}

/// Adds an "outsider" pair to a scenario: two stations from another
/// building, on a foreign network ID, weakly audible and usually damaged —
/// the packets the paper labels "Outsiders" ("typically these packets were
/// few, had poor signal characteristics, and were damaged. Frequently we
/// could determine that they were ARP packets or inter-bridge routing
/// packets"). They chatter to each other at a low rate. Returns their ids.
pub(crate) fn add_outsider_pair(
    b: &mut ScenarioBuilder,
    near: Point,
    far: Point,
) -> (usize, usize) {
    let a_id = b.next_station_id();
    let b_id = a_id + 1;
    let mut a_cfg = StationConfig::sender(Endpoint::foreign(200), near, b_id);
    a_cfg.network_id = NetworkId(0x0B5D);
    a_cfg.frame = wavelan_sim::station::FrameKind::Chatter;
    a_cfg.traffic = wavelan_sim::station::Traffic::Periodic {
        peer: b_id,
        interval_ns: 9_000_000,
    };
    assert_eq!(b.station(a_cfg), a_id);
    let mut b_cfg = StationConfig::sender(Endpoint::foreign(201), far, a_id);
    b_cfg.network_id = NetworkId(0x0B5D);
    b_cfg.frame = wavelan_sim::station::FrameKind::Chatter;
    b_cfg.traffic = wavelan_sim::station::Traffic::Periodic {
        peer: a_id,
        interval_ns: 13_000_000,
    };
    assert_eq!(b.station(b_cfg), b_id);
    (a_id, b_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layouts;

    #[test]
    fn scale_policies() {
        assert_eq!(Scale::Paper.packets(102_720), 102_720);
        assert_eq!(Scale::Reduced.packets(102_720), 12_840);
        assert_eq!(Scale::Smoke.packets(102_720), 1_605);
        assert_eq!(Scale::Smoke.packets(1_000), 300);
        assert_eq!(Scale::Smoke.packets(1_000_000), 2_000);
        assert_eq!(Scale::Reduced.packets(1_000), 500);
    }

    #[test]
    fn point_trial_runs_and_analyzes() {
        let (plan, rx, tx) = layouts::office();
        let trial = PointTrial::new(plan, Propagation::indoor(1), rx, tx, 400, 1);
        let analysis = trial.analyze_in(&mut SimScratch::new());
        assert!(analysis.test_packets().count() >= 398);
        assert_eq!(analysis.transmitted, 400);
    }
}
