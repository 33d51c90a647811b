//! Quickstart: build a two-station in-building wireless testbed, run a
//! measurement trial, and analyze the trace — the five-minute tour of the
//! whole stack.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use wavelan_repro::analysis::report::{render_results_table, render_signal_table, SignalRow};
use wavelan_repro::analysis::{analyze, ExpectedSeries, TrialSummary};
use wavelan_repro::mac::network_id::NetworkId;
use wavelan_repro::net::testpkt::Endpoint;
use wavelan_repro::phy::Material;
use wavelan_repro::sim::runner::attach_tx_count;
use wavelan_repro::sim::{FloorPlan, Point, ScenarioBuilder, Segment, StationConfig};

fn main() {
    // ── 1. A floor plan: two offices separated by a concrete-block wall. ──
    let plan = FloorPlan::open().with_wall(
        Segment::feet(15.0, -20.0, 15.0, 20.0),
        Material::ConcreteBlock,
    );

    // ── 2. Two stations: a promiscuous tracing receiver and a sender 25 ft
    //      away in the next office (the SIGCOMM '96 measurement setup). ──
    let mut builder = ScenarioBuilder::new(42);
    let receiver = builder.station(StationConfig::receiver(
        Endpoint::station(1),
        Point::feet(0.0, 0.0),
    ));
    let sender = builder.station(StationConfig::sender(
        Endpoint::station(2),
        Point::feet(25.0, 0.0),
        receiver,
    ));
    let scenario = builder.floorplan(plan).build();

    // ── 3. Run a 5,000-packet trial (≈30 s of virtual air time). ──
    let mut result = scenario.run(sender, 5_000);
    attach_tx_count(&mut result, receiver, sender);
    let trace = result.trace(receiver);
    println!(
        "trial complete: {} packets transmitted, {} logged by the receiver\n",
        trace.packets_transmitted,
        trace.records.len()
    );

    // ── 4. Analyze the trace exactly as the paper did: heuristic matching,
    //      damage classification, error syndromes, signal statistics. ──
    let expected = ExpectedSeries {
        src: Endpoint::station(2),
        dst: Endpoint::station(1),
        network_id: NetworkId::TESTBED,
    };
    let analysis = analyze(trace, &expected);

    let summary = TrialSummary::from_analysis("two-office link", &analysis);
    println!(
        "{}",
        render_results_table("Results (paper Table 1 columns)", &[summary])
    );

    let row = SignalRow::new("All test packets", analysis.stats_where(|p| p.is_test));
    println!(
        "{}",
        render_signal_table("Signal metrics (min / mean / sd / max)", &[row])
    );

    println!(
        "packet loss {:.3}%, body BER {:.2e}",
        analysis.packet_loss() * 100.0,
        analysis.body_ber()
    );
}
