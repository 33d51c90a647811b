#![warn(missing_docs)]

//! # wavelan-repro
//!
//! Facade crate for the reproduction of *Measurement and Analysis of the Error
//! Characteristics of an In-Building Wireless Network* (Eckhardt & Steenkiste,
//! SIGCOMM 1996).
//!
//! Each subsystem lives in its own crate; this facade re-exports them under
//! short names so examples and downstream users can depend on a single crate:
//!
//! * [`net`] — Ethernet / IPv4 / UDP framing and the study's test packets,
//! * [`phy`] — the WaveLAN DSSS physical-layer and interference models,
//! * [`mac`] — CSMA/CA MAC and 82593 controller model,
//! * [`sim`] — discrete-event testbed: floor plans, medium, stations, traces,
//! * [`analysis`] — the trace-analysis pipeline and paper-style tables,
//! * [`fec`] — convolutional/Viterbi/RCPC adaptive forward error correction,
//! * [`experiments`] — one module per paper table/figure, the Section 7.4
//!   roaming walk between two pseudo-cells included.
//!
//! A complete measurement in a few lines (also a compiled doc-test):
//!
//! ```
//! use wavelan_repro::analysis::{analyze, ExpectedSeries};
//! use wavelan_repro::mac::network_id::NetworkId;
//! use wavelan_repro::net::testpkt::Endpoint;
//! use wavelan_repro::sim::runner::attach_tx_count;
//! use wavelan_repro::sim::{Point, ScenarioBuilder, StationConfig};
//!
//! // Two stations 7 ft apart in an office, 200 test packets.
//! let mut b = ScenarioBuilder::new(42);
//! let rx = b.station(StationConfig::receiver(Endpoint::station(1), Point::feet(0.0, 0.0)));
//! let tx = b.station(StationConfig::sender(Endpoint::station(2), Point::feet(7.0, 0.0), rx));
//! let scenario = b.build();
//! let mut result = scenario.run(tx, 200);
//! attach_tx_count(&mut result, rx, tx);
//!
//! // The paper's analysis pipeline over the promiscuous trace.
//! let expected = ExpectedSeries {
//!     src: Endpoint::station(2),
//!     dst: Endpoint::station(1),
//!     network_id: NetworkId::TESTBED,
//! };
//! let report = analyze(result.trace(rx), &expected);
//! assert!(report.packet_loss() < 0.01);       // Table 2's near-zero loss
//! assert_eq!(report.body_ber(), 0.0);          // and zero BER in-room
//! ```
//!
//! See `examples/quickstart.rs` for the longer tour.

pub use wavelan_analysis as analysis;
pub use wavelan_core as experiments;
pub use wavelan_fec as fec;
pub use wavelan_mac as mac;
pub use wavelan_net as net;
pub use wavelan_phy as phy;
pub use wavelan_sim as sim;
