//! A WaveLAN host: position, endpoint identity, thresholds, MAC, traffic
//! generator, and trace capture.

use crate::geometry::Point;
use std::collections::HashMap;
use wavelan_mac::csma::{CsmaCa, MacConfig};
use wavelan_mac::network_id::NetworkId;
use wavelan_mac::threshold::Thresholds;
use wavelan_net::testpkt::Endpoint;

/// Index of a station within a scenario.
pub type StationId = usize;

/// What kind of frames a station's traffic generator emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// The study's 1070-byte test packets (256 repeated 32-bit words).
    Test,
    /// Small ARP-like broadcast chatter — what the paper's "outsider"
    /// stations in other buildings were sending ("frequently we could
    /// determine that they were ARP packets or inter-bridge routing
    /// packets").
    Chatter,
    /// A test-style frame with an explicit body size in bytes — the knob the
    /// pulsed-interference sweeps turn (packet length vs. interferer duty
    /// cycle, after Zarikoff & Leith).
    Sized {
        /// Ethernet body length, bytes (clamped to at least 46).
        bytes: u16,
    },
}

/// How a station generates traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Quiet: receive-only (the study's receiver laptop).
    None,
    /// Sends test packets to `peer` at a fixed application interval — the
    /// study's sender pushed "bursts of packets at the maximum possible
    /// transmission rate (roughly 1.4 Mb/s for this machine and protocol
    /// stack)", i.e. one 1070-byte packet every ≈6.1 ms.
    Periodic {
        /// Destination station.
        peer: StationId,
        /// Interval between application sends, ns.
        interval_ns: u64,
    },
    /// Saturating: enqueue the next packet as soon as the previous one ends —
    /// the Section 7.4 jammers "configured to transmit packets continuously".
    Saturate {
        /// Destination station.
        peer: StationId,
    },
    /// Script-driven: the station transmits only when a scripted `Enqueue`
    /// directive hands it frames (see
    /// [`crate::runner::Scenario::run_scripted`]). Frames arriving while one
    /// is still pending queue up in `Station::backlog`.
    Scripted {
        /// Destination station.
        peer: StationId,
    },
}

/// Static configuration of a station.
#[derive(Debug, Clone)]
pub struct StationConfig {
    /// Link/IP identity.
    pub endpoint: Endpoint,
    /// Position in the floor plan.
    pub pos: Point,
    /// Receive + quality thresholds (also governs carrier sense).
    pub thresholds: Thresholds,
    /// The modem's network ID for transmitted packets.
    pub network_id: NetworkId,
    /// Traffic pattern.
    pub traffic: Traffic,
    /// Frame format this station emits.
    pub frame: FrameKind,
    /// Whether this station logs a promiscuous trace.
    pub record_trace: bool,
    /// MAC timing/retry parameters.
    pub mac: MacConfig,
}

impl StationConfig {
    /// A receive-only tracing station.
    pub fn receiver(endpoint: Endpoint, pos: Point) -> StationConfig {
        StationConfig {
            endpoint,
            pos,
            thresholds: Thresholds::default(),
            network_id: NetworkId::TESTBED,
            traffic: Traffic::None,
            frame: FrameKind::Test,
            record_trace: true,
            mac: MacConfig::default(),
        }
    }

    /// A periodic test-packet sender targeting `peer`, at the study's
    /// ≈1.4 Mb/s application rate.
    pub fn sender(endpoint: Endpoint, pos: Point, peer: StationId) -> StationConfig {
        StationConfig {
            endpoint,
            pos,
            thresholds: Thresholds::default(),
            network_id: NetworkId::TESTBED,
            traffic: Traffic::Periodic {
                peer,
                interval_ns: 6_100_000,
            },
            frame: FrameKind::Test,
            record_trace: false,
            mac: MacConfig::default(),
        }
    }

    /// A saturating jammer that defers to nobody (receive threshold 35, as
    /// in Section 7.4).
    pub fn jammer(endpoint: Endpoint, pos: Point, peer: StationId) -> StationConfig {
        StationConfig {
            endpoint,
            pos,
            thresholds: Thresholds::deaf(),
            network_id: NetworkId::TESTBED,
            traffic: Traffic::Saturate { peer },
            frame: FrameKind::Test,
            record_trace: false,
            mac: MacConfig::default(),
        }
    }
}

/// An active receiver lock on an in-flight packet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RxReservation {
    /// Transmission id (medium key).
    pub tx_id: usize,
    /// Packet end, ns.
    pub end_ns: u64,
    /// Slow-scale signal power of the locked packet at this receiver, dBm.
    pub signal_dbm: f64,
}

/// Mutable per-station simulation state.
#[derive(Debug)]
pub(crate) struct Station {
    /// Static configuration.
    pub config: StationConfig,
    /// CSMA/CA machine.
    pub mac: CsmaCa,
    /// Sequence number of the next test packet this station will send.
    pub next_seq: u32,
    /// A frame waiting for the MAC (sequence number), if any.
    pub pending_seq: Option<u32>,
    /// The in-flight packet this receiver is locked onto, if any.
    /// Established at packet *start* (that is when a real modem acquires),
    /// consumed at packet end when the reception is resolved.
    pub reservation: Option<RxReservation>,
    /// Packets this receiver abandoned mid-reception because a stronger one
    /// captured it: transmission id → cut-off time (ns).
    pub capture_cuts: HashMap<usize, u64>,
    /// Test packets this station has put on the air.
    pub packets_transmitted: u64,
    /// Frames abandoned by the MAC (excessive collisions).
    pub packets_dropped_by_mac: u64,
    /// Packets masked by the receive/quality thresholds (Figure 3's
    /// "percentage of packets filtered").
    pub packets_filtered: u64,
    /// Offers rejected because the receiver was locked on another packet
    /// (and the newcomer was too weak to capture it).
    pub offers_rejected_busy: u64,
    /// Acquired packets the link model nevertheless lost (preamble miss or
    /// host overrun).
    pub rx_lost: u64,
    /// Packets this station delivered up its receive path (passed both
    /// thresholds), whether or not it records a trace.
    pub packets_delivered: u64,
    /// Of the delivered packets, how many were cut short (capture cut or
    /// PHY unlock) — the numerator of the paper's truncation rows.
    pub packets_truncated_rx: u64,
    /// Times this receiver abandoned a locked packet because a ≥-margin
    /// stronger one captured it (Section 7.4's conjectured capture effect).
    pub captures_made: u64,
    /// Scripted frames waiting behind the pending one (only used by
    /// [`Traffic::Scripted`] stations).
    pub backlog: u64,
    /// Trace records this station has emitted to the run's
    /// [`crate::trace::TraceSink`] (only advances when
    /// [`StationConfig::record_trace`] is set; the sink owns the storage).
    pub records_logged: u64,
}

impl Station {
    /// Initializes runtime state from a configuration.
    pub(crate) fn new(config: StationConfig) -> Station {
        Station {
            mac: CsmaCa::new(config.mac),
            config,
            next_seq: 0,
            pending_seq: None,
            reservation: None,
            capture_cuts: HashMap::new(),
            packets_transmitted: 0,
            packets_dropped_by_mac: 0,
            packets_filtered: 0,
            offers_rejected_busy: 0,
            rx_lost: 0,
            packets_delivered: 0,
            packets_truncated_rx: 0,
            captures_made: 0,
            backlog: 0,
            records_logged: 0,
        }
    }

    /// The peer this station sends test packets to, if it sends at all.
    pub(crate) fn peer(&self) -> Option<StationId> {
        match self.config.traffic {
            Traffic::None => None,
            Traffic::Periodic { peer, .. }
            | Traffic::Saturate { peer }
            | Traffic::Scripted { peer } => Some(peer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receiver_records_trace_and_sends_nothing() {
        let s = Station::new(StationConfig::receiver(
            Endpoint::station(1),
            Point::new(0.0, 0.0),
        ));
        assert!(s.config.record_trace);
        assert_eq!(s.records_logged, 0);
        assert_eq!(s.peer(), None);
    }

    #[test]
    fn sender_targets_peer_at_paper_rate() {
        let s = Station::new(StationConfig::sender(
            Endpoint::station(2),
            Point::new(1.0, 0.0),
            0,
        ));
        assert_eq!(s.peer(), Some(0));
        match s.config.traffic {
            Traffic::Periodic { interval_ns, .. } => assert_eq!(interval_ns, 6_100_000),
            other => panic!("{other:?}"),
        }
        assert!(!s.config.record_trace);
    }

    #[test]
    fn jammer_is_deaf_and_saturating() {
        let s = Station::new(StationConfig::jammer(
            Endpoint::station(3),
            Point::new(2.0, 0.0),
            0,
        ));
        assert_eq!(s.config.thresholds.receive_level, 35);
        assert!(matches!(s.config.traffic, Traffic::Saturate { peer: 0 }));
    }
}
