//! The receive threshold and quality threshold.
//!
//! Paper Section 2: WaveLAN "gives receivers the ability to mask out weak
//! signals through a receive threshold, which improves throughput and may be
//! sufficient to simulate cell boundaries". Section 5.3 studies the threshold
//! experimentally (Figure 3) and finds it *imperfect*: because per-packet
//! reported levels jitter a few units, "it is wise to allow a margin of
//! several units when choosing a threshold" — a behaviour that emerges
//! naturally here from the AGC jitter in `wavelan-phy`.
//!
//! A crucial empirical property the model preserves: "the receive threshold
//! ... seems to cleanly filter packets. That is, we did not receive any
//! damaged or truncated packets in the course of the trial" — filtering
//! happens *before* the packet is handed up, on the packet's own reported
//! level, so a filtered packet simply vanishes rather than appearing damaged.
//!
//! The same threshold governs carrier sense: raising it "hide\[s\] carrier
//! sense from the Ethernet chip", letting a transmitter ignore distant
//! systems (the Table 14 experiment).

/// Receive-side masking configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thresholds {
    /// Minimum signal level for a packet to be delivered / carrier sensed.
    pub receive_level: u8,
    /// Minimum signal quality for a packet to be delivered.
    pub quality: u8,
}

impl Default for Thresholds {
    /// The study's standard configuration: "Unless otherwise specified, all
    /// runs use a receive threshold of 3 and a quality threshold of 1"
    /// (Section 4).
    fn default() -> Self {
        Thresholds {
            receive_level: 3,
            quality: 1,
        }
    }
}

impl Thresholds {
    /// The saturating configuration used to make a unit "transmit
    /// continuously, and not defer to any nearby stations" (Section 7.4 set
    /// the hostile transmitters' threshold to 35).
    pub fn deaf() -> Thresholds {
        Thresholds {
            receive_level: 35,
            quality: 1,
        }
    }

    /// Whether a carrier observed at `sensed_level` asserts carrier sense
    /// (and thus counts as a "collision" for a would-be transmitter).
    pub fn senses_carrier(&self, sensed_level: u8) -> bool {
        sensed_level >= self.receive_level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_study_configuration() {
        let t = Thresholds::default();
        assert_eq!(t.receive_level, 3);
        assert_eq!(t.quality, 1);
    }

    #[test]
    fn carrier_sense_follows_receive_threshold() {
        // Section 7.4: threshold 25 masks jammers at levels ~14 and ~9.5.
        let t = Thresholds {
            receive_level: 25,
            quality: 1,
        };
        assert!(!t.senses_carrier(14));
        assert!(!t.senses_carrier(10));
        assert!(t.senses_carrier(28));
        // Default threshold hears everything.
        assert!(Thresholds::default().senses_carrier(10));
    }

    #[test]
    fn deaf_station_ignores_peers() {
        let t = Thresholds::deaf();
        assert!(!t.senses_carrier(28));
        assert!(!t.senses_carrier(34));
        assert!(t.senses_carrier(35));
    }
}
