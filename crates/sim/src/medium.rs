//! The shared radio medium: concurrent WaveLAN transmissions and ambient
//! (non-WaveLAN) interference sources.
//!
//! WaveLAN "is inherently a single shared channel" (paper Section 2): every
//! transmission is, for every other receiver, either the packet being
//! received or co-channel interference. The medium tracks in-flight
//! transmissions so that, when a packet ends, the runner can assemble the
//! interference timeline its receiver experienced.

use crate::floorplan::FloorPlan;
use crate::frame::FrameRecipe;
use crate::geometry::Point;
use crate::propagation::Propagation;
use wavelan_phy::interference::{DutyCycle, Interferer};
use wavelan_phy::InterferenceKind;

/// How an ambient source's power at a victim receiver is determined.
#[derive(Debug, Clone, Copy)]
pub enum Emitter {
    /// A fixed power delivered to every receiver (used when calibrating a
    /// trial to a measured silence level, as the paper's phone placements
    /// effectively do).
    FixedPower(f64),
    /// A positioned emitter; power follows the scenario's propagation model.
    Positioned {
        /// Location in the floor plan.
        pos: Point,
        /// Effective isotropic radiated power, dBm.
        eirp_dbm: f64,
    },
}

/// An ambient (non-WaveLAN-station) interference source: cordless phone,
/// microwave oven, VHF transmitter.
#[derive(Debug, Clone, Copy)]
pub struct AmbientSource {
    /// Interference class (determines AGC visibility and despread effect).
    pub kind: InterferenceKind,
    /// Transmission pattern.
    pub duty: DutyCycle,
    /// Per-burst power jitter, dB.
    pub burst_sigma_db: f64,
    /// Power determination.
    pub emitter: Emitter,
}

impl AmbientSource {
    /// Raw power this source delivers to a receiver at `rx`, dBm.
    pub(crate) fn power_at(&self, rx: Point, prop: &Propagation, plan: &FloorPlan) -> f64 {
        match self.emitter {
            Emitter::FixedPower(dbm) => dbm,
            Emitter::Positioned { pos, eirp_dbm } => {
                prop.received_power_dbm(eirp_dbm, pos, rx, plan)
            }
        }
    }

    /// The per-packet interferer view for a receiver where this source's
    /// power is `power_dbm` (see [`AmbientSource::power_at`]).
    pub(crate) fn interferer(&self, power_dbm: f64) -> Interferer {
        Interferer {
            kind: self.kind,
            power_dbm,
            duty: self.duty,
            burst_sigma_db: self.burst_sigma_db,
        }
    }
}

/// One WaveLAN packet in flight (or recently completed).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Transmission {
    /// Transmitting station index.
    pub src: usize,
    /// Start of the packet on the air, ns.
    pub start_ns: u64,
    /// End of the packet, ns.
    pub end_ns: u64,
    /// The on-air frame (network ID + Ethernet frame), as a recipe: its
    /// bytes are written only when a record of it is logged.
    pub frame: FrameRecipe,
    /// On-air length, bytes ([`FrameRecipe::wire_len`]).
    pub wire_len: u32,
}

impl Transmission {
    /// `frame` put on the air by station `src` at `start_ns`; it stays on the
    /// air for its length at 2 Mb/s.
    pub(crate) fn new(src: usize, start_ns: u64, frame: FrameRecipe) -> Transmission {
        let wire_len = frame.wire_len() as u32;
        Transmission {
            src,
            start_ns,
            end_ns: start_ns + bits_to_ns(u64::from(wire_len) * 8),
            frame,
            wire_len,
        }
    }

    /// Length on the air, bits.
    pub(crate) fn len_bits(&self) -> u64 {
        u64::from(self.wire_len) * 8
    }

    /// Whether this transmission is on the air at instant `t`.
    pub(crate) fn active_at(&self, t_ns: u64) -> bool {
        self.start_ns <= t_ns && t_ns < self.end_ns
    }

    /// Overlap of this transmission with the window `[start, end)`,
    /// expressed in bit offsets relative to `start` at 2 Mb/s.
    pub(crate) fn overlap_bits(&self, start_ns: u64, end_ns: u64) -> Option<(u64, u64)> {
        let s = self.start_ns.max(start_ns);
        let e = self.end_ns.min(end_ns);
        if s >= e {
            return None;
        }
        Some((ns_to_bits(s - start_ns), ns_to_bits(e - start_ns)))
    }
}

/// Converts a duration in ns to bit-times at 2 Mb/s (1 bit = 500 ns).
pub(crate) fn ns_to_bits(ns: u64) -> u64 {
    ns / 500
}

/// Converts bit-times at 2 Mb/s to ns.
pub(crate) fn bits_to_ns(bits: u64) -> u64 {
    bits * 500
}

/// The medium's transmission log: in-flight and recently ended packets,
/// pruned as virtual time advances.
#[derive(Debug, Default)]
pub(crate) struct Medium {
    /// Tracked transmissions in ascending id order (ids are handed out in
    /// order and pruning keeps it), so a reused buffer holds them all.
    transmissions: Vec<(usize, Transmission)>,
    next_id: usize,
}

impl Medium {
    /// An idle medium.
    pub(crate) fn new() -> Medium {
        Medium::default()
    }

    /// Registers a transmission; returns its id.
    pub(crate) fn begin(&mut self, tx: Transmission) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.transmissions.push((id, tx));
        id
    }

    /// Looks up a transmission by id.
    pub(crate) fn get(&self, id: usize) -> Option<&Transmission> {
        let index = self
            .transmissions
            .binary_search_by_key(&id, |(id, _)| *id)
            .ok()?;
        Some(&self.transmissions[index].1)
    }

    /// All transmissions other than `exclude_id` overlapping `[start, end)`.
    pub(crate) fn overlapping(
        &self,
        start_ns: u64,
        end_ns: u64,
        exclude_id: usize,
    ) -> impl Iterator<Item = (usize, &Transmission)> {
        self.transmissions
            .iter()
            .filter(move |(id, t)| *id != exclude_id && t.start_ns < end_ns && t.end_ns > start_ns)
            .map(|(id, t)| (*id, t))
    }

    /// Transmissions active at instant `t` (for carrier sense).
    pub(crate) fn active_at(&self, t_ns: u64) -> impl Iterator<Item = (usize, &Transmission)> {
        self.transmissions
            .iter()
            .filter(move |(_, t)| t.active_at(t_ns))
            .map(|(id, t)| (*id, t))
    }

    /// Whether station `s` has a transmission of its own overlapping the
    /// window (a half-duplex radio cannot receive while transmitting).
    pub(crate) fn station_transmitting_during(&self, s: usize, start_ns: u64, end_ns: u64) -> bool {
        self.transmissions
            .iter()
            .any(|(_, t)| t.src == s && t.start_ns < end_ns && t.end_ns > start_ns)
    }

    /// Drops transmissions that ended more than `horizon_ns` before `now` —
    /// nothing still in flight can overlap them.
    pub(crate) fn prune(&mut self, now_ns: u64, horizon_ns: u64) {
        let cutoff = now_ns.saturating_sub(horizon_ns);
        self.transmissions.retain(|(_, t)| t.end_ns >= cutoff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::station::FrameKind;
    use wavelan_mac::network_id::NetworkId;
    use wavelan_net::testpkt::Endpoint;

    fn tx(src: usize, start: u64, end: u64) -> Transmission {
        let frame = FrameRecipe {
            kind: FrameKind::Sized { bytes: 80 },
            src: Endpoint::station(1),
            dst: Endpoint::station(2),
            network_id: NetworkId::TESTBED,
            seq: 0,
        };
        Transmission {
            end_ns: end,
            ..Transmission::new(src, start, frame)
        }
    }

    #[test]
    fn time_conversions() {
        assert_eq!(ns_to_bits(500), 1);
        assert_eq!(ns_to_bits(5_000_000), 10_000);
        assert_eq!(bits_to_ns(8560), 4_280_000);
    }

    #[test]
    fn overlap_bits_clips_to_window() {
        let t = tx(0, 1_000, 5_000);
        // Window entirely containing the transmission.
        assert_eq!(t.overlap_bits(0, 10_000), Some((2, 10)));
        // Transmission straddles the window start.
        assert_eq!(t.overlap_bits(2_000, 10_000), Some((0, 6)));
        // No overlap.
        assert_eq!(t.overlap_bits(6_000, 10_000), None);
    }

    #[test]
    fn medium_tracks_and_prunes() {
        let mut m = Medium::new();
        let a = m.begin(tx(0, 0, 1_000));
        let b = m.begin(tx(1, 500, 2_000));
        assert_eq!(m.transmissions.len(), 2);
        assert!(m.get(a).is_some());
        // Both overlap [400, 900).
        assert_eq!(m.overlapping(400, 900, usize::MAX).count(), 2);
        // Excluding one.
        assert_eq!(m.overlapping(400, 900, a).count(), 1);
        // Active at instants.
        assert_eq!(m.active_at(250).count(), 1);
        assert_eq!(m.active_at(750).count(), 2);
        assert_eq!(m.active_at(1_500).count(), 1);
        // Prune far in the future.
        m.prune(1_000_000, 10_000);
        assert_eq!(m.transmissions.len(), 0);
        let _ = b;
    }

    #[test]
    fn half_duplex_detection() {
        let mut m = Medium::new();
        m.begin(tx(3, 100, 200));
        assert!(m.station_transmitting_during(3, 150, 400));
        assert!(!m.station_transmitting_during(3, 200, 400));
        assert!(!m.station_transmitting_during(4, 150, 400));
    }

    #[test]
    fn ambient_fixed_vs_positioned() {
        let prop = Propagation::indoor(0);
        let plan = FloorPlan::open();
        let fixed = AmbientSource {
            kind: InterferenceKind::NarrowbandInBand,
            duty: DutyCycle::Continuous,
            burst_sigma_db: 0.0,
            emitter: Emitter::FixedPower(-64.0),
        };
        assert_eq!(fixed.power_at(Point::new(0.0, 0.0), &prop, &plan), -64.0);

        let positioned = AmbientSource {
            emitter: Emitter::Positioned {
                pos: Point::new(0.0, 0.0),
                eirp_dbm: 10.0,
            },
            ..fixed
        };
        let near = positioned.power_at(Point::new(1.0, 0.0), &prop, &plan);
        let far = positioned.power_at(Point::new(10.0, 0.0), &prop, &plan);
        assert!(near > far);
        let i = positioned.interferer(near);
        assert_eq!(i.power_dbm, near);
        assert_eq!(i.kind, InterferenceKind::NarrowbandInBand);
    }
}
