//! Damage classification and body-bit error syndromes.
//!
//! The paper's taxonomy (Table 1 and Section 4), applied per logged packet:
//!
//! * **Undamaged** — full length, wrapper verifies, body matches the
//!   recovered word exactly;
//! * **Truncated** — shorter than the fixed test-packet length ("truncated
//!   packet bodies are ambiguous", so no syndrome is extracted);
//! * **Wrapper damaged** — full length, body intact, but the Ethernet FCS /
//!   IP checksum / network ID shows damage in the framing;
//! * **Body damaged** — full length, one or more body bits differ from the
//!   recovered word (the syndrome is the per-word XOR against that word);
//! * **Outsider** — not recognized as a test packet at all (foreign stations,
//!   or our packets "corrupted beyond recognition").

use crate::matcher::{self, ExpectedSeries, MatchEvidence};
use crate::stats::SignalStats;
use wavelan_mac::network_id::strip_network_id;
use wavelan_net::EthernetFrame;
use wavelan_sim::{RecordView, Trace};

/// Damage classification of one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketClass {
    /// Arrived complete and intact.
    Undamaged,
    /// Delivery stopped early.
    Truncated,
    /// Framing damaged, body intact.
    WrapperDamaged,
    /// One or more corrupted body bits.
    BodyDamaged,
}

/// One analyzed packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzedPacket {
    /// Index into the trace's records.
    pub index: usize,
    /// Accepted as part of the test series?
    pub is_test: bool,
    /// Damage class (for outsiders: Undamaged means its own FCS verified).
    pub class: PacketClass,
    /// Recovered sequence number (test packets only, when recoverable).
    pub seq: Option<u32>,
    /// Corrupted body bits (non-truncated test packets only).
    pub body_bit_errors: u32,
    /// Body bits delivered (full packet: 8192; truncated: what arrived).
    pub body_bits_received: u64,
    /// Reported signal level.
    pub level: u8,
    /// Reported silence level.
    pub silence: u8,
    /// Reported signal quality.
    pub quality: u8,
}

/// The analyzed trace: per-packet verdicts plus the trace-level counters
/// needed for loss accounting.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Per-packet verdicts, in arrival order.
    pub packets: Vec<AnalyzedPacket>,
    /// Test packets the sender put on the air (from the experimenter's own
    /// bookkeeping, as in the paper).
    pub transmitted: u64,
}

impl TraceAnalysis {
    /// Test packets only.
    pub fn test_packets(&self) -> impl Iterator<Item = &AnalyzedPacket> {
        self.packets.iter().filter(|p| p.is_test)
    }

    /// Outsiders only.
    pub fn outsiders(&self) -> impl Iterator<Item = &AnalyzedPacket> {
        self.packets.iter().filter(|p| !p.is_test)
    }

    /// Count of test packets in a class.
    pub fn count(&self, class: PacketClass) -> usize {
        self.test_packets().filter(|p| p.class == class).count()
    }

    /// Signal statistics (level, silence, quality) over a packet subset.
    pub fn stats_where<F: Fn(&AnalyzedPacket) -> bool>(
        &self,
        filter: F,
    ) -> (SignalStats, SignalStats, SignalStats) {
        let mut level = SignalStats::new();
        let mut silence = SignalStats::new();
        let mut quality = SignalStats::new();
        for p in self.packets.iter().filter(|p| filter(p)) {
            level.push(p.level);
            silence.push(p.silence);
            quality.push(p.quality);
        }
        (level, silence, quality)
    }

    /// Estimated body-bit error rate: damaged body bits over body bits
    /// received ("necessarily only estimates", Section 4).
    pub fn body_ber(&self) -> f64 {
        let bits: u64 = self.test_packets().map(|p| p.body_bits_received).sum();
        if bits == 0 {
            return 0.0;
        }
        let errors: u64 = self
            .test_packets()
            .map(|p| u64::from(p.body_bit_errors))
            .sum();
        errors as f64 / bits as f64
    }

    /// Estimated packet loss rate against the transmitted count.
    pub fn packet_loss(&self) -> f64 {
        if self.transmitted == 0 {
            return 0.0;
        }
        let received = self.test_packets().count() as u64;
        1.0 - (received.min(self.transmitted) as f64 / self.transmitted as f64)
    }
}

/// Reusable workspace for the classifier: the body-word buffer, so
/// classifying a record in a streaming fold allocates nothing.
#[derive(Debug, Default)]
pub struct ClassifyScratch {
    words: Vec<u32>,
}

impl ClassifyScratch {
    /// A fresh workspace (the word buffer grows to 256 words and stays).
    pub(crate) fn new() -> ClassifyScratch {
        ClassifyScratch::default()
    }
}

/// Classifies one borrowed record — the streaming form: no allocation once
/// `scratch` has warmed up. The truncation verdict compares the delivered
/// bytes against the record's own announced wire length, so non-standard
/// frame sizes (the pulsed-interference sweeps' [`FrameKind::Sized`] frames)
/// classify correctly too.
///
/// [`FrameKind::Sized`]: wavelan_sim::station::FrameKind::Sized
pub(crate) fn classify_view(
    index: usize,
    view: &RecordView<'_>,
    expected: &ExpectedSeries,
    scratch: &mut ClassifyScratch,
) -> AnalyzedPacket {
    let evidence = matcher::evaluate_in(
        view.bytes,
        view.wire_len as usize,
        expected,
        &mut scratch.words,
    );
    let base = AnalyzedPacket {
        index,
        is_test: evidence.is_test_packet(),
        class: PacketClass::Undamaged,
        seq: None,
        body_bit_errors: 0,
        body_bits_received: 0,
        level: view.level,
        silence: view.silence,
        quality: view.quality,
    };
    if base.is_test {
        classify_test_packet(base, view, expected, &evidence, &scratch.words)
    } else {
        classify_outsider(base, view)
    }
}

fn classify_test_packet(
    mut p: AnalyzedPacket,
    view: &RecordView<'_>,
    expected: &ExpectedSeries,
    evidence: &MatchEvidence,
    words: &[u32],
) -> AnalyzedPacket {
    p.seq = matcher::recover_sequence(view.bytes, evidence);
    p.body_bits_received = words.len() as u64 * 32;

    if view.bytes.len() < view.wire_len as usize {
        p.class = PacketClass::Truncated;
        return p;
    }

    // Body syndrome against the recovered word.
    if let Some(word) = evidence.majority_word {
        p.body_bit_errors = words.iter().map(|w| (w ^ word).count_ones()).sum();
    }
    if p.body_bit_errors > 0 {
        p.class = PacketClass::BodyDamaged;
        return p;
    }

    // Body intact: check the wrapper (modem framing + Ethernet + IP).
    let wrapper_ok = match strip_network_id(view.bytes) {
        Some((id, eth_bytes)) => {
            id == expected.network_id && EthernetFrame::check_fcs(eth_bytes).unwrap_or(false)
        }
        None => false,
    };
    p.class = if wrapper_ok {
        PacketClass::Undamaged
    } else {
        PacketClass::WrapperDamaged
    };
    p
}

fn classify_outsider(mut p: AnalyzedPacket, view: &RecordView<'_>) -> AnalyzedPacket {
    // For foreign packets we cannot know the intended length or contents;
    // "undamaged" means what arrived frames correctly and passes its own FCS.
    let intact = strip_network_id(view.bytes)
        .map(|(_, eth)| EthernetFrame::check_fcs(eth).unwrap_or(false))
        .unwrap_or(false);
    p.class = if intact {
        PacketClass::Undamaged
    } else {
        PacketClass::BodyDamaged
    };
    p
}

/// Classifies a whole trace.
pub(crate) fn classify_trace(trace: &Trace, expected: &ExpectedSeries) -> TraceAnalysis {
    let mut scratch = ClassifyScratch::new();
    TraceAnalysis {
        packets: trace
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| classify_view(i, &r.view(), expected, &mut scratch))
            .collect(),
        transmitted: trace.packets_transmitted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavelan_mac::network_id::{wrap_with_network_id, NetworkId};
    use wavelan_net::testpkt::{Endpoint, TestPacket};
    use wavelan_sim::TraceRecord;

    /// Classifies one logged packet.
    fn classify_record(
        index: usize,
        record: &TraceRecord,
        expected: &ExpectedSeries,
    ) -> AnalyzedPacket {
        classify_view(index, &record.view(), expected, &mut ClassifyScratch::new())
    }

    fn series() -> ExpectedSeries {
        ExpectedSeries {
            src: Endpoint::station(2),
            dst: Endpoint::station(1),
            network_id: NetworkId::TESTBED,
        }
    }

    fn record(bytes: Vec<u8>) -> TraceRecord {
        TraceRecord {
            time_ns: 0,
            bytes,
            wire_len: matcher::full_wire_len() as u32,
            level: 29,
            silence: 3,
            quality: 15,
            antenna: 0,
            truth: None,
        }
    }

    fn clean_wire(seq: u32) -> Vec<u8> {
        let e = series();
        wrap_with_network_id(e.network_id, &TestPacket { seq }.build_frame(e.src, e.dst))
    }

    #[test]
    fn clean_packet_is_undamaged() {
        let p = classify_record(0, &record(clean_wire(10)), &series());
        assert!(p.is_test);
        assert_eq!(p.class, PacketClass::Undamaged);
        assert_eq!(p.seq, Some(10));
        assert_eq!(p.body_bit_errors, 0);
        assert_eq!(p.body_bits_received, 8192);
    }

    #[test]
    fn body_corruption_is_counted_exactly() {
        let mut wire = clean_wire(10);
        let body = wavelan_mac::network_id::NETWORK_ID_LEN + TestPacket::body_offset();
        wire[body + 5] ^= 0b101; // 2 bits in word 1
        wire[body + 400] ^= 0b1; // 1 bit in word 100
        let p = classify_record(0, &record(wire), &series());
        assert_eq!(p.class, PacketClass::BodyDamaged);
        assert_eq!(p.body_bit_errors, 3);
        assert_eq!(p.seq, Some(10));
    }

    #[test]
    fn truncated_packet_has_no_syndrome() {
        let wire = clean_wire(10);
        let cut = wire[..600].to_vec();
        let p = classify_record(0, &record(cut), &series());
        assert_eq!(p.class, PacketClass::Truncated);
        assert_eq!(p.body_bit_errors, 0);
        // 600 − 44 header bytes = 556 body bytes = 139 words = 4448 bits.
        assert_eq!(p.body_bits_received, 4448);
    }

    #[test]
    fn header_corruption_is_wrapper_damage() {
        let mut wire = clean_wire(10);
        wire[20] ^= 0x40; // inside the IP header
        let p = classify_record(0, &record(wire), &series());
        assert_eq!(p.class, PacketClass::WrapperDamaged);
        assert_eq!(p.body_bit_errors, 0);
    }

    #[test]
    fn network_id_corruption_is_wrapper_damage() {
        let mut wire = clean_wire(10);
        wire[0] ^= 0x01;
        let p = classify_record(0, &record(wire), &series());
        assert!(p.is_test, "one flipped ID bit must not unmatch the packet");
        assert_eq!(p.class, PacketClass::WrapperDamaged);
    }

    #[test]
    fn fcs_trailer_corruption_is_wrapper_damage() {
        let mut wire = clean_wire(10);
        let last = wire.len() - 1;
        wire[last] ^= 0x10;
        let p = classify_record(0, &record(wire), &series());
        assert_eq!(p.class, PacketClass::WrapperDamaged);
    }

    #[test]
    fn foreign_packet_is_outsider() {
        let eth = wavelan_net::EthernetFrame::build(
            wavelan_net::MacAddr::BROADCAST,
            wavelan_net::MacAddr([0x00, 0xA0, 0x24, 1, 2, 3]),
            wavelan_net::EtherType::Arp,
            &[7u8; 46],
        );
        let wire = wrap_with_network_id(NetworkId(9), &eth);
        let p = classify_record(0, &record(wire.clone()), &series());
        assert!(!p.is_test);
        assert_eq!(p.class, PacketClass::Undamaged); // its own FCS is fine

        let mut damaged = wire;
        damaged[20] ^= 0xFF;
        let p = classify_record(0, &record(damaged), &series());
        assert!(!p.is_test);
        assert_eq!(p.class, PacketClass::BodyDamaged);
    }

    /// A sized test-style frame (the pulsed-interference sweeps' frames):
    /// unicast, ethertype 0x88B5, `body` bytes of mostly-zero body, wrapped
    /// with the testbed network ID — exactly what
    /// `wavelan_sim::runner::sized_frame` puts on the air.
    fn sized_wire(seq: u32, body_len: usize) -> Vec<u8> {
        let e = series();
        let mut body = vec![0u8; body_len.max(46)];
        body[..4].copy_from_slice(&seq.to_be_bytes());
        body[4..10].copy_from_slice(e.src.mac.as_bytes());
        let eth = wavelan_net::EthernetFrame::build(
            e.dst.mac,
            e.src.mac,
            wavelan_net::EtherType::Other(0x88B5),
            &body,
        );
        wrap_with_network_id(e.network_id, &eth)
    }

    #[test]
    fn complete_small_sized_frame_is_not_truncated() {
        // The PR 8 bug: a complete 64-byte-body frame is shorter than the
        // fixed test-packet length, and a classifier keyed on that length
        // called it Truncated. With per-record wire length it is complete.
        let wire = sized_wire(3, 64);
        assert!(wire.len() < matcher::full_wire_len());
        let rec = TraceRecord {
            wire_len: wire.len() as u32,
            ..record(wire)
        };
        let p = classify_record(0, &rec, &series());
        assert!(p.is_test, "sized frames belong to the test series");
        assert_ne!(p.class, PacketClass::Truncated);
    }

    #[test]
    fn oversize_sized_frame_truncated_past_standard_length_is_truncated() {
        // Dual of the bug: a 1500-byte-body frame cut at 1200 delivered
        // bytes is truncated, but 1200 exceeds the fixed test-packet length
        // so the old classifier called it complete.
        let wire = sized_wire(4, 1500);
        assert!(wire.len() > matcher::full_wire_len());
        let cut = wire[..1200].to_vec();
        let rec = TraceRecord {
            wire_len: wire.len() as u32,
            ..record(cut)
        };
        let p = classify_record(0, &rec, &series());
        assert!(p.is_test);
        assert_eq!(p.class, PacketClass::Truncated);
    }

    #[test]
    fn trace_level_aggregation() {
        let mut trace = Trace {
            packets_transmitted: 4,
            ..Trace::default()
        };
        trace.push(record(clean_wire(0)));
        trace.push(record(clean_wire(1)));
        let mut damaged = clean_wire(2);
        let body = wavelan_mac::network_id::NETWORK_ID_LEN + TestPacket::body_offset();
        damaged[body] ^= 0xFF;
        trace.push(record(damaged));
        // Packet 3 was lost: not in the trace.
        let analysis = classify_trace(&trace, &series());
        assert_eq!(analysis.test_packets().count(), 3);
        assert_eq!(analysis.count(PacketClass::Undamaged), 2);
        assert_eq!(analysis.count(PacketClass::BodyDamaged), 1);
        assert!((analysis.packet_loss() - 0.25).abs() < 1e-12);
        assert!((analysis.body_ber() - 8.0 / (3.0 * 8192.0)).abs() < 1e-12);
        let (level, _, _) = analysis.stats_where(|p| p.is_test);
        assert_eq!(level.count(), 3);
        assert_eq!(level.mean(), 29.0);
    }
}
