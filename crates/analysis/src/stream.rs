//! Constant-memory streaming analysis: the classifier and Table 1
//! aggregation as a [`TraceSink`] fold.
//!
//! The buffered pipeline materializes a whole [`wavelan_sim::Trace`], then a
//! whole [`crate::classify::TraceAnalysis`], before aggregating — memory
//! linear in trial length. [`StreamAnalysis`] folds each record the moment
//! the event loop resolves it and keeps only the aggregates: per-class
//! counts, body-bit totals, the worst single body, and the three
//! [`SignalStats`] accumulators. Steady-state it allocates nothing (the
//! classifier scratch warms up over the first packet), so a streamed run's
//! memory is flat in packet count — the property the allocator-counting
//! tests enforce.
//!
//! The fold is bit-identical to the buffered path: records arrive in the
//! same order the buffered trace stores them, and every aggregate here
//! reproduces the corresponding [`TrialSummary::from_analysis`] /
//! [`crate::classify::TraceAnalysis::stats_where`] computation exactly.

use crate::classify::{classify_view, ClassifyScratch, PacketClass};
use crate::matcher::ExpectedSeries;
use crate::stats::SignalStats;
use crate::summary::TrialSummary;
use wavelan_sim::trace::{RecordView, TraceSink};
use wavelan_sim::StationId;

/// A streaming fold of one receiver's trace: classify each record on
/// arrival, keep aggregates only.
#[derive(Debug)]
pub struct StreamAnalysis {
    expected: ExpectedSeries,
    station: StationId,
    scratch: ClassifyScratch,
    /// Test packets the sender put on the air (set after the run from the
    /// experimenter's bookkeeping, exactly as the buffered path does).
    transmitted: u64,
    /// All folded records, outsiders included.
    records: u64,
    /// Test packets.
    received: u64,
    truncated: u64,
    wrapper_damaged: u64,
    bits_received: u64,
    body_bits_damaged: u64,
    worst_body: u32,
    level: SignalStats,
    silence: SignalStats,
    quality: SignalStats,
    outsiders: u64,
}

impl StreamAnalysis {
    /// A fold for records captured at `station` against `expected`.
    pub fn new(expected: ExpectedSeries, station: StationId) -> StreamAnalysis {
        StreamAnalysis {
            expected,
            station,
            scratch: ClassifyScratch::new(),
            transmitted: 0,
            records: 0,
            received: 0,
            truncated: 0,
            wrapper_damaged: 0,
            bits_received: 0,
            body_bits_damaged: 0,
            worst_body: 0,
            level: SignalStats::new(),
            silence: SignalStats::new(),
            quality: SignalStats::new(),
            outsiders: 0,
        }
    }

    /// Folds one record in (classify + aggregate). Allocation-free once the
    /// classifier scratch has warmed up.
    pub fn fold(&mut self, view: &RecordView<'_>) {
        let p = classify_view(
            self.records as usize,
            view,
            &self.expected,
            &mut self.scratch,
        );
        self.records += 1;
        if !p.is_test {
            self.outsiders += 1;
            return;
        }
        self.received += 1;
        match p.class {
            PacketClass::Truncated => self.truncated += 1,
            PacketClass::WrapperDamaged => self.wrapper_damaged += 1,
            PacketClass::Undamaged | PacketClass::BodyDamaged => {}
        }
        self.bits_received += p.body_bits_received;
        self.body_bits_damaged += u64::from(p.body_bit_errors);
        self.worst_body = self.worst_body.max(p.body_bit_errors);
        self.level.push(p.level);
        self.silence.push(p.silence);
        self.quality.push(p.quality);
    }

    /// Records the sender's transmitted count (the loss denominator).
    pub fn set_transmitted(&mut self, transmitted: u64) {
        self.transmitted = transmitted;
    }

    /// Records folded so far, outsiders included.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The Table 1 row — matches `TrialSummary::from_analysis` over the
    /// equivalent buffered trace exactly.
    pub fn summary(&self, name: &str) -> TrialSummary {
        TrialSummary {
            name: name.to_string(),
            packets_received: self.received,
            packet_loss: if self.transmitted == 0 {
                0.0
            } else {
                1.0 - (self.received.min(self.transmitted) as f64 / self.transmitted as f64)
            },
            packets_truncated: self.truncated,
            bits_received: self.bits_received,
            wrapper_damaged: self.wrapper_damaged,
            body_bits_damaged: self.body_bits_damaged,
            worst_body: self.worst_body,
        }
    }

    /// The `(level, silence, quality)` statistics over test packets —
    /// matches `TraceAnalysis::stats_where(|p| p.is_test)` exactly.
    pub fn signal_stats(&self) -> (SignalStats, SignalStats, SignalStats) {
        (self.level, self.silence, self.quality)
    }
}

impl TraceSink for StreamAnalysis {
    fn record(&mut self, station: StationId, view: &RecordView<'_>) {
        if station == self.station {
            self.fold(view);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_trace;
    use wavelan_mac::network_id::{wrap_with_network_id, NetworkId};
    use wavelan_net::testpkt::{Endpoint, TestPacket};
    use wavelan_sim::trace::{Trace, TraceRecord};

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
            wire_len: crate::matcher::full_wire_len() as u32,
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

    /// A small mixed trace: clean, body-damaged, truncated, wrapper-damaged,
    /// and an outsider.
    fn mixed_trace() -> Trace {
        let mut trace = Trace {
            packets_transmitted: 6,
            ..Trace::default()
        };
        trace.push(record(clean_wire(0)));
        let mut damaged = clean_wire(1);
        let body = wavelan_mac::network_id::NETWORK_ID_LEN + TestPacket::body_offset();
        damaged[body] ^= 0xFF;
        damaged[body + 17] ^= 0x01;
        trace.push(record(damaged));
        trace.push(record(clean_wire(2)[..700].to_vec()));
        let mut wrapper = clean_wire(3);
        wrapper[20] ^= 0x40;
        trace.push(record(wrapper));
        let foreign = wavelan_net::EthernetFrame::build(
            wavelan_net::MacAddr::BROADCAST,
            wavelan_net::MacAddr([0x00, 0xA0, 0x24, 9, 9, 9]),
            wavelan_net::EtherType::Arp,
            &[7u8; 46],
        );
        trace.push(record(wrap_with_network_id(NetworkId(9), &foreign)));
        trace
    }

    #[test]
    fn fold_matches_buffered_summary_and_stats() {
        let trace = mixed_trace();
        let analysis = classify_trace(&trace, &series());
        let buffered = TrialSummary::from_analysis("t", &analysis);
        let buffered_stats = analysis.stats_where(|p| p.is_test);

        let mut fold = StreamAnalysis::new(series(), 0);
        for r in &trace.records {
            fold.record(0, &r.view());
        }
        fold.set_transmitted(trace.packets_transmitted);

        assert_eq!(fold.summary("t"), buffered);
        assert_eq!(fold.signal_stats(), buffered_stats);
        assert_eq!(fold.records(), trace.records.len() as u64);
        assert_eq!(fold.outsiders, analysis.outsiders().count() as u64);
    }

    #[test]
    fn sink_filters_by_station() {
        let mut fold = StreamAnalysis::new(series(), 3);
        let r = record(clean_wire(0));
        fold.record(0, &r.view());
        assert_eq!(fold.records(), 0);
        fold.record(3, &r.view());
        assert_eq!(fold.records(), 1);
    }

    #[test]
    fn empty_fold_is_an_empty_summary() {
        let fold = StreamAnalysis::new(series(), 0);
        let s = fold.summary("empty");
        assert_eq!(s.packets_received, 0);
        assert_eq!(s.packet_loss, 0.0);
        assert_eq!(s.worst_body, 0);
        assert_eq!(fold.signal_stats().0.count(), 0);
    }
}
