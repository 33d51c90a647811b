//! The packet trace format — the boundary between the testbed and the
//! analysis pipeline.
//!
//! Paper Section 4: the receiver logs, "for each incoming packet, every bit
//! and all available status information, even if the packet failed the
//! Ethernet CRC check". A [`TraceRecord`] is exactly that: the delivered
//! bytes (after any truncation and bit corruption) and the four status
//! fields, plus the frame length the modem framing announced
//! ([`TraceRecord::wire_len`] — the real WaveLAN PLCP-style header carries
//! the length ahead of the payload, so the capture knows each packet's
//! intended on-air length even when delivery stops early).
//!
//! Capture is **streaming**: the simulator emits each record once, through a
//! [`TraceSink`], as a borrowed [`RecordView`] — the record's bytes live in a
//! reusable scratch buffer and are valid only for the duration of the call.
//! A sink that folds statistics in place (see `wavelan-analysis`'s streaming
//! analyzer) therefore runs in constant memory regardless of trial length;
//! [`BufferSink`] is the buffering sink that materializes classic [`Trace`]
//! vectors for callers that want the whole log.
//!
//! Records optionally carry [`GroundTruth`] — which station really sent the
//! packet and with what sequence number. The analysis pipeline *never* reads
//! it (the paper had no such oracle); it exists so tests can score the
//! heuristic matcher's accuracy.

use crate::station::StationId;
use serde::{Deserialize, Serialize};

/// Ground truth attached by the simulator for validation only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Index of the transmitting station.
    pub src_station: usize,
    /// Test sequence number, if the packet was a test packet.
    pub seq: Option<u32>,
    /// Number of corrupted bits within the delivered bytes.
    pub corrupted_bits: u32,
    /// Whether delivery stopped before the full frame.
    pub truncated: bool,
}

/// One logged packet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Arrival time (start of packet), virtual ns.
    pub time_ns: u64,
    /// Delivered on-air bytes: network-ID wrapper + Ethernet frame, with any
    /// corruption applied and truncated at the point the modem lost lock.
    pub bytes: Vec<u8>,
    /// Intended on-air length in bytes, as announced by the modem framing —
    /// known even for truncated deliveries (`bytes.len() < wire_len`).
    pub wire_len: u32,
    /// Reported AGC signal level.
    pub level: u8,
    /// Reported AGC silence level.
    pub silence: u8,
    /// Reported 4-bit signal quality.
    pub quality: u8,
    /// Antenna the receiver selected (0/1).
    pub antenna: u8,
    /// Validation-only ground truth (ignored by analysis).
    pub truth: Option<GroundTruth>,
}

impl TraceRecord {
    /// A borrowed view of this record, for code paths that consume
    /// [`RecordView`]s.
    pub fn view(&self) -> RecordView<'_> {
        RecordView {
            time_ns: self.time_ns,
            bytes: &self.bytes,
            wire_len: self.wire_len,
            level: self.level,
            silence: self.silence,
            quality: self.quality,
            antenna: self.antenna,
            truth: self.truth,
        }
    }
}

/// A borrowed trace record, emitted once per logged packet by the event
/// loop. The `bytes` slice points into a reusable scratch buffer and is
/// valid only for the duration of the [`TraceSink::record`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordView<'a> {
    /// Arrival time (start of packet), virtual ns.
    pub time_ns: u64,
    /// Delivered on-air bytes (corrupted, possibly truncated).
    pub bytes: &'a [u8],
    /// Intended on-air length in bytes (see [`TraceRecord::wire_len`]).
    pub wire_len: u32,
    /// Reported AGC signal level.
    pub level: u8,
    /// Reported AGC silence level.
    pub silence: u8,
    /// Reported 4-bit signal quality.
    pub quality: u8,
    /// Antenna the receiver selected (0/1).
    pub antenna: u8,
    /// Validation-only ground truth (ignored by analysis).
    pub truth: Option<GroundTruth>,
}

impl RecordView<'_> {
    /// Materializes an owned [`TraceRecord`] (copies the bytes).
    pub fn to_record(&self) -> TraceRecord {
        TraceRecord {
            time_ns: self.time_ns,
            bytes: self.bytes.to_vec(),
            wire_len: self.wire_len,
            level: self.level,
            silence: self.silence,
            quality: self.quality,
            antenna: self.antenna,
            truth: self.truth,
        }
    }
}

/// Receives each logged packet exactly once, in arrival order, as the event
/// loop resolves it. Implementations choose what to keep: [`BufferSink`]
/// materializes [`Trace`] vectors; streaming folds keep only aggregates and
/// run in constant memory; an export encoder writes records straight to a
/// file.
pub trait TraceSink {
    /// One logged packet at recording station `station`. `view.bytes` is
    /// only valid for the duration of this call.
    fn record(&mut self, station: StationId, view: &RecordView<'_>);
}

/// Fans each record out to two sinks, in order — e.g. a streaming analyzer
/// and a trace-file encoder during a capture run.
pub struct Tee<'a, 'b>(pub &'a mut dyn TraceSink, pub &'b mut dyn TraceSink);

impl TraceSink for Tee<'_, '_> {
    fn record(&mut self, station: StationId, view: &RecordView<'_>) {
        self.0.record(station, view);
        self.1.record(station, view);
    }
}

/// The buffering sink: per-station [`Trace`] vectors, exactly the classic
/// whole-log capture (the default for every `Scenario::run*` entry point).
#[derive(Debug, Default)]
pub struct BufferSink {
    /// One slot per station; `None` for stations that do not record.
    traces: Vec<Option<Trace>>,
}

impl BufferSink {
    /// A sink with one slot per entry of `recording`; stations flagged
    /// `true` get an empty [`Trace`], the rest `None`.
    pub(crate) fn new(recording: impl IntoIterator<Item = bool>) -> BufferSink {
        BufferSink {
            traces: recording
                .into_iter()
                .map(|on| on.then(Trace::default))
                .collect(),
        }
    }

    /// The per-station traces, consuming the sink.
    pub(crate) fn into_traces(self) -> Vec<Option<Trace>> {
        self.traces
    }
}

impl TraceSink for BufferSink {
    fn record(&mut self, station: StationId, view: &RecordView<'_>) {
        if let Some(Some(trace)) = self.traces.get_mut(station) {
            trace.push(view.to_record());
        }
    }
}

/// A receiver's log for one trial.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Logged packets in arrival order.
    pub records: Vec<TraceRecord>,
    /// How many test packets the sender actually put on the air (known to
    /// the experimenter, as in the paper — loss is measured against this).
    pub packets_transmitted: u64,
    /// Packets the sending MAC abandoned after excessive collisions (these
    /// never reached the air and are excluded from loss accounting).
    pub packets_dropped_by_mac: u64,
}

impl Trace {
    /// Appends a record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> TraceRecord {
        TraceRecord {
            time_ns: 1_000_000,
            bytes: vec![0xCA, 0xFE, 1, 2, 3],
            wire_len: 5,
            level: 29,
            silence: 3,
            quality: 15,
            antenna: 0,
            truth: Some(GroundTruth {
                src_station: 0,
                seq: Some(17),
                corrupted_bits: 0,
                truncated: false,
            }),
        }
    }

    #[test]
    fn trace_accumulates() {
        let mut t = Trace::default();
        assert!(t.records.is_empty());
        t.push(sample_record());
        t.push(sample_record());
        assert_eq!(t.records.len(), 2);
    }

    #[test]
    fn record_equality_and_clone() {
        let a = sample_record();
        let b = a.clone();
        assert_eq!(a, b);
        let mut c = a.clone();
        c.bytes[2] ^= 0x80;
        assert_ne!(a, c);
    }

    #[test]
    fn ground_truth_is_optional() {
        let mut r = sample_record();
        r.truth = None;
        let mut t = Trace::default();
        t.push(r);
        assert!(t.records[0].truth.is_none());
    }

    #[test]
    fn view_round_trips_to_owned_record() {
        let r = sample_record();
        let v = r.view();
        assert_eq!(v.bytes, &r.bytes[..]);
        assert_eq!(v.wire_len, r.wire_len);
        assert_eq!(v.to_record(), r);
    }

    #[test]
    fn buffer_sink_keeps_only_recording_stations() {
        let mut sink = BufferSink::new([true, false]);
        let r = sample_record();
        sink.record(0, &r.view());
        sink.record(1, &r.view());
        let traces = sink.into_traces();
        assert_eq!(traces[0].as_ref().map(|t| t.records.len()), Some(1));
        assert!(traces[1].is_none());
        assert_eq!(traces[0].as_ref().unwrap().records[0], r);
    }

    #[test]
    fn tee_fans_out_in_order() {
        let mut a = BufferSink::new([true]);
        let mut b = BufferSink::new([true]);
        let r = sample_record();
        Tee(&mut a, &mut b).record(0, &r.view());
        assert_eq!(
            a.into_traces()[0].as_ref().map(|t| t.records.len()),
            Some(1)
        );
        assert_eq!(
            b.into_traces()[0].as_ref().map(|t| t.records.len()),
            Some(1)
        );
    }
}
