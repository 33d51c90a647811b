//! The self-describing columnar trace export format ("WLTC").
//!
//! This is the capture side of the paper's methodology made durable: a run
//! exports every logged record to a file, and the analysis pipeline re-runs
//! offline over the export, byte-for-byte reproducing the live Report. The
//! format is deliberately **oracle-free** — it carries exactly what a real
//! promiscuous capture would have (bytes, announced wire length, the four
//! status fields), never the simulator's [`GroundTruth`] — so an offline
//! re-analysis proves the classifier "would run unchanged against a real
//! trace".
//!
//! Layout (all integers little-endian; strings are `u16 len | bytes`):
//!
//! ```text
//! header:  "WLTC" | u8 version | u64 spec_hash | u64 seed | u64 packet_budget
//!          | str scale | str artifact
//! streams: repeat per stream (one per trial, in trial order):
//!   'S' | str name
//!   repeat per block (up to 256 records each):
//!     'B' | u16 record_count | u32 payload_total
//!     | u64 time_ns[count] | u32 wire_len[count] | u32 byte_len[count]
//!     | u8 level[count] | u8 silence[count] | u8 quality[count]
//!     | u8 antenna[count]
//!     | payload bytes (records' bytes concatenated, payload_total long)
//!   'E' | u64 transmitted | u64 dropped_by_mac | u64 record_count
//! footer:  'F' | u64 total_records
//! ```
//!
//! Columns beat row-major records here because a whole block's fixed-width
//! fields read with one `read_exact` each into reused buffers: the reader's
//! memory is bounded by the block size, not the trace size, and decoding is
//! a handful of bulk copies per 256 records.
//!
//! [`GroundTruth`]: wavelan_sim::trace::GroundTruth

use std::io::{self, Read, Write};
use wavelan_sim::trace::{RecordView, TraceSink};
use wavelan_sim::StationId;

/// File magic.
pub(crate) const MAGIC: &[u8; 4] = b"WLTC";
/// Current format version.
pub const VERSION: u8 = 1;
/// Records per block (bounds the reader's working set).
pub(crate) const BLOCK_RECORDS: usize = 256;

/// Sanity cap on a single record's byte length (far above any WaveLAN
/// frame); guards against reading garbage lengths from corrupt files.
const MAX_RECORD_BYTES: u32 = 65_536;
/// Sanity cap on one block's total payload.
const MAX_BLOCK_PAYLOAD: u32 = BLOCK_RECORDS as u32 * MAX_RECORD_BYTES;
/// Sanity cap on a header string.
const MAX_STRING: u16 = 4096;

/// Stream/block/footer tags.
const TAG_STREAM: u8 = b'S';
const TAG_BLOCK: u8 = b'B';
const TAG_END: u8 = b'E';
const TAG_FOOTER: u8 = b'F';

/// Errors from decoding a WLTC trace file.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a WLTC trace file (bad magic).
    BadMagic,
    /// A version this library does not read.
    UnsupportedVersion(u8),
    /// Structurally invalid (truncated, absurd lengths, bad tags,
    /// inconsistent counts).
    Corrupt(&'static str),
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::BadMagic => write!(f, "not a WLTC trace file"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            CodecError::Corrupt(what) => write!(f, "corrupt trace file: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The run identity a trace file carries in its header — everything the
/// offline re-analysis needs to find the experiment and verify it is
/// re-analyzing what was captured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Registry artifact name (e.g. `table2`).
    pub artifact: String,
    /// Scale name the run used (e.g. `smoke`).
    pub scale: String,
    /// Base seed of the run.
    pub seed: u64,
    /// FNV-1a hash of the experiment's `ScenarioSpec` JSON at capture time.
    pub spec_hash: u64,
    /// Per-trial packet budget of the run.
    pub packet_budget: u64,
}

/// What a stream's end marker carries: the sender-side bookkeeping the
/// loss accounting needs (known to the experimenter, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamTail {
    /// Test packets the sender put on the air during the trial.
    pub transmitted: u64,
    /// Frames the sending MAC abandoned.
    pub dropped_by_mac: u64,
    /// Records the stream holds (verified against the blocks read).
    pub records: u64,
}

fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    let len = u16::try_from(s.len()).map_err(|_| io::Error::other("string too long"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(s.as_bytes())
}

/// Encodes records block-by-block into any `Write` sink.
///
/// Also a [`TraceSink`], so an export run tees records straight from the
/// event loop into the file: the first I/O error is latched and re-surfaced
/// by [`TraceWriter::finish`] (the sink interface has no error channel).
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    in_stream: bool,
    stream_records: u64,
    total_records: u64,
    // The pending block, column-major.
    time_ns: Vec<u64>,
    wire_len: Vec<u32>,
    byte_len: Vec<u32>,
    level: Vec<u8>,
    silence: Vec<u8>,
    quality: Vec<u8>,
    antenna: Vec<u8>,
    payload: Vec<u8>,
    /// First latched sink-path I/O error.
    error: Option<io::Error>,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the header and returns the encoder.
    pub fn new(mut w: W, meta: &TraceMeta) -> io::Result<TraceWriter<W>> {
        w.write_all(MAGIC)?;
        w.write_all(&[VERSION])?;
        w.write_all(&meta.spec_hash.to_le_bytes())?;
        w.write_all(&meta.seed.to_le_bytes())?;
        w.write_all(&meta.packet_budget.to_le_bytes())?;
        write_str(&mut w, &meta.scale)?;
        write_str(&mut w, &meta.artifact)?;
        Ok(TraceWriter {
            w,
            in_stream: false,
            stream_records: 0,
            total_records: 0,
            time_ns: Vec::with_capacity(BLOCK_RECORDS),
            wire_len: Vec::with_capacity(BLOCK_RECORDS),
            byte_len: Vec::with_capacity(BLOCK_RECORDS),
            level: Vec::with_capacity(BLOCK_RECORDS),
            silence: Vec::with_capacity(BLOCK_RECORDS),
            quality: Vec::with_capacity(BLOCK_RECORDS),
            antenna: Vec::with_capacity(BLOCK_RECORDS),
            payload: Vec::new(),
            error: None,
        })
    }

    /// Opens the next stream (one per trial, written in trial order).
    pub fn begin_stream(&mut self, name: &str) -> io::Result<()> {
        assert!(!self.in_stream, "previous stream not ended");
        self.w.write_all(&[TAG_STREAM])?;
        write_str(&mut self.w, name)?;
        self.in_stream = true;
        self.stream_records = 0;
        Ok(())
    }

    /// Appends one record to the open stream.
    pub fn push(&mut self, view: &RecordView<'_>) -> io::Result<()> {
        assert!(self.in_stream, "push outside a stream");
        self.time_ns.push(view.time_ns);
        self.wire_len.push(view.wire_len);
        self.byte_len.push(view.bytes.len() as u32);
        self.level.push(view.level);
        self.silence.push(view.silence);
        self.quality.push(view.quality);
        self.antenna.push(view.antenna);
        self.payload.extend_from_slice(view.bytes);
        self.stream_records += 1;
        self.total_records += 1;
        if self.time_ns.len() >= BLOCK_RECORDS {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.time_ns.is_empty() {
            return Ok(());
        }
        self.w.write_all(&[TAG_BLOCK])?;
        self.w
            .write_all(&(self.time_ns.len() as u16).to_le_bytes())?;
        self.w
            .write_all(&(self.payload.len() as u32).to_le_bytes())?;
        for t in &self.time_ns {
            self.w.write_all(&t.to_le_bytes())?;
        }
        for v in &self.wire_len {
            self.w.write_all(&v.to_le_bytes())?;
        }
        for v in &self.byte_len {
            self.w.write_all(&v.to_le_bytes())?;
        }
        self.w.write_all(&self.level)?;
        self.w.write_all(&self.silence)?;
        self.w.write_all(&self.quality)?;
        self.w.write_all(&self.antenna)?;
        self.w.write_all(&self.payload)?;
        self.time_ns.clear();
        self.wire_len.clear();
        self.byte_len.clear();
        self.level.clear();
        self.silence.clear();
        self.quality.clear();
        self.antenna.clear();
        self.payload.clear();
        Ok(())
    }

    /// Closes the open stream, recording the sender-side tallies.
    pub fn end_stream(&mut self, transmitted: u64, dropped_by_mac: u64) -> io::Result<()> {
        assert!(self.in_stream, "end_stream outside a stream");
        self.flush_block()?;
        self.w.write_all(&[TAG_END])?;
        self.w.write_all(&transmitted.to_le_bytes())?;
        self.w.write_all(&dropped_by_mac.to_le_bytes())?;
        self.w.write_all(&self.stream_records.to_le_bytes())?;
        self.in_stream = false;
        Ok(())
    }

    /// Writes the footer and hands the sink back. Surfaces any I/O error
    /// latched on the [`TraceSink`] path.
    pub fn finish(mut self) -> io::Result<W> {
        assert!(!self.in_stream, "finish with a stream still open");
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.w.write_all(&[TAG_FOOTER])?;
        self.w.write_all(&self.total_records.to_le_bytes())?;
        self.w.flush()?;
        Ok(self.w)
    }
}

impl<W: Write> TraceSink for TraceWriter<W> {
    fn record(&mut self, _station: StationId, view: &RecordView<'_>) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.push(view) {
            self.error = Some(e);
        }
    }
}

fn read_array<R: Read, const N: usize>(r: &mut R) -> Result<[u8; N], CodecError> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)
        .map_err(|_| CodecError::Corrupt("unexpected end of file"))?;
    Ok(buf)
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, CodecError> {
    Ok(u64::from_le_bytes(read_array::<_, 8>(r)?))
}

fn read_str<R: Read>(r: &mut R) -> Result<String, CodecError> {
    let len = u16::from_le_bytes(read_array::<_, 2>(r)?);
    if len > MAX_STRING {
        return Err(CodecError::Corrupt("string length exceeds sanity cap"));
    }
    let mut buf = vec![0u8; usize::from(len)];
    r.read_exact(&mut buf)
        .map_err(|_| CodecError::Corrupt("unexpected end of file"))?;
    String::from_utf8(buf).map_err(|_| CodecError::Corrupt("string is not UTF-8"))
}

/// Decodes a WLTC file stream-by-stream, handing each record out as a
/// borrowed [`RecordView`] (with `truth: None` — the format carries no
/// oracle). Column buffers are reused across blocks, so memory is bounded
/// by the block size regardless of trace length.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    r: R,
    meta: TraceMeta,
    in_stream: bool,
    finished: bool,
    records_seen: u64,
    // Reused per-block column buffers.
    time_ns: Vec<u64>,
    wire_len: Vec<u32>,
    byte_len: Vec<u32>,
    level: Vec<u8>,
    silence: Vec<u8>,
    quality: Vec<u8>,
    antenna: Vec<u8>,
    payload: Vec<u8>,
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the header.
    pub fn open(mut r: R) -> Result<TraceReader<R>, CodecError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let [version] = read_array::<_, 1>(&mut r)?;
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let spec_hash = read_u64(&mut r)?;
        let seed = read_u64(&mut r)?;
        let packet_budget = read_u64(&mut r)?;
        let scale = read_str(&mut r)?;
        let artifact = read_str(&mut r)?;
        Ok(TraceReader {
            r,
            meta: TraceMeta {
                artifact,
                scale,
                seed,
                spec_hash,
                packet_budget,
            },
            in_stream: false,
            finished: false,
            records_seen: 0,
            time_ns: Vec::new(),
            wire_len: Vec::new(),
            byte_len: Vec::new(),
            level: Vec::new(),
            silence: Vec::new(),
            quality: Vec::new(),
            antenna: Vec::new(),
            payload: Vec::new(),
        })
    }

    /// The run identity from the header.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Advances to the next stream: `Some(name)` if one opens, `None` after
    /// a verified footer.
    pub fn next_stream(&mut self) -> Result<Option<String>, CodecError> {
        assert!(!self.in_stream, "previous stream not fully read");
        if self.finished {
            return Ok(None);
        }
        let [tag] = read_array::<_, 1>(&mut self.r)?;
        match tag {
            TAG_STREAM => {
                let name = read_str(&mut self.r)?;
                self.in_stream = true;
                Ok(Some(name))
            }
            TAG_FOOTER => {
                let total = read_u64(&mut self.r)?;
                if total != self.records_seen {
                    return Err(CodecError::Corrupt("footer record count mismatch"));
                }
                self.finished = true;
                Ok(None)
            }
            _ => Err(CodecError::Corrupt("unexpected tag between streams")),
        }
    }

    /// Reads the open stream to its end marker, calling `f` once per record
    /// in stored order. The view's `bytes` borrow the reader's block buffer
    /// and are valid only for the duration of the call.
    pub fn for_each_record<F: FnMut(&RecordView<'_>)>(
        &mut self,
        mut f: F,
    ) -> Result<StreamTail, CodecError> {
        assert!(self.in_stream, "no open stream");
        let mut stream_records = 0u64;
        loop {
            let [tag] = read_array::<_, 1>(&mut self.r)?;
            match tag {
                TAG_BLOCK => {
                    let count = self.read_block()?;
                    stream_records += count as u64;
                    self.records_seen += count as u64;
                    let mut offset = 0usize;
                    for i in 0..count {
                        let len = self.byte_len[i] as usize;
                        f(&RecordView {
                            time_ns: self.time_ns[i],
                            bytes: &self.payload[offset..offset + len],
                            wire_len: self.wire_len[i],
                            level: self.level[i],
                            silence: self.silence[i],
                            quality: self.quality[i],
                            antenna: self.antenna[i],
                            truth: None,
                        });
                        offset += len;
                    }
                }
                TAG_END => {
                    let transmitted = read_u64(&mut self.r)?;
                    let dropped_by_mac = read_u64(&mut self.r)?;
                    let records = read_u64(&mut self.r)?;
                    if records != stream_records {
                        return Err(CodecError::Corrupt("stream record count mismatch"));
                    }
                    self.in_stream = false;
                    return Ok(StreamTail {
                        transmitted,
                        dropped_by_mac,
                        records,
                    });
                }
                _ => return Err(CodecError::Corrupt("unexpected tag inside stream")),
            }
        }
    }

    /// Decodes one block into the reused column buffers; returns its record
    /// count.
    fn read_block(&mut self) -> Result<usize, CodecError> {
        let count = usize::from(u16::from_le_bytes(read_array::<_, 2>(&mut self.r)?));
        let payload_total = u32::from_le_bytes(read_array::<_, 4>(&mut self.r)?);
        if payload_total > MAX_BLOCK_PAYLOAD {
            return Err(CodecError::Corrupt("block payload exceeds sanity cap"));
        }
        self.time_ns.clear();
        self.wire_len.clear();
        self.byte_len.clear();
        for _ in 0..count {
            self.time_ns.push(read_u64(&mut self.r)?);
        }
        for _ in 0..count {
            self.wire_len
                .push(u32::from_le_bytes(read_array::<_, 4>(&mut self.r)?));
        }
        let mut byte_sum = 0u64;
        for _ in 0..count {
            let len = u32::from_le_bytes(read_array::<_, 4>(&mut self.r)?);
            if len > MAX_RECORD_BYTES {
                return Err(CodecError::Corrupt("record length exceeds sanity cap"));
            }
            byte_sum += u64::from(len);
            self.byte_len.push(len);
        }
        if byte_sum != u64::from(payload_total) {
            return Err(CodecError::Corrupt("block payload length mismatch"));
        }
        for col in [
            &mut self.level,
            &mut self.silence,
            &mut self.quality,
            &mut self.antenna,
        ] {
            col.resize(count, 0);
            self.r
                .read_exact(col)
                .map_err(|_| CodecError::Corrupt("unexpected end of file"))?;
        }
        self.payload.resize(payload_total as usize, 0);
        self.r
            .read_exact(&mut self.payload)
            .map_err(|_| CodecError::Corrupt("unexpected end of file"))?;
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavelan_sim::trace::TraceRecord;

    fn meta() -> TraceMeta {
        TraceMeta {
            artifact: "table2".to_string(),
            scale: "smoke".to_string(),
            seed: 1996,
            spec_hash: 0xDEAD_BEEF_0BAD_CAFE,
            packet_budget: 300,
        }
    }

    fn sample(seed: u64) -> TraceRecord {
        TraceRecord {
            time_ns: seed.wrapping_mul(6_100_000),
            bytes: (0..((seed % 40) as u8 + 5))
                .map(|i| i ^ (seed as u8))
                .collect(),
            wire_len: 1074,
            level: (seed % 64) as u8,
            silence: (seed % 17) as u8,
            quality: (seed % 16) as u8,
            antenna: (seed % 2) as u8,
            truth: None,
        }
    }

    fn encode(streams: &[(&str, Vec<TraceRecord>, u64, u64)]) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new(), &meta()).unwrap();
        for (name, records, transmitted, dropped) in streams {
            w.begin_stream(name).unwrap();
            for r in records {
                w.push(&r.view()).unwrap();
            }
            w.end_stream(*transmitted, *dropped).unwrap();
        }
        w.finish().unwrap()
    }

    fn decode(buf: &[u8]) -> (TraceMeta, Vec<(String, Vec<TraceRecord>, StreamTail)>) {
        let mut r = TraceReader::open(buf).unwrap();
        let meta = r.meta().clone();
        let mut streams = Vec::new();
        while let Some(name) = r.next_stream().unwrap() {
            let mut records = Vec::new();
            let tail = r.for_each_record(|v| records.push(v.to_record())).unwrap();
            streams.push((name, records, tail));
        }
        (meta, streams)
    }

    #[test]
    fn round_trip_preserves_streams_and_meta() {
        let records: Vec<TraceRecord> = (0..600).map(sample).collect();
        let buf = encode(&[
            ("trial-1", records.clone(), 700, 3),
            ("trial-2", Vec::new(), 5, 0),
        ]);
        let (m, streams) = decode(&buf);
        assert_eq!(m, meta());
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].0, "trial-1");
        assert_eq!(streams[0].1, records);
        assert_eq!(
            streams[0].2,
            StreamTail {
                transmitted: 700,
                dropped_by_mac: 3,
                records: 600
            }
        );
        assert_eq!(streams[1].1.len(), 0);
        assert_eq!(streams[1].2.transmitted, 5);
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(matches!(
            TraceReader::open(&b"NOPE............................"[..]).unwrap_err(),
            CodecError::BadMagic
        ));
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut buf = encode(&[]);
        buf[4] = 77;
        assert!(matches!(
            TraceReader::open(&buf[..]).unwrap_err(),
            CodecError::UnsupportedVersion(77)
        ));
    }

    #[test]
    fn truncation_anywhere_fails_loudly_without_panic() {
        let buf = encode(&[("trial-1", (0..10).map(sample).collect(), 12, 0)]);
        for cut in 0..buf.len() {
            let mut r = match TraceReader::open(&buf[..cut]) {
                Ok(r) => r,
                Err(_) => continue,
            };
            let mut failed = false;
            loop {
                match r.next_stream() {
                    Ok(Some(_)) => {
                        if r.for_each_record(|_| {}).is_err() {
                            failed = true;
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            assert!(failed, "cut {cut} decoded as complete");
        }
    }

    #[test]
    fn corrupt_counters_are_rejected() {
        // Corrupt the footer's total: count mismatch.
        let mut buf = encode(&[("t", (0..3).map(sample).collect(), 3, 0)]);
        let n = buf.len();
        buf[n - 8..].copy_from_slice(&999u64.to_le_bytes());
        let mut r = TraceReader::open(&buf[..]).unwrap();
        assert!(r.next_stream().unwrap().is_some());
        r.for_each_record(|_| {}).unwrap();
        assert!(matches!(
            r.next_stream(),
            Err(CodecError::Corrupt("footer record count mismatch"))
        ));
    }
}
