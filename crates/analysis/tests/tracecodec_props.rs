//! Property tests for the WLTC columnar trace codec: whatever records go
//! in come out bit-identical — including empty payloads, truncation-shaped
//! records (`bytes.len() < wire_len`), and extreme RSSI/metric values —
//! and malformed inputs always fail with a typed [`CodecError`], never a
//! panic.

use proptest::prelude::*;
use wavelan_analysis::tracecodec::{CodecError, TraceMeta, TraceReader, TraceWriter};
use wavelan_sim::TraceRecord;

/// Lowercase alphanumeric identifiers of 1..=max chars (the vendored
/// proptest has no regex strategies, so build strings by mapping digits).
fn name_strategy(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..36, 1..=max).prop_map(|chars| {
        chars
            .into_iter()
            .map(|c| {
                if c < 26 {
                    (b'a' + c) as char
                } else {
                    (b'0' + c - 26) as char
                }
            })
            .collect()
    })
}

fn record_strategy() -> impl Strategy<Value = TraceRecord> {
    (
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..300),
        0u32..=3000,
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        0u8..=1,
    )
        .prop_map(
            |(time_ns, bytes, wire_len, level, silence, quality, antenna)| TraceRecord {
                time_ns,
                bytes,
                wire_len,
                level,
                silence,
                quality,
                antenna,
                // The format is oracle-free: ground truth never crosses it.
                truth: None,
            },
        )
}

fn stream_strategy() -> impl Strategy<Value = (String, Vec<TraceRecord>, u64, u64)> {
    (
        name_strategy(13),
        proptest::collection::vec(record_strategy(), 0..40),
        any::<u64>(),
        any::<u64>(),
    )
}

fn meta_strategy() -> impl Strategy<Value = TraceMeta> {
    (
        name_strategy(17),
        name_strategy(8),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(artifact, scale, seed, spec_hash, packet_budget)| TraceMeta {
                artifact,
                scale,
                seed,
                spec_hash,
                packet_budget,
            },
        )
}

fn encode(meta: &TraceMeta, streams: &[(String, Vec<TraceRecord>, u64, u64)]) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new(), meta).expect("encode header");
    for (name, records, transmitted, dropped) in streams {
        w.begin_stream(name).expect("stream tag");
        for r in records {
            w.push(&r.view()).expect("record");
        }
        w.end_stream(*transmitted, *dropped).expect("end tag");
    }
    w.finish().expect("footer")
}

proptest! {
    /// encode → decode is the identity on meta, stream names, records (all
    /// fields), and sender tallies.
    #[test]
    fn round_trip_is_identity(
        meta in meta_strategy(),
        streams in proptest::collection::vec(stream_strategy(), 0..4),
    ) {
        let buf = encode(&meta, &streams);
        let mut r = TraceReader::open(&buf[..]).expect("header decodes");
        prop_assert_eq!(r.meta(), &meta);
        let mut seen = 0usize;
        while let Some(name) = r.next_stream().expect("stream tag decodes") {
            let (expected_name, expected_records, transmitted, dropped) = &streams[seen];
            prop_assert_eq!(&name, expected_name);
            let mut records = Vec::new();
            let tail = r
                .for_each_record(|v| records.push(v.to_record()))
                .expect("stream decodes");
            prop_assert_eq!(&records, expected_records);
            prop_assert_eq!(tail.transmitted, *transmitted);
            prop_assert_eq!(tail.dropped_by_mac, *dropped);
            prop_assert_eq!(tail.records, expected_records.len() as u64);
            seen += 1;
        }
        prop_assert_eq!(seen, streams.len());
    }

    /// Any prefix of a valid file fails with a typed error — never a panic,
    /// never a silent "complete" decode.
    #[test]
    fn every_truncation_fails_loudly(
        meta in meta_strategy(),
        streams in proptest::collection::vec(stream_strategy(), 1..3),
        cut_frac in 0.0f64..1.0,
    ) {
        let buf = encode(&meta, &streams);
        let cut = ((buf.len() as f64 * cut_frac) as usize).min(buf.len() - 1);
        let mut r = match TraceReader::open(&buf[..cut]) {
            Ok(r) => r,
            Err(_) => return Ok(()), // typed header error: fine
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
        prop_assert!(failed, "cut at {cut}/{} decoded as complete", buf.len());
    }

    /// Single-byte corruption anywhere either still decodes to *different*
    /// content than the original (the flip landed in data) or fails with a
    /// typed error — it never panics.
    #[test]
    fn single_byte_corruption_never_panics(
        meta in meta_strategy(),
        stream in stream_strategy(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let buf = encode(&meta, std::slice::from_ref(&stream));
        let pos = ((buf.len() as f64 * pos_frac) as usize).min(buf.len() - 1);
        let mut corrupt = buf.clone();
        corrupt[pos] ^= flip;
        let mut r = match TraceReader::open(&corrupt[..]) {
            Ok(r) => r,
            Err(_) => return Ok(()),
        };
        while let Ok(Some(_)) = r.next_stream() {
            if r.for_each_record(|_| {}).is_err() {
                break;
            }
        }
    }
}

#[test]
fn bad_magic_and_version_skew_are_typed() {
    let meta = TraceMeta {
        artifact: "t".into(),
        scale: "smoke".into(),
        seed: 0,
        spec_hash: 0,
        packet_budget: 0,
    };
    let good = encode(&meta, &[]);

    let mut wrong_magic = good.clone();
    wrong_magic[0] = b'X';
    assert!(matches!(
        TraceReader::open(&wrong_magic[..]).unwrap_err(),
        CodecError::BadMagic
    ));

    let mut future = good.clone();
    future[4] = 9;
    assert!(matches!(
        TraceReader::open(&future[..]).unwrap_err(),
        CodecError::UnsupportedVersion(9)
    ));

    assert!(matches!(
        TraceReader::open(&good[..2]).unwrap_err(),
        CodecError::Io(_)
    ));
}
