//! Property-based tests for the simulator substrates.

use proptest::prelude::*;
use wavelan_mac::network_id::{wrap_with_network_id, NetworkId};
use wavelan_net::testpkt::{Endpoint, TestPacket};
use wavelan_net::{EtherType, EthernetFrame, MacAddr};
use wavelan_phy::Material;
use wavelan_sim::frame::FrameRecipe;
use wavelan_sim::geometry::{Point, Segment};
use wavelan_sim::station::FrameKind;
use wavelan_sim::trace::{GroundTruth, Trace, TraceRecord};
use wavelan_sim::tracefile::{read_trace, write_trace};
use wavelan_sim::{FloorPlan, Propagation};

/// Strategy for arbitrary trace records.
fn record_strategy() -> impl Strategy<Value = TraceRecord> {
    (
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..300),
        0u32..=2000,
        any::<u8>(),
        any::<u8>(),
        1u8..=15,
        0u8..=1,
        proptest::option::of((
            any::<u16>(),
            proptest::option::of(any::<u32>()),
            any::<u32>(),
            any::<bool>(),
        )),
    )
        .prop_map(
            |(time_ns, bytes, wire_len, level, silence, quality, antenna, truth)| TraceRecord {
                time_ns,
                bytes,
                wire_len,
                level,
                silence,
                quality,
                antenna,
                truth: truth.map(|(src, seq, corrupted_bits, truncated)| GroundTruth {
                    src_station: usize::from(src),
                    seq,
                    corrupted_bits,
                    truncated,
                }),
            },
        )
}

/// Arbitrary link and IP addresses.
fn endpoint() -> impl Strategy<Value = Endpoint> {
    (any::<[u8; 6]>(), any::<u32>()).prop_map(|(mac, ip)| Endpoint {
        mac: MacAddr(mac),
        ip: std::net::Ipv4Addr::from(ip),
    })
}

/// Every frame kind, with sized bodies of 0..=1500 bytes.
fn frame_kind() -> impl Strategy<Value = FrameKind> {
    (0u8..4, 0u16..=1500).prop_map(|(pick, bytes)| match pick {
        0 => FrameKind::Test,
        1 => FrameKind::Chatter,
        _ => FrameKind::Sized { bytes },
    })
}

/// A recipe's frame composed from whole buffers — the layered builders
/// plus the modem's network-ID wrapper: the oracle for the in-place writer.
fn layered_frame(r: &FrameRecipe) -> Vec<u8> {
    let tagged = |len: usize| {
        let mut body = vec![0u8; len.max(46)];
        body[..4].copy_from_slice(&r.seq.to_be_bytes());
        body[4..10].copy_from_slice(r.src.mac.as_bytes());
        body
    };
    let eth = match r.kind {
        FrameKind::Test => TestPacket { seq: r.seq }.build_frame(r.src, r.dst),
        FrameKind::Chatter => {
            EthernetFrame::build(MacAddr::BROADCAST, r.src.mac, EtherType::Arp, &tagged(512))
        }
        FrameKind::Sized { bytes } => EthernetFrame::build(
            r.dst.mac,
            r.src.mac,
            EtherType::Other(0x88B5),
            &tagged(usize::from(bytes)),
        ),
    };
    wrap_with_network_id(r.network_id, &eth)
}

proptest! {
    /// A frame recipe writes exactly the layered composition's bytes, after
    /// whatever the buffer already held, and `wire_len` is their length.
    #[test]
    fn recipe_writes_the_layered_frame(
        kind in frame_kind(),
        src in endpoint(),
        dst in endpoint(),
        network_id in any::<u16>(),
        seq in any::<u32>(),
        prefix in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        let recipe = FrameRecipe { kind, src, dst, network_id: NetworkId(network_id), seq };
        let mut out = prefix.clone();
        recipe.write(&mut out);
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&out[prefix.len()..], &layered_frame(&recipe)[..]);
        prop_assert_eq!(out.len() - prefix.len(), recipe.wire_len());
    }

    /// The WLTR trace format round-trips arbitrary traces bit-exactly.
    #[test]
    fn tracefile_round_trip(
        records in proptest::collection::vec(record_strategy(), 0..40),
        transmitted in any::<u64>(),
        dropped in any::<u64>(),
    ) {
        let trace = Trace {
            records,
            packets_transmitted: transmitted,
            packets_dropped_by_mac: dropped,
        };
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        prop_assert_eq!(read_trace(&buf[..]).unwrap(), trace);
    }

    /// Segment intersection is symmetric.
    #[test]
    fn intersection_is_symmetric(
        ax in -50.0f64..50.0, ay in -50.0f64..50.0,
        bx in -50.0f64..50.0, by in -50.0f64..50.0,
        cx in -50.0f64..50.0, cy in -50.0f64..50.0,
        dx in -50.0f64..50.0, dy in -50.0f64..50.0,
    ) {
        let s1 = Segment::new(Point::new(ax, ay), Point::new(bx, by));
        let s2 = Segment::new(Point::new(cx, cy), Point::new(dx, dy));
        prop_assert_eq!(s1.intersects(&s2), s2.intersects(&s1));
        // A segment always intersects itself (shared endpoints).
        prop_assert!(s1.intersects(&s1));
    }

    /// Distance is a metric: symmetric, zero iff same point (a.e.), and the
    /// triangle inequality holds.
    #[test]
    fn distance_is_a_metric(
        ax in -100.0f64..100.0, ay in -100.0f64..100.0,
        bx in -100.0f64..100.0, by in -100.0f64..100.0,
        cx in -100.0f64..100.0, cy in -100.0f64..100.0,
    ) {
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        let c = Point::new(cx, cy);
        prop_assert!((a.distance(b) - b.distance(a)).abs() < 1e-9);
        prop_assert!(a.distance(b) + b.distance(c) + 1e-9 >= a.distance(c));
        prop_assert!(a.distance(a) < 1e-12);
    }

    /// Received power is reciprocal (same both directions) and monotone
    /// non-increasing when a wall is added to the path.
    #[test]
    fn propagation_reciprocity_and_wall_monotonicity(
        seed in any::<u64>(),
        ax in -30.0f64..30.0, ay in -30.0f64..30.0,
        bx in -30.0f64..30.0, by in -30.0f64..30.0,
    ) {
        prop_assume!((ax - bx).abs() > 1.0); // distinct, with a crossable midline
        let prop_model = Propagation::indoor(seed);
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        let open = FloorPlan::open();
        let p_ab = prop_model.wavelan_rx_dbm(a, b, &open);
        let p_ba = prop_model.wavelan_rx_dbm(b, a, &open);
        prop_assert!((p_ab - p_ba).abs() < 1e-9, "{p_ab} vs {p_ba}");

        // A wall crossing the midpoint vertical always attenuates.
        let mid_x = (ax + bx) / 2.0;
        let walled = FloorPlan::open().with_wall(
            Segment::new(Point::new(mid_x, -1000.0), Point::new(mid_x, 1000.0)),
            Material::ConcreteBlock,
        );
        let p_walled = prop_model.wavelan_rx_dbm(a, b, &walled);
        prop_assert!(p_walled <= p_ab - 2.9, "{p_walled} vs {p_ab}");
    }
}
