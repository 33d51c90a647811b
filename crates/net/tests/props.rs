//! Property-based tests for the framing substrate.

use proptest::prelude::*;
use wavelan_net::checksum::{internet_checksum, Checksum};
use wavelan_net::crc32::crc32;
use wavelan_net::ethernet::{EtherType, EthernetFrame, MIN_PAYLOAD};
use wavelan_net::ipv4::Ipv4Header;
use wavelan_net::testpkt::{Endpoint, TestPacket, TEST_PORT};
use wavelan_net::udp::UdpHeader;
use wavelan_net::MacAddr;

/// Arbitrary link and IP addresses.
fn endpoint() -> impl Strategy<Value = Endpoint> {
    (any::<[u8; 6]>(), any::<u32>()).prop_map(|(mac, ip)| Endpoint {
        mac: MacAddr(mac),
        ip: std::net::Ipv4Addr::from(ip),
    })
}

/// The test frame composed layer by layer from whole buffers: the oracle
/// for the in-place writer.
fn layered_test_frame(seq: u32, src: Endpoint, dst: Endpoint) -> Vec<u8> {
    let body = TestPacket { seq }.body();
    let udp = UdpHeader::new(TEST_PORT, TEST_PORT, body.len());
    let ip = Ipv4Header::udp(
        src.ip,
        dst.ip,
        (seq & 0xFFFF) as u16,
        usize::from(udp.length),
    );
    let udp_bytes = udp.build(&ip, &body);
    let ip_bytes = ip.build(&udp_bytes);
    EthernetFrame::build(dst.mac, src.mac, EtherType::Ipv4, &ip_bytes)
}

proptest! {
    /// CRC-32 detects every single-bit error, at any position and length.
    #[test]
    fn crc_detects_any_single_bit_flip(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        pos in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let base = crc32(&data);
        let mut flipped = data.clone();
        let idx = pos.index(data.len());
        flipped[idx] ^= 1 << bit;
        prop_assert_ne!(crc32(&flipped), base);
    }

    /// CRC-32 incremental updates are split-invariant.
    #[test]
    fn crc_split_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        cut in any::<proptest::sample::Index>(),
    ) {
        let cut = if data.is_empty() { 0 } else { cut.index(data.len() + 1) };
        let mut c = wavelan_net::crc32::Crc32::new();
        c.update(&data[..cut]);
        c.update(&data[cut..]);
        prop_assert_eq!(c.finish(), crc32(&data));
    }

    /// The internet checksum verifies after being stored, for any payload.
    #[test]
    fn checksum_store_then_verify(mut data in proptest::collection::vec(any::<u8>(), 12..256)) {
        // zero the checksum slot, compute, store, verify
        data[10] = 0;
        data[11] = 0;
        let ck = internet_checksum(&data);
        data[10..12].copy_from_slice(&ck.to_be_bytes());
        prop_assert_eq!(internet_checksum(&data), 0);
    }

    /// Checksum is split-invariant across arbitrary (possibly odd) boundaries.
    #[test]
    fn checksum_split_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..256),
        cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..4),
    ) {
        let mut idxs: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
        idxs.sort_unstable();
        let mut c = Checksum::new();
        let mut start = 0;
        for &i in &idxs {
            c.update(&data[start..i]);
            start = i;
        }
        c.update(&data[start..]);
        prop_assert_eq!(c.finish(), internet_checksum(&data));
    }

    /// Ethernet build→parse is the identity on (dst, src, ethertype, payload),
    /// modulo minimum-length padding, and the FCS verifies.
    #[test]
    fn ethernet_round_trip(
        dst in any::<[u8; 6]>(),
        src in any::<[u8; 6]>(),
        et in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1500),
    ) {
        let dst = MacAddr(dst);
        let src = MacAddr(src);
        let wire = EthernetFrame::build(dst, src, EtherType::from_u16(et), &payload);
        let f = EthernetFrame::parse(&wire).unwrap();
        prop_assert!(f.fcs_ok);
        prop_assert_eq!(f.dst, dst);
        prop_assert_eq!(f.src, src);
        prop_assert_eq!(f.ethertype.to_u16(), et);
        prop_assert_eq!(&f.payload[..payload.len()], &payload[..]);
        prop_assert_eq!(f.payload.len(), payload.len().max(MIN_PAYLOAD));
    }

    /// Any single-bit corruption of an Ethernet frame body is caught by the FCS.
    #[test]
    fn ethernet_fcs_catches_bit_flip(
        payload in proptest::collection::vec(any::<u8>(), 46..200),
        pos in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let wire = EthernetFrame::build(
            MacAddr::station(1), MacAddr::station(2), EtherType::Ipv4, &payload);
        let mut damaged = wire.clone();
        let idx = pos.index(wire.len());
        damaged[idx] ^= 1 << bit;
        let f = EthernetFrame::parse(&damaged).unwrap();
        prop_assert!(!f.fcs_ok);
    }

    /// UDP-in-IPv4 build→parse round-trips and both checksums verify.
    #[test]
    fn udp_ip_round_trip(
        sport in any::<u16>(),
        dport in any::<u16>(),
        ident in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let udp = UdpHeader::new(sport, dport, payload.len());
        let ip = Ipv4Header::udp(
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            std::net::Ipv4Addr::new(10, 0, 0, 2),
            ident,
            usize::from(udp.length),
        );
        let udp_bytes = udp.build(&ip, &payload);
        let wire = ip.build(&udp_bytes);

        let (pip, off) = Ipv4Header::parse(&wire).unwrap();
        prop_assert!(pip.checksum_ok);
        prop_assert_eq!(pip.ident, ident);
        let (pudp, poff) = UdpHeader::parse(&wire[off..], &pip).unwrap();
        prop_assert!(pudp.checksum_ok);
        prop_assert_eq!(pudp.src_port, sport);
        prop_assert_eq!(pudp.dst_port, dport);
        prop_assert_eq!(&wire[off + poff..], &payload[..]);
    }

    /// `write_frame` appends exactly the layered composition's bytes, after
    /// whatever the buffer already held, and `frame_len` is their length.
    #[test]
    fn write_frame_matches_layered_composition(
        seq in any::<u32>(),
        src in endpoint(),
        dst in endpoint(),
        prefix in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        let mut out = prefix.clone();
        TestPacket { seq }.write_frame(src, dst, &mut out);
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        let written = &out[prefix.len()..];
        prop_assert_eq!(written, &layered_test_frame(seq, src, dst)[..]);
        prop_assert_eq!(written.len(), TestPacket::frame_len());
        prop_assert_eq!(TestPacket { seq }.build_frame(src, dst), written.to_vec());
    }

    /// An Ethernet frame written in place around a payload of any length
    /// (padded below the minimum) equals the built one, covers only its
    /// own bytes with the FCS, and is `wire_len` long.
    #[test]
    fn ethernet_write_with_matches_build(
        dst in any::<[u8; 6]>(),
        src in any::<[u8; 6]>(),
        et in any::<u16>(),
        payload_len in 0usize..=1500,
        fill in any::<u8>(),
        prefix in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        let (dst, src, et) = (MacAddr(dst), MacAddr(src), EtherType::from_u16(et));
        let payload = vec![fill; payload_len];
        let mut out = prefix.clone();
        EthernetFrame::write_with(dst, src, et, &mut out, |out| out.extend_from_slice(&payload));
        let written = &out[prefix.len()..];
        prop_assert_eq!(written, &EthernetFrame::build(dst, src, et, &payload)[..]);
        prop_assert_eq!(written.len(), EthernetFrame::wire_len(payload_len));
        prop_assert_eq!(EthernetFrame::check_fcs(written), Ok(true));
    }

    /// Every test packet's frame parses cleanly and its body majority word is
    /// exactly the sequence number.
    #[test]
    fn test_packet_identity(seq in any::<u32>()) {
        let p = TestPacket { seq };
        let wire = p.build_frame(Endpoint::station(1), Endpoint::station(2));
        let f = EthernetFrame::parse(&wire).unwrap();
        prop_assert!(f.fcs_ok);
        let body = &wire[TestPacket::body_offset()..wire.len() - 4];
        for chunk in body.chunks_exact(4) {
            prop_assert_eq!(u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]), seq);
        }
    }
}
