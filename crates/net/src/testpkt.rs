//! The study's test packet format (paper Section 4).
//!
//! "Within each trial, packets consisted of 256 32-bit words wrapped inside
//! UDP, IP, Ethernet, and modem framing. For each packet, the data words were
//! identical to facilitate identification even in the face of substantial
//! noise, and the data value was incremented between packets."
//!
//! The repetition is the clever part: even when many body bits are corrupted,
//! a majority vote across the 256 copies recovers the intended word, which
//! lets the analyzer (a) decide whether a damaged packet belongs to the test
//! series and (b) recover its sequence number. Truncated bodies are ambiguous
//! ("it is not possible to know which words are missing"), which is why the
//! paper reports exact bit-error syndromes only for damaged-but-not-truncated
//! packets.

use crate::ethernet::{EtherType, EthernetFrame};
use crate::ipv4::Ipv4Header;
use crate::udp::UdpHeader;
use crate::MacAddr;
use std::net::Ipv4Addr;

/// Number of 32-bit words in a test packet body.
pub(crate) const TEST_BODY_WORDS: usize = 256;
/// Number of body bytes (1024).
pub(crate) const TEST_BODY_BYTES: usize = TEST_BODY_WORDS * 4;
/// Number of body bits (8192) — the unit of the paper's "Bits Received" column.
pub const TEST_BODY_BITS: u64 = TEST_BODY_BYTES as u64 * 8;

/// UDP port the test stream uses (arbitrary; both ends agree).
pub const TEST_PORT: u16 = 5151;

/// Endpoint identity of a test station: its link and IP addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endpoint {
    /// Ethernet station address.
    pub mac: MacAddr,
    /// IPv4 address.
    pub ip: Ipv4Addr,
}

impl Endpoint {
    /// Conventional test endpoints: station `id` gets `02:00:00:00:00:id`
    /// and `10.0.0.id`.
    pub fn station(id: u8) -> Endpoint {
        Endpoint {
            mac: MacAddr::station(u16::from(id)),
            ip: Ipv4Addr::new(10, 0, 0, id),
        }
    }

    /// A *foreign* machine (an outsider from another building, a competing
    /// deployment): a different OUI entirely, so its addresses sit tens of
    /// bits away from every test endpoint and cannot be mistaken for a
    /// damaged test address.
    pub fn foreign(id: u8) -> Endpoint {
        Endpoint {
            mac: MacAddr([0x00, 0xA0, 0x24, 0x9C, 0x33, id]),
            ip: Ipv4Addr::new(192, 168, 77, id),
        }
    }
}

/// A test packet: a sequence number, encoded as 256 copies of a word derived
/// from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestPacket {
    /// Sequence number within the trial (word value = `seq`).
    pub seq: u32,
}

impl TestPacket {
    /// The 32-bit word this packet repeats. Identical to the sequence number;
    /// kept as a function so the mapping is in exactly one place.
    pub(crate) fn word(&self) -> u32 {
        self.seq
    }

    /// Renders the 1024-byte body: 256 big-endian copies of `TestPacket::word`.
    pub fn body(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(TEST_BODY_BYTES);
        self.write_body(&mut body);
        body
    }

    /// Appends the body to `out`.
    fn write_body(&self, out: &mut Vec<u8>) {
        let w = self.word().to_be_bytes();
        let start = out.len();
        out.resize(start + TEST_BODY_BYTES, 0);
        for word in out[start..].chunks_exact_mut(4) {
            word.copy_from_slice(&w);
        }
    }

    /// Builds the complete on-wire Ethernet frame (header, IP, UDP, body,
    /// FCS) from `src` to `dst`. The IP identification field carries the low
    /// 16 bits of the sequence number, as a secondary recovery hint.
    pub fn build_frame(&self, src: Endpoint, dst: Endpoint) -> Vec<u8> {
        let mut frame = Vec::with_capacity(TestPacket::frame_len());
        self.write_frame(src, dst, &mut frame);
        frame
    }

    /// [`TestPacket::build_frame`] in place: appends the frame to `out`
    /// without any intermediate buffer, so a caller reusing `out` allocates
    /// nothing.
    pub fn write_frame(&self, src: Endpoint, dst: Endpoint, out: &mut Vec<u8>) {
        let udp = UdpHeader::new(TEST_PORT, TEST_PORT, TEST_BODY_BYTES);
        let ip = Ipv4Header::udp(
            src.ip,
            dst.ip,
            (self.seq & 0xFFFF) as u16,
            usize::from(udp.length),
        );
        EthernetFrame::write_with(dst.mac, src.mac, EtherType::Ipv4, out, |out| {
            ip.write_header(out);
            udp.write_with(&ip, out, |out| self.write_body(out));
        });
    }

    /// Total frame length on the wire (constant for all test packets):
    /// 14 (eth) + 20 (ip) + 8 (udp) + 1024 (body) + 4 (fcs) = 1070 bytes.
    pub fn frame_len() -> usize {
        crate::ETHERNET_HEADER_LEN
            + crate::IPV4_HEADER_LEN
            + crate::UDP_HEADER_LEN
            + TEST_BODY_BYTES
            + crate::ETHERNET_TRAILER_LEN
    }

    /// Byte offset of the body within the frame.
    pub fn body_offset() -> usize {
        crate::ETHERNET_HEADER_LEN + crate::IPV4_HEADER_LEN + crate::UDP_HEADER_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Header;
    use crate::udp::UdpHeader;

    #[test]
    fn body_repeats_word() {
        let p = TestPacket { seq: 0xDEAD_BEEF };
        let body = p.body();
        assert_eq!(body.len(), TEST_BODY_BYTES);
        for chunk in body.chunks_exact(4) {
            assert_eq!(chunk, &0xDEAD_BEEFu32.to_be_bytes());
        }
    }

    #[test]
    fn frame_round_trips_through_all_layers() {
        let src = Endpoint::station(1);
        let dst = Endpoint::station(2);
        let p = TestPacket { seq: 12345 };
        let wire = p.build_frame(src, dst);
        assert_eq!(wire.len(), TestPacket::frame_len());

        let eth = EthernetFrame::parse(&wire).unwrap();
        assert!(eth.fcs_ok);
        assert_eq!(eth.src, src.mac);
        assert_eq!(eth.dst, dst.mac);
        let (ip, ip_off) = Ipv4Header::parse(&eth.payload).unwrap();
        assert!(ip.checksum_ok);
        assert_eq!(ip.ident, 12345);
        let (udp, udp_off) = UdpHeader::parse(&eth.payload[ip_off..], &ip).unwrap();
        assert!(udp.checksum_ok);
        assert_eq!(udp.dst_port, TEST_PORT);
        let body = &eth.payload[ip_off + udp_off..ip_off + udp_off + TEST_BODY_BYTES];
        assert_eq!(body, &p.body()[..]);
    }

    #[test]
    fn sequence_changes_body() {
        let a = TestPacket { seq: 1 }.body();
        let b = TestPacket { seq: 2 }.body();
        assert_ne!(a, b);
    }

    #[test]
    fn frame_len_is_1070() {
        assert_eq!(TestPacket::frame_len(), 1070);
    }

    #[test]
    fn body_offset_is_42() {
        assert_eq!(TestPacket::body_offset(), 42);
    }
}
