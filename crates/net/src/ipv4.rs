//! IPv4 header construction and parsing.
//!
//! The test traffic in the paper is UDP-over-IPv4-over-Ethernet. We implement
//! the 20-byte option-less header (the testbed never emits options; the parser
//! tolerates but skips them), including the internet checksum, so that header
//! corruption manifests exactly as in the study: "errors in the packet headers
//! ... might lead the Ethernet or IP layers to discard the packet" (Section 4).

use crate::checksum::{internet_checksum, Checksum};
use crate::ParseError;
use std::net::Ipv4Addr;

/// Length of an option-less IPv4 header.
pub const IPV4_HEADER_LEN: usize = 20;

/// IP protocol number for UDP.
pub(crate) const PROTO_UDP: u8 = 17;

/// A parsed (or to-be-built) IPv4 header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol (17 = UDP).
    pub protocol: u8,
    /// Time to live.
    pub ttl: u8,
    /// Identification field (we use the test sequence number's low 16 bits).
    pub ident: u16,
    /// Total length: header plus payload, in bytes.
    pub total_len: u16,
    /// Whether the header checksum verified on parse (always true for built headers).
    pub checksum_ok: bool,
}

impl Ipv4Header {
    /// Creates a UDP header template with conventional defaults.
    pub fn udp(src: Ipv4Addr, dst: Ipv4Addr, ident: u16, payload_len: usize) -> Ipv4Header {
        Ipv4Header {
            src,
            dst,
            protocol: PROTO_UDP,
            ttl: 64,
            ident,
            total_len: (IPV4_HEADER_LEN + payload_len) as u16,
            checksum_ok: true,
        }
    }

    /// Serializes the header (20 bytes) with a correct checksum and appends
    /// `payload` after it.
    pub fn build(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(IPV4_HEADER_LEN + payload.len());
        self.write_header(&mut out);
        out.extend_from_slice(payload);
        out
    }

    /// Appends the 20-byte header, checksum filled in, to `out`.
    pub(crate) fn write_header(&self, out: &mut Vec<u8>) {
        let mut h = [0u8; IPV4_HEADER_LEN];
        h[0] = 0x45; // version 4, IHL 5; h[1] = DSCP/ECN 0
        h[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        h[4..6].copy_from_slice(&self.ident.to_be_bytes());
        h[6..8].copy_from_slice(&0x4000u16.to_be_bytes()); // don't-fragment, offset 0
        h[8] = self.ttl;
        h[9] = self.protocol;
        // h[10..12]: checksum, computed over the header with this slot zero.
        h[12..16].copy_from_slice(&self.src.octets());
        h[16..20].copy_from_slice(&self.dst.octets());
        let ck = internet_checksum(&h);
        h[10..12].copy_from_slice(&ck.to_be_bytes());
        out.extend_from_slice(&h);
    }

    /// Parses the header from the front of `bytes`; returns the header and the
    /// offset at which the payload begins. A checksum mismatch is reported in
    /// [`Ipv4Header::checksum_ok`] rather than as an error, mirroring the
    /// study's promiscuous, filter-everything-off receiver.
    pub fn parse(bytes: &[u8]) -> Result<(Ipv4Header, usize), ParseError> {
        if bytes.len() < IPV4_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: IPV4_HEADER_LEN,
                got: bytes.len(),
            });
        }
        let version = bytes[0] >> 4;
        if version != 4 {
            return Err(ParseError::BadField { field: "version" });
        }
        let ihl = usize::from(bytes[0] & 0x0F) * 4;
        if !(IPV4_HEADER_LEN..=60).contains(&ihl) || bytes.len() < ihl {
            return Err(ParseError::BadField { field: "ihl" });
        }
        let total_len = u16::from_be_bytes([bytes[2], bytes[3]]);
        let ident = u16::from_be_bytes([bytes[4], bytes[5]]);
        let ttl = bytes[8];
        let protocol = bytes[9];
        let src = Ipv4Addr::new(bytes[12], bytes[13], bytes[14], bytes[15]);
        let dst = Ipv4Addr::new(bytes[16], bytes[17], bytes[18], bytes[19]);
        let checksum_ok = internet_checksum(&bytes[..ihl]) == 0;
        Ok((
            Ipv4Header {
                src,
                dst,
                protocol,
                ttl,
                ident,
                total_len,
                checksum_ok,
            },
            ihl,
        ))
    }

    /// Computes the UDP/TCP pseudo-header checksum contribution for this
    /// header and a payload of `len` bytes.
    pub(crate) fn pseudo_header_checksum(&self, len: u16) -> Checksum {
        let mut c = Checksum::new();
        c.update(&self.src.octets());
        c.update(&self.dst.octets());
        c.update_u16(u16::from(self.protocol));
        c.update_u16(len);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr() -> Ipv4Header {
        Ipv4Header::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            42,
            100,
        )
    }

    #[test]
    fn build_parse_round_trip() {
        let payload = vec![0xAAu8; 100];
        let wire = hdr().build(&payload);
        let (parsed, off) = Ipv4Header::parse(&wire).unwrap();
        assert_eq!(off, IPV4_HEADER_LEN);
        assert_eq!(parsed.src, hdr().src);
        assert_eq!(parsed.dst, hdr().dst);
        assert_eq!(parsed.ident, 42);
        assert_eq!(parsed.protocol, PROTO_UDP);
        assert!(parsed.checksum_ok);
        assert_eq!(&wire[off..], &payload[..]);
    }

    #[test]
    fn corrupted_header_fails_checksum() {
        let wire = hdr().build(&[]);
        let mut damaged = wire.clone();
        damaged[8] ^= 0x10; // TTL bit flip
        let (parsed, _) = Ipv4Header::parse(&damaged).unwrap();
        assert!(!parsed.checksum_ok);
    }

    #[test]
    fn wrong_version_rejected() {
        let mut wire = hdr().build(&[]);
        wire[0] = 0x65;
        assert!(matches!(
            Ipv4Header::parse(&wire),
            Err(ParseError::BadField { field: "version" })
        ));
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(matches!(
            Ipv4Header::parse(&[0x45; 8]),
            Err(ParseError::Truncated { .. })
        ));
    }

    #[test]
    fn total_len_counts_header() {
        let h = Ipv4Header::udp(Ipv4Addr::LOCALHOST, Ipv4Addr::LOCALHOST, 0, 8);
        assert_eq!(h.total_len, 28);
    }
}
