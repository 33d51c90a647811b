//! Ethernet II framing with the 802.3 frame check sequence.
//!
//! WaveLAN presents itself to the host as an Ethernet: the 82593 controller
//! does standard "framing, address recognition and filtering, CRC generation
//! and checking" (paper Section 2). The modem-level 16-bit network ID that
//! WaveLAN prepends on air is handled one layer down, in `wavelan-mac`; this
//! module covers the portion visible to the host driver.
//!
//! Layout (lengths in bytes):
//!
//! ```text
//! | dst 6 | src 6 | ethertype 2 | payload 46..1500 | FCS 4 |
//! ```
//!
//! The builder *always* appends a valid FCS; the parser reports — but does not
//! reject on — FCS failure, because the study's receiver runs with "automatic
//! CRC filtering" disabled so that damaged frames reach the trace.

use crate::crc32::crc32;
use crate::{MacAddr, ParseError};

/// Bytes of destination + source + ethertype.
pub const ETHERNET_HEADER_LEN: usize = 14;
/// Bytes of the trailing frame check sequence.
pub const ETHERNET_TRAILER_LEN: usize = 4;
/// Smallest payload a conforming frame may carry (padding applies below this).
pub const MIN_PAYLOAD: usize = 46;

/// Well-known ethertype values used by the testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4, `0x0800`.
    Ipv4,
    /// ARP, `0x0806` — the paper notes many "outsider" packets were ARP.
    Arp,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl EtherType {
    /// The on-wire 16-bit value.
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }

    /// Classifies an on-wire value.
    pub fn from_u16(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

/// A parsed view of an Ethernet II frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination station address.
    pub dst: MacAddr,
    /// Source station address.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
    /// Payload bytes (between header and FCS). May include padding.
    pub payload: Vec<u8>,
    /// Whether the trailing FCS verified against the received bytes.
    pub fcs_ok: bool,
}

impl EthernetFrame {
    /// Serializes a frame: header, payload (padded to the 46-byte minimum),
    /// and a freshly computed FCS.
    pub fn build(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(EthernetFrame::wire_len(payload.len()));
        EthernetFrame::write_with(dst, src, ethertype, &mut out, |out| {
            out.extend_from_slice(payload)
        });
        out
    }

    /// Appends a frame to `out` in place: the header, whatever
    /// `write_payload` appends, zero padding up to the 46-byte minimum, and
    /// the FCS over everything appended here (bytes already in `out` — a
    /// modem header, say — are left out of the FCS).
    pub fn write_with(
        dst: MacAddr,
        src: MacAddr,
        ethertype: EtherType,
        out: &mut Vec<u8>,
        write_payload: impl FnOnce(&mut Vec<u8>),
    ) {
        let start = out.len();
        out.extend_from_slice(dst.as_bytes());
        out.extend_from_slice(src.as_bytes());
        out.extend_from_slice(&ethertype.to_u16().to_be_bytes());
        write_payload(out);
        let payload_len = out.len() - start - ETHERNET_HEADER_LEN;
        out.resize(out.len() + MIN_PAYLOAD.saturating_sub(payload_len), 0);
        let fcs = crc32(&out[start..]);
        // The FCS is transmitted least-significant-byte first (802.3 bit order).
        out.extend_from_slice(&fcs.to_le_bytes());
    }

    /// On-wire length of a frame carrying `payload_len` payload bytes:
    /// header, padded payload and FCS.
    pub fn wire_len(payload_len: usize) -> usize {
        ETHERNET_HEADER_LEN + payload_len.max(MIN_PAYLOAD) + ETHERNET_TRAILER_LEN
    }

    /// Parses a frame, tolerating body damage. Only an outright short buffer
    /// (shorter than header + FCS) is an error; a bad FCS is reported through
    /// [`EthernetFrame::fcs_ok`].
    pub fn parse(bytes: &[u8]) -> Result<EthernetFrame, ParseError> {
        let min = ETHERNET_HEADER_LEN + ETHERNET_TRAILER_LEN;
        if bytes.len() < min {
            return Err(ParseError::Truncated {
                needed: min,
                got: bytes.len(),
            });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&bytes[0..6]);
        src.copy_from_slice(&bytes[6..12]);
        let ethertype = EtherType::from_u16(u16::from_be_bytes([bytes[12], bytes[13]]));
        let body_end = bytes.len() - ETHERNET_TRAILER_LEN;
        let payload = bytes[ETHERNET_HEADER_LEN..body_end].to_vec();
        let wire_fcs = u32::from_le_bytes([
            bytes[body_end],
            bytes[body_end + 1],
            bytes[body_end + 2],
            bytes[body_end + 3],
        ]);
        let fcs_ok = crc32(&bytes[..body_end]) == wire_fcs;
        Ok(EthernetFrame {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype,
            payload,
            fcs_ok,
        })
    }

    /// Verifies the trailing FCS without materializing the frame (no payload
    /// copy — usable from allocation-free streaming folds). Same acceptance
    /// rule as [`EthernetFrame::parse`]: only an outright short buffer is an
    /// error; the FCS verdict itself is the `Ok` value.
    pub fn check_fcs(bytes: &[u8]) -> Result<bool, ParseError> {
        let min = ETHERNET_HEADER_LEN + ETHERNET_TRAILER_LEN;
        if bytes.len() < min {
            return Err(ParseError::Truncated {
                needed: min,
                got: bytes.len(),
            });
        }
        let body_end = bytes.len() - ETHERNET_TRAILER_LEN;
        let wire_fcs = u32::from_le_bytes([
            bytes[body_end],
            bytes[body_end + 1],
            bytes[body_end + 2],
            bytes[body_end + 3],
        ]);
        Ok(crc32(&bytes[..body_end]) == wire_fcs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (MacAddr, MacAddr, Vec<u8>) {
        (
            MacAddr::station(1),
            MacAddr::station(2),
            (0u8..100).collect(),
        )
    }

    #[test]
    fn build_parse_round_trip() {
        let (dst, src, payload) = sample();
        let wire = EthernetFrame::build(dst, src, EtherType::Ipv4, &payload);
        let frame = EthernetFrame::parse(&wire).unwrap();
        assert_eq!(frame.dst, dst);
        assert_eq!(frame.src, src);
        assert_eq!(frame.ethertype, EtherType::Ipv4);
        assert_eq!(&frame.payload[..payload.len()], &payload[..]);
        assert!(frame.fcs_ok);
    }

    #[test]
    fn short_payload_is_padded() {
        let (dst, src, _) = sample();
        let wire = EthernetFrame::build(dst, src, EtherType::Arp, b"hi");
        assert_eq!(
            wire.len(),
            ETHERNET_HEADER_LEN + MIN_PAYLOAD + ETHERNET_TRAILER_LEN
        );
        let frame = EthernetFrame::parse(&wire).unwrap();
        assert_eq!(frame.payload.len(), MIN_PAYLOAD);
        assert_eq!(&frame.payload[..2], b"hi");
        assert!(frame.fcs_ok);
    }

    #[test]
    fn corrupted_body_fails_fcs_but_parses() {
        let (dst, src, payload) = sample();
        let mut wire = EthernetFrame::build(dst, src, EtherType::Ipv4, &payload);
        wire[20] ^= 0x40;
        let frame = EthernetFrame::parse(&wire).unwrap();
        assert!(!frame.fcs_ok);
    }

    #[test]
    fn corrupted_address_still_visible() {
        // Section 7.4: corrupted station addresses must still be observable.
        let (dst, src, payload) = sample();
        let mut wire = EthernetFrame::build(dst, src, EtherType::Ipv4, &payload);
        wire[0] ^= 0xFF;
        let frame = EthernetFrame::parse(&wire).unwrap();
        assert_ne!(frame.dst, dst);
        assert_eq!(frame.dst.bit_distance(&dst), 8);
        assert!(!frame.fcs_ok);
    }

    #[test]
    fn too_short_is_error() {
        let err = EthernetFrame::parse(&[0u8; 10]).unwrap_err();
        assert!(matches!(err, ParseError::Truncated { .. }));
    }

    #[test]
    fn check_fcs_agrees_with_parse() {
        let (dst, src, payload) = sample();
        let mut wire = EthernetFrame::build(dst, src, EtherType::Ipv4, &payload);
        assert_eq!(EthernetFrame::check_fcs(&wire), Ok(true));
        wire[20] ^= 0x40;
        assert_eq!(EthernetFrame::check_fcs(&wire), Ok(false));
        assert!(matches!(
            EthernetFrame::check_fcs(&wire[..10]),
            Err(ParseError::Truncated { .. })
        ));
    }

    #[test]
    fn ethertype_round_trip() {
        for et in [EtherType::Ipv4, EtherType::Arp, EtherType::Other(0x88cc)] {
            assert_eq!(EtherType::from_u16(et.to_u16()), et);
        }
    }
}
