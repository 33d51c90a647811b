//! UDP header construction and parsing, including the pseudo-header checksum.

use crate::ipv4::Ipv4Header;
use crate::ParseError;

/// Length of the UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A parsed (or to-be-built) UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length field: header plus payload.
    pub length: u16,
    /// Whether the checksum verified on parse (true when the sender elided it).
    pub checksum_ok: bool,
}

impl UdpHeader {
    /// Creates a header for a payload of `payload_len` bytes.
    pub fn new(src_port: u16, dst_port: u16, payload_len: usize) -> UdpHeader {
        UdpHeader {
            src_port,
            dst_port,
            length: (UDP_HEADER_LEN + payload_len) as u16,
            checksum_ok: true,
        }
    }

    /// Serializes header + payload with a checksum computed over the IPv4
    /// pseudo-header, per RFC 768. A computed checksum of zero is transmitted
    /// as `0xFFFF`.
    pub fn build(&self, ip: &Ipv4Header, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(UDP_HEADER_LEN + payload.len());
        self.write_with(ip, &mut out, |out| out.extend_from_slice(payload));
        out
    }

    /// [`UdpHeader::build`] in place: appends the header, whatever
    /// `write_payload` appends, and then fills in the checksum over the
    /// pseudo-header and the datagram just written.
    pub(crate) fn write_with(
        &self,
        ip: &Ipv4Header,
        out: &mut Vec<u8>,
        write_payload: impl FnOnce(&mut Vec<u8>),
    ) {
        let start = out.len();
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.length.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        write_payload(out);
        let mut ck = ip.pseudo_header_checksum(self.length);
        ck.update(&out[start..]);
        let value = match ck.finish() {
            0 => 0xFFFF,
            v => v,
        };
        out[start + 6..start + 8].copy_from_slice(&value.to_be_bytes());
    }

    /// Parses the header from the front of `bytes` and verifies the checksum
    /// against the given IP header. Returns the header and payload offset.
    pub fn parse(bytes: &[u8], ip: &Ipv4Header) -> Result<(UdpHeader, usize), ParseError> {
        if bytes.len() < UDP_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: UDP_HEADER_LEN,
                got: bytes.len(),
            });
        }
        let src_port = u16::from_be_bytes([bytes[0], bytes[1]]);
        let dst_port = u16::from_be_bytes([bytes[2], bytes[3]]);
        let length = u16::from_be_bytes([bytes[4], bytes[5]]);
        let wire_ck = u16::from_be_bytes([bytes[6], bytes[7]]);
        let checksum_ok = if wire_ck == 0 {
            true // sender elided the checksum
        } else if usize::from(length) > bytes.len() || usize::from(length) < UDP_HEADER_LEN {
            false // can't even cover the claimed region; treat as damage
        } else {
            let mut ck = ip.pseudo_header_checksum(length);
            ck.update(&bytes[..usize::from(length)]);
            ck.finish() == 0
        };
        Ok((
            UdpHeader {
                src_port,
                dst_port,
                length,
                checksum_ok,
            },
            UDP_HEADER_LEN,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip_for(len: usize) -> Ipv4Header {
        Ipv4Header::udp(
            Ipv4Addr::new(192, 168, 1, 1),
            Ipv4Addr::new(192, 168, 1, 2),
            7,
            UDP_HEADER_LEN + len,
        )
    }

    #[test]
    fn build_parse_round_trip() {
        let payload = b"wavelan test body";
        let ip = ip_for(payload.len());
        let udp = UdpHeader::new(5001, 5002, payload.len());
        let wire = udp.build(&ip, payload);
        let (parsed, off) = UdpHeader::parse(&wire, &ip).unwrap();
        assert_eq!(parsed.src_port, 5001);
        assert_eq!(parsed.dst_port, 5002);
        assert_eq!(parsed.length as usize, wire.len());
        assert!(parsed.checksum_ok);
        assert_eq!(&wire[off..], payload);
    }

    #[test]
    fn payload_corruption_detected() {
        let payload = vec![7u8; 64];
        let ip = ip_for(payload.len());
        let mut wire = UdpHeader::new(1, 2, payload.len()).build(&ip, &payload);
        wire[20] ^= 0x80;
        let (parsed, _) = UdpHeader::parse(&wire, &ip).unwrap();
        assert!(!parsed.checksum_ok);
    }

    #[test]
    fn elided_checksum_accepted() {
        let payload = vec![1u8; 16];
        let ip = ip_for(payload.len());
        let mut wire = UdpHeader::new(1, 2, payload.len()).build(&ip, &payload);
        wire[6] = 0;
        wire[7] = 0;
        let (parsed, _) = UdpHeader::parse(&wire, &ip).unwrap();
        assert!(parsed.checksum_ok);
    }

    #[test]
    fn truncated_datagram_fails_checksum() {
        // A mid-body truncation (the paper's most common damage mode under
        // spread-spectrum interference) must not verify.
        let payload = vec![3u8; 128];
        let ip = ip_for(payload.len());
        let wire = UdpHeader::new(9, 9, payload.len()).build(&ip, &payload);
        let cut = &wire[..wire.len() - 40];
        let (parsed, _) = UdpHeader::parse(cut, &ip).unwrap();
        assert!(!parsed.checksum_ok);
    }

    #[test]
    fn short_buffer_rejected() {
        let ip = ip_for(0);
        assert!(matches!(
            UdpHeader::parse(&[0u8; 4], &ip),
            Err(ParseError::Truncated { .. })
        ));
    }
}
