//! The modem control unit's 16-bit network ID.
//!
//! Paper Section 2: "The modem control unit prepends a 16-bit 'network ID' to
//! every packet on transmit, and can be set to reject all but one network ID
//! on receive. ... the 'network ID' provides multiple logical Ethernet
//! address spaces, which allows WaveLAN-to-Ethernet bridges to use standard
//! bridge routing protocols."

/// Bytes of modem framing prepended to the Ethernet frame.
pub const NETWORK_ID_LEN: usize = 2;

/// A 16-bit WaveLAN network identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetworkId(pub u16);

impl NetworkId {
    /// The identifier used by the reproduction testbed by default.
    pub const TESTBED: NetworkId = NetworkId(0xCA_FE);
}

impl core::fmt::Display for NetworkId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:04x}", self.0)
    }
}

/// Prepends the network ID to an Ethernet frame, producing the on-air bytes.
pub fn wrap_with_network_id(id: NetworkId, ethernet_frame: &[u8]) -> Vec<u8> {
    let mut wire = Vec::with_capacity(NETWORK_ID_LEN + ethernet_frame.len());
    wire.extend_from_slice(&id.0.to_be_bytes());
    wire.extend_from_slice(ethernet_frame);
    wire
}

/// Splits the on-air bytes back into `(network id, ethernet frame)`. Returns
/// `None` only when even the 2-byte header is missing (a packet truncated
/// that early never reaches the controller).
pub fn strip_network_id(wire: &[u8]) -> Option<(NetworkId, &[u8])> {
    if wire.len() < NETWORK_ID_LEN {
        return None;
    }
    let id = NetworkId(u16::from_be_bytes([wire[0], wire[1]]));
    Some((id, &wire[NETWORK_ID_LEN..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_strip_round_trip() {
        let frame = vec![1u8, 2, 3, 4, 5];
        let wire = wrap_with_network_id(NetworkId(0xBEEF), &frame);
        assert_eq!(wire.len(), frame.len() + NETWORK_ID_LEN);
        let (id, inner) = strip_network_id(&wire).unwrap();
        assert_eq!(id, NetworkId(0xBEEF));
        assert_eq!(inner, &frame[..]);
    }

    #[test]
    fn too_short_wire_is_rejected() {
        assert!(strip_network_id(&[0x12]).is_none());
        assert!(strip_network_id(&[]).is_none());
        // Exactly two bytes: valid, empty frame.
        let (id, inner) = strip_network_id(&[0x00, 0x07]).unwrap();
        assert_eq!(id, NetworkId(7));
        assert!(inner.is_empty());
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(NetworkId(0xCAFE).to_string(), "cafe");
    }
}
