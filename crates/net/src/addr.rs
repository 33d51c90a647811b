//! Ethernet (MAC) addresses.
//!
//! WaveLAN carries standard Ethernet addressing: the Intel 82593 controller
//! "performs all standard Ethernet functions, including ... address recognition
//! and filtering" (paper Section 2). The study's receivers run promiscuous, so
//! the analysis side also needs to reason about *corrupted* addresses — e.g.
//! Section 7.4 observes "hundreds of invalid Ethernet addresses ... indicating
//! that the Ethernet station address field was frequently corrupted".

/// A 48-bit IEEE 802 MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The all-ones broadcast address.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Builds a locally-administered unicast address from a small station id,
    /// mirroring the `02-00-00-00-00-xx` convention used by test harnesses.
    pub fn station(id: u16) -> MacAddr {
        let [hi, lo] = id.to_be_bytes();
        MacAddr([0x02, 0x00, 0x00, 0x00, hi, lo])
    }

    /// Bytes in transmission order.
    pub fn as_bytes(&self) -> &[u8; 6] {
        &self.0
    }

    /// Hamming distance in bits to another address. The heuristic matcher in
    /// `wavelan-analysis` uses this to recognize a known station address that
    /// arrived with a few corrupted bits.
    pub fn bit_distance(&self, other: &MacAddr) -> u32 {
        self.0
            .iter()
            .zip(other.0.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }
}

impl core::fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::Display::fmt(self, f)
    }
}

impl core::fmt::Display for MacAddr {
    /// Writes the canonical colon-separated hex form, e.g. `02:00:00:00:00:01`.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(b: [u8; 6]) -> Self {
        MacAddr(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn station_address_carries_the_id() {
        let a = MacAddr::station(7);
        assert_eq!(a.0[5], 7);
    }

    #[test]
    fn display_formats_colon_hex() {
        let a = MacAddr([0x02, 0x00, 0xab, 0xcd, 0x00, 0x01]);
        assert_eq!(a.to_string(), "02:00:ab:cd:00:01");
    }

    #[test]
    fn bit_distance_counts_flipped_bits() {
        let a = MacAddr::station(1);
        let mut b = a;
        b.0[0] ^= 0b101;
        b.0[5] ^= 0b1;
        assert_eq!(a.bit_distance(&b), 3);
        assert_eq!(a.bit_distance(&a), 0);
    }

    #[test]
    fn distinct_station_ids_differ() {
        assert_ne!(MacAddr::station(1), MacAddr::station(2));
    }
}
