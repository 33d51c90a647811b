//! The internet checksum (RFC 1071), used by the IPv4 header and UDP.
//!
//! The ones'-complement sum has properties the analysis pipeline relies on:
//! it is order-independent across 16-bit words, and a frame whose checksum
//! field was corrupted in flight will (very likely) fail verification, which
//! the paper's receiver treats as "wrapper damage".

/// Incremental ones'-complement checksum state.
///
/// Feed it byte slices (odd-length slices are handled by buffering the
/// dangling byte) and call [`Checksum::finish`] for the final 16-bit value.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    /// 32-bit accumulator; folded on demand.
    sum: u32,
    /// A pending odd byte from a previous `update`, if any.
    pending: Option<u8>,
}

impl Checksum {
    /// Starts a fresh computation.
    pub fn new() -> Checksum {
        Checksum::default()
    }

    /// Folds `data` into the running sum.
    pub fn update(&mut self, data: &[u8]) {
        let mut data = data;
        if let Some(hi) = self.pending.take() {
            if let Some((&lo, rest)) = data.split_first() {
                self.sum += u32::from(u16::from_be_bytes([hi, lo]));
                data = rest;
            } else {
                self.pending = Some(hi);
                return;
            }
        }
        let mut chunks = data.chunks_exact(2);
        for chunk in &mut chunks {
            self.sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [odd] = chunks.remainder() {
            self.pending = Some(*odd);
        }
    }

    /// Folds a single big-endian 16-bit word into the sum.
    pub(crate) fn update_u16(&mut self, word: u16) {
        self.update(&word.to_be_bytes());
    }

    /// Finishes the computation: pads a dangling byte with zero, folds the
    /// carries, and complements. Returns the value to *store* in a checksum
    /// field.
    pub fn finish(mut self) -> u16 {
        if let Some(hi) = self.pending.take() {
            self.sum += u32::from(u16::from_be_bytes([hi, 0]));
        }
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// One-shot internet checksum of a byte slice.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_worked_example() {
        // The worked example from RFC 1071 section 3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold -> 0xddf2
        assert_eq!(internet_checksum(&data), !0xddf2u16);
    }

    #[test]
    fn verify_round_trip() {
        let mut data = vec![
            0x45u8, 0x00, 0x00, 0x54, 0xbe, 0xef, 0x40, 0x00, 0x40, 0x11, 0, 0,
        ];
        data.extend_from_slice(&[10, 0, 0, 1, 10, 0, 0, 2]);
        let ck = internet_checksum(&data);
        data[10..12].copy_from_slice(&ck.to_be_bytes());
        // A region that includes its stored checksum sums to zero.
        assert_eq!(internet_checksum(&data), 0);
    }

    #[test]
    fn odd_length_handled() {
        let data = [1u8, 2, 3];
        // 0x0102 + 0x0300 = 0x0402
        assert_eq!(internet_checksum(&data), !0x0402u16);
    }

    #[test]
    fn split_updates_match_oneshot() {
        let data: Vec<u8> = (0..=255u8).collect();
        for split in [0usize, 1, 7, 128, 255, 256] {
            let mut c = Checksum::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), internet_checksum(&data), "split at {split}");
        }
    }

    #[test]
    fn odd_then_odd_updates() {
        let mut c = Checksum::new();
        c.update(&[0xAB]);
        c.update(&[0xCD]);
        assert_eq!(c.finish(), internet_checksum(&[0xAB, 0xCD]));
    }

    #[test]
    fn corrupted_data_fails_verify() {
        let mut data = vec![0u8; 20];
        data[0] = 0x45;
        let ck = internet_checksum(&data);
        data[10..12].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(internet_checksum(&data), 0);
        data[4] ^= 0x01;
        assert_ne!(internet_checksum(&data), 0);
    }
}
