//! Per-trial aggregation into the paper's Table 1 column set.
//!
//! | Column            | Meaning (paper Table 1)                                 |
//! |-------------------|---------------------------------------------------------|
//! | Packets Received  | Test packets received                                   |
//! | Packet Loss       | Percentage of transmitted test packets that were lost   |
//! | Packets Truncated | Number of received test packets which were truncated    |
//! | Bits Received     | Number of *body* bits received, rounded down            |
//! | Wrapper Damaged   | Number of packets with damaged headers or trailers      |
//! | Body Bits         | Total number of body bits damaged in trial              |
//! | Worst Body        | Number of bits damaged in most-corrupted packet body    |

use crate::classify::{PacketClass, TraceAnalysis};

/// One row of a Table 2 / 5 / 8-style results table.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSummary {
    /// Trial label (e.g. `office1`, `Tx5`).
    pub name: String,
    /// Test packets received.
    pub packets_received: u64,
    /// Fraction of transmitted test packets lost (0.0–1.0).
    pub packet_loss: f64,
    /// Received test packets that were truncated.
    pub packets_truncated: u64,
    /// Body bits received across all test packets.
    pub bits_received: u64,
    /// Packets with damaged headers or trailers.
    pub wrapper_damaged: u64,
    /// Total damaged body bits.
    pub body_bits_damaged: u64,
    /// Damaged bits in the most-corrupted single body (0 if none).
    pub worst_body: u32,
}

impl TrialSummary {
    /// Builds the summary row from an analyzed trace.
    pub fn from_analysis(name: &str, analysis: &TraceAnalysis) -> TrialSummary {
        TrialSummary {
            name: name.to_string(),
            packets_received: analysis.test_packets().count() as u64,
            packet_loss: analysis.packet_loss(),
            packets_truncated: analysis.count(PacketClass::Truncated) as u64,
            bits_received: analysis.test_packets().map(|p| p.body_bits_received).sum(),
            wrapper_damaged: analysis.count(PacketClass::WrapperDamaged) as u64,
            body_bits_damaged: analysis
                .test_packets()
                .map(|p| u64::from(p.body_bit_errors))
                .sum(),
            worst_body: analysis
                .test_packets()
                .map(|p| p.body_bit_errors)
                .max()
                .unwrap_or(0),
        }
    }
}

/// Formats a loss fraction in the paper's percent style: `0%`, `.030%`
/// below a tenth of a percent, two decimals otherwise.
pub(crate) fn format_loss_percent(fraction: f64) -> String {
    let pct = fraction * 100.0;
    if pct == 0.0 {
        "0%".to_string()
    } else if pct < 0.1 {
        format!(".{:03.0}%", pct * 1000.0).replace(".0", ".0") // e.g. .007%
    } else {
        format!("{pct:.2}%")
    }
}

/// Formats a bit count in the paper's power-of-ten shorthand (`8 x 10^8`,
/// or `10^9` when the mantissa rounds to one).
pub(crate) fn format_power_of_ten(bits: u64) -> String {
    if bits == 0 {
        return "0".to_string();
    }
    let exp = (bits as f64).log10().floor() as u32;
    let mantissa = bits as f64 / 10f64.powi(exp as i32);
    if (mantissa - 1.0).abs() < 0.05 {
        format!("10^{exp}")
    } else {
        format!("{mantissa:.0} x 10^{exp}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::AnalyzedPacket;

    fn packet(class: PacketClass, errors: u32, bits: u64) -> AnalyzedPacket {
        AnalyzedPacket {
            index: 0,
            is_test: true,
            class,
            seq: Some(0),
            body_bit_errors: errors,
            body_bits_received: bits,
            level: 29,
            silence: 3,
            quality: 15,
        }
    }

    fn analysis() -> TraceAnalysis {
        TraceAnalysis {
            packets: vec![
                packet(PacketClass::Undamaged, 0, 8192),
                packet(PacketClass::Undamaged, 0, 8192),
                packet(PacketClass::BodyDamaged, 7, 8192),
                packet(PacketClass::BodyDamaged, 75, 8192),
                packet(PacketClass::Truncated, 0, 4000),
                packet(PacketClass::WrapperDamaged, 0, 8192),
            ],
            transmitted: 8,
        }
    }

    #[test]
    fn summary_columns() {
        let s = TrialSummary::from_analysis("Tx5", &analysis());
        assert_eq!(s.packets_received, 6);
        assert!((s.packet_loss - 0.25).abs() < 1e-12);
        assert_eq!(s.packets_truncated, 1);
        assert_eq!(s.bits_received, 8192 * 5 + 4000);
        assert_eq!(s.wrapper_damaged, 1);
        assert_eq!(s.body_bits_damaged, 82);
        assert_eq!(s.worst_body, 75);
    }

    #[test]
    fn empty_analysis() {
        let a = TraceAnalysis {
            packets: vec![],
            transmitted: 0,
        };
        let s = TrialSummary::from_analysis("empty", &a);
        assert_eq!(s.packets_received, 0);
        assert_eq!(s.worst_body, 0);
        assert_eq!(s.packet_loss, 0.0);
        assert_eq!(format_power_of_ten(s.bits_received), "0");
    }

    #[test]
    fn formatting_helpers() {
        let mut s = TrialSummary::from_analysis("t", &analysis());
        s.packet_loss = 0.0003;
        assert_eq!(format_loss_percent(s.packet_loss), ".030%");
        s.packet_loss = 0.0;
        assert_eq!(format_loss_percent(s.packet_loss), "0%");
        s.packet_loss = 0.52;
        assert_eq!(format_loss_percent(s.packet_loss), "52.00%");

        s.bits_received = 1_000_000_000;
        assert_eq!(format_power_of_ten(s.bits_received), "10^9");
        s.bits_received = 800_000_000;
        assert_eq!(format_power_of_ten(s.bits_received), "8 x 10^8");
    }
}
