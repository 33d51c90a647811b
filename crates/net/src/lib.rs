#![warn(missing_docs)]

//! # wavelan-net
//!
//! Framing substrate for the WaveLAN error-characteristics reproduction.
//!
//! The SIGCOMM '96 study (Eckhardt & Steenkiste) transmitted "specially-formatted
//! UDP datagrams ... 256 32-bit words wrapped inside UDP, IP, Ethernet, and modem
//! framing" (Section 4). This crate implements those wire formats from scratch:
//!
//! * [`ethernet`] — Ethernet II frames with a real IEEE 802.3 CRC-32 trailer,
//! * [`ipv4`] — IPv4 headers with the internet checksum,
//! * [`udp`] — UDP headers with the optional checksum,
//! * [`testpkt`] — the paper's test-packet body format (a single 32-bit word
//!   repeated 256 times, incremented between packets),
//! * [`crc32`] / [`checksum`] — the two checksum algorithms used above,
//! * [`addr`] — MAC address type and helpers.
//!
//! Everything here is pure, deterministic, heap-light, and independent of the
//! simulator: the same parsers are used by the analysis pipeline to dissect
//! corrupted frames, so all parsers are *total* — they never panic on damaged
//! input, returning structured errors instead.

pub mod addr;
pub mod checksum;
pub mod crc32;
pub mod ethernet;
pub mod ipv4;
pub mod testpkt;
pub mod udp;

pub use addr::MacAddr;
pub use ethernet::{EtherType, EthernetFrame, ETHERNET_HEADER_LEN, ETHERNET_TRAILER_LEN};
pub use ipv4::{Ipv4Header, IPV4_HEADER_LEN};
pub use udp::{UdpHeader, UDP_HEADER_LEN};

/// Errors produced while parsing any of the wire formats in this crate.
///
/// Parsers are used on deliberately corrupted frames (the receiver in the paper
/// runs with CRC filtering *disabled*), so every failure mode is represented as
/// a value rather than a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The buffer is shorter than the fixed part of the header.
    Truncated {
        /// How many bytes the parser needed.
        needed: usize,
        /// How many bytes were available.
        got: usize,
    },
    /// A version / length field holds a value the format does not allow.
    BadField {
        /// Human-readable field name, e.g. `"ihl"`.
        field: &'static str,
    },
    /// A checksum or CRC did not verify.
    BadChecksum {
        /// Which check failed, e.g. `"ethernet-fcs"`.
        which: &'static str,
    },
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ParseError::Truncated { needed, got } => {
                write!(f, "truncated: needed {needed} bytes, got {got}")
            }
            ParseError::BadField { field } => write!(f, "invalid field: {field}"),
            ParseError::BadChecksum { which } => write!(f, "checksum failure: {which}"),
        }
    }
}

impl std::error::Error for ParseError {}
