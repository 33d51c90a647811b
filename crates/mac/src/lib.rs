#![warn(missing_docs)]

//! # wavelan-mac
//!
//! The WaveLAN medium-access layer: the CSMA/CA protocol and the parts of the
//! Intel 82593 controller + modem control unit that the SIGCOMM '96 study
//! interacts with.
//!
//! Paper Section 2: "As it is difficult to detect collisions in this radio
//! environment, WaveLAN employs a CSMA/CA (collision avoidance) MAC protocol.
//! ... any stations which become ready to transmit while the medium is busy
//! will delay for a random interval when the medium becomes free. Aside from
//! the modified MAC protocol and lower data rate, the 82593 performs all
//! standard Ethernet functions, including framing, address recognition and
//! filtering, CRC generation and checking, and transmission scheduling with
//! exponential backoff."
//!
//! Modules:
//!
//! * [`backoff`] — Ethernet-style truncated binary exponential backoff,
//! * [`csma`] — the CSMA/CA transmit state machine ("medium busy counts as a
//!   collision"),
//! * [`network_id`] — the modem's 16-bit network-ID wrapper,
//! * [`threshold`] — receive threshold and quality threshold filtering
//!   (Sections 2, 5.3, 7.4),
//! * [`tdma`] — the reservation TDMA MAC the paper's introduction argues
//!   future pico-cellular networks should use, with a slot-level
//!   CSMA-vs-TDMA comparison harness.

pub mod backoff;
pub mod csma;
pub mod network_id;
pub mod tdma;
pub mod threshold;

pub use tdma::TdmaScheduler;
pub use threshold::Thresholds;
