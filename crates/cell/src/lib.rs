#![warn(missing_docs)]

//! # wavelan-cell
//!
//! A mobile client roaming between two pseudo-cells.
//!
//! The paper's architectural thread (Sections 5.3, 6.2 and 7.4): WaveLAN
//! has no power control and one spreading sequence, so the only
//! cell-forming tool is the receive threshold. The resulting *border zones*
//! host mobile clients that disrupt multiple cells at once (the
//! hidden-transmitter discussion in Section 7.4).
//!
//! [`roaming`] walks a client between two threshold-isolated cells and
//! measures that disruption footprint end to end; the `roaming` artifact
//! reports it.

pub mod roaming;
