//! On-air frames as recipes: the few `Copy` fields that determine a
//! transmission's bytes, written out only when somebody reads them.
//!
//! Most transmissions are never logged — a saturating jammer's frames, or
//! packets a receiver filters or loses — and the medium needs only their
//! length. So a `crate::medium::Transmission` carries a [`FrameRecipe`],
//! [`FrameRecipe::wire_len`] gives the on-air length without building
//! anything, and [`FrameRecipe::write`] renders the bytes into a reused
//! buffer when a recording station logs the reception.

use crate::station::FrameKind;
use wavelan_mac::network_id::{NetworkId, NETWORK_ID_LEN};
use wavelan_net::testpkt::{Endpoint, TestPacket};
use wavelan_net::{EtherType, EthernetFrame, MacAddr};

/// Body bytes of a [`FrameKind::Chatter`] frame.
const CHATTER_BODY_BYTES: usize = 512;

/// Everything that determines one transmission's on-air bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRecipe {
    /// Frame format.
    pub kind: FrameKind,
    /// Sending endpoint.
    pub src: Endpoint,
    /// Addressed endpoint (chatter frames are broadcast regardless).
    pub dst: Endpoint,
    /// Modem network ID prepended on air.
    pub network_id: NetworkId,
    /// Sender's sequence number.
    pub seq: u32,
}

impl FrameRecipe {
    /// On-air length in bytes: network ID plus Ethernet frame.
    pub fn wire_len(&self) -> usize {
        NETWORK_ID_LEN
            + match self.kind {
                FrameKind::Test => TestPacket::frame_len(),
                FrameKind::Chatter => EthernetFrame::wire_len(CHATTER_BODY_BYTES),
                FrameKind::Sized { bytes } => EthernetFrame::wire_len(usize::from(bytes)),
            }
    }

    /// Appends the on-air bytes — network ID, then the Ethernet frame — to
    /// `out`; exactly [`FrameRecipe::wire_len`] bytes.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.network_id.0.to_be_bytes());
        match self.kind {
            FrameKind::Test => TestPacket { seq: self.seq }.write_frame(self.src, self.dst, out),
            // What the paper's outsider stations were overheard sending ("ARP
            // packets or inter-bridge routing packets"): a 512-byte body —
            // bridge routing updates, not minimum-size ARPs — to broadcast.
            FrameKind::Chatter => EthernetFrame::write_with(
                MacAddr::BROADCAST,
                self.src.mac,
                EtherType::Arp,
                out,
                |out| self.write_tagged_body(CHATTER_BODY_BYTES, out),
            ),
            // The variable-length packets of the pulsed-interference sweeps;
            // delivery accounting rides on the ground truth, not the payload.
            FrameKind::Sized { bytes } => EthernetFrame::write_with(
                self.dst.mac,
                self.src.mac,
                EtherType::Other(0x88B5),
                out,
                |out| self.write_tagged_body(usize::from(bytes), out),
            ),
        }
    }

    /// Appends a zero body of `len` bytes (at least the Ethernet minimum)
    /// led by the sequence number and the sender's MAC address.
    fn write_tagged_body(&self, len: usize, out: &mut Vec<u8>) {
        let end = out.len() + len.max(wavelan_net::ethernet::MIN_PAYLOAD);
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(self.src.mac.as_bytes());
        out.resize(end, 0);
    }
}
