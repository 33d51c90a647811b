//! The heuristic test-packet matcher.
//!
//! Decides whether a logged packet belongs to the test series without
//! trusting any single field — every byte may be corrupted. Evidence is
//! scored:
//!
//! * destination / source station addresses within a small Hamming distance
//!   of the expected ones (damaged addresses still match),
//! * the repeated-word body structure (the strongest signal: 256 copies of
//!   one 32-bit word survive heavy corruption),
//! * frame length equal to the fixed test-packet length,
//! * UDP ports, ethertype, and network ID as weak corroboration.
//!
//! A packet "corrupted beyond recognition" scores low and is reported as an
//! outsider — the paper accepts the same ambiguity ("some packets we identify
//! as outsiders may instead be badly corrupted test packets").

use wavelan_mac::network_id::{strip_network_id, NetworkId, NETWORK_ID_LEN};
use wavelan_net::testpkt::{Endpoint, TestPacket, TEST_PORT};
use wavelan_net::{MacAddr, ETHERNET_HEADER_LEN, IPV4_HEADER_LEN, UDP_HEADER_LEN};

/// What the analyzer knows about the test series (the experimenter's
/// knowledge, not an oracle): who was sending to whom, on which network ID.
#[derive(Debug, Clone, Copy)]
pub struct ExpectedSeries {
    /// The sending station.
    pub src: Endpoint,
    /// The receiving station.
    pub dst: Endpoint,
    /// The testbed's network ID.
    pub network_id: NetworkId,
}

/// Maximum Hamming distance at which a damaged address still "matches".
const ADDR_MATCH_BITS: u32 = 8;

/// Minimum score to accept a packet as part of the test series.
///
/// Set so that *format* evidence alone (ethertype + ports + length + body
/// structure + network ID ≈ 9 points) cannot match a packet: at least one
/// station address must corroborate. Another WaveLAN deployment sending
/// same-format traffic therefore lands in "outsiders", while our own
/// packets match even with both addresses lightly damaged.
const MATCH_THRESHOLD: i32 = 10;

/// Fraction of body words that must agree for the majority word to count as
/// "recovered".
const MAJORITY_FRACTION: f64 = 0.6;

/// Evidence extracted from one logged packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MatchEvidence {
    /// Total score against the acceptance threshold (see module docs).
    pub score: i32,
    /// Majority body word, if the body structure was recognizable.
    pub majority_word: Option<u32>,
    /// How many body words were available (full packet: 256).
    pub body_words: usize,
    /// How many of them equal the majority word.
    pub agreeing_words: usize,
}

impl MatchEvidence {
    /// Whether the packet is accepted as a test packet.
    pub(crate) fn is_test_packet(&self) -> bool {
        self.score >= MATCH_THRESHOLD
    }
}

/// Byte offset of the Ethernet frame within the on-air bytes.
const ETH_OFF: usize = NETWORK_ID_LEN;
/// Byte offset of the body within the on-air bytes.
fn body_offset() -> usize {
    NETWORK_ID_LEN + TestPacket::body_offset()
}
/// Full on-air length of a test packet.
pub(crate) fn full_wire_len() -> usize {
    NETWORK_ID_LEN + TestPacket::frame_len()
}

/// Extracts the (available) 32-bit body words from the on-air bytes.
pub(crate) fn body_words(bytes: &[u8]) -> Vec<u32> {
    let mut words = Vec::new();
    body_words_into(bytes, full_wire_len(), &mut words);
    words
}

/// [`body_words`] into a caller-owned buffer (cleared first), against the
/// packet's *intended* on-air length: a complete delivery's trailing FCS is
/// excluded; a truncated one keeps everything after the headers. Callers
/// without per-record wire-length information pass [`full_wire_len`].
pub(crate) fn body_words_into(bytes: &[u8], wire_len: usize, out: &mut Vec<u32>) {
    out.clear();
    let start = body_offset();
    // The last 4 on-air bytes of a *complete* packet are the FCS, not body;
    // for truncated packets everything after `start` is (partial) body.
    let end = if bytes.len() >= wire_len {
        wire_len.saturating_sub(wavelan_net::ETHERNET_TRAILER_LEN)
    } else {
        bytes.len()
    };
    if end <= start {
        return;
    }
    out.extend(
        bytes[start..end]
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]])),
    );
}

/// Majority vote over body words: `(word, count)` of the most frequent word.
pub(crate) fn majority_word(words: &[u32]) -> Option<(u32, usize)> {
    if words.is_empty() {
        return None;
    }
    // Boyer–Moore majority candidate, then verify with a count. The common
    // case (few corrupted words) is a true majority; pathological ties fall
    // back to "whichever candidate survived", which the fraction check below
    // will reject anyway.
    let mut candidate = words[0];
    let mut votes = 0i64;
    for &w in words {
        if votes == 0 {
            candidate = w;
            votes = 1;
        } else if w == candidate {
            votes += 1;
        } else {
            votes -= 1;
        }
    }
    let count = words.iter().filter(|&&w| w == candidate).count();
    Some((candidate, count))
}

/// [`evaluate`] with the packet's intended on-air length and a caller-owned
/// word buffer — the allocation-free form the streaming classifier uses. On
/// return `words` holds the packet's body words (what
/// [`body_words_into`] produced), so callers can reuse them for the body
/// syndrome without re-extracting.
pub(crate) fn evaluate_in(
    bytes: &[u8],
    wire_len: usize,
    expected: &ExpectedSeries,
    words: &mut Vec<u32>,
) -> MatchEvidence {
    let mut score = 0;

    // Network ID (weak: only 16 bits, and foreign WaveLANs may share it).
    if let Some((id, _)) = strip_network_id(bytes) {
        if id == expected.network_id {
            score += 1;
        }
    }

    // Station addresses (strong: 48 bits each, tolerant of bit damage).
    if bytes.len() >= ETH_OFF + 12 {
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&bytes[ETH_OFF..ETH_OFF + 6]);
        src.copy_from_slice(&bytes[ETH_OFF + 6..ETH_OFF + 12]);
        if MacAddr(dst).bit_distance(&expected.dst.mac) <= ADDR_MATCH_BITS {
            score += 3;
        }
        if MacAddr(src).bit_distance(&expected.src.mac) <= ADDR_MATCH_BITS {
            score += 3;
        }
    }

    // Ethertype.
    if bytes.len() >= ETH_OFF + ETHERNET_HEADER_LEN {
        let et = u16::from_be_bytes([bytes[ETH_OFF + 12], bytes[ETH_OFF + 13]]);
        if et == 0x0800 {
            score += 1;
        }
    }

    // UDP ports.
    let udp_off = ETH_OFF + ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;
    if bytes.len() >= udp_off + UDP_HEADER_LEN {
        let sport = u16::from_be_bytes([bytes[udp_off], bytes[udp_off + 1]]);
        let dport = u16::from_be_bytes([bytes[udp_off + 2], bytes[udp_off + 3]]);
        if sport == TEST_PORT {
            score += 1;
        }
        if dport == TEST_PORT {
            score += 1;
        }
    }

    // Exact test-packet length. Deliberately the *known* test-packet length,
    // not `wire_len`: the modem framing announces every frame's length, so
    // "matches its own announced length" would be evidence of nothing.
    if bytes.len() == full_wire_len() {
        score += 2;
    }

    // The repeated-word body.
    body_words_into(bytes, wire_len, words);
    let maj = majority_word(words);
    let (majority, agreeing) = match maj {
        Some((w, c)) => (Some(w), c),
        None => (None, 0),
    };
    let structured = !words.is_empty()
        && agreeing as f64 / words.len() as f64 >= MAJORITY_FRACTION
        && words.len() >= 8;
    if structured {
        score += 3;
    }

    MatchEvidence {
        score,
        majority_word: if structured { majority } else { None },
        body_words: words.len(),
        agreeing_words: agreeing,
    }
}

/// Recovers the sequence number of an accepted test packet.
///
/// Primary evidence is the majority body word (the word *is* the sequence
/// number). When the body is too short or too damaged, falls back to the IP
/// identification field — but only if the IP header checksum verifies, since
/// a damaged ident would otherwise masquerade as a sequence number.
pub(crate) fn recover_sequence(bytes: &[u8], evidence: &MatchEvidence) -> Option<u32> {
    if let Some(w) = evidence.majority_word {
        return Some(w);
    }
    // Fallback: IP ident (low 16 bits of seq) behind a verified checksum.
    let ip_off = ETH_OFF + ETHERNET_HEADER_LEN;
    if bytes.len() >= ip_off + IPV4_HEADER_LEN {
        if let Ok((hdr, _)) = wavelan_net::Ipv4Header::parse(&bytes[ip_off..]) {
            if hdr.checksum_ok {
                return Some(u32::from(hdr.ident));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavelan_mac::network_id::wrap_with_network_id;

    /// Scores one logged packet against the expected series.
    fn evaluate(bytes: &[u8], expected: &ExpectedSeries) -> MatchEvidence {
        evaluate_in(bytes, full_wire_len(), expected, &mut Vec::new())
    }

    fn series() -> ExpectedSeries {
        ExpectedSeries {
            src: Endpoint::station(2),
            dst: Endpoint::station(1),
            network_id: NetworkId::TESTBED,
        }
    }

    fn clean_wire(seq: u32) -> Vec<u8> {
        let e = series();
        wrap_with_network_id(e.network_id, &TestPacket { seq }.build_frame(e.src, e.dst))
    }

    #[test]
    fn clean_packet_matches_with_high_score() {
        let wire = clean_wire(1234);
        let ev = evaluate(&wire, &series());
        assert!(ev.is_test_packet(), "{ev:?}");
        assert_eq!(ev.majority_word, Some(1234));
        assert_eq!(ev.body_words, 256);
        assert_eq!(ev.agreeing_words, 256);
        assert_eq!(recover_sequence(&wire, &ev), Some(1234));
    }

    #[test]
    fn heavily_corrupted_body_still_matches_by_majority() {
        let mut wire = clean_wire(77);
        // Corrupt 80 of the 256 body words (31%).
        let body = body_offset();
        for i in 0..80 {
            wire[body + i * 4 + 2] ^= 0xA5;
        }
        let ev = evaluate(&wire, &series());
        assert!(ev.is_test_packet());
        assert_eq!(ev.majority_word, Some(77));
        assert_eq!(ev.agreeing_words, 176);
    }

    #[test]
    fn corrupted_addresses_still_match() {
        let mut wire = clean_wire(5);
        wire[2] ^= 0x0F; // 4 bits of dst
        wire[9] ^= 0x03; // 2 bits of src
        let ev = evaluate(&wire, &series());
        assert!(ev.is_test_packet());
    }

    #[test]
    fn foreign_packet_is_rejected() {
        // An ARP-ish packet from an unrelated station.
        let eth = wavelan_net::EthernetFrame::build(
            MacAddr::BROADCAST,
            MacAddr([0x00, 0xA0, 0x24, 0x12, 0x34, 0x56]), // a "real" OUI
            wavelan_net::EtherType::Arp,
            &[0u8; 46],
        );
        let wire = wrap_with_network_id(NetworkId(0x0042), &eth);
        let ev = evaluate(&wire, &series());
        assert!(!ev.is_test_packet(), "{ev:?}");
    }

    #[test]
    fn truncated_test_packet_matches_via_headers_and_partial_body() {
        let wire = clean_wire(9);
        let cut = &wire[..body_offset() + 100]; // 25 body words survive
        let ev = evaluate(cut, &series());
        assert!(ev.is_test_packet(), "{ev:?}");
        assert_eq!(ev.majority_word, Some(9));
        assert_eq!(recover_sequence(cut, &ev), Some(9));
    }

    #[test]
    fn very_short_fragment_falls_back_to_ip_ident() {
        let wire = clean_wire(41);
        // Keep only through the UDP header: no body words at all.
        let cut = &wire[..ETH_OFF + ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN];
        let ev = evaluate(cut, &series());
        assert!(ev.is_test_packet(), "{ev:?}");
        assert_eq!(ev.majority_word, None);
        assert_eq!(recover_sequence(cut, &ev), Some(41));
    }

    #[test]
    fn jam_shredded_packet_is_an_outsider() {
        // Everything except the first 10 bytes corrupted beyond recognition:
        // the paper's "corrupted beyond recognition" case.
        let mut wire = clean_wire(3);
        for (i, b) in wire.iter_mut().enumerate().skip(4) {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        let ev = evaluate(&wire, &series());
        assert!(!ev.is_test_packet(), "{ev:?}");
    }

    #[test]
    fn majority_word_boyer_moore() {
        assert_eq!(majority_word(&[]), None);
        assert_eq!(majority_word(&[5]), Some((5, 1)));
        assert_eq!(majority_word(&[1, 2, 2, 2, 3]), Some((2, 3)));
        let mixed = [7u32, 7, 8, 7, 9, 7, 7];
        assert_eq!(majority_word(&mixed), Some((7, 5)));
    }
}
