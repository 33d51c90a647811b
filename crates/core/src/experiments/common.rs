//! Shared experiment vocabulary: run-size scaling and the test series'
//! endpoints. Single-pair trials are built by `crate::spec::ScenarioSpec`.

use wavelan_analysis::ExpectedSeries;
use wavelan_mac::network_id::NetworkId;
use wavelan_net::testpkt::Endpoint;

/// How large to run each trial relative to the paper.
///
/// The paper's long trials (up to 488,399 packets) are exact reproductions
/// only at [`Scale::Paper`]; tests use [`Scale::Smoke`] and the `repro`
/// binary defaults to [`Scale::Reduced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast: a few hundred packets per trial (CI tests).
    Smoke,
    /// One eighth of the paper's packet counts (interactive runs).
    Reduced,
    /// The paper's exact packet counts.
    Paper,
}

impl Scale {
    /// Scales a paper packet count.
    pub fn packets(self, paper_count: u64) -> u64 {
        match self {
            Scale::Smoke => (paper_count / 64).clamp(300, 2_000),
            Scale::Reduced => (paper_count / 8).max(500),
            Scale::Paper => paper_count,
        }
    }

    /// The CLI/JSON name of the scale (`smoke`, `reduced`, `paper`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Reduced => "reduced",
            Scale::Paper => "paper",
        }
    }
}

/// The conventional endpoints: station 1 receives, station 2 transmits.
pub(crate) fn test_receiver() -> Endpoint {
    Endpoint::station(1)
}

/// See [`test_receiver`].
pub(crate) fn test_sender() -> Endpoint {
    Endpoint::station(2)
}

/// The analyzer's knowledge of the test series.
pub fn expected_series() -> ExpectedSeries {
    ExpectedSeries {
        src: test_sender(),
        dst: test_receiver(),
        network_id: NetworkId::TESTBED,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_policies() {
        assert_eq!(Scale::Paper.packets(102_720), 102_720);
        assert_eq!(Scale::Reduced.packets(102_720), 12_840);
        assert_eq!(Scale::Smoke.packets(102_720), 1_605);
        assert_eq!(Scale::Smoke.packets(1_000), 300);
        assert_eq!(Scale::Smoke.packets(1_000_000), 2_000);
        assert_eq!(Scale::Reduced.packets(1_000), 500);
    }
}
