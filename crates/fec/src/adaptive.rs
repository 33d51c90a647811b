//! The adaptive (variable) FEC controller.
//!
//! Paper Section 8: "In many cases, we observed a near-perfect link, arguing
//! that FEC would be useless overhead in most situations. However, there
//! were other situations, some plausibly predictable by signal measurements,
//! in which there is frequent but minor packet corruption. Our observations
//! ... argue that the errors we did observe might be recoverable through a
//! variable FEC mechanism."
//!
//! The controller implements that idea: it watches the per-packet evidence
//! the WaveLAN modem already reports — *signal quality* (the paper found low
//! quality predicts trouble) — plus the decoder's own recent success record,
//! and walks the RCPC rate ladder with hysteresis (strengthen eagerly on
//! failure, weaken only after a sustained clean streak).

use crate::rcpc::CodeRate;

/// Why the controller chose to move (or stay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateDecision {
    /// Stay at the current rate.
    Hold(CodeRate),
    /// Add redundancy (move to a stronger code).
    Strengthen(CodeRate),
    /// Shed redundancy (move to a weaker code).
    Weaken(CodeRate),
}

/// Adaptive rate controller state.
#[derive(Debug, Clone)]
pub struct AdaptiveFec {
    current: CodeRate,
    /// Consecutive clean (error-free after decoding) packets.
    clean_streak: u32,
    /// Clean packets required before weakening one step.
    weaken_after: u32,
    /// Signal quality at or below which we strengthen preemptively.
    quality_floor: u8,
}

impl Default for AdaptiveFec {
    fn default() -> Self {
        AdaptiveFec::new(CodeRate::R8_9)
    }
}

impl AdaptiveFec {
    /// Starts at the given rate with default hysteresis: weaken after 64
    /// consecutive clean packets; strengthen when reported quality ≤ 10
    /// (the paper's truncation-predicting region) or on any decode failure.
    pub fn new(initial: CodeRate) -> AdaptiveFec {
        AdaptiveFec {
            current: initial,
            clean_streak: 0,
            weaken_after: 64,
            quality_floor: 10,
        }
    }

    /// Overrides the clean-streak threshold.
    pub fn with_weaken_after(mut self, packets: u32) -> AdaptiveFec {
        self.weaken_after = packets;
        self
    }

    /// The rate currently in force.
    pub fn current(&self) -> CodeRate {
        self.current
    }

    /// Feeds one packet's outcome: whether it decoded cleanly (CRC passed
    /// after FEC), how many corrected errors the decoder saw (0 if unknown),
    /// and the modem-reported signal quality. Returns the decision for the
    /// next packet.
    pub fn observe(&mut self, decoded_ok: bool, quality: u8) -> RateDecision {
        if !decoded_ok || quality <= self.quality_floor {
            self.clean_streak = 0;
            return match self.current.stronger() {
                Some(stronger) => {
                    self.current = stronger;
                    RateDecision::Strengthen(stronger)
                }
                None => RateDecision::Hold(self.current),
            };
        }
        self.clean_streak += 1;
        if self.clean_streak >= self.weaken_after {
            self.clean_streak = 0;
            if let Some(weaker) = self.current.weaker() {
                self.current = weaker;
                return RateDecision::Weaken(weaker);
            }
        }
        RateDecision::Hold(self.current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_strengthens_immediately() {
        let mut c = AdaptiveFec::new(CodeRate::R8_9);
        assert_eq!(
            c.observe(false, 15),
            RateDecision::Strengthen(CodeRate::R4_5)
        );
        assert_eq!(
            c.observe(false, 15),
            RateDecision::Strengthen(CodeRate::R2_3)
        );
        assert_eq!(c.current(), CodeRate::R2_3);
    }

    #[test]
    fn low_quality_strengthens_preemptively() {
        // The paper: "Very low signal quality seems to be a good predictor
        // of truncation" — act before the loss, not after.
        let mut c = AdaptiveFec::new(CodeRate::R8_9);
        assert_eq!(c.observe(true, 8), RateDecision::Strengthen(CodeRate::R4_5));
    }

    #[test]
    fn strongest_rate_holds_on_failure() {
        let mut c = AdaptiveFec::new(CodeRate::R1_4);
        assert_eq!(c.observe(false, 2), RateDecision::Hold(CodeRate::R1_4));
    }

    #[test]
    fn sustained_clean_traffic_weakens_slowly() {
        let mut c = AdaptiveFec::new(CodeRate::R2_3).with_weaken_after(10);
        for i in 0..9 {
            assert_eq!(
                c.observe(true, 15),
                RateDecision::Hold(CodeRate::R2_3),
                "packet {i}"
            );
        }
        assert_eq!(c.observe(true, 15), RateDecision::Weaken(CodeRate::R4_5));
        // Streak resets: another 10 needed for the next step.
        for _ in 0..9 {
            c.observe(true, 15);
        }
        assert_eq!(c.observe(true, 15), RateDecision::Weaken(CodeRate::R8_9));
        // At the weakest rate it just holds.
        for _ in 0..20 {
            let (RateDecision::Hold(rate)
            | RateDecision::Strengthen(rate)
            | RateDecision::Weaken(rate)) = c.observe(true, 15);
            assert_eq!(rate, CodeRate::R8_9);
        }
    }

    #[test]
    fn failure_resets_the_clean_streak() {
        let mut c = AdaptiveFec::new(CodeRate::R2_3).with_weaken_after(5);
        for _ in 0..4 {
            c.observe(true, 15);
        }
        c.observe(false, 15); // strengthen + reset
        assert_eq!(c.current(), CodeRate::R1_2);
        for _ in 0..4 {
            assert!(matches!(c.observe(true, 15), RateDecision::Hold(_)));
        }
        assert_eq!(c.observe(true, 15), RateDecision::Weaken(CodeRate::R2_3));
    }
}
