//! The Gilbert–Elliott two-state burst-error channel.
//!
//! The syndromes the testbed observes under interference are *bursty*: a
//! phone burst concentrates errors in a stretch of the packet. The classic
//! compact model for such channels is Gilbert–Elliott: a two-state Markov
//! chain (Good/Bad) with per-state bit error rates. It serves two roles
//! here:
//!
//! * a *generator* — a cheap standalone channel for FEC experiments that
//!   want burstiness without running the whole testbed;
//! * a *descriptor* — [`GilbertElliott::fit`] estimates the four parameters
//!   from an observed error sequence, which is how
//!   `wavelan_analysis::bursts` characterizes measured traces (and how one
//!   chooses an interleaver depth: it should exceed the mean bad-state
//!   sojourn).

use rand::Rng;

/// Two-state Markov burst channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// P(Good → Bad) per bit.
    pub p_good_to_bad: f64,
    /// P(Bad → Good) per bit.
    pub p_bad_to_good: f64,
    /// Bit error rate while Good.
    pub ber_good: f64,
    /// Bit error rate while Bad.
    pub ber_bad: f64,
}

/// Channel state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChannelState {
    /// Low-error state.
    Good,
    /// Burst state.
    Bad,
}

impl GilbertElliott {
    /// Builds a channel; probabilities must be in `[0, 1]`.
    pub fn new(p_gb: f64, p_bg: f64, ber_good: f64, ber_bad: f64) -> GilbertElliott {
        for p in [p_gb, p_bg, ber_good, ber_bad] {
            assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        }
        GilbertElliott {
            p_good_to_bad: p_gb,
            p_bad_to_good: p_bg,
            ber_good,
            ber_bad,
        }
    }

    /// Stationary probability of being in the Bad state.
    pub(crate) fn stationary_bad(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom == 0.0 {
            return 0.0;
        }
        self.p_good_to_bad / denom
    }

    /// Long-run average bit error rate.
    pub fn mean_ber(&self) -> f64 {
        let pb = self.stationary_bad();
        pb * self.ber_bad + (1.0 - pb) * self.ber_good
    }

    /// Mean sojourn length (bits) in the Bad state — the expected burst
    /// extent, the quantity an interleaver depth must exceed.
    pub fn mean_bad_sojourn(&self) -> f64 {
        if self.p_bad_to_good == 0.0 {
            return f64::INFINITY;
        }
        1.0 / self.p_bad_to_good
    }

    /// Generates an error indicator sequence of `n` bits (true = bit error),
    /// starting from the stationary distribution.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<bool> {
        let mut out = Vec::new();
        self.generate_into(n, rng, &mut out);
        out
    }

    /// [`GilbertElliott::generate`] into a caller-provided buffer: the RNG
    /// draw sequence is identical, but steady-state callers reuse the
    /// buffer's capacity instead of allocating per walk.
    pub fn generate_into<R: Rng + ?Sized>(&self, n: usize, rng: &mut R, out: &mut Vec<bool>) {
        let mut walk = GeWalker::new(*self);
        walk.restart(rng);
        out.clear();
        out.reserve(n);
        for _ in 0..n {
            out.push(walk.next(rng));
        }
    }

    /// Starts an incremental walk over this channel; see [`GeWalker`].
    pub fn walker(&self) -> GeWalker {
        GeWalker::new(*self)
    }
}

/// A per-bit view of the walk [`GilbertElliott::generate_into`] produces.
///
/// [`GeWalker::restart`] makes the stationary state draw that opens a
/// `generate` call; each [`GeWalker::next`] then makes that call's per-bit
/// draws (error, then transition) in the same order. Consuming `k` bits
/// through this API yields exactly the first `k` bits of a `generate` call
/// on the same RNG — callers that would otherwise over-generate (e.g. a
/// HARQ loop that stops mid-chunk) draw only what they consume, and since
/// the walk is sequential the consumed prefix is bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct GeWalker {
    channel: GilbertElliott,
    state: ChannelState,
}

impl GeWalker {
    fn new(channel: GilbertElliott) -> GeWalker {
        GeWalker {
            channel,
            state: ChannelState::Good,
        }
    }

    /// Redraws the state from the stationary distribution — the draw that
    /// begins every [`GilbertElliott::generate_into`] call.
    pub fn restart<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.state = if rng.gen::<f64>() < self.channel.stationary_bad() {
            ChannelState::Bad
        } else {
            ChannelState::Good
        };
    }

    /// Advances one bit: returns the error indicator, then steps the state.
    pub fn next<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        let ber = match self.state {
            ChannelState::Good => self.channel.ber_good,
            ChannelState::Bad => self.channel.ber_bad,
        };
        let error = rng.gen::<f64>() < ber;
        self.state = match self.state {
            ChannelState::Good if rng.gen::<f64>() < self.channel.p_good_to_bad => {
                ChannelState::Bad
            }
            ChannelState::Bad if rng.gen::<f64>() < self.channel.p_bad_to_good => {
                ChannelState::Good
            }
            s => s,
        };
        error
    }
}

impl GilbertElliott {
    /// Fits Gilbert–Elliott parameters to an observed error sequence using
    /// the standard gap-statistics method (Gilbert's original recipe):
    /// errors closer than `burst_gap` bits apart are deemed the same burst;
    /// burst interiors estimate the Bad state, the rest the Good state.
    /// Returns `None` when the sequence carries fewer than two errors.
    pub fn fit(errors: &[bool], burst_gap: usize) -> Option<GilbertElliott> {
        let positions: Vec<usize> = errors
            .iter()
            .enumerate()
            .filter(|(_, &e)| e)
            .map(|(i, _)| i)
            .collect();
        if positions.len() < 2 {
            return None;
        }
        // Partition into bursts.
        let mut bursts: Vec<(usize, usize)> = Vec::new(); // inclusive spans
        let mut start = positions[0];
        let mut prev = positions[0];
        for &p in &positions[1..] {
            if p - prev > burst_gap {
                bursts.push((start, prev));
                start = p;
            }
            prev = p;
        }
        bursts.push((start, prev));

        let bad_bits: usize = bursts.iter().map(|&(s, e)| e - s + 1).sum();
        let good_bits = errors.len() - bad_bits;
        let errors_in_bursts: usize = positions.len();
        // Errors that are singleton bursts still sit in "bad" spans of length
        // 1; Good-state errors are (approximately) none under this partition,
        // so estimate the good BER from inter-burst stretches being clean and
        // regularize with a +1 smoothing.
        let ber_bad = errors_in_bursts as f64 / bad_bits.max(1) as f64;
        let ber_good = 1.0 / (good_bits.max(1) as f64 + 1.0); // upper-ish bound, regularized
        let mean_sojourn = bad_bits as f64 / bursts.len() as f64;
        let p_bg = (1.0 / mean_sojourn).min(1.0);
        let p_gb = (bursts.len() as f64 / good_bits.max(1) as f64).min(1.0);
        Some(GilbertElliott::new(
            p_gb,
            p_bg,
            ber_good.min(1.0),
            ber_bad.min(1.0),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reference() -> GilbertElliott {
        // Bursty: ~0.1% of time in Bad, bursts ~50 bits, heavy errors inside.
        GilbertElliott::new(2e-5, 0.02, 1e-6, 0.3)
    }

    #[test]
    fn stationary_and_mean_ber() {
        let ch = reference();
        let pb = ch.stationary_bad();
        assert!((pb - 2e-5 / (2e-5 + 0.02)).abs() < 1e-12);
        assert!((ch.mean_ber() - (pb * 0.3 + (1.0 - pb) * 1e-6)).abs() < 1e-12);
        assert!((ch.mean_bad_sojourn() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn generated_error_rate_matches_theory() {
        let ch = reference();
        let mut rng = StdRng::seed_from_u64(1);
        // The estimator's relative noise is ~1/sqrt(bad bursts); at 4M bits
        // (~80 bursts) seed luck dominates the 15% tolerance, so use 16M.
        let n = 16_000_000;
        let errors = ch.generate(n, &mut rng);
        let rate = errors.iter().filter(|&&e| e).count() as f64 / n as f64;
        assert!(
            (rate - ch.mean_ber()).abs() / ch.mean_ber() < 0.15,
            "rate {rate} vs theory {}",
            ch.mean_ber()
        );
    }

    #[test]
    fn generated_errors_are_bursty() {
        // Compare gap structure against an iid channel of the same mean BER:
        // the GE channel's median inter-error gap is far smaller.
        let ch = reference();
        let mut rng = StdRng::seed_from_u64(2);
        let errors = ch.generate(2_000_000, &mut rng);
        let gaps: Vec<usize> = {
            let pos: Vec<usize> = errors
                .iter()
                .enumerate()
                .filter(|(_, &e)| e)
                .map(|(i, _)| i)
                .collect();
            pos.windows(2).map(|w| w[1] - w[0]).collect()
        };
        assert!(gaps.len() > 50);
        let mut sorted = gaps.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let iid_median = (0.693 / ch.mean_ber()) as usize; // ln2/p
        assert!(
            median < iid_median / 20,
            "median gap {median} not bursty vs iid {iid_median}"
        );
    }

    #[test]
    fn fit_recovers_burst_structure() {
        let ch = reference();
        let mut rng = StdRng::seed_from_u64(3);
        let errors = ch.generate(4_000_000, &mut rng);
        let fitted = GilbertElliott::fit(&errors, 200).expect("enough errors");
        // Mean BER and burst length recovered within a factor of ~2.
        assert!(
            fitted.mean_ber() / ch.mean_ber() < 2.0 && ch.mean_ber() / fitted.mean_ber() < 2.0,
            "mean BER {} vs {}",
            fitted.mean_ber(),
            ch.mean_ber()
        );
        // Fitted bursts are measured between first and last error of a
        // sojourn, so they run a bit short of the true sojourn; same order.
        assert!(
            fitted.mean_bad_sojourn() > ch.mean_bad_sojourn() / 4.0
                && fitted.mean_bad_sojourn() < ch.mean_bad_sojourn() * 4.0,
            "sojourn {} vs {}",
            fitted.mean_bad_sojourn(),
            ch.mean_bad_sojourn()
        );
        assert!(fitted.ber_bad > 0.05, "{fitted:?}");
    }

    #[test]
    fn fit_needs_two_errors() {
        assert!(GilbertElliott::fit(&[false; 100], 10).is_none());
        let mut one = vec![false; 100];
        one[3] = true;
        assert!(GilbertElliott::fit(&one, 10).is_none());
    }

    #[test]
    fn degenerate_channels() {
        let clean = GilbertElliott::new(0.0, 1.0, 0.0, 0.0);
        assert_eq!(clean.stationary_bad(), 0.0);
        assert_eq!(clean.mean_ber(), 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(clean.generate(10_000, &mut rng).iter().all(|&e| !e));

        let stuck_bad = GilbertElliott::new(1.0, 0.0, 0.0, 1.0);
        assert_eq!(stuck_bad.stationary_bad(), 1.0);
        assert!(stuck_bad.mean_bad_sojourn().is_infinite());
    }
}
