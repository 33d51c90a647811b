//! Truncated binary exponential backoff, as performed by the 82593's
//! "transmission scheduling with exponential backoff" (paper Section 2).
//!
//! After the `n`-th consecutive collision (for WaveLAN: the `n`-th time the
//! medium was found busy), the station waits a uniformly random number of
//! slot times in `[0, 2^min(n, cap))` before the next attempt, and gives up
//! after `max_attempts`.

use rand::Rng;

/// Backoff state for one pending frame.
#[derive(Debug, Clone)]
pub(crate) struct ExponentialBackoff {
    /// Consecutive collisions experienced by the current frame.
    attempts: u32,
    /// Exponent cap (Ethernet uses 10).
    cap: u32,
    /// Attempts after which the frame is abandoned (Ethernet uses 16).
    max_attempts: u32,
}

impl ExponentialBackoff {
    /// Custom parameters.
    pub(crate) fn new(cap: u32, max_attempts: u32) -> ExponentialBackoff {
        ExponentialBackoff {
            attempts: 0,
            cap,
            max_attempts,
        }
    }

    /// Records a collision and draws the wait, in slots. Returns `None` when
    /// the frame must be abandoned (excessive collisions).
    pub(crate) fn on_collision<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<u64> {
        self.attempts += 1;
        if self.attempts >= self.max_attempts {
            return None;
        }
        let exp = self.attempts.min(self.cap);
        let window = 1u64 << exp;
        Some(rng.gen_range(0..window))
    }

    /// Resets for the next frame after a successful transmission.
    pub(crate) fn reset(&mut self) {
        self.attempts = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn window_grows_exponentially() {
        let mut rng = StdRng::seed_from_u64(1);
        // Sample maxima over many draws at each attempt count.
        for attempt in 1u32..=6 {
            let mut b = ExponentialBackoff::new(10, 16);
            // Advance to the desired attempt count.
            for _ in 0..attempt - 1 {
                b.on_collision(&mut rng);
            }
            let window = 1u64 << attempt;
            let mut max_seen = 0;
            for _ in 0..2000 {
                let mut b2 = b.clone();
                let slots = b2.on_collision(&mut rng).unwrap();
                assert!(slots < window, "attempt {attempt}: {slots} ≥ {window}");
                max_seen = max_seen.max(slots);
            }
            // With 2000 draws the max should get close to the top.
            assert!(max_seen >= window / 2, "attempt {attempt}: max {max_seen}");
        }
    }

    #[test]
    fn exponent_caps() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut b = ExponentialBackoff::new(3, 100);
        for _ in 0..20 {
            if let Some(slots) = b.on_collision(&mut rng) {
                assert!(slots < 8);
            }
        }
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = ExponentialBackoff::new(10, 4);
        assert!(b.on_collision(&mut rng).is_some());
        assert!(b.on_collision(&mut rng).is_some());
        assert!(b.on_collision(&mut rng).is_some());
        assert!(b.on_collision(&mut rng).is_none());
        assert_eq!(b.attempts, 4);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut b = ExponentialBackoff::new(10, 16);
        b.on_collision(&mut rng);
        b.on_collision(&mut rng);
        assert_eq!(b.attempts, 2);
        b.reset();
        assert_eq!(b.attempts, 0);
    }
}
