//! The CSMA/CA transmit state machine.
//!
//! Paper Section 2: "WaveLAN CSMA/CA attempts to avoid collision losses by
//! treating a busy medium as a collision. That is, any stations which become
//! ready to transmit while the medium is busy will delay for a random
//! interval when the medium becomes free."
//!
//! The machine is driven by the discrete-event simulator: the station calls
//! [`CsmaCa::attempt`] with the current carrier-sense state whenever it wants
//! to (re)try a pending frame, and acts on the returned [`TxAction`]. Time is
//! explicit (nanoseconds), randomness comes from the caller's RNG, and the
//! machine keeps the counters the paper's Figure 3 reports ("collision rate
//! when the victim attempted to transmit").

use crate::backoff::ExponentialBackoff;
use rand::Rng;

/// Timing and retry parameters of the MAC.
#[derive(Debug, Clone, Copy)]
pub struct MacConfig {
    /// Backoff slot duration, ns.
    pub slot_time_ns: u64,
    /// Inter-frame space: idle time required before an attempt, ns.
    pub ifs_ns: u64,
    /// Backoff exponent cap.
    pub backoff_cap: u32,
    /// Attempts before a frame is dropped.
    pub max_attempts: u32,
}

impl Default for MacConfig {
    fn default() -> Self {
        // Timing in the spirit of a 2 Mb/s radio Ethernet: 50 µs slots,
        // 32 µs IFS, standard Ethernet retry policy.
        MacConfig {
            slot_time_ns: 50_000,
            ifs_ns: 32_000,
            backoff_cap: 10,
            max_attempts: 16,
        }
    }
}

/// What the station should do with its pending frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxAction {
    /// The medium is free: start transmitting now.
    Transmit,
    /// The medium was busy (a WaveLAN "collision"): retry at the given time.
    Retry {
        /// Absolute retry time, ns.
        at_ns: u64,
    },
    /// Excessive collisions: the frame is abandoned.
    Drop,
}

/// Counters exposed for the Figure 3 reproduction and MAC diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacStats {
    /// Transmission attempts (carrier-sense checks for a pending frame).
    pub attempts: u64,
    /// Attempts that found the medium busy.
    pub collisions: u64,
    /// Frames actually transmitted.
    pub transmissions: u64,
    /// Frames dropped after excessive collisions.
    pub drops: u64,
}

impl MacStats {
    /// Fraction of attempts that completed without sensing a collision.
    pub fn collision_free_fraction(&self) -> f64 {
        if self.attempts == 0 {
            return 1.0;
        }
        1.0 - self.collisions as f64 / self.attempts as f64
    }

    /// Deferrals: attempts that found the medium busy and backed off. In
    /// WaveLAN's CSMA/CA a busy medium *is* a collision (Section 2), so this
    /// is the same counter as [`MacStats::collisions`] under the name the
    /// scenario layer's `require` conditions use — a capture test whose
    /// stations mutually defer shows a high value here and a zero
    /// transmission-overlap count.
    pub fn deferrals(&self) -> u64 {
        self.collisions
    }
}

/// Per-station CSMA/CA state.
#[derive(Debug, Clone)]
pub struct CsmaCa {
    config: MacConfig,
    backoff: ExponentialBackoff,
    stats: MacStats,
}

impl CsmaCa {
    /// Creates a fresh MAC with the given configuration.
    pub fn new(config: MacConfig) -> CsmaCa {
        CsmaCa {
            backoff: ExponentialBackoff::new(config.backoff_cap, config.max_attempts),
            config,
            stats: MacStats::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> MacStats {
        self.stats
    }

    /// Attempts to send the pending frame at `now_ns` given the current
    /// carrier-sense state. Busy medium counts as a collision and schedules a
    /// backoff retry; too many collisions drop the frame.
    pub fn attempt<R: Rng + ?Sized>(
        &mut self,
        now_ns: u64,
        carrier_busy: bool,
        rng: &mut R,
    ) -> TxAction {
        self.stats.attempts += 1;
        if !carrier_busy {
            self.stats.transmissions += 1;
            self.backoff.reset();
            return TxAction::Transmit;
        }
        self.stats.collisions += 1;
        match self.backoff.on_collision(rng) {
            Some(slots) => TxAction::Retry {
                at_ns: now_ns + self.config.ifs_ns + slots * self.config.slot_time_ns,
            },
            None => {
                self.stats.drops += 1;
                self.backoff.reset();
                TxAction::Drop
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn free_medium_transmits_immediately() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mac = CsmaCa::new(MacConfig::default());
        assert_eq!(mac.attempt(0, false, &mut rng), TxAction::Transmit);
        let s = mac.stats();
        assert_eq!((s.attempts, s.collisions, s.transmissions), (1, 0, 1));
    }

    #[test]
    fn busy_medium_is_a_collision_and_backs_off() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = MacConfig::default();
        let mut mac = CsmaCa::new(cfg);
        match mac.attempt(1_000_000, true, &mut rng) {
            TxAction::Retry { at_ns } => {
                assert!(at_ns >= 1_000_000 + cfg.ifs_ns);
                // First collision: at most 1 slot of backoff.
                assert!(at_ns <= 1_000_000 + cfg.ifs_ns + cfg.slot_time_ns);
            }
            other => panic!("expected retry, got {other:?}"),
        }
        assert_eq!(mac.stats().collisions, 1);
    }

    #[test]
    fn backoff_window_grows_with_consecutive_collisions() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = MacConfig::default();
        let mut mac = CsmaCa::new(cfg);
        // Drive several collisions; the maximum observed retry delay should
        // grow (statistically certain over enough draws).
        let mut max_delay_early = 0;
        let mut max_delay_late = 0;
        for round in 0..12 {
            if let TxAction::Retry { at_ns } = mac.attempt(0, true, &mut rng) {
                let delay = at_ns - cfg.ifs_ns;
                if round < 2 {
                    max_delay_early = max_delay_early.max(delay);
                } else if round >= 8 {
                    max_delay_late = max_delay_late.max(delay);
                }
            }
        }
        assert!(
            max_delay_late > max_delay_early,
            "{max_delay_late} vs {max_delay_early}"
        );
    }

    #[test]
    fn excessive_collisions_drop_the_frame() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut mac = CsmaCa::new(MacConfig {
            max_attempts: 3,
            ..MacConfig::default()
        });
        assert!(matches!(
            mac.attempt(0, true, &mut rng),
            TxAction::Retry { .. }
        ));
        assert!(matches!(
            mac.attempt(0, true, &mut rng),
            TxAction::Retry { .. }
        ));
        assert_eq!(mac.attempt(0, true, &mut rng), TxAction::Drop);
        assert_eq!(mac.stats().drops, 1);
        // Backoff reset after the drop: the next frame starts fresh.
        assert!(matches!(
            mac.attempt(0, true, &mut rng),
            TxAction::Retry { .. }
        ));
    }

    #[test]
    fn success_resets_backoff() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut mac = CsmaCa::new(MacConfig::default());
        for _ in 0..5 {
            mac.attempt(0, true, &mut rng);
        }
        assert_eq!(mac.attempt(0, false, &mut rng), TxAction::Transmit);
        // After a success, the next collision is a "first" collision again.
        if let TxAction::Retry { at_ns } = mac.attempt(0, true, &mut rng) {
            let cfg = mac.config;
            assert!(at_ns <= cfg.ifs_ns + cfg.slot_time_ns);
        } else {
            panic!("expected retry");
        }
    }

    #[test]
    fn collision_free_fraction() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut mac = CsmaCa::new(MacConfig::default());
        // 3 busy, 7 free.
        for i in 0..10 {
            mac.attempt(0, i < 3, &mut rng);
        }
        assert!((mac.stats().collision_free_fraction() - 0.7).abs() < 1e-12);
        assert_eq!(MacStats::default().collision_free_fraction(), 1.0);
    }
}
