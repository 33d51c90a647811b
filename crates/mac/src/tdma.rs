//! A TDMA MAC for the pico-cellular architecture the paper advocates.
//!
//! Paper Section 1: "we believe that a Time Division Multiple Access (TDMA)
//! MAC layer atop a per-cell shared medium is attractive because TDMA allows
//! flexible bandwidth sharing among stations whose needs will vary with
//! time, and because a shared channel should support multicast connections
//! efficiently." (This is the direction the authors' later WaveLAN work —
//! and the Olivetti wireless ATM LAN of Section 9.2 — took.)
//!
//! The design here is a base-station-scheduled reservation TDMA:
//!
//! * time is divided into fixed *frames* of `slots_per_frame` slots;
//! * each frame starts with the base station's schedule beacon (slot 0);
//! * stations piggyback queue-depth *reservations* on their transmissions;
//! * the scheduler grants each station slots proportional to its demand,
//!   with a one-slot minimum for any station with traffic (so a station can
//!   always ask for more), recycling idle slots to backlogged stations.
//!
//! [`compare_with_csma`] runs a slot-level shootout against a CSMA/CA
//! collision model at equal offered load, measuring aggregate throughput
//! and Jain fairness — the quantified version of the paper's "flexible
//! bandwidth sharing" argument.

use rand::Rng;

/// A frame schedule: which station owns each slot (None = beacon/idle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FrameSchedule {
    /// Slot owners; index 0 is always the beacon (None).
    pub slots: Vec<Option<usize>>,
}

/// The base station's reservation scheduler.
#[derive(Debug, Clone)]
pub struct TdmaScheduler {
    stations: usize,
    slots_per_frame: usize,
    /// Last reported queue depth per station.
    demand: Vec<u64>,
}

impl TdmaScheduler {
    /// A scheduler for `stations` stations and `slots_per_frame` slots
    /// (including the beacon slot). Needs at least 2 slots.
    pub(crate) fn new(stations: usize, slots_per_frame: usize) -> TdmaScheduler {
        assert!(slots_per_frame >= 2, "need a beacon slot plus data");
        TdmaScheduler {
            stations,
            slots_per_frame,
            demand: vec![0; stations],
        }
    }

    /// Records a station's reservation (its current queue depth).
    pub(crate) fn reserve(&mut self, station: usize, queue_depth: u64) {
        self.demand[station] = queue_depth;
    }

    /// Builds the next frame's schedule: demand-proportional with a one-slot
    /// floor for every station with demand, largest-remainder rounding, and
    /// leftover slots to the most-backlogged stations.
    pub(crate) fn schedule(&self) -> FrameSchedule {
        let data_slots = self.slots_per_frame - 1;
        let total_demand: u64 = self.demand.iter().sum();
        let mut grants = vec![0usize; self.stations];
        if total_demand > 0 {
            let claimants: Vec<usize> =
                (0..self.stations).filter(|&s| self.demand[s] > 0).collect();
            // Floor: one slot each, as far as slots allow (most-backlogged
            // first when there are more claimants than slots).
            let mut order = claimants.clone();
            order.sort_by_key(|&s| std::cmp::Reverse(self.demand[s]));
            for &s in order.iter().take(data_slots) {
                grants[s] = 1;
            }
            let floor_used: usize = grants.iter().sum();
            let mut remaining = data_slots - floor_used;
            // Proportional share of the remainder by largest remainder.
            if remaining > 0 {
                let mut shares: Vec<(usize, f64)> = claimants
                    .iter()
                    .map(|&s| {
                        let exact = remaining as f64 * self.demand[s] as f64 / total_demand as f64;
                        (s, exact)
                    })
                    .collect();
                for (s, exact) in &shares {
                    let whole = exact.floor() as usize;
                    grants[*s] += whole;
                    remaining -= whole;
                }
                shares.sort_by(|a, b| {
                    (b.1 - b.1.floor())
                        .partial_cmp(&(a.1 - a.1.floor()))
                        .unwrap()
                });
                for (s, _) in shares.iter().take(remaining) {
                    grants[*s] += 1;
                }
            }
        }
        // Lay out the frame: beacon, then round-robin interleaving of the
        // grants (spreads each station's slots across the frame, lowering
        // per-station latency).
        let mut slots = vec![None; self.slots_per_frame];
        let mut left = grants;
        let mut idx = 1;
        while idx < self.slots_per_frame {
            let mut progressed = false;
            for (s, remaining) in left.iter_mut().enumerate() {
                if idx >= self.slots_per_frame {
                    break;
                }
                if *remaining > 0 {
                    slots[idx] = Some(s);
                    *remaining -= 1;
                    idx += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break; // idle slots stay None
            }
        }
        FrameSchedule { slots }
    }
}

/// Result of the TDMA-vs-CSMA shootout.
#[derive(Debug, Clone)]
pub struct MacComparison {
    /// Fraction of slots carrying a successful packet, TDMA.
    pub tdma_throughput: f64,
    /// Fraction of slots carrying a successful (non-collided) packet, CSMA.
    pub csma_throughput: f64,
    /// Jain fairness index of per-station delivery, TDMA.
    pub tdma_fairness: f64,
    /// Jain fairness index of per-station delivery, CSMA.
    pub csma_fairness: f64,
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`; 1.0 = perfectly fair.
pub(crate) fn jain_index(delivered: &[u64]) -> f64 {
    let n = delivered.len() as f64;
    let sum: f64 = delivered.iter().map(|&x| x as f64).sum();
    let sum_sq: f64 = delivered.iter().map(|&x| (x as f64) * (x as f64)).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (n * sum_sq)
}

/// Slot-level shootout at equal offered load.
///
/// Each station receives packets at `arrival_prob` per slot (asymmetric
/// loads via `weights`). TDMA runs the reservation scheduler; CSMA/CA is
/// modelled at slot level: every backlogged station transmits in a slot with
/// the standard p-persistence `1/(backlogged stations)`, a lone transmitter
/// succeeds, two or more collide (WaveLAN cannot detect collisions, so a
/// collision costs the whole slot).
pub fn compare_with_csma<R: Rng + ?Sized>(
    stations: usize,
    slots_per_frame: usize,
    frames: usize,
    arrival_prob: f64,
    weights: &[f64],
    rng: &mut R,
) -> MacComparison {
    assert_eq!(weights.len(), stations);
    let total_slots = frames * slots_per_frame;

    // --- TDMA ---
    let mut scheduler = TdmaScheduler::new(stations, slots_per_frame);
    let mut queues = vec![0u64; stations];
    let mut tdma_delivered = vec![0u64; stations];
    for _ in 0..frames {
        let schedule = scheduler.schedule();
        for slot in &schedule.slots {
            // Arrivals happen every slot.
            for (s, q) in queues.iter_mut().enumerate() {
                if rng.gen::<f64>() < arrival_prob * weights[s] {
                    *q += 1;
                }
            }
            if let Some(owner) = slot {
                if queues[*owner] > 0 {
                    queues[*owner] -= 1;
                    tdma_delivered[*owner] += 1;
                }
            }
        }
        for (s, &q) in queues.iter().enumerate() {
            scheduler.reserve(s, q);
        }
    }
    let tdma_total: u64 = tdma_delivered.iter().sum();

    // --- CSMA/CA ---
    let mut queues = vec![0u64; stations];
    let mut csma_delivered = vec![0u64; stations];
    for _ in 0..total_slots {
        for (s, q) in queues.iter_mut().enumerate() {
            if rng.gen::<f64>() < arrival_prob * weights[s] {
                *q += 1;
            }
        }
        let backlogged: Vec<usize> = (0..stations).filter(|&s| queues[s] > 0).collect();
        if backlogged.is_empty() {
            continue;
        }
        let p = 1.0 / backlogged.len() as f64;
        let transmitters: Vec<usize> = backlogged
            .into_iter()
            .filter(|_| rng.gen::<f64>() < p)
            .collect();
        if let [lone] = transmitters[..] {
            queues[lone] -= 1;
            csma_delivered[lone] += 1;
        }
        // 0 transmitters: idle slot; ≥2: collision, slot wasted.
    }
    let csma_total: u64 = csma_delivered.iter().sum();

    MacComparison {
        tdma_throughput: tdma_total as f64 / total_slots as f64,
        csma_throughput: csma_total as f64 / total_slots as f64,
        tdma_fairness: jain_index(&tdma_delivered),
        csma_fairness: jain_index(&csma_delivered),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Slots granted to `station` in a frame.
    fn granted(f: &FrameSchedule, station: usize) -> usize {
        f.slots.iter().filter(|s| **s == Some(station)).count()
    }

    #[test]
    fn schedule_reserves_the_beacon_slot() {
        let mut s = TdmaScheduler::new(3, 8);
        s.reserve(0, 10);
        let f = s.schedule();
        assert_eq!(f.slots[0], None);
        assert_eq!(f.slots.len(), 8);
    }

    #[test]
    fn idle_stations_get_nothing() {
        let mut s = TdmaScheduler::new(4, 9);
        s.reserve(1, 5);
        s.reserve(3, 5);
        let f = s.schedule();
        assert_eq!(granted(&f, 0), 0);
        assert_eq!(granted(&f, 2), 0);
        assert_eq!(granted(&f, 1) + granted(&f, 3), 8);
        // Equal demand → equal grants.
        assert_eq!(granted(&f, 1), granted(&f, 3));
    }

    #[test]
    fn grants_are_demand_proportional() {
        let mut s = TdmaScheduler::new(2, 13); // 12 data slots
        s.reserve(0, 30);
        s.reserve(1, 10);
        let f = s.schedule();
        assert_eq!(granted(&f, 0) + granted(&f, 1), 12);
        // 3:1 demand → 9:3 grants.
        assert_eq!(granted(&f, 0), 9, "{f:?}");
        assert_eq!(granted(&f, 1), 3, "{f:?}");
    }

    #[test]
    fn every_claimant_gets_a_floor_slot() {
        // One elephant, three mice: the mice still each get a slot (the
        // paper's "flexible bandwidth sharing" needs a control path).
        let mut s = TdmaScheduler::new(4, 10);
        s.reserve(0, 1_000);
        for m in 1..4 {
            s.reserve(m, 1);
        }
        let f = s.schedule();
        for m in 1..4 {
            assert!(granted(&f, m) >= 1, "mouse {m} starved: {f:?}");
        }
        assert!(granted(&f, 0) >= 5);
    }

    #[test]
    fn slots_are_interleaved_not_clumped() {
        let mut s = TdmaScheduler::new(2, 9);
        s.reserve(0, 8);
        s.reserve(1, 8);
        let f = s.schedule();
        // Equal grants interleave: adjacent data slots alternate owners.
        for w in f.slots[1..].windows(2) {
            if let (Some(a), Some(b)) = (w[0], w[1]) {
                assert_ne!(a, b, "{f:?}");
            }
        }
    }

    #[test]
    fn no_demand_means_idle_frame() {
        let s = TdmaScheduler::new(3, 6);
        let f = s.schedule();
        assert!(f.slots.iter().all(Option::is_none));
    }

    #[test]
    fn jain_index_properties() {
        assert!((jain_index(&[5, 5, 5, 5]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[10, 0, 0, 0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[0, 0]), 1.0);
        let mid = jain_index(&[8, 4, 2, 2]);
        assert!(mid > 0.25 && mid < 1.0);
    }

    #[test]
    fn tdma_wins_under_saturation() {
        // Saturated symmetric load: CSMA wastes slots on collisions; TDMA
        // fills every data slot — the paper's argument for reservation MACs
        // in pico-cells.
        let mut rng = StdRng::seed_from_u64(1);
        let c = compare_with_csma(8, 16, 400, 0.5, &[1.0; 8], &mut rng);
        assert!(c.tdma_throughput > 0.9, "{c:?}");
        assert!(c.csma_throughput < 0.6, "{c:?}");
        assert!(c.tdma_fairness > 0.98, "{c:?}");
    }

    #[test]
    fn light_load_is_a_wash() {
        // At light load, both deliver everything; TDMA pays only the beacon.
        let mut rng = StdRng::seed_from_u64(2);
        let c = compare_with_csma(4, 16, 400, 0.01, &[1.0; 4], &mut rng);
        assert!(
            (c.tdma_throughput - c.csma_throughput).abs() < 0.01,
            "{c:?}"
        );
    }

    #[test]
    fn tdma_tracks_asymmetric_demand() {
        // "bandwidth sharing among stations whose needs will vary with time":
        // a 4:2:1:1 load should deliver roughly 4:2:1:1 under TDMA.
        let mut rng = StdRng::seed_from_u64(3);
        let weights = [4.0, 2.0, 1.0, 1.0];
        let mut scheduler = TdmaScheduler::new(4, 17);
        let mut queues = [0u64; 4];
        let mut delivered = vec![0u64; 4];
        for _ in 0..600 {
            let schedule = scheduler.schedule();
            for slot in &schedule.slots {
                for (s, q) in queues.iter_mut().enumerate() {
                    if rng.gen::<f64>() < 0.04 * weights[s] {
                        *q += 1;
                    }
                }
                if let Some(owner) = slot {
                    if queues[*owner] > 0 {
                        queues[*owner] -= 1;
                        delivered[*owner] += 1;
                    }
                }
            }
            for (s, &q) in queues.iter().enumerate() {
                scheduler.reserve(s, q);
            }
        }
        let ratio = delivered[0] as f64 / delivered[2].max(1) as f64;
        assert!(
            (2.5..6.0).contains(&ratio),
            "4:1 load gave {ratio}: {delivered:?}"
        );
        // Nobody starves.
        assert!(delivered.iter().all(|&d| d > 100), "{delivered:?}");
    }
}
