//! Deterministic parallel trial executor.
//!
//! Every experiment in this crate is a list of *independent* trials: each
//! trial owns its scenario, its RNG (seeded purely from the experiment id,
//! the trial index, and the caller's base seed — see [`trial_seed`]), and
//! its analysis. That independence makes the fan-out embarrassingly
//! parallel, and the pure seed derivation makes it *deterministic*: results
//! are merged back in declaration order, so the output of a parallel run is
//! bit-identical to a serial one — `--jobs 8` and `--jobs 1` produce the
//! same tables, and the golden files don't care how many cores ran them.
//!
//! The pool is built on [`std::thread::scope`] (no external dependencies —
//! the build registry is offline): workers pull trial indices from a shared
//! atomic counter, write results into per-slot cells, and the scope join
//! guarantees completion before the merge.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Derives a trial's RNG seed purely from `(experiment id, trial index,
/// base seed)`.
///
/// SplitMix64-style finalization over the three inputs: statistically
/// independent streams for neighbouring indices and seeds (unlike the
/// `base + i` arithmetic it replaces, which made trial *i* of one
/// experiment collide with trial *i+1* of another), and no shared RNG
/// state anywhere — a trial's stream never depends on which worker ran it
/// or what ran before it.
pub fn trial_seed(experiment_id: u64, trial_index: u64, base_seed: u64) -> u64 {
    let mut z = base_seed
        .wrapping_add(experiment_id.wrapping_mul(0xA076_1D64_78BD_642F))
        .wrapping_add(trial_index.wrapping_mul(0xE703_7ED1_A0B4_28DB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A worker pool that fans independent trials across cores and merges
/// results in declaration order.
#[derive(Debug, Clone)]
pub struct Executor {
    jobs: usize,
}

impl Default for Executor {
    /// One worker per available core.
    fn default() -> Self {
        Executor::new(0)
    }
}

impl Executor {
    /// A pool with `jobs` workers; `0` means one per available core.
    pub fn new(jobs: usize) -> Executor {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            jobs
        };
        Executor { jobs }
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every item, in parallel across the pool, and returns
    /// the outputs **in input order**.
    ///
    /// `f` receives `(index, item)`. Because each trial seeds its own RNG
    /// from its index (not from shared state), the output vector is
    /// bit-identical regardless of worker count or scheduling. A panicking
    /// trial propagates out of the scope join, as it would serially.
    pub(crate) fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        self.map_with(items, || (), |_, i, it| f(i, it))
    }

    /// [`Executor::map`] with **per-worker state**: `init` runs once on each
    /// worker thread (once total for a serial pool) and the resulting state
    /// is threaded through every trial that worker executes.
    ///
    /// This is the hook for reusable scratch workspaces
    /// (`wavelan_sim::SimScratch`): buffers and memo caches warm up once per
    /// worker and serve every subsequent trial, instead of being rebuilt per
    /// trial. Determinism is unaffected as long as the state carries no
    /// trial-observable data — which worker (and thus which state instance)
    /// runs a trial is scheduling-dependent, so `f` must derive its RNG from
    /// the trial index alone, exactly as with `map`.
    pub(crate) fn map_with<I, T, S, F, N>(&self, items: Vec<I>, init: N, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        N: Fn() -> S + Sync,
        F: Fn(&mut S, usize, I) -> T + Sync,
    {
        let jobs = self.jobs.min(items.len());
        if jobs <= 1 {
            let mut state = init();
            return items
                .into_iter()
                .enumerate()
                .map(|(i, it)| f(&mut state, i, it))
                .collect();
        }
        let work: Vec<Mutex<Option<I>>> =
            items.into_iter().map(|it| Mutex::new(Some(it))).collect();
        let slots: Vec<Mutex<Option<T>>> = work.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| {
                    let mut state = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= work.len() {
                            break;
                        }
                        let item = work[i].lock().unwrap().take().expect("item claimed once");
                        let out = f(&mut state, i, item);
                        *slots[i].lock().unwrap() = Some(out);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("worker filled slot"))
            .collect()
    }

    /// [`Executor::map`] over a bare index range — for experiments whose
    /// trial list is described by constants rather than owned values.
    pub(crate) fn map_indices<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map((0..count).collect(), |_, i| f(i))
    }

    /// `Executor::map_with` over a bare index range.
    pub fn map_indices_with<T, S, F, N>(&self, count: usize, init: N, f: F) -> Vec<T>
    where
        T: Send,
        N: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        self.map_with((0..count).collect(), init, |s, _, i| f(s, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_preserves_declaration_order() {
        let exec = Executor::new(8);
        let out = exec.map((0..100).collect::<Vec<u64>>(), |i, v| {
            assert_eq!(i as u64, v);
            v * v
        });
        assert_eq!(out, (0..100).map(|v| v * v).collect::<Vec<u64>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let work = |i: usize| -> u64 {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(trial_seed(7, i as u64, 1996));
            (0..1_000).map(|_| rng.gen_range(0u64..1_000)).sum()
        };
        let serial = Executor::new(1).map_indices(64, work);
        let parallel = Executor::new(8).map_indices(64, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn map_with_worker_state_is_not_observable() {
        // State accumulates across trials on each worker (like a scratch
        // buffer), but outputs depend only on the trial index — so serial
        // and parallel runs agree bit-for-bit.
        let work = |state: &mut Vec<u64>, i: usize| -> u64 {
            state.push(i as u64);
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(trial_seed(9, i as u64, 7));
            rng.gen_range(0u64..1_000)
        };
        let serial = Executor::new(1).map_indices_with(64, Vec::new, work);
        let parallel = Executor::new(8).map_indices_with(64, Vec::new, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_means_available_parallelism() {
        assert!(Executor::new(0).jobs() >= 1);
        assert_eq!(Executor::new(3).jobs(), 3);
        assert_eq!(Executor::new(1).jobs(), 1);
    }

    #[test]
    fn trial_seed_streams_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for exp in 0..8u64 {
            for idx in 0..64u64 {
                for base in [1u64, 1996, 2026] {
                    assert!(seen.insert(trial_seed(exp, idx, base)));
                }
            }
        }
        // Pure: same inputs, same seed.
        assert_eq!(trial_seed(3, 5, 1996), trial_seed(3, 5, 1996));
    }
}
