//! Serial-vs-parallel equivalence: every experiment must produce the exact
//! same result (bit-equal floats, same ordering) on one worker and on
//! eight, across several base seeds. This is the executor's core contract —
//! trial seeds derive purely from `(experiment id, trial index, base
//! seed)`, and results merge in declaration order, so worker count and
//! scheduling cannot leak into the output.
//!
//! Eight workers on any host (even single-core) still exercises the
//! work-stealing counter and out-of-order completion; the merge is what is
//! under test, not the thread count.

use wavelan_core::experiments::{
    body, in_room, path_loss, signal_vs_error, tdma, threshold, walls,
};
use wavelan_core::{Executor, Scale};

const SEEDS: [u64; 3] = [3, 41, 1996];

/// Debug formatting round-trips f64 exactly (shortest representation that
/// parses back to the same bits), so string equality here is float *bit*
/// equality plus structural equality, without every result type needing
/// `PartialEq`.
fn assert_identical<T: std::fmt::Debug>(serial: &T, parallel: &T, what: &str, seed: u64) {
    assert_eq!(
        format!("{serial:?}"),
        format!("{parallel:?}"),
        "{what} differs between --jobs 1 and --jobs 8 at seed {seed}"
    );
}

#[test]
fn experiments_are_jobcount_invariant() {
    let serial = Executor::new(1);
    let parallel = Executor::new(8);
    for seed in SEEDS {
        assert_identical(
            &in_room::run_with(Scale::Smoke, seed, &serial),
            &in_room::run_with(Scale::Smoke, seed, &parallel),
            "in_room",
            seed,
        );
        assert_identical(
            &walls::run_with(Scale::Smoke, seed, &serial),
            &walls::run_with(Scale::Smoke, seed, &parallel),
            "walls",
            seed,
        );
        assert_identical(
            &body::run_with(Scale::Smoke, seed, &serial),
            &body::run_with(Scale::Smoke, seed, &parallel),
            "body",
            seed,
        );
        assert_identical(
            &tdma::run_with(8, 200, seed, &serial),
            &tdma::run_with(8, 200, seed, &parallel),
            "tdma",
            seed,
        );
    }
}

#[test]
fn pooled_traces_merge_in_declaration_order() {
    // signal_vs_error concatenates per-position packet lists into one pooled
    // trace — the most order-sensitive merge in the suite. Check the pooled
    // packets and the per-position floats field by field, bit for bit.
    let serial = Executor::new(1);
    let parallel = Executor::new(8);
    for seed in SEEDS {
        let s = signal_vs_error::run_with(Scale::Smoke, seed, &serial);
        let p = signal_vs_error::run_with(Scale::Smoke, seed, &parallel);
        assert_eq!(s.pooled.transmitted, p.pooled.transmitted);
        assert_eq!(s.pooled.packets.len(), p.pooled.packets.len());
        for (a, b) in s.positions.iter().zip(&p.positions) {
            assert_eq!(
                a.mean_level.to_bits(),
                b.mean_level.to_bits(),
                "seed {seed}"
            );
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "seed {seed}");
            assert_eq!(
                a.damaged_fraction.to_bits(),
                b.damaged_fraction.to_bits(),
                "seed {seed}"
            );
        }
        assert_identical(&s.pooled.packets, &p.pooled.packets, "pooled packets", seed);
    }
}

#[test]
fn sweep_experiments_are_jobcount_invariant() {
    // The sweep-style drivers take explicit point lists / packet budgets
    // rather than a Scale; keep the budgets small.
    let serial = Executor::new(1);
    let parallel = Executor::new(8);
    for seed in SEEDS {
        assert_identical(
            &path_loss::run_with(&[0.0, 10.0, 30.0, 60.0], 120, seed, &serial),
            &path_loss::run_with(&[0.0, 10.0, 30.0, 60.0], 120, seed, &parallel),
            "path_loss",
            seed,
        );
        assert_identical(
            &threshold::run_with(&[16, 20, 24], 150, seed, &serial),
            &threshold::run_with(&[16, 20, 24], 150, seed, &parallel),
            "threshold",
            seed,
        );
    }
}
