//! Seed robustness for the paper's headline artifact: Table 3 and Figure 2
//! must keep their *shape* — undamaged packets living well above damaged
//! ones in signal level, and the error-region cliff at level ≈ 8–10 —
//! across base seeds, not just at the calibrated `--seed 1996` golden run.
//!
//! The assertions here are deliberately looser than the per-experiment unit
//! tests: they pin the physics (where the cliff is), not the realization
//! (exact counts at one seed).

use wavelan_core::experiments::signal_vs_error::{self, ERROR_REGION_LEVEL};
use wavelan_core::{Executor, Scale};

/// Three seeds distinct from the repro default (1996) and from the
/// experiment's own unit-test seed.
const SEEDS: [u64; 3] = [7, 99, 2024];

#[test]
fn table3_separation_holds_across_seeds() {
    for seed in SEEDS {
        let result = signal_vs_error::run_with(Scale::Smoke, seed, &Executor::default());
        let rows = result.table3_rows();
        let undamaged = &rows[1];
        let body_damaged = &rows[4];
        assert!(
            undamaged.packets > 500,
            "seed {seed}: {}",
            undamaged.packets
        );
        assert!(
            body_damaged.packets > 10,
            "seed {seed}: {}",
            body_damaged.packets
        );
        // The separation the paper leads with: damaged packets' levels sit
        // below the error-region boundary, undamaged ones well above it.
        assert!(
            body_damaged.level.mean() < ERROR_REGION_LEVEL + 0.5,
            "seed {seed}: damaged level {}",
            body_damaged.level.mean()
        );
        assert!(
            undamaged.level.mean() > body_damaged.level.mean() + 3.0,
            "seed {seed}: undamaged {} vs damaged {}",
            undamaged.level.mean(),
            body_damaged.level.mean()
        );
    }
}

#[test]
fn figure2_error_cliff_sits_at_the_papers_level() {
    for seed in SEEDS {
        let result = signal_vs_error::run_with(Scale::Smoke, seed, &Executor::default());

        // Above the cliff (level ≥ 10): essentially clean at every position.
        // Below it (level < 8.5): the error rate has taken off.
        let mut below_cliff = 0usize;
        let mut worst_below = 0.0f64;
        for p in &result.positions {
            let err = p.loss + p.damaged_fraction;
            if p.mean_level >= ERROR_REGION_LEVEL + 2.0 {
                assert!(
                    err < 0.05,
                    "seed {seed}: position {}ft (level {:.1}) has error rate {err:.3} above the cliff",
                    p.distance_ft,
                    p.mean_level
                );
            }
            if p.mean_level < ERROR_REGION_LEVEL + 0.5 {
                below_cliff += 1;
                worst_below = worst_below.max(err);
            }
        }
        // The ladder reaches into the error region, and errors are no longer
        // rare there — the cliff, not a gentle slope.
        assert!(
            below_cliff >= 1,
            "seed {seed}: ladder never entered the error region"
        );
        assert!(
            worst_below > 0.10,
            "seed {seed}: worst error rate below the cliff only {worst_below:.3}"
        );
    }
}
