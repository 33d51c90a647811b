//! Sweep-engine determinism guarantees, pinned:
//!
//! - the rendered `SweepDocument` must be byte-identical at any executor
//!   worker count (per-point seeds derive from content, not schedule);
//! - axis declaration order must not matter (the space is canonicalized
//!   before expansion, hashing, and ranking);
//! - per-point seed derivation must be collision-free across a
//!   1,000-point grid (a collision would make two configurations share
//!   noise, silently correlating their objectives).

use wavelan_analysis::json::to_string_pretty;
use wavelan_core::sweep::{preset, Axis, ParameterSpace, Sampling};
use wavelan_core::{Executor, Scale};

#[test]
fn document_bytes_identical_across_worker_counts() {
    let space = preset("oven-smoke").expect("preset exists");
    let serial = space
        .run(Scale::Smoke, 1996, &Executor::new(1))
        .expect("serial sweep runs");
    let parallel = space
        .run(Scale::Smoke, 1996, &Executor::new(8))
        .expect("parallel sweep runs");
    assert_eq!(
        to_string_pretty(&serial),
        to_string_pretty(&parallel),
        "sweep document must not depend on worker count"
    );
}

#[test]
fn document_bytes_identical_across_axis_declaration_order() {
    let space = preset("oven-smoke").expect("preset exists");
    let mut reversed = space.clone();
    reversed.axes.reverse();
    assert_eq!(
        space.canonical_hash(),
        reversed.canonical_hash(),
        "axis order must not change the space hash"
    );
    let exec = Executor::new(2);
    let forward = space.run(Scale::Smoke, 1996, &exec).expect("sweep runs");
    let backward = reversed.run(Scale::Smoke, 1996, &exec).expect("sweep runs");
    assert_eq!(
        to_string_pretty(&forward),
        to_string_pretty(&backward),
        "sweep document must not depend on axis declaration order"
    );
}

#[test]
fn thousand_point_grid_seeds_are_collision_free() {
    let levels: Vec<f64> = (0..10).map(f64::from).collect();
    let space = ParameterSpace::new(
        "collision-grid",
        preset("oven-smoke").expect("preset exists").base,
        Sampling::Grid,
        vec![
            Axis::levels("interferers[0].duty_pct", &levels),
            Axis::levels("stations[1].frame_bytes", &levels),
            Axis::levels("interferers[0].power_dbm", &levels),
        ],
    );
    let points = space.expand(1996).expect("expands");
    assert_eq!(points.len(), 1_000);
    let mut seeds: Vec<u64> = points.iter().map(|p| p.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(
        seeds.len(),
        1_000,
        "per-point seed collision in a 10^3 grid"
    );
}
