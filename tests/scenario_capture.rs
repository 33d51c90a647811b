//! The ported MAC/capture conformance tests, now expressed as scenario
//! scripts: the hand-wired choreography that used to live in
//! `wavelan-sim`'s capture tests is one declarative DAG each, and the
//! assertions are `require` conditions judged with structured verdicts.
//!
//! * `capture-chatter` — Section 7.4's capture effect: a strong in-room
//!   sender (threshold 25, deaf to distant chatter) transmits over a
//!   395 ft chatterer; every test packet captures the receiver away from
//!   the chatter frame it was locked on, and the chatter pays with
//!   truncations.
//! * `equal-power` — the symmetric null case: two equal-power jammers at
//!   the same distance never capture the receiver from each other (capture
//!   needs a ≥ 6 dB edge), so nothing is truncated.

use wavelan_core::scenario::library::{capture_chatter, equal_power, THRESHOLD_25};
use wavelan_core::scenario::run::ScenarioOutcome;
use wavelan_core::Scale;

const SEEDS: [u64; 3] = [1996, 1, 2];

/// Panics with every failed judgment's line and trace-slice context.
fn assert_passed(outcome: &ScenarioOutcome, seed: u64) {
    let failures: Vec<String> = outcome
        .judgments
        .iter()
        .filter(|j| !j.passed)
        .map(|j| format!("{}\n{}", j.line(), j.context))
        .collect();
    assert!(
        failures.is_empty(),
        "{} seed {seed} failed:\n{}",
        outcome.name,
        failures.join("\n")
    );
}

#[test]
fn capture_chatter_conformance_across_seeds() {
    for seed in SEEDS {
        let outcome = capture_chatter(seed, Scale::Smoke, THRESHOLD_25)
            .compile()
            .expect("library script compiles")
            .run();
        assert_passed(&outcome, seed);
        // Every named condition of the ported test is judged, in order.
        let names: Vec<&str> = outcome
            .judgments
            .iter()
            .map(|j| j.require.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "chatter-overlapped",
                "all-sent",
                "test-packets-captured-through",
                "no-test-truncation",
                "chatter-pays-the-price",
            ],
            "seed {seed}"
        );
    }
}

#[test]
fn equal_power_never_captures_across_seeds() {
    for seed in SEEDS {
        let outcome = equal_power(seed)
            .compile()
            .expect("library script compiles")
            .run();
        assert_passed(&outcome, seed);
        // The null result the scenario exists for: contention happened, yet
        // the symmetric geometry produced zero captures and zero truncation.
        let by_name = |n: &str| {
            outcome
                .judgments
                .iter()
                .find(|j| j.require == n)
                .unwrap_or_else(|| panic!("missing require {n}"))
                .actual
        };
        assert!(by_name("jammers-overlap") > 0.0, "seed {seed}");
        assert_eq!(by_name("equal-power-cannot-capture"), 0.0, "seed {seed}");
        assert_eq!(by_name("no-truncation"), 0.0, "seed {seed}");
    }
}
