//! Event-DAG scenario layer conformance: deterministic execution.
//!
//! Three contracts under test:
//!
//! * **Worker-count independence** — every new scenario study renders a
//!   bit-identical report on one worker and on eight, across several base
//!   seeds (the matrices fan their cells through the [`Executor`], so this
//!   exercises the same merge contract as `determinism.rs` does for the
//!   registry experiments).
//! * **Declaration-order independence** — ready events fire in the pinned
//!   canonical order (action priority, ties by event *name*), so permuting
//!   a script's event declarations changes neither the fire order nor one
//!   bit of the outcome.
//! * **The PR 4 regression, as a ground-truth condition** — a capture test
//!   whose sender *hears* the foreign chatter defers instead of
//!   transmitting over it; the scenario's first `require`
//!   (`chatter-overlapped`, `overlap_count > 0`) now fails loudly instead
//!   of letting the capture numbers pass vacuously.

use wavelan_core::scenario::library::{capture_chatter, run_named, THRESHOLD_25};
use wavelan_core::scenario::{Action, Cmp, Quantity, Require, ScenarioScript};
use wavelan_core::{Executor, Scale, ScenarioSpec};
use wavelan_mac::Thresholds;
use wavelan_sim::Point;

const SEEDS: [u64; 3] = [3, 41, 1996];

/// The three studies introduced with the scenario layer (the two ported
/// conformance scripts get the same treatment in `scenario_capture.rs`).
const NEW_SCENARIOS: [&str; 3] = ["walk-by", "oven-sweep", "dense-cell"];

#[test]
fn new_scenarios_render_identically_on_one_and_eight_workers() {
    let serial = Executor::new(1);
    let parallel = Executor::new(8);
    for name in NEW_SCENARIOS {
        for seed in SEEDS {
            let a = run_named(name, seed, Scale::Smoke, &serial).expect("known scenario");
            let b = run_named(name, seed, Scale::Smoke, &parallel).expect("known scenario");
            assert_eq!(
                a.report.render(),
                b.report.render(),
                "{name} report differs between --jobs 1 and --jobs 8 at seed {seed}"
            );
            let lines = |r: &wavelan_core::scenario::ScenarioRun| {
                r.judgments.iter().map(|j| j.line()).collect::<Vec<_>>()
            };
            assert_eq!(
                lines(&a),
                lines(&b),
                "{name} judgments differ between --jobs 1 and --jobs 8 at seed {seed}"
            );
            assert!(a.passed(), "{name} seed {seed} failed: {:?}", lines(&a));
        }
    }
}

/// A small five-event script over a spec-built pair whose DAG admits
/// several valid firing orders; `perm` only changes the *declaration*
/// order.
fn permutable_script(seed: u64, perm: &[usize; 5]) -> ScenarioScript {
    let spec = ScenarioSpec::pair("permutable", (0.0, 0.0), (7.0, 0.0), 20);
    let mut s = ScenarioScript::new(spec, &["rx", "tx"], seed);
    let events: [(&str, &[&str], Action); 5] = [
        (
            "nudge-tx",
            &[],
            Action::Move {
                station: "tx".into(),
                to: Point::feet(7.5, 0.0),
                duration_ns: 0,
                steps: 1,
            },
        ),
        (
            "settle",
            &[],
            Action::Wait {
                duration_ns: 2_000_000,
            },
        ),
        (
            "send",
            &["settle"],
            Action::Transmit {
                station: "tx".into(),
                packets: 20,
                spacing_ns: 6_100_000,
            },
        ),
        (
            "cool-down",
            &["send"],
            Action::Wait {
                duration_ns: 10_000_000,
            },
        ),
        (
            "check",
            &["cool-down", "nudge-tx"],
            Action::Assert {
                require: Require::new(
                    "some-delivery",
                    Quantity::Delivered {
                        receiver: "rx".into(),
                        from: Some("tx".into()),
                    },
                    Cmp::Ge,
                    1.0,
                ),
            },
        ),
    ];
    for &i in perm {
        let (name, after, action) = &events[i];
        s.event(name, after, action.clone());
    }
    s.require(
        "all-sent",
        Quantity::Transmitted {
            station: "tx".into(),
        },
        Cmp::Eq,
        20.0,
    );
    s
}

#[test]
fn fire_order_and_outcome_survive_declaration_permutation() {
    // A handful of distinct permutations, including fully reversed.
    let perms: [[usize; 5]; 4] = [
        [0, 1, 2, 3, 4],
        [4, 3, 2, 1, 0],
        [2, 0, 4, 1, 3],
        [1, 4, 0, 3, 2],
    ];
    for seed in SEEDS {
        let reference = permutable_script(seed, &perms[0])
            .compile()
            .expect("compiles");
        let ref_outcome = reference.run();
        assert!(ref_outcome.passed(), "reference outcome failed");
        for perm in &perms[1..] {
            let compiled = permutable_script(seed, perm).compile().expect("compiles");
            assert_eq!(
                compiled.fire_order, reference.fire_order,
                "fire order depends on declaration order at seed {seed} (perm {perm:?})"
            );
            let outcome = compiled.run();
            assert_eq!(
                format!("{:?}", outcome.result),
                format!("{:?}", ref_outcome.result),
                "trial result depends on declaration order at seed {seed} (perm {perm:?})"
            );
            let lines: Vec<String> = outcome.judgments.iter().map(|j| j.line()).collect();
            let ref_lines: Vec<String> = ref_outcome.judgments.iter().map(|j| j.line()).collect();
            assert_eq!(lines, ref_lines);
        }
    }
}

#[test]
fn deaf_sender_transmits_over_chatter_hearing_sender_fails_the_overlap_require() {
    // Threshold 25: the sender cannot hear 395 ft chatter, transmits over
    // it, and every require — overlap included — holds.
    let deaf = capture_chatter(1996, Scale::Smoke, THRESHOLD_25)
        .compile()
        .expect("compiles");
    let outcome = deaf.run();
    assert!(outcome.passed(), "threshold-25 sender passes");

    // Default thresholds: the sender hears the chatter and defers (the PR 4
    // mutual-CSMA-deferral shape). The first require must catch it by name.
    let hearing = capture_chatter(1996, Scale::Smoke, Thresholds::default().receive_level)
        .compile()
        .expect("compiles");
    let outcome = hearing.run();
    assert_eq!(outcome.name, "capture-chatter");
    let fail = outcome
        .judgments
        .iter()
        .find(|j| !j.passed)
        .expect("a deferring sender cannot satisfy the overlap require");
    assert_eq!(
        fail.require, "chatter-overlapped",
        "the overlap guard must be the require that fails"
    );
    assert_eq!(fail.actual, 0.0);
    // The rendered verdict names the condition and the observed value, and
    // the context quotes the global overlap count at judging time.
    let msg = fail.line();
    assert!(
        msg.contains("chatter-overlapped") && msg.contains("overlap_count"),
        "diagnostic should name the violated condition: {msg}"
    );
    assert!(
        fail.context.contains("overlap_count=0"),
        "context should quote the overlap count: {}",
        fail.context
    );
}
