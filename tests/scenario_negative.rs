//! Malformed-scenario paths: every way a script can be wrong produces a
//! typed [`ScenarioError`] naming the offending event, station or
//! condition — never a panic, and never a silently-ignored event.

use wavelan_core::scenario::{Action, Cmp, Quantity, Require, ScenarioError, ScenarioScript};
use wavelan_core::spec::Role;
use wavelan_core::ScenarioSpec;

/// The smallest spec: receiver `rx` at the origin, sender `tx` 7 ft away.
fn pair_spec(name: &str) -> ScenarioSpec {
    ScenarioSpec::pair(name, (0.0, 0.0), (7.0, 0.0), 5)
}

/// A script over [`pair_spec`] with no events yet.
fn pair_script(name: &str, seed: u64) -> ScenarioScript {
    ScenarioScript::new(pair_spec(name), &["rx", "tx"], seed)
}

#[test]
fn cyclic_dag_is_a_typed_error_naming_the_stuck_events() {
    let mut s = pair_script("cyclic", 1);
    s.event("a", &["b"], Action::Wait { duration_ns: 1 });
    s.event("b", &["a"], Action::Wait { duration_ns: 1 });
    let err = s.compile().expect_err("a ↔ b can never fire");
    match err {
        ScenarioError::Cycle { events } => {
            assert_eq!(events, ["a", "b"], "the stuck events, in name order");
        }
        other => panic!("expected Cycle, got {other:?}"),
    }
}

#[test]
fn cycle_error_does_not_blame_fireable_events() {
    // warm-up has no dependencies: it fires fine; only the cycle is stuck.
    let mut s = pair_script("cyclic-partial", 1);
    s.event("warm-up", &[], Action::Wait { duration_ns: 1 });
    s.event("spin-1", &["spin-2"], Action::Wait { duration_ns: 1 });
    s.event("spin-2", &["spin-1"], Action::Wait { duration_ns: 1 });
    match s.compile().expect_err("cycle") {
        ScenarioError::Cycle { events } => assert_eq!(events, ["spin-1", "spin-2"]),
        other => panic!("expected Cycle, got {other:?}"),
    }
}

#[test]
fn assert_on_unknown_station_names_the_assert_event() {
    let mut s = pair_script("ghost-assert", 1);
    s.event(
        "check-ghost",
        &[],
        Action::Assert {
            require: Require::new(
                "ghost-delivered",
                Quantity::Delivered {
                    receiver: "ghost".into(),
                    from: None,
                },
                Cmp::Ge,
                1.0,
            ),
        },
    );
    match s.compile().expect_err("unknown station") {
        ScenarioError::UnknownStation { context, station } => {
            assert!(
                context.contains("check-ghost"),
                "error should name the assert event, got context {context:?}"
            );
            assert_eq!(station, "ghost");
        }
        other => panic!("expected UnknownStation, got {other:?}"),
    }
}

#[test]
fn unknown_dependency_names_both_ends_of_the_edge() {
    let mut s = pair_script("dangling", 1);
    s.event("late", &["never-declared"], Action::Wait { duration_ns: 1 });
    match s.compile().expect_err("dangling edge") {
        ScenarioError::UnknownDependency { event, dependency } => {
            assert_eq!(event, "late");
            assert_eq!(dependency, "never-declared");
        }
        other => panic!("expected UnknownDependency, got {other:?}"),
    }
}

#[test]
fn station_names_must_match_the_spec_stations_one_to_one() {
    for names in [&["rx"][..], &["rx", "tx", "extra"][..]] {
        let s = ScenarioScript::new(pair_spec("miscounted"), names, 1);
        match s.compile().expect_err("one name per spec station") {
            ScenarioError::StationNames {
                names: given,
                stations,
            } => assert_eq!((given, stations), (names.len(), 2)),
            other => panic!("expected StationNames, got {other:?}"),
        }
    }
}

#[test]
fn duplicate_station_name_is_rejected() {
    let s = ScenarioScript::new(pair_spec("twins"), &["rx", "rx"], 1);
    match s.compile().expect_err("two stations named rx") {
        ScenarioError::DuplicateStation { station } => assert_eq!(station, "rx"),
        other => panic!("expected DuplicateStation, got {other:?}"),
    }
}

#[test]
fn spec_that_does_not_build_is_a_typed_error() {
    let mut spec = pair_spec("sender-first");
    spec.stations.swap(0, 1);
    let s = ScenarioScript::new(spec, &["tx", "rx"], 1);
    match s.compile().expect_err("the receiver must come first") {
        ScenarioError::Spec(e) => assert!(e.0.contains("receiver"), "{e}"),
        other => panic!("expected Spec, got {other:?}"),
    }
}

#[test]
fn transmit_from_unscripted_station_is_rejected() {
    // Only a spec sender can be scripted: neither the receiver nor a
    // jammer (which transmits, but saturating on its own) can.
    let mut spec = pair_spec("not-a-sender");
    let mut jammer = spec.stations[1].clone();
    jammer.role = Role::Jammer;
    spec.stations.push(jammer);
    for target in ["rx", "jam"] {
        let mut s = ScenarioScript::new(spec.clone(), &["rx", "tx", "jam"], 1);
        s.event(
            "push",
            &[],
            Action::Transmit {
                station: target.into(),
                packets: 1,
                spacing_ns: 1_000,
            },
        );
        match s
            .compile()
            .expect_err("only a sender transmits scripted frames")
        {
            ScenarioError::NotSender { event, station } => {
                assert_eq!(event, "push");
                assert_eq!(station, target);
            }
            other => panic!("expected NotSender, got {other:?}"),
        }
    }
}

#[test]
fn unsatisfiable_require_fails_with_the_condition_spelled_out() {
    let mut s = pair_script("impossible", 1996);
    s.event(
        "send",
        &[],
        Action::Transmit {
            station: "tx".into(),
            packets: 5,
            spacing_ns: 6_100_000,
        },
    );
    s.require(
        "five-is-not-a-million",
        Quantity::Transmitted {
            station: "tx".into(),
        },
        Cmp::Ge,
        1_000_000.0,
    );
    s.require(
        "nor-a-million-deliveries",
        Quantity::Delivered {
            receiver: "rx".into(),
            from: Some("tx".into()),
        },
        Cmp::Ge,
        1_000_000.0,
    );
    let outcome = s.compile().expect("the script itself is well-formed").run();
    let fail = outcome
        .judgments
        .iter()
        .find(|j| !j.passed)
        .expect("five packets can never satisfy a million-packet bound");
    assert_eq!(fail.require, "five-is-not-a-million");
    assert_eq!(fail.quantity, "transmitted(tx)");
    assert_eq!(fail.actual, 5.0);
    assert_eq!(fail.bound, 1_000_000.0);
    let msg = fail.line();
    assert!(
        msg.contains("five-is-not-a-million") && msg.contains("1000000"),
        "diagnostic should spell out the condition: {msg}"
    );
    // The context carries the referenced station's counters ...
    assert!(
        fail.context.contains("station \"tx\"") && fail.context.contains("transmitted=5"),
        "context should quote the sender's counters: {}",
        fail.context
    );
    // ... and, for a trace-based quantity, the tail of the receiver's trace
    // nearest the judging instant.
    let fail = outcome
        .judgments
        .iter()
        .find(|j| j.require == "nor-a-million-deliveries")
        .expect("judged");
    assert!(!fail.passed);
    assert_eq!(fail.quantity, "delivered(rx from tx)");
    assert!(
        fail.context.contains("trace slice of \"rx\"") && fail.context.contains("seq="),
        "context should quote the receiver's trace slice: {}",
        fail.context
    );
}
