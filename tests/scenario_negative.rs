//! Malformed-scenario paths: every way a script can be wrong produces a
//! typed [`ScenarioError`] naming the offending event or condition — never
//! a panic, and never a silently-ignored event.

use wavelan_core::scenario::{
    Action, Cmp, Quantity, Require, Role, ScenarioError, ScenarioScript, StationSpec,
};
use wavelan_net::testpkt::Endpoint;
use wavelan_sim::Point;

fn place(s: &mut ScenarioScript, event: &str, station: &str, sender: bool) {
    let role = if sender {
        Role::Scripted { peer: "rx".into() }
    } else {
        Role::Receiver
    };
    let endpoint = if sender {
        Endpoint::station(2)
    } else {
        Endpoint::station(1)
    };
    s.event(
        event,
        &[],
        Action::Place {
            station: station.into(),
            spec: StationSpec::new(
                endpoint,
                Point::feet(if sender { 7.0 } else { 0.0 }, 0.0),
                role,
            ),
        },
    );
}

#[test]
fn cyclic_dag_is_a_typed_error_naming_the_stuck_events() {
    let mut s = ScenarioScript::new("cyclic", 1);
    place(&mut s, "place-rx", "rx", false);
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
    // place-rx has no dependencies: it fires fine; only the cycle is stuck.
    let mut s = ScenarioScript::new("cyclic-partial", 1);
    place(&mut s, "place-rx", "rx", false);
    s.event("spin-1", &["spin-2"], Action::Wait { duration_ns: 1 });
    s.event("spin-2", &["spin-1"], Action::Wait { duration_ns: 1 });
    match s.compile().expect_err("cycle") {
        ScenarioError::Cycle { events } => assert_eq!(events, ["spin-1", "spin-2"]),
        other => panic!("expected Cycle, got {other:?}"),
    }
}

#[test]
fn assert_on_unknown_station_names_the_assert_event() {
    let mut s = ScenarioScript::new("ghost-assert", 1);
    place(&mut s, "place-rx", "rx", false);
    s.event(
        "check-ghost",
        &["place-rx"],
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
    let mut s = ScenarioScript::new("dangling", 1);
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
fn transmit_from_unscripted_station_is_rejected() {
    let mut s = ScenarioScript::new("not-scripted", 1);
    place(&mut s, "place-rx", "rx", false);
    s.event(
        "push",
        &["place-rx"],
        Action::Transmit {
            station: "rx".into(),
            packets: 1,
            spacing_ns: 1_000,
        },
    );
    match s
        .compile()
        .expect_err("receiver cannot be scripted-transmitting")
    {
        ScenarioError::NotScripted { event, station } => {
            assert_eq!(event, "push");
            assert_eq!(station, "rx");
        }
        other => panic!("expected NotScripted, got {other:?}"),
    }
}

#[test]
fn unsatisfiable_require_fails_with_the_condition_spelled_out() {
    let mut s = ScenarioScript::new("impossible", 1996);
    place(&mut s, "place-rx", "rx", false);
    place(&mut s, "place-tx", "tx", true);
    s.event(
        "send",
        &["place-rx", "place-tx"],
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
