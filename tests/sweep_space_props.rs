//! Property tests for the sweep-space boundary: `ParameterSpace::parse` is
//! the only way outside text reaches `ScenarioSpec::from_value`, so every
//! malformed space — arbitrary bytes, a truncated preset, or a preset with
//! one field of the wrong type or an impossible value, or one key renamed,
//! dropped or added — must come back as a typed `SpecError`, never a panic
//! and never a silently accepted space. Each preset also round-trips
//! through `parse` to its canonical form.

use proptest::prelude::*;
use wavelan_analysis::json::{self, to_string_pretty, Value};
use wavelan_core::sweep::{preset, ParameterSpace, PRESET_NAMES};

/// One step of a path into a JSON document.
#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// Every node below the root, as `(path, key it sits under)`.
fn node_paths(value: &Value, path: &mut Vec<Step>, key: &str, out: &mut Vec<(Vec<Step>, String)>) {
    if !path.is_empty() {
        out.push((path.clone(), key.to_string()));
    }
    match value {
        Value::Object(entries) => {
            for (k, v) in entries {
                path.push(Step::Key(k.clone()));
                node_paths(v, path, k, out);
                path.pop();
            }
        }
        Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                path.push(Step::Index(i));
                node_paths(v, path, key, out);
                path.pop();
            }
        }
        _ => {}
    }
}

/// The path of every object in the document, the root included.
fn object_paths(value: &Value, path: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match value {
        Value::Object(entries) => {
            out.push(path.clone());
            for (k, v) in entries {
                path.push(Step::Key(k.clone()));
                object_paths(v, path, out);
                path.pop();
            }
        }
        Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                path.push(Step::Index(i));
                object_paths(v, path, out);
                path.pop();
            }
        }
        _ => {}
    }
}

fn node_mut<'v>(value: &'v mut Value, path: &[Step]) -> &'v mut Value {
    path.iter().fold(value, |node, step| match (node, step) {
        (Value::Object(entries), Step::Key(k)) => {
            &mut entries.iter_mut().find(|(key, _)| key == k).expect("key").1
        }
        (Value::Array(items), Step::Index(i)) => &mut items[*i],
        _ => unreachable!("paths come from the same document"),
    })
}

/// Stands in for the lexeme `1e999` (a valid JSON number that parses to
/// infinity): the JSON writer prints a non-finite number as `null`, so the
/// mutated document is written first and the lexeme substituted after.
const NON_FINITE: &str = "@1e999@";

/// Replacements that no valid space can hold in place of `node`: every
/// other JSON type, a non-finite number for a number, and an unknown name
/// for any string other than a free-form `name`.
fn mutations(node: &Value, key: &str) -> Vec<Value> {
    let mut out = vec![
        Value::Null,
        Value::Bool(true),
        Value::Number("1".into()),
        Value::Str("bogus".into()),
        Value::Array(Vec::new()),
        Value::Object(Vec::new()),
    ];
    let same_type = |v: &Value| std::mem::discriminant(v) == std::mem::discriminant(node);
    out.retain(|v| !same_type(v));
    match node {
        Value::Number(_) => out.push(Value::Str(NON_FINITE.into())),
        Value::Str(_) if key != "name" => out.push(Value::Str("bogus".into())),
        _ => {}
    }
    out
}

fn preset_texts() -> Vec<(&'static str, String)> {
    PRESET_NAMES
        .iter()
        .map(|&name| {
            let space = preset(name).expect("preset exists");
            (name, to_string_pretty(&space))
        })
        .collect()
}

#[test]
fn presets_round_trip_to_their_canonical_form() {
    for (name, text) in preset_texts() {
        let parsed = ParameterSpace::parse(&text).expect("preset parses");
        let space = preset(name).expect("preset exists");
        assert_eq!(parsed.canonical_hash(), space.canonical_hash(), "{name}");
        // The canonical form is a fixpoint of serialize → parse.
        let again = ParameterSpace::parse(&to_string_pretty(&parsed)).expect("reparses");
        assert_eq!(again, parsed, "{name}");
    }
}

#[test]
fn every_truncated_preset_is_rejected() {
    for (name, text) in preset_texts() {
        let text = text.trim_end();
        for cut in 0..text.len() {
            assert!(
                ParameterSpace::parse(&text[..cut]).is_err(),
                "{name}: the {cut}-byte prefix parsed"
            );
        }
    }
}

#[test]
fn every_single_field_mutation_is_rejected() {
    let (mut checked, mut non_finite) = (0, 0);
    for (name, text) in preset_texts() {
        let doc = json::parse(&text).expect("preset JSON parses");
        let mut paths = Vec::new();
        node_paths(&doc, &mut Vec::new(), "", &mut paths);
        for (path, key) in paths {
            let original = node_mut(&mut doc.clone(), &path).clone();
            for replacement in mutations(&original, &key) {
                let mut mutated = doc.clone();
                *node_mut(&mut mutated, &path) = replacement.clone();
                let text =
                    to_string_pretty(&mutated).replace(&format!("\"{NON_FINITE}\""), "1e999");
                assert!(
                    ParameterSpace::parse(&text).is_err(),
                    "{name}: {path:?} = {replacement:?} was accepted"
                );
                checked += 1;
                non_finite += usize::from(text.contains("1e999"));
            }
        }
    }
    assert!(checked > 500, "only {checked} mutations checked");
    assert!(non_finite > 50, "only {non_finite} non-finite mutations");
}

#[test]
fn every_key_rename_drop_and_addition_is_rejected() {
    let mut checked = 0;
    for (name, text) in preset_texts() {
        let doc = json::parse(&text).expect("preset JSON parses");
        let mut objects = Vec::new();
        object_paths(&doc, &mut Vec::new(), &mut objects);
        for path in objects {
            let mut rejects = |mutated: Value, what: String| {
                assert!(
                    ParameterSpace::parse(&to_string_pretty(&mutated)).is_err(),
                    "{name}: {path:?}: {what} was accepted"
                );
                checked += 1;
            };
            let Value::Object(entries) = node_mut(&mut doc.clone(), &path).clone() else {
                unreachable!("object paths lead to objects");
            };
            for (i, (key, _)) in entries.iter().enumerate() {
                // A typo'd key: the last letter dropped ("objectiv", "wall").
                let typo = key[..key.len() - 1].to_string();
                let mut renamed = doc.clone();
                let Value::Object(e) = node_mut(&mut renamed, &path) else {
                    unreachable!()
                };
                e[i].0 = typo.clone();
                rejects(renamed, format!("{key:?} renamed to {typo:?}"));

                let mut dropped = doc.clone();
                let Value::Object(e) = node_mut(&mut dropped, &path) else {
                    unreachable!()
                };
                e.remove(i);
                rejects(dropped, format!("{key:?} dropped"));
            }
            let mut added = doc.clone();
            let Value::Object(e) = node_mut(&mut added, &path) else {
                unreachable!()
            };
            e.push(("colour".into(), Value::Str("metal".into())));
            rejects(added, "an added \"colour\" key".into());
        }
    }
    assert!(checked > 100, "only {checked} key mutations checked");
}

proptest! {
    /// Arbitrary bytes never parse into a space and never panic.
    #[test]
    fn arbitrary_bytes_are_rejected(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes);
        prop_assert!(ParameterSpace::parse(&text).is_err());
    }

    /// A preset with a stretch of arbitrary bytes spliced in is rejected or
    /// parsed — never a panic.
    #[test]
    fn spliced_presets_never_panic(
        which in 0..PRESET_NAMES.len(),
        at_frac in 0.0f64..1.0,
        junk in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let (_, text) = &preset_texts()[which];
        let at = (text.len() as f64 * at_frac) as usize;
        let mut bytes = text.as_bytes()[..at].to_vec();
        bytes.extend(&junk);
        bytes.extend(&text.as_bytes()[at..]);
        let _ = ParameterSpace::parse(&String::from_utf8_lossy(&bytes));
    }
}
