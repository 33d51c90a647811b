//! Registry completeness: every experiment is reachable by name, budgets
//! are honest, and the registry's static tables stay in sync.

use std::collections::HashSet;
use std::path::Path;
use wavelan_core::{registry, registry_spec_hashes, Executor, Scale};

/// Every artifact's canonical spec hash is pinned: an edit to any `spec()`
/// re-keys the result store and every trace header, so it must show up as
/// a diff of `tests/golden/spec_hashes.txt` (regenerate an intentional one
/// with `UPDATE_GOLDEN=1 cargo test --test registry`).
#[test]
fn spec_hashes_match_golden() {
    let rendered: String = registry_spec_hashes()
        .iter()
        .map(|(name, hash)| format!("{name} {hash:016x}\n"))
        .collect();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/spec_hashes.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden spec hashes");
    assert_eq!(
        rendered, golden,
        "an artifact spec changed — if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Canonical names and aliases never collide.
#[test]
fn names_and_aliases_are_unique() {
    let mut seen = HashSet::new();
    for e in registry::REGISTRY {
        assert!(
            seen.insert(e.artifact_name()),
            "duplicate artifact name {}",
            e.artifact_name()
        );
        for alias in e.aliases() {
            assert!(seen.insert(alias), "duplicate alias {alias}");
        }
    }
}

/// `NAMES` lists the registry in order, and every name and alias resolves
/// back to its own entry through `find`.
#[test]
fn every_name_round_trips_through_lookup() {
    assert_eq!(registry::NAMES.len(), registry::REGISTRY.len());
    for (name, entry) in registry::NAMES.iter().zip(registry::REGISTRY.iter()) {
        assert_eq!(*name, entry.artifact_name());
        let found = registry::find(name).expect("canonical name resolves");
        assert_eq!(found.artifact_name(), entry.artifact_name());
        for alias in entry.aliases() {
            let found = registry::find(alias).expect("alias resolves");
            assert_eq!(found.artifact_name(), entry.artifact_name());
        }
    }
    assert!(registry::find("no-such-artifact").is_none());
}

/// Every entry runs at smoke scale and reports the packet budget it
/// promised.
#[test]
fn every_entry_runs_at_smoke_scale() {
    let exec = Executor::default();
    for e in registry::REGISTRY {
        let report = e.run(Scale::Smoke, 1996, &exec);
        assert_eq!(report.artifact, e.artifact_name());
        assert_eq!(report.paper_artifact, e.paper_artifact());
        assert_eq!(
            report.packets,
            e.packet_budget(Scale::Smoke),
            "{}: report/budget mismatch",
            e.artifact_name()
        );
        assert!(
            !report.title.is_empty(),
            "{}: empty title",
            e.artifact_name()
        );
        assert!(
            !report.render().is_empty(),
            "{}: empty render",
            e.artifact_name()
        );
    }
}

/// For experiments that keep their trace analyses, the advertised packet
/// budget equals the transmissions the simulator actually counted — the
/// budget is requested transmissions, not an estimate.
#[test]
fn budgets_match_sim_counted_transmissions() {
    use wavelan_core::experiments::{body, multiroom, narrowband, walls};

    let exec = Executor::default();
    let scale = Scale::Smoke;
    let seed = 1996;

    let walls_result = walls::run_with(scale, seed, &exec);
    let walls_tx: u64 = walls_result
        .trials
        .iter()
        .map(|t| t.analysis.transmitted)
        .sum();
    assert_eq!(
        walls_tx,
        registry::find("table4").unwrap().packet_budget(scale)
    );

    let body_result = body::run_with(scale, seed, &exec);
    assert_eq!(
        body_result.no_body.transmitted + body_result.body.transmitted,
        registry::find("table8-9").unwrap().packet_budget(scale)
    );

    let narrowband_result = narrowband::run_with(scale, seed, &exec);
    let narrowband_tx: u64 = narrowband_result
        .trials
        .iter()
        .map(|t| t.analysis.transmitted)
        .sum();
    assert_eq!(
        narrowband_tx,
        registry::find("table10").unwrap().packet_budget(scale)
    );

    let multiroom_result = multiroom::run_with(scale, seed, &exec);
    let multiroom_tx: u64 = multiroom_result
        .locations
        .iter()
        .map(|l| l.analysis.transmitted)
        .sum();
    assert_eq!(
        multiroom_tx,
        registry::find("table5-7").unwrap().packet_budget(scale)
    );
}
