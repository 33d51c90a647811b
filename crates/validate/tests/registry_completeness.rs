//! The corpus-completeness contract: the registry's `paper_tables`
//! metadata and the expectation corpus must agree exactly, in both
//! directions — an artifact claiming a paper table the corpus doesn't
//! check is an unguarded reproduction, and a corpus entry no artifact
//! claims can never run.

use std::collections::BTreeSet;
use wavelan_core::registry::REGISTRY;
use wavelan_validate::corpus;

#[test]
fn corpus_and_registry_match_one_to_one() {
    // Every `(paper table label, artifact name)` pair the registry claims.
    let registry_side: BTreeSet<(&str, &str)> = REGISTRY
        .iter()
        .flat_map(|e| {
            e.paper_tables()
                .iter()
                .map(|label| (*label, e.artifact_name()))
        })
        .collect();
    let corpus_side: BTreeSet<(&str, &str)> = corpus()
        .iter()
        .map(|t| (t.paper_table, t.artifact))
        .collect();

    let unguarded: Vec<_> = registry_side.difference(&corpus_side).collect();
    assert!(
        unguarded.is_empty(),
        "registry artifacts claim paper tables the corpus never checks: {unguarded:?}"
    );
    let orphaned: Vec<_> = corpus_side.difference(&registry_side).collect();
    assert!(
        orphaned.is_empty(),
        "corpus entries reference paper tables no registry artifact claims: {orphaned:?}"
    );
}

#[test]
fn every_paper_table_and_figure_is_covered() {
    // Tables 2-14 and Figures 1-3, by name — the acceptance floor: a
    // registry refactor must not silently drop a paper artifact from
    // validation.
    let covered: BTreeSet<&str> = corpus().iter().map(|t| t.paper_table).collect();
    for n in 2..=14 {
        let label = format!("Table {n}");
        assert!(
            covered.contains(label.as_str()),
            "no expectations for {label}"
        );
    }
    for n in 1..=3 {
        let label = format!("Figure {n}");
        assert!(
            covered.contains(label.as_str()),
            "no expectations for {label}"
        );
    }
}

#[test]
fn extension_artifacts_claim_no_paper_tables() {
    // Extensions go beyond the paper's evaluation; the fidelity corpus is
    // only about the paper's own artifacts.
    for e in REGISTRY {
        let is_paper =
            e.artifact_name().starts_with("table") || e.artifact_name().starts_with("figure");
        assert_eq!(
            !e.paper_tables().is_empty(),
            is_paper,
            "{} paper_tables metadata looks wrong",
            e.artifact_name()
        );
    }
}
