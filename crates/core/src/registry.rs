//! The experiment registry: one [`Experiment`] entry per reproduced paper
//! artifact, enumerated in paper order.
//!
//! Callers (the bench crate, the `repro` binary, the root integration
//! tests) look experiments up here instead of hard-coding per-artifact
//! dispatch: [`find`] resolves an artifact name (or alias such as `table5`
//! for `table5-7`), [`REGISTRY`] iterates everything in paper order, and
//! [`NAMES`] is the canonical name list.

use crate::executor::Executor;
use crate::experiments::common::Scale;
use crate::experiments::{
    adaptive_fec, body, competing, harq, hidden_terminal, in_room, multiroom, narrowband,
    path_loss, quality_threshold, related_work, roaming, signal_vs_error, ss_phone, tdma,
    threshold, walls,
};
use crate::spec::ScenarioSpec;
use wavelan_analysis::Report;

/// One registered experiment, producing one paper artifact (or one
/// contiguous group, e.g. Tables 5–7, that the paper derives from a single
/// set of trials).
pub trait Experiment: Sync {
    /// The experiment's seed-stream id (see [`crate::executor::trial_seed`]).
    /// Artifacts derived from the same trials share a stream id; it is not
    /// unique across the registry.
    fn id(&self) -> u64;

    /// Canonical artifact name (`table2`, `figure1`, …) — unique, and the
    /// name [`NAMES`] lists.
    fn artifact_name(&self) -> &'static str;

    /// Alternative names accepted by [`find`] (e.g. `table5` for the
    /// `table5-7` group).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// The paper artifact this reproduces, for humans (`Table 2 (in-room
    /// base case)`).
    fn paper_artifact(&self) -> &'static str;

    /// The individual paper tables/figures this artifact reproduces, as the
    /// labels the fidelity expectation corpus (`wavelan-validate`) is keyed
    /// by: `"Table 2"` … `"Table 14"`, `"Figure 1"` … `"Figure 3"`. A
    /// grouped artifact lists every member (`table5-7` → Tables 5, 6, 7);
    /// extension studies beyond the paper's evaluation return the empty
    /// slice. The registry-completeness test enforces a one-to-one match
    /// between these labels and the expectation corpus, both directions.
    fn paper_tables(&self) -> &'static [&'static str] {
        &[]
    }

    /// Requested test-packet transmissions at `scale` — the budget the
    /// experiment asks the simulator for, not the stochastic delivery
    /// count.
    fn packet_budget(&self, scale: Scale) -> u64;

    /// The experiment's representative scenario as a declarative
    /// [`ScenarioSpec`] value: the geometry, placements, interference, and
    /// knobs of the artifact's canonical trial (multi-trial artifacts pick
    /// the trial that defines the artifact — e.g. the jamming placement for
    /// Tables 11–13). This is the spec `repro sweep` spaces perturb and the
    /// serialization `/artifacts` listings can expose; the driver's own
    /// trial loop remains authoritative for the paper tables.
    fn spec(&self) -> ScenarioSpec;

    /// Runs the experiment and returns its structured report.
    fn run(&self, scale: Scale, seed: u64, exec: &Executor) -> Report;
}

/// Every experiment, in paper order (Tables 2–14 and Figures 1–3
/// interleaved as the paper presents them, then the extension studies).
pub static REGISTRY: [&dyn Experiment; 18] = [
    &in_room::Table2,
    &path_loss::Figure1,
    &signal_vs_error::Table3,
    &signal_vs_error::Figure2,
    &threshold::Figure3,
    &walls::Table4,
    &multiroom::Tables5To7,
    &body::Tables8To9,
    &narrowband::Table10,
    &ss_phone::Tables11To13,
    &competing::Table14,
    &adaptive_fec::Fec,
    &harq::Harq,
    &related_work::RelatedWork,
    &tdma::Tdma,
    &quality_threshold::QualityThreshold,
    &roaming::Roaming,
    &hidden_terminal::HiddenTerminal,
];

/// Canonical artifact names, aligned index-for-index with [`REGISTRY`]
/// (asserted by the registry-completeness test).
pub const NAMES: [&str; 18] = [
    "table2",
    "figure1",
    "table3",
    "figure2",
    "figure3",
    "table4",
    "table5-7",
    "table8-9",
    "table10",
    "table11-13",
    "table14",
    "fec",
    "harq",
    "related-work",
    "tdma",
    "quality-threshold",
    "roaming",
    "hidden-terminal",
];

/// Resolves an artifact name or alias to its registry entry.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    REGISTRY
        .iter()
        .copied()
        .find(|e| e.artifact_name() == name || e.aliases().contains(&name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_align_with_registry() {
        for (name, entry) in NAMES.iter().zip(REGISTRY.iter()) {
            assert_eq!(*name, entry.artifact_name());
        }
    }

    #[test]
    fn lookup_resolves_names_and_aliases() {
        assert_eq!(find("table2").expect("found").artifact_name(), "table2");
        assert_eq!(find("table6").expect("found").artifact_name(), "table5-7");
        assert_eq!(
            find("table12").expect("found").artifact_name(),
            "table11-13"
        );
        assert!(find("table99").is_none());
    }

    #[test]
    fn every_spec_builds_and_round_trips() {
        for entry in REGISTRY.iter() {
            let spec = entry.spec();
            assert_eq!(spec.name, entry.artifact_name(), "spec name mismatch");
            assert!(spec.packet_budget > 0, "{}: empty budget", spec.name);
            let (_, _, _) = spec
                .build(1996)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.artifact_name()));
            let json = spec.to_json();
            let back = ScenarioSpec::from_value(&wavelan_analysis::json::parse(&json).unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", entry.artifact_name()));
            assert_eq!(back, spec, "{}: JSON round-trip", entry.artifact_name());
        }
    }
}
