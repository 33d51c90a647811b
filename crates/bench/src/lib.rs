//! # wavelan-bench
//!
//! The reproduction harness: the `repro` binary regenerates every table and
//! figure of the paper (`cargo run -p wavelan-bench --bin repro --release`),
//! and the Criterion benches (`cargo bench`) measure the substrates and run
//! the ablations called out in DESIGN.md.
//!
//! Artifact dispatch is a thin veneer over the experiment registry in
//! `wavelan_core::registry`: [`ARTIFACTS`] mirrors the registry's canonical
//! name list and [`run_report`] resolves names through
//! [`wavelan_core::registry::find`]. Integration tests run artifacts
//! in-process through these entry points: the golden-output regression test
//! renders `--scale smoke` through [`run_report`] and diffs against a
//! committed transcript, and the determinism test replays artifacts at
//! different worker counts.

use wavelan_analysis::Report;
use wavelan_core::registry;
use wavelan_core::{Executor, Scale};

pub use wavelan_analysis::RunDocument;

/// Names of all reproducible artifacts: the paper's tables and figures in
/// paper order, then the extension experiments. Identical to
/// [`wavelan_core::registry::NAMES`].
pub const ARTIFACTS: [&str; 18] = registry::NAMES;

/// Runs one artifact by name and returns its structured [`Report`].
/// Returns `None` for an unknown artifact name.
pub fn run_report(name: &str, scale: Scale, seed: u64, exec: &Executor) -> Option<Report> {
    registry::find(name).map(|e| e.run(scale, seed, exec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_dispatch_resolves() {
        // One cheap artifact end-to-end (the experiments' own tests cover
        // their content); unknown names must report as such, not panic.
        let exec = Executor::new(1);
        let report = run_report("tdma", Scale::Smoke, 7, &exec).expect("known artifact");
        assert!(!report.render().is_empty());
        assert!(report.packets > 0);
        assert!(run_report("no-such-artifact", Scale::Smoke, 7, &exec).is_none());
    }

    #[test]
    fn report_round_trips_through_json() {
        let exec = Executor::new(1);
        let report = run_report("tdma", Scale::Smoke, 7, &exec).expect("known artifact");
        let doc = RunDocument {
            scale: Scale::Smoke.name(),
            seed: 7,
            artifacts: vec![report],
        };
        let json = wavelan_analysis::json::to_string_pretty(&doc);
        let value = wavelan_analysis::json::parse(&json).expect("valid JSON");
        assert_eq!(
            value.get("scale").and_then(|v| match v {
                wavelan_analysis::json::Value::Str(s) => Some(s.as_str()),
                _ => None,
            }),
            Some("smoke")
        );
    }
}
