//! Streaming-capture conformance: the streamed path is bit-identical to the
//! buffered path for every registry artifact, the merge order is
//! worker-count independent, and an exported trace re-analyzes offline to
//! the originating run's report byte-for-byte.
//!
//! These are the acceptance criteria of the streaming trace pipeline: the
//! fold may keep only aggregates, but nothing about the reported numbers —
//! loss, truncation, BER inputs, signal statistics, formatting — is allowed
//! to move.

use wavelan_analysis::json::to_string_pretty;
use wavelan_core::registry::REGISTRY;
use wavelan_core::{capture_report, export_trace, reanalyze_file, CaptureMode, Executor, Scale};

#[test]
fn streamed_equals_buffered_for_every_artifact_and_seed() {
    let exec = Executor::new(1);
    for entry in REGISTRY {
        for seed in [1996u64, 7, 424242] {
            let buffered = capture_report(entry, Scale::Smoke, seed, &exec, CaptureMode::Buffered);
            let streamed = capture_report(entry, Scale::Smoke, seed, &exec, CaptureMode::Streamed);
            assert_eq!(
                buffered.render(),
                streamed.render(),
                "{} seed {seed}: text reports diverge",
                entry.artifact_name()
            );
            assert_eq!(
                to_string_pretty(&buffered),
                to_string_pretty(&streamed),
                "{} seed {seed}: JSON reports diverge",
                entry.artifact_name()
            );
        }
    }
}

#[test]
fn streamed_sinks_merge_identically_at_any_worker_count() {
    let serial = Executor::new(1);
    let wide = Executor::new(8);
    for entry in REGISTRY {
        let one = capture_report(entry, Scale::Smoke, 1996, &serial, CaptureMode::Streamed);
        let eight = capture_report(entry, Scale::Smoke, 1996, &wide, CaptureMode::Streamed);
        assert_eq!(
            one.render(),
            eight.render(),
            "{}: --jobs 1 vs --jobs 8 diverge",
            entry.artifact_name()
        );
    }
}

#[test]
fn export_then_reanalyze_is_byte_identical_for_every_artifact() {
    for entry in REGISTRY {
        let mut file = Vec::new();
        let live = export_trace(entry, Scale::Smoke, 1996, &mut file)
            .unwrap_or_else(|e| panic!("{}: export failed: {e}", entry.artifact_name()));
        let offline = reanalyze_file(&file[..])
            .unwrap_or_else(|e| panic!("{}: reanalyze failed: {e}", entry.artifact_name()));
        assert_eq!(
            live.render(),
            offline.render(),
            "{}: offline text report diverges",
            entry.artifact_name()
        );
        assert_eq!(
            to_string_pretty(&live),
            to_string_pretty(&offline),
            "{}: offline JSON report diverges",
            entry.artifact_name()
        );
        // The export is the streamed pipeline teed into a file, so it must
        // also equal the plain streamed (and hence buffered) capture report.
        let plain = capture_report(
            entry,
            Scale::Smoke,
            1996,
            &Executor::new(1),
            CaptureMode::Streamed,
        );
        assert_eq!(
            live.render(),
            plain.render(),
            "{}: teeing the sink changed the report",
            entry.artifact_name()
        );
    }
}
