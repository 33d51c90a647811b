//! The capture pipeline: run a registry artifact's canonical scenario,
//! stream (or buffer) the receiver trace, export it, re-analyze it offline.
//!
//! This is the paper's own methodology made end-to-end checkable. The study
//! captured every receivable packet to trace files and post-processed them
//! offline; our claim that the classifier "would run unchanged against a
//! real trace" is only provable if the analysis can run *without* the
//! simulator. [`capture_report`] runs an artifact's [`ScenarioSpec`] for a
//! fixed trial set and builds a Table 1–shaped report from either capture
//! path; [`export_trace`] additionally writes every record to a columnar
//! [`wavelan_analysis::tracecodec`] file; [`reanalyze_file`] rebuilds the
//! identical report from the file alone — byte-for-byte, with no simulator
//! in the loop.
//!
//! Determinism contract: trial seeds derive from the spec's content hash
//! ([`spec_hash`]) plus the trial index, per-trial sinks are independent,
//! and results merge in trial order — so the report is bit-identical at any
//! worker count, and an exported trace re-analyzes to the live report
//! regardless of where or when it is read.

use crate::executor::{trial_seed, Executor};
use crate::experiments::common::{expected_series, Scale};
use crate::registry::{self, Experiment};
use crate::spec::{paired_propagation_seed, ScenarioSpec};
use crate::sweep::fnv64;
use std::io::{self, Read, Write};
use wavelan_analysis::report::{results_table, signal_table, SignalRow};
use wavelan_analysis::tracecodec::{CodecError, TraceMeta, TraceReader, TraceWriter};
use wavelan_analysis::{Block, Report, SignalStats, StreamAnalysis, TrialSummary};
use wavelan_sim::{SimScratch, Tee};

/// Trials per capture run. Fixed (not scale-dependent) so a trace file's
/// stream set is the same at every scale.
pub const CAPTURE_TRIALS: u64 = 3;

/// Which capture path a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureMode {
    /// Classic whole-log capture: buffer the receiver [`wavelan_sim::Trace`],
    /// then run the batch classifier over it.
    Buffered,
    /// Streaming capture: fold every record through a
    /// [`StreamAnalysis`] sink as the event loop resolves it; no trace is
    /// ever materialized.
    Streamed,
}

/// The spec's content hash — the identity a trace file carries so offline
/// re-analysis can verify it is reading the scenario it thinks it is.
pub fn spec_hash(spec: &ScenarioSpec) -> u64 {
    fnv64(spec.to_json().as_bytes())
}

/// Every registry artifact's `(name, spec hash)`, in registry order — the
/// identity set the serving tier's persistent store keys against, so a
/// stored result is recognizably stale the moment an artifact's scenario
/// spec changes.
pub fn registry_spec_hashes() -> Vec<(&'static str, u64)> {
    crate::registry::REGISTRY
        .iter()
        .map(|e| (e.artifact_name(), spec_hash(&e.spec())))
        .collect()
}

/// One trial's aggregates, whichever path produced them.
struct TrialCapture {
    summary: TrialSummary,
    signals: (SignalStats, SignalStats, SignalStats),
}

/// Runs one capture trial of `spec` through the requested path, seeded as
/// [`ScenarioSpec::build`] seeds it.
fn run_trial(
    spec: &ScenarioSpec,
    name: &str,
    packets: u64,
    seed: u64,
    mode: CaptureMode,
    scratch: &mut SimScratch,
) -> TrialCapture {
    match mode {
        CaptureMode::Buffered => {
            let analysis = spec
                .run_pair(packets, seed, paired_propagation_seed(seed), scratch)
                .expect("registry specs build")
                .analysis;
            TrialCapture {
                summary: TrialSummary::from_analysis(name, &analysis),
                signals: analysis.stats_where(|p| p.is_test),
            }
        }
        CaptureMode::Streamed => {
            let (scenario, rx, tx) = spec.build(seed).expect("registry specs build");
            let mut fold = StreamAnalysis::new(expected_series(), rx);
            let result = scenario.run_streamed(tx, packets, scratch, &mut fold);
            fold.set_transmitted(result.packets_transmitted[tx]);
            TrialCapture {
                summary: fold.summary(name),
                signals: fold.signal_stats(),
            }
        }
    }
}

/// The capture trials' report — shared verbatim by the live paths and
/// [`reanalyze_file`], which is what makes byte-identity achievable at all.
fn trace_report(
    entry: &dyn Experiment,
    scale_name: &str,
    seed: u64,
    hash: u64,
    packets: u64,
    trials: Vec<TrialCapture>,
) -> Report {
    let summaries: Vec<TrialSummary> = trials.iter().map(|t| t.summary.clone()).collect();
    let signal_rows: Vec<SignalRow> = trials
        .iter()
        .map(|t| SignalRow::new(&t.summary.name, t.signals))
        .collect();
    let blocks = vec![
        Block::Table(results_table(
            &format!(
                "Trace capture: {} ({scale_name} scale, seed {seed})",
                entry.artifact_name()
            ),
            &summaries,
        )),
        Block::Blank,
        Block::Table(signal_table("Signal metrics (test packets)", &signal_rows)),
        Block::Blank,
        Block::note(format!(
            "{CAPTURE_TRIALS} trials x {packets} packets, spec hash {hash:016x}."
        )),
    ];
    Report::new(
        entry.artifact_name(),
        entry.paper_artifact(),
        packets * CAPTURE_TRIALS,
        blocks,
    )
}

/// Runs an artifact's canonical spec for [`CAPTURE_TRIALS`] trials through
/// the chosen capture path and reports the per-trial Table 1 rows plus
/// signal metrics. Both modes produce the identical report (the streaming
/// fold is bit-identical to the batch classifier), at any worker count.
pub fn capture_report(
    entry: &dyn Experiment,
    scale: Scale,
    seed: u64,
    exec: &Executor,
    mode: CaptureMode,
) -> Report {
    let spec = entry.spec();
    let hash = spec_hash(&spec);
    let packets = scale.packets(spec.packet_budget);
    let trials = exec.map_indices_with(CAPTURE_TRIALS as usize, SimScratch::new, |scratch, t| {
        let t = t as u64 + 1;
        run_trial(
            &spec,
            &format!("trial-{t}"),
            packets,
            trial_seed(hash, t, seed),
            mode,
            scratch,
        )
    });
    trace_report(entry, scale.name(), seed, hash, packets, trials)
}

/// Runs the streamed capture trials while teeing every record into a
/// columnar trace file on `out`, and returns the live report. Trials run
/// sequentially (the file is one ordered stream of streams), so the report
/// equals [`capture_report`]'s at any executor width by construction.
pub fn export_trace<W: Write>(
    entry: &dyn Experiment,
    scale: Scale,
    seed: u64,
    out: W,
) -> io::Result<Report> {
    let spec = entry.spec();
    let hash = spec_hash(&spec);
    let packets = scale.packets(spec.packet_budget);
    let meta = TraceMeta {
        artifact: entry.artifact_name().to_string(),
        scale: scale.name().to_string(),
        seed,
        spec_hash: hash,
        packet_budget: packets,
    };
    let mut writer = TraceWriter::new(out, &meta)?;
    let mut scratch = SimScratch::new();
    let mut trials = Vec::new();
    for t in 1..=CAPTURE_TRIALS {
        let name = format!("trial-{t}");
        let (scenario, rx, tx) = spec
            .build(trial_seed(hash, t, seed))
            .map_err(io::Error::other)?;
        let mut fold = StreamAnalysis::new(expected_series(), rx);
        writer.begin_stream(&name)?;
        let result = {
            let mut tee = Tee(&mut fold, &mut writer);
            scenario.run_streamed(tx, packets, &mut scratch, &mut tee)
        };
        writer.end_stream(
            result.packets_transmitted[tx],
            result.packets_dropped_by_mac[tx],
        )?;
        fold.set_transmitted(result.packets_transmitted[tx]);
        trials.push(TrialCapture {
            summary: fold.summary(&name),
            signals: fold.signal_stats(),
        });
    }
    writer.finish()?;
    Ok(trace_report(
        entry,
        scale.name(),
        seed,
        hash,
        packets,
        trials,
    ))
}

/// Why an offline re-analysis refused a trace file.
#[derive(Debug)]
pub enum ReanalyzeError {
    /// The file does not decode (I/O, bad magic, version skew, corruption).
    Codec(CodecError),
    /// The header names an artifact this build's registry does not know.
    UnknownArtifact(String),
    /// The header's spec hash differs from this build's spec for the same
    /// artifact — the capture ran a different scenario than the one we
    /// would re-derive, so the report labels would lie.
    SpecHashMismatch {
        /// Artifact named by the trace header.
        artifact: String,
        /// This build's hash of that artifact's spec.
        expected: u64,
        /// The hash the trace was captured under.
        found: u64,
    },
}

impl From<CodecError> for ReanalyzeError {
    fn from(e: CodecError) -> Self {
        ReanalyzeError::Codec(e)
    }
}

impl std::fmt::Display for ReanalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReanalyzeError::Codec(e) => write!(f, "{e}"),
            ReanalyzeError::UnknownArtifact(name) => {
                write!(f, "trace names unknown artifact {name:?}")
            }
            ReanalyzeError::SpecHashMismatch {
                artifact,
                expected,
                found,
            } => write!(
                f,
                "spec hash mismatch for {artifact}: trace captured under \
                 {found:016x}, this build's spec hashes to {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for ReanalyzeError {}

/// Re-runs the paper's classifier over an exported trace, offline, and
/// rebuilds the originating run's report byte-for-byte. No simulator is
/// involved: everything comes from the file (records, announced wire
/// lengths, signal metrics, sender-side tallies) plus the registry entry
/// the header names.
pub fn reanalyze_file<R: Read>(input: R) -> Result<Report, ReanalyzeError> {
    let mut reader = TraceReader::open(input)?;
    let meta = reader.meta().clone();
    let entry = registry::find(&meta.artifact)
        .ok_or_else(|| ReanalyzeError::UnknownArtifact(meta.artifact.clone()))?;
    let expected_hash = spec_hash(&entry.spec());
    if expected_hash != meta.spec_hash {
        return Err(ReanalyzeError::SpecHashMismatch {
            artifact: meta.artifact.clone(),
            expected: expected_hash,
            found: meta.spec_hash,
        });
    }
    let mut trials = Vec::new();
    while let Some(name) = reader.next_stream()? {
        let mut fold = StreamAnalysis::new(expected_series(), 0);
        let tail = reader.for_each_record(|view| fold.fold(view))?;
        fold.set_transmitted(tail.transmitted);
        trials.push(TrialCapture {
            summary: fold.summary(&name),
            signals: fold.signal_stats(),
        });
    }
    Ok(trace_report(
        entry,
        &meta.scale,
        meta.seed,
        meta.spec_hash,
        meta.packet_budget,
        trials,
    ))
}

/// Decodes just the header and stream skeleton of a trace file into a
/// human-readable summary (the `repro trace-info` output, pinned by the
/// golden header snapshot).
pub fn trace_info<R: Read>(input: R) -> Result<String, CodecError> {
    let mut reader = TraceReader::open(input)?;
    let meta = reader.meta().clone();
    let mut out = format!(
        "WLTC v{} trace: artifact {}, scale {}, seed {}\n\
         spec hash {:016x}, per-trial budget {} packets\n",
        wavelan_analysis::tracecodec::VERSION,
        meta.artifact,
        meta.scale,
        meta.seed,
        meta.spec_hash,
        meta.packet_budget,
    );
    let mut total = 0u64;
    while let Some(name) = reader.next_stream()? {
        let tail = reader.for_each_record(|_| {})?;
        total += tail.records;
        out.push_str(&format!(
            "stream {name}: {} records, {} transmitted, {} dropped by MAC\n",
            tail.records, tail.transmitted, tail.dropped_by_mac
        ));
    }
    out.push_str(&format!("total {total} records\n"));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole's conformance loop in miniature: export, reanalyze,
    /// byte-compare — for one artifact here (the full registry sweep lives
    /// in the integration suite).
    #[test]
    fn export_then_reanalyze_is_byte_identical() {
        let entry = registry::find("table2").expect("registered");
        let mut file = Vec::new();
        let live = export_trace(entry, Scale::Smoke, 1996, &mut file).expect("exports");
        let offline = reanalyze_file(&file[..]).expect("reanalyzes");
        assert_eq!(live.render(), offline.render());
        assert_eq!(
            wavelan_analysis::json::to_string_pretty(&live),
            wavelan_analysis::json::to_string_pretty(&offline)
        );
    }

    #[test]
    fn capture_modes_agree_and_match_the_export() {
        let entry = registry::find("table2").expect("registered");
        let exec = Executor::new(1);
        let buffered = capture_report(entry, Scale::Smoke, 7, &exec, CaptureMode::Buffered);
        let streamed = capture_report(entry, Scale::Smoke, 7, &exec, CaptureMode::Streamed);
        assert_eq!(buffered.render(), streamed.render());
        let mut file = Vec::new();
        let exported = export_trace(entry, Scale::Smoke, 7, &mut file).expect("exports");
        assert_eq!(buffered.render(), exported.render());
    }

    #[test]
    fn spec_hash_mismatch_is_a_typed_error() {
        let entry = registry::find("table2").expect("registered");
        let mut file = Vec::new();
        export_trace(entry, Scale::Smoke, 3, &mut file).expect("exports");
        // The spec hash lives right after magic + version.
        file[5] ^= 0xFF;
        match reanalyze_file(&file[..]) {
            Err(ReanalyzeError::SpecHashMismatch { artifact, .. }) => {
                assert_eq!(artifact, "table2");
            }
            other => panic!("expected SpecHashMismatch, got {other:?}"),
        }
    }

    #[test]
    fn unknown_artifact_is_a_typed_error() {
        let entry = registry::find("table2").expect("registered");
        let mut file = Vec::new();
        export_trace(entry, Scale::Smoke, 3, &mut file).expect("exports");
        // Corrupt the artifact-name string ("table2" is the last header
        // string; flip its first byte).
        let pos = file
            .windows(6)
            .position(|w| w == b"table2")
            .expect("artifact name in header");
        file[pos] = b'x';
        match reanalyze_file(&file[..]) {
            Err(ReanalyzeError::UnknownArtifact(name)) => assert_eq!(name, "xable2"),
            other => panic!("expected UnknownArtifact, got {other:?}"),
        }
    }

    #[test]
    fn trace_info_summarizes_the_header() {
        let entry = registry::find("table2").expect("registered");
        let mut file = Vec::new();
        export_trace(entry, Scale::Smoke, 1996, &mut file).expect("exports");
        let info = trace_info(&file[..]).expect("decodes");
        assert!(info.contains("artifact table2, scale smoke, seed 1996"));
        assert!(info.contains("stream trial-1:"));
        assert!(info.contains("stream trial-3:"));
        assert!(info
            .lines()
            .last()
            .expect("total line")
            .starts_with("total "));
    }
}
