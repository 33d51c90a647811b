//! Golden-output regression: the full `repro --scale smoke --seed 1996`
//! transcript, rendered in-process through `wavelan_bench::run_report`,
//! must match the committed golden file byte for byte.
//!
//! Any change to the simulator, the analysis pipeline, an experiment
//! driver, or the seed-derivation scheme shows up here as a diff. If the
//! change is intentional, regenerate the golden file and commit it:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_repro
//! git diff tests/golden/repro_smoke.txt   # review what moved, then commit
//! ```
//!
//! The transcript is rendered on a parallel executor; `determinism.rs`
//! proves parallel == serial, so this file also pins the serial output.

use std::fmt::Write as _;
use std::path::PathBuf;
use wavelan_bench::{run_report, ARTIFACTS};
use wavelan_core::{Executor, Scale};

const SEED: u64 = 1996;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("repro_smoke.txt")
}

/// Renders every artifact exactly as the `repro` binary prints to stdout.
fn render_transcript() -> String {
    let exec = Executor::default();
    let scale = Scale::Smoke;
    let mut out = String::new();
    writeln!(
        out,
        "# Reproduction of Eckhardt & Steenkiste, SIGCOMM '96 (scale {scale:?}, seed {SEED})\n"
    )
    .unwrap();
    for artifact in ARTIFACTS {
        let report = run_report(artifact, scale, SEED, &exec).expect("known artifact");
        writeln!(out, "{}", report.render()).unwrap();
    }
    out
}

#[test]
fn smoke_transcript_matches_golden() {
    let rendered = render_transcript();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    if rendered != golden {
        // Point at the first diverging line, not a 200-line dump.
        for (i, (r, g)) in rendered.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                r,
                g,
                "transcript diverges from {} at line {} — if intentional, \
                 regenerate with UPDATE_GOLDEN=1",
                path.display(),
                i + 1
            );
        }
        panic!(
            "transcript length changed ({} vs {} lines) — if intentional, \
             regenerate with UPDATE_GOLDEN=1",
            rendered.lines().count(),
            golden.lines().count()
        );
    }
}
