//! Golden-output regression for the scripted scenarios: the smoke-scale,
//! seed-1996 text reports of every `repro --scenario` library entry must
//! match the committed golden files byte for byte.
//!
//! `walk-by` is pinned on its own in `scenario_walkby_smoke.txt` (ci.sh
//! also diffs the CLI's transcript against it); the other four are
//! concatenated in `scenario_smoke.txt`, exactly as
//! `for n in capture-chatter equal-power oven-sweep dense-cell; do repro
//! --scenario $n --scale smoke; done` prints them. If a change to the
//! output is intentional, regenerate and review:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_scenarios
//! git diff tests/golden/scenario_*.txt
//! ```

use std::path::PathBuf;
use wavelan_core::scenario::run_named;
use wavelan_core::{Executor, Scale};

const SEED: u64 = 1996;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(file)
}

/// The concatenated text reports of `names`, as `repro --scenario` prints
/// each to stdout.
fn render(names: &[&str]) -> String {
    let exec = Executor::new(2);
    names
        .iter()
        .map(|name| {
            run_named(name, SEED, Scale::Smoke, &exec)
                .expect("library scenario")
                .report
                .render()
        })
        .collect()
}

fn check_golden(file: &str, rendered: &str) {
    let path = golden_path(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    if rendered != golden {
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

#[test]
fn walk_by_transcript_matches_golden() {
    check_golden("scenario_walkby_smoke.txt", &render(&["walk-by"]));
}

#[test]
fn scenario_transcripts_match_golden() {
    check_golden(
        "scenario_smoke.txt",
        &render(&["capture-chatter", "equal-power", "oven-sweep", "dense-cell"]),
    );
}
