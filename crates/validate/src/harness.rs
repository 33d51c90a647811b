//! The fidelity harness: run the corpus's artifacts across N seeds,
//! aggregate each checked quantity, judge it against its band, and emit a
//! structured [`FidelityReport`].
//!
//! Each artifact runs once per seed (`base_seed`, `base_seed + 1`, …,
//! trials inside a run fan out over the parallel executor); a check's
//! verdict judges the *across-seed mean* of its quantity, with the
//! per-seed spread reported alongside. The report carries no wall-clock
//! data, so the same configuration always serializes to bit-identical
//! JSON — the determinism test relies on this.

use crate::corpus::corpus;
use crate::expect::{TableExpectation, Verdict};
use serde::{Serialize, SerializeStruct, Serializer};
use wavelan_analysis::{Block, Cell, Column, Report, Table};
use wavelan_core::registry;
use wavelan_core::{Executor, Scale};

/// What to run: the scale, the first seed, and how many consecutive seeds.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Scale every artifact runs at.
    pub scale: Scale,
    /// First seed; seed `i` of `seeds` is `base_seed + i`.
    pub base_seed: u64,
    /// Number of seeds (at least 1).
    pub seeds: u64,
}

/// A check's quantity aggregated across seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observed {
    /// Mean across seeds — the value the verdict judges.
    pub mean: f64,
    /// Smallest per-seed value.
    pub min: f64,
    /// Largest per-seed value.
    pub max: f64,
}

impl Serialize for Observed {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Observed", 3)?;
        s.serialize_field("mean", &self.mean)?;
        s.serialize_field("min", &self.min)?;
        s.serialize_field("max", &self.max)?;
        s.end()
    }
}

/// One check, judged.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// The corpus check id (`table3.all.level`).
    pub id: &'static str,
    /// The paper claim the check encodes.
    pub paper: &'static str,
    /// The band, as text (`"14.15 ± 2.5"`).
    pub expected: String,
    /// The aggregated observation; `None` when unresolvable.
    pub observed: Option<Observed>,
    /// The verdict.
    pub verdict: Verdict,
    /// Why, when the verdict needs explaining (a resolution failure).
    pub note: Option<String>,
}

impl Serialize for CheckResult {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("CheckResult", 6)?;
        s.serialize_field("id", self.id)?;
        s.serialize_field("paper", self.paper)?;
        s.serialize_field("expected", &self.expected)?;
        s.serialize_field("observed", &self.observed)?;
        s.serialize_field("verdict", self.verdict.name())?;
        s.serialize_field("note", &self.note)?;
        s.end()
    }
}

/// One paper table's verdict: the worst of its evaluated checks.
#[derive(Debug, Clone)]
pub struct TableResult {
    /// The paper label (`"Table 2"` … `"Figure 3"`).
    pub paper_table: &'static str,
    /// The registry artifact the checks resolved against.
    pub artifact: &'static str,
    /// Worst verdict among its checks ([`Verdict::Skip`] when it has none).
    pub verdict: Verdict,
    /// Per-check results, corpus order.
    pub checks: Vec<CheckResult>,
}

impl Serialize for TableResult {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("TableResult", 4)?;
        s.serialize_field("paper_table", self.paper_table)?;
        s.serialize_field("artifact", self.artifact)?;
        s.serialize_field("verdict", self.verdict.name())?;
        s.serialize_field("checks", &self.checks)?;
        s.end()
    }
}

/// Check counts by verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Checks that passed.
    pub pass: u64,
    /// Checks in the warn band.
    pub warn: u64,
    /// Checks that failed.
    pub fail: u64,
    /// Checks not judged — always 0, as every check runs at every scale;
    /// kept so the report's shape is stable.
    pub skip: u64,
}

impl Serialize for Counts {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Counts", 4)?;
        s.serialize_field("pass", &self.pass)?;
        s.serialize_field("warn", &self.warn)?;
        s.serialize_field("fail", &self.fail)?;
        s.serialize_field("skip", &self.skip)?;
        s.end()
    }
}

/// The full fidelity run: configuration echo, per-table verdicts, totals.
#[derive(Debug, Clone)]
pub struct FidelityReport {
    /// Scale name (`smoke`, `reduced`, `paper`).
    pub scale: &'static str,
    /// First seed.
    pub base_seed: u64,
    /// Seed count.
    pub seeds: u64,
    /// Worst table verdict (skips don't count).
    pub verdict: Verdict,
    /// Check totals across all tables.
    pub counts: Counts,
    /// Per-table results, paper order.
    pub tables: Vec<TableResult>,
}

impl Serialize for FidelityReport {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("FidelityReport", 6)?;
        s.serialize_field("scale", self.scale)?;
        s.serialize_field("base_seed", &self.base_seed)?;
        s.serialize_field("seeds", &self.seeds)?;
        s.serialize_field("verdict", self.verdict.name())?;
        s.serialize_field("counts", &self.counts)?;
        s.serialize_field("tables", &self.tables)?;
        s.end()
    }
}

/// Worst verdict of an iterator, ignoring skips; `Skip` when empty or
/// all-skip. (`Fail` > `Warn` > `Pass` in severity; the derive order on
/// [`Verdict`] puts `Skip` last, so `max` alone would rank it above
/// `Fail`.)
fn worst(verdicts: impl Iterator<Item = Verdict>) -> Verdict {
    verdicts
        .filter(|v| *v != Verdict::Skip)
        .max()
        .unwrap_or(Verdict::Skip)
}

impl FidelityReport {
    /// Whether any table failed — the CLI's exit-code predicate.
    pub fn failed(&self) -> bool {
        self.verdict == Verdict::Fail
    }

    /// Renders the report as one paper-style text table per paper table,
    /// via the shared block renderer.
    pub fn to_report(&self) -> Report {
        let mut blocks = vec![Block::note(format!(
            "Fidelity vs Eckhardt & Steenkiste '96 (scale {}, seeds {}..{}): {} \
             ({} pass, {} warn, {} fail, {} skip)",
            self.scale,
            self.base_seed,
            self.base_seed + self.seeds - 1,
            self.verdict.name(),
            self.counts.pass,
            self.counts.warn,
            self.counts.fail,
            self.counts.skip,
        ))];
        for table in &self.tables {
            blocks.push(Block::Blank);
            blocks.push(Block::Table(Table {
                heading: Some(format!(
                    "{} ({}): {}",
                    table.paper_table,
                    table.artifact,
                    table.verdict.name()
                )),
                columns: vec![
                    Column::new("check", "Check").width(34).left().sep(""),
                    Column::new("expected", "Expected").width(18),
                    Column::new("observed", "Observed").width(26),
                    Column::new("verdict", "Verdict").width(8),
                ],
                rows: table
                    .checks
                    .iter()
                    .map(|c| {
                        let observed = match (&c.observed, &c.note) {
                            (Some(o), _) if self.seeds > 1 => {
                                format!("{:.4} [{:.4}, {:.4}]", o.mean, o.min, o.max)
                            }
                            (Some(o), _) => format!("{:.4}", o.mean),
                            (None, Some(note)) => note.clone(),
                            (None, None) => "-".to_string(),
                        };
                        vec![
                            Cell::Str(c.id.to_string()),
                            Cell::Str(c.expected.clone()),
                            Cell::Str(observed),
                            Cell::Str(c.verdict.name().to_string()),
                        ]
                    })
                    .collect(),
            }));
        }
        Report::new("fidelity", "Tables 2-14 and Figures 1-3", 0, blocks)
    }
}

/// Runs the full corpus under `config` and judges every check.
///
/// Each distinct artifact runs once per seed (shared across the paper
/// tables it carries — `table5-7` backs three [`TableExpectation`]s but
/// runs only `seeds` times).
pub fn run(config: &Config, exec: &Executor) -> FidelityReport {
    let corpus = corpus();
    let seeds: Vec<u64> = (0..config.seeds.max(1))
        .map(|i| config.base_seed + i)
        .collect();

    // One run set per distinct artifact, first-use order.
    let mut artifacts: Vec<(&'static str, Vec<Report>)> = Vec::new();
    for table in &corpus {
        if artifacts.iter().any(|(name, _)| *name == table.artifact) {
            continue;
        }
        let experiment = registry::find(table.artifact)
            .unwrap_or_else(|| panic!("corpus references unknown artifact {}", table.artifact));
        let runs = seeds
            .iter()
            .map(|&seed| experiment.run(config.scale, seed, exec))
            .collect();
        artifacts.push((table.artifact, runs));
    }

    let mut counts = Counts::default();
    let tables: Vec<TableResult> = corpus
        .iter()
        .map(|expectation| {
            let runs = &artifacts
                .iter()
                .find(|(name, _)| *name == expectation.artifact)
                .expect("artifact was run above")
                .1;
            let result = judge_table(expectation, runs);
            for check in &result.checks {
                match check.verdict {
                    Verdict::Pass => counts.pass += 1,
                    Verdict::Warn => counts.warn += 1,
                    Verdict::Fail => counts.fail += 1,
                    Verdict::Skip => counts.skip += 1,
                }
            }
            result
        })
        .collect();

    FidelityReport {
        scale: config.scale.name(),
        base_seed: config.base_seed,
        seeds: config.seeds.max(1),
        verdict: worst(tables.iter().map(|t| t.verdict)),
        counts,
        tables,
    }
}

fn judge_table(expectation: &TableExpectation, runs: &[Report]) -> TableResult {
    let checks: Vec<CheckResult> = expectation
        .checks
        .iter()
        .map(|check| {
            let mut values = Vec::with_capacity(runs.len());
            for report in runs {
                match check.quantity.resolve(report) {
                    Ok(v) => values.push(v),
                    Err(why) => {
                        return CheckResult {
                            id: check.id,
                            paper: check.paper,
                            expected: check.expected.describe(),
                            observed: None,
                            verdict: Verdict::Fail,
                            note: Some(why),
                        }
                    }
                }
            }
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let observed = Observed {
                mean,
                min: values.iter().copied().fold(f64::INFINITY, f64::min),
                max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            };
            CheckResult {
                id: check.id,
                paper: check.paper,
                expected: check.expected.describe(),
                observed: Some(observed),
                verdict: check.expected.judge(mean),
                note: None,
            }
        })
        .collect();

    TableResult {
        paper_table: expectation.paper_table,
        artifact: expectation.artifact,
        verdict: worst(checks.iter().map(|c| c.verdict)),
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_ignores_skips_and_ranks_fail_highest() {
        assert_eq!(worst([].into_iter()), Verdict::Skip);
        assert_eq!(
            worst([Verdict::Skip, Verdict::Skip].into_iter()),
            Verdict::Skip
        );
        assert_eq!(
            worst([Verdict::Pass, Verdict::Warn, Verdict::Skip].into_iter()),
            Verdict::Warn
        );
        assert_eq!(
            worst([Verdict::Fail, Verdict::Skip, Verdict::Pass].into_iter()),
            Verdict::Fail
        );
    }
}
