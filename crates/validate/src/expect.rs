//! The expectation vocabulary: how the corpus names a quantity inside a
//! structured [`Report`] and what range the
//! paper says it should land in.
//!
//! A [`Check`] is one falsifiable claim: a [`Quantity`] (a single cell, a
//! difference, or a ratio of two cells) plus an [`Expected`] band. Checks
//! are grouped per paper table/figure into [`TableExpectation`]s, which is
//! the unit the harness reports a verdict for.

use wavelan_analysis::{Report, StatField, Table};

/// How a check's row is located inside its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKey {
    /// Match the first column's text label (trimmed, so indented sub-rows
    /// such as `  Outsiders` still match — use [`RowKey::Index`] when a
    /// label repeats).
    Label(&'static str),
    /// Zero-based row index, for tables whose rows have no textual label
    /// (the figures).
    Index(usize),
}

/// A reference to one numeric value inside one table of a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRef {
    /// Heading prefix identifying the table, colon included so `"Table 1:"`
    /// cannot match `Table 10` (see
    /// [`Report::table_by_heading`](wavelan_analysis::Report::table_by_heading)).
    pub table: &'static str,
    /// The row.
    pub row: RowKey,
    /// Machine-readable column name (see
    /// [`Table::column_index`](wavelan_analysis::Table::column_index)).
    pub column: &'static str,
    /// For `↓ μ (σ) ↑` signal-statistics cells, which field to read; `None`
    /// for plain numeric cells.
    pub stat: Option<StatField>,
}

impl CellRef {
    fn locate<'r>(&self, report: &'r Report) -> Result<&'r [wavelan_analysis::Cell], String> {
        let table = report
            .table_by_heading(self.table)
            .ok_or_else(|| format!("no table with heading prefix {:?}", self.table))?;
        match self.row {
            RowKey::Label(label) => table
                .row_by_label(label)
                .ok_or_else(|| format!("{:?} has no row labelled {label:?}", self.table)),
            RowKey::Index(i) => table
                .rows
                .get(i)
                .map(Vec::as_slice)
                .ok_or_else(|| format!("{:?} has no row index {i}", self.table)),
        }
    }

    fn column_index(&self, report: &Report) -> Result<usize, String> {
        let table: &Table = report
            .table_by_heading(self.table)
            .ok_or_else(|| format!("no table with heading prefix {:?}", self.table))?;
        table
            .column_index(self.column)
            .ok_or_else(|| format!("{:?} has no column {:?}", self.table, self.column))
    }

    /// Resolves the referenced value in `report`, or explains what was
    /// missing.
    pub(crate) fn resolve(&self, report: &Report) -> Result<f64, String> {
        let row = self.locate(report)?;
        let idx = self.column_index(report)?;
        let cell = row
            .get(idx)
            .ok_or_else(|| format!("{:?} row is short of column {:?}", self.table, self.column))?;
        match self.stat {
            Some(field) => cell.stat(field).ok_or_else(|| {
                format!(
                    "{:?} column {:?} is not a stats cell",
                    self.table, self.column
                )
            }),
            None => cell
                .number()
                .ok_or_else(|| format!("{:?} column {:?} is not numeric", self.table, self.column)),
        }
    }
}

/// The measured quantity a check constrains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Quantity {
    /// One cell's value.
    Cell(CellRef),
    /// `a - b` — ordering and monotonicity claims ("the wall costs ~5
    /// levels", "level falls with distance").
    Diff(CellRef, CellRef),
    /// `a / b` — composition claims ("most spread-spectrum damage is
    /// truncation"). Resolves to an error when `b` is zero.
    Ratio(CellRef, CellRef),
}

impl Quantity {
    /// Resolves the quantity against one run's report.
    pub(crate) fn resolve(&self, report: &Report) -> Result<f64, String> {
        match self {
            Quantity::Cell(c) => c.resolve(report),
            Quantity::Diff(a, b) => Ok(a.resolve(report)? - b.resolve(report)?),
            Quantity::Ratio(a, b) => {
                let denom = b.resolve(report)?;
                if denom == 0.0 {
                    return Err(format!("ratio denominator {:?} is zero", b.column));
                }
                Ok(a.resolve(report)? / denom)
            }
        }
    }
}

/// The band the paper's published value puts on a quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expected {
    /// Within `tol` of `target` (absolute). Twice the tolerance is the
    /// warn band.
    Within {
        /// The paper's published value.
        target: f64,
        /// Absolute pass tolerance.
        tol: f64,
    },
    /// Inside `[min, max]`; the warn band extends half the interval width
    /// beyond each end.
    Between {
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// At most this value (hard bound — no warn band).
    AtMost(f64),
    /// At least this value (hard bound — no warn band).
    AtLeast(f64),
}

/// Outcome of one check, one table, or a whole fidelity run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within the stated band.
    Pass,
    /// Outside the stated band but inside the warn band — drifting, not
    /// broken.
    Warn,
    /// Outside the warn band, or the quantity failed to resolve.
    Fail,
    /// Nothing judged: the worst verdict of an empty set of checks. Every
    /// corpus check runs at every scale, so no check reports it.
    Skip,
}

impl Verdict {
    /// Lowercase name, used in both JSON and text output.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Warn => "warn",
            Verdict::Fail => "fail",
            Verdict::Skip => "skip",
        }
    }
}

impl Expected {
    /// Judges an observed (seed-averaged) value against the band.
    pub(crate) fn judge(&self, observed: f64) -> Verdict {
        match *self {
            Expected::Within { target, tol } => {
                let dev = (observed - target).abs();
                if dev <= tol {
                    Verdict::Pass
                } else if dev <= 2.0 * tol {
                    Verdict::Warn
                } else {
                    Verdict::Fail
                }
            }
            Expected::Between { min, max } => {
                if (min..=max).contains(&observed) {
                    Verdict::Pass
                } else {
                    let slack = (max - min) / 2.0;
                    if observed >= min - slack && observed <= max + slack {
                        Verdict::Warn
                    } else {
                        Verdict::Fail
                    }
                }
            }
            Expected::AtMost(max) => {
                if observed <= max {
                    Verdict::Pass
                } else {
                    Verdict::Fail
                }
            }
            Expected::AtLeast(min) => {
                if observed >= min {
                    Verdict::Pass
                } else {
                    Verdict::Fail
                }
            }
        }
    }

    /// The band as text, for reports (`"14.15 ± 2.5"`, `"[0.35, 0.7]"`).
    pub(crate) fn describe(&self) -> String {
        match *self {
            Expected::Within { target, tol } => format!("{target} ± {tol}"),
            Expected::Between { min, max } => format!("[{min}, {max}]"),
            Expected::AtMost(max) => format!("<= {max}"),
            Expected::AtLeast(min) => format!(">= {min}"),
        }
    }
}

/// One falsifiable claim about a reproduced table.
#[derive(Debug, Clone)]
pub struct Check {
    /// Stable machine id, unique within the corpus (`table3.all.level`).
    pub id: &'static str,
    /// What the paper publishes, verbatim enough to audit the band.
    pub paper: &'static str,
    /// The measured quantity.
    pub quantity: Quantity,
    /// The band it must land in.
    pub expected: Expected,
}

impl Check {
    /// A check (evaluated at every scale).
    pub(crate) fn new(
        id: &'static str,
        paper: &'static str,
        quantity: Quantity,
        expected: Expected,
    ) -> Check {
        Check {
            id,
            paper,
            quantity,
            expected,
        }
    }
}

/// All checks for one paper table or figure, resolved against one registry
/// artifact.
#[derive(Debug, Clone)]
pub struct TableExpectation {
    /// The paper label (`"Table 2"` … `"Figure 3"`) — the key the
    /// registry's `paper_tables` metadata must mirror.
    pub paper_table: &'static str,
    /// The registry artifact whose report carries the table.
    pub artifact: &'static str,
    /// The claims.
    pub checks: Vec<Check>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_judges_pass_warn_fail() {
        let e = Expected::Within {
            target: 10.0,
            tol: 1.0,
        };
        assert_eq!(e.judge(10.9), Verdict::Pass);
        assert_eq!(e.judge(11.5), Verdict::Warn);
        assert_eq!(e.judge(12.5), Verdict::Fail);
    }

    #[test]
    fn between_warn_band_extends_half_width() {
        let e = Expected::Between {
            min: 10.0,
            max: 14.0,
        };
        assert_eq!(e.judge(12.0), Verdict::Pass);
        assert_eq!(e.judge(9.0), Verdict::Warn);
        assert_eq!(e.judge(16.0), Verdict::Warn);
        assert_eq!(e.judge(7.0), Verdict::Fail);
    }

    #[test]
    fn bounds_are_hard() {
        assert_eq!(Expected::AtMost(5.0).judge(5.0), Verdict::Pass);
        assert_eq!(Expected::AtMost(5.0).judge(5.1), Verdict::Fail);
        assert_eq!(Expected::AtLeast(5.0).judge(4.9), Verdict::Fail);
    }
}
