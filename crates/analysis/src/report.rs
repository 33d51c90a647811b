//! Structured reports and the one generic plain-text renderer.
//!
//! Every artifact the reproduction emits — the paper's thirteen tables,
//! three figures, and the extension studies — is built as a [`Report`]: a
//! value model of typed blocks ([`Table`] with a column schema and typed
//! [`Cell`]s, free-form [`Note`](Block::Note) prose, [`Blank`](Block::Blank)
//! separators). Text output is then *one* renderer walking that model
//! ([`render_blocks`]), and machine output is the same model serialized
//! through [`crate::json`].
//!
//! Two recurring table shapes get builder helpers:
//!
//! * the *results* table (Tables 2, 5, 8, 11): one row per trial with the
//!   Table 1 column set — [`results_table`];
//! * the *signal metrics* table (Tables 3, 4, 6, 7, 9, 10, 12, 13, 14): one
//!   row per trial or packet class with `↓ μ (σ) ↑` cells for level, silence
//!   and quality — [`signal_table`].
//!
//! The paper's original renderings were hand-aligned, so headers do not
//! always share a format spec with their data cells; [`Column`] carries
//! optional header-only overrides (`header_width`, `header_align`,
//! `header_sep`) to reproduce those layouts bit-for-bit.

use crate::stats::SignalStats;
use crate::summary::{format_loss_percent, format_power_of_ten, TrialSummary};
use serde::{Serialize, SerializeStruct, Serializer};

/// Horizontal alignment of a cell within its column width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Pad on the right.
    Left,
    /// Pad on the left.
    Right,
    /// Pad on both sides.
    Center,
}

/// One column of a [`Table`]: a machine-readable name plus the layout spec
/// the text renderer uses.
#[derive(Debug, Clone)]
pub struct Column {
    /// Machine-readable column name (serialized; stable across layouts).
    pub name: &'static str,
    /// Header text; empty for headerless columns.
    pub header: &'static str,
    /// Cell width in characters (0 = unpadded).
    pub width: usize,
    /// Cell alignment.
    pub align: Align,
    /// Text emitted before the cell (column separator).
    pub sep: &'static str,
    /// Text emitted after the cell (a unit such as `%` or `ft`).
    pub suffix: &'static str,
    /// Decimal places for [`Cell::Float`] values.
    pub precision: usize,
    /// Header width when it differs from the cell width.
    pub header_width: Option<usize>,
    /// Header alignment when it differs from the cell alignment.
    pub header_align: Option<Align>,
    /// Header separator when it differs from the cell separator.
    pub header_sep: Option<&'static str>,
}

impl Column {
    /// A right-aligned, unpadded column with a single-space separator.
    pub fn new(name: &'static str, header: &'static str) -> Column {
        Column {
            name,
            header,
            width: 0,
            align: Align::Right,
            sep: " ",
            suffix: "",
            precision: 0,
            header_width: None,
            header_align: None,
            header_sep: None,
        }
    }

    /// Sets the cell width.
    pub fn width(mut self, width: usize) -> Column {
        self.width = width;
        self
    }

    /// Left-aligns cells.
    pub fn left(mut self) -> Column {
        self.align = Align::Left;
        self
    }

    /// Sets the column separator (text before each cell).
    pub fn sep(mut self, sep: &'static str) -> Column {
        self.sep = sep;
        self
    }

    /// Sets the cell suffix (a unit such as `%` or `ft`).
    pub fn suffix(mut self, suffix: &'static str) -> Column {
        self.suffix = suffix;
        self
    }

    /// Sets the decimal places for [`Cell::Float`] values.
    pub fn precision(mut self, precision: usize) -> Column {
        self.precision = precision;
        self
    }

    /// Overrides the header width.
    pub fn header_width(mut self, width: usize) -> Column {
        self.header_width = Some(width);
        self
    }

    /// Overrides the header alignment.
    pub(crate) fn header_align(mut self, align: Align) -> Column {
        self.header_align = Some(align);
        self
    }

    /// Suppresses this column's header cell entirely (separator included) —
    /// used where a data column has no header of its own, e.g. the packet
    /// count inside `delivered/packets`.
    pub fn no_header(mut self) -> Column {
        self.header = "";
        self.header_width = Some(0);
        self
    }
}

/// The `↓ μ (σ) ↑` quadruple of a signal-metrics cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsCell {
    /// Minimum observed value.
    pub min: u8,
    /// Mean.
    pub mean: f64,
    /// Standard deviation.
    pub sd: f64,
    /// Maximum observed value.
    pub max: u8,
}

impl From<&SignalStats> for StatsCell {
    fn from(stats: &SignalStats) -> StatsCell {
        StatsCell {
            min: stats.min(),
            mean: stats.mean(),
            sd: stats.std_dev(),
            max: stats.max(),
        }
    }
}

/// One typed table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Free text (row labels, flags such as `ERROR`/`ok`).
    Str(String),
    /// An unsigned count.
    UInt(u64),
    /// A floating-point value, rendered at the column's precision.
    Float(f64),
    /// A `↓ μ (σ) ↑` signal-statistics quadruple.
    Stats(StatsCell),
    /// A horizontal bar of `#` marks (Figure 1's profile).
    Bar(u64),
    /// A loss fraction, rendered in the paper's percent style (`.030%`).
    LossPercent(f64),
    /// A bit count, rendered in the paper's power-of-ten shorthand
    /// (`8 x 10^8`).
    PowerOfTen(u64),
    /// A count that renders as `-` when zero, like the paper's Worst column.
    DashIfZero(u64),
}

impl Cell {
    /// Renders the cell's text before column padding is applied.
    fn text(&self, precision: usize) -> String {
        match self {
            Cell::Str(s) => s.clone(),
            Cell::UInt(v) => v.to_string(),
            Cell::Float(v) => format!("{v:.precision$}"),
            Cell::Stats(s) => {
                format!("{:>2} {:>5.2} ({:>5.2}) {:>2}", s.min, s.mean, s.sd, s.max)
            }
            Cell::Bar(n) => "#".repeat(*n as usize),
            Cell::LossPercent(f) => format_loss_percent(*f),
            Cell::PowerOfTen(bits) => format_power_of_ten(*bits),
            Cell::DashIfZero(v) => {
                if *v == 0 {
                    "-".to_string()
                } else {
                    v.to_string()
                }
            }
        }
    }
}

/// One field of a [`StatsCell`], for numeric extraction from signal-metrics
/// columns (see [`Cell::stat`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatField {
    /// The minimum.
    Min,
    /// The mean.
    Mean,
    /// The standard deviation.
    Sd,
    /// The maximum.
    Max,
}

impl Cell {
    /// The cell's numeric value, if it has one. [`Cell::Stats`] has four —
    /// use [`Cell::stat`]; [`Cell::Str`] has none.
    pub fn number(&self) -> Option<f64> {
        match self {
            Cell::Str(_) | Cell::Stats(_) => None,
            Cell::UInt(v) | Cell::Bar(v) | Cell::PowerOfTen(v) | Cell::DashIfZero(v) => {
                Some(*v as f64)
            }
            Cell::Float(v) | Cell::LossPercent(v) => Some(*v),
        }
    }

    /// One field of a [`Cell::Stats`] quadruple.
    pub fn stat(&self, field: StatField) -> Option<f64> {
        match self {
            Cell::Stats(s) => Some(match field {
                StatField::Min => f64::from(s.min),
                StatField::Mean => s.mean,
                StatField::Sd => s.sd,
                StatField::Max => f64::from(s.max),
            }),
            _ => None,
        }
    }

    /// The row label this cell contributes, if it is textual.
    pub(crate) fn label(&self) -> Option<&str> {
        match self {
            Cell::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Str(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Str(s)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Cell {
        Cell::UInt(v)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Cell {
        Cell::Float(v)
    }
}

impl From<&SignalStats> for Cell {
    fn from(stats: &SignalStats) -> Cell {
        Cell::Stats(StatsCell::from(stats))
    }
}

/// A table: optional heading line, column schema, typed rows.
#[derive(Debug, Clone)]
pub struct Table {
    /// Heading printed on its own line(s) above the table, if any.
    pub heading: Option<String>,
    /// Column schema.
    pub columns: Vec<Column>,
    /// Rows of cells, one [`Cell`] per [`Column`].
    pub rows: Vec<Vec<Cell>>,
}

fn pad(text: &str, width: usize, align: Align) -> String {
    match align {
        Align::Left => format!("{text:<width$}"),
        Align::Right => format!("{text:>width$}"),
        Align::Center => format!("{text:^width$}"),
    }
}

impl Table {
    /// Index of the column with the given machine-readable name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The first row whose first cell is the given text label (trimmed —
    /// some layouts indent sub-rows like `  Outsiders`).
    pub fn row_by_label(&self, label: &str) -> Option<&[Cell]> {
        self.rows
            .iter()
            .find(|r| {
                r.first()
                    .and_then(Cell::label)
                    .map(str::trim)
                    .is_some_and(|l| l == label.trim())
            })
            .map(Vec::as_slice)
    }

    /// Renders the heading, header line (if any column has one) and rows.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        if let Some(heading) = &self.heading {
            out.push_str(heading);
            out.push('\n');
        }
        if self.columns.iter().any(|c| !c.header.is_empty()) {
            for c in &self.columns {
                if c.header.is_empty() && c.header_width == Some(0) {
                    continue;
                }
                out.push_str(c.header_sep.unwrap_or(c.sep));
                out.push_str(&pad(
                    c.header,
                    c.header_width.unwrap_or(c.width),
                    c.header_align.unwrap_or(c.align),
                ));
            }
            out.push('\n');
        }
        for row in &self.rows {
            for (c, cell) in self.columns.iter().zip(row) {
                out.push_str(c.sep);
                out.push_str(&pad(&cell.text(c.precision), c.width, c.align));
                out.push_str(c.suffix);
            }
            out.push('\n');
        }
        out
    }
}

/// One block of a [`Report`].
#[derive(Debug, Clone)]
pub enum Block {
    /// A table.
    Table(Table),
    /// Free prose, rendered verbatim followed by a newline (may itself
    /// contain newlines).
    Note(String),
    /// A blank separator line.
    Blank,
}

impl Block {
    /// Convenience constructor for a [`Block::Note`].
    pub fn note(text: impl Into<String>) -> Block {
        Block::Note(text.into())
    }
}

/// Renders blocks to text by pure concatenation — no implicit separators.
pub fn render_blocks(blocks: &[Block]) -> String {
    let mut out = String::new();
    for block in blocks {
        match block {
            Block::Table(t) => out.push_str(&t.render()),
            Block::Note(text) => {
                out.push_str(text);
                out.push('\n');
            }
            Block::Blank => out.push('\n'),
        }
    }
    out
}

/// A complete artifact report: identity, packet budget, content blocks.
#[derive(Debug, Clone)]
pub struct Report {
    /// Registry artifact name (`table2`, `figure1`, …).
    pub artifact: &'static str,
    /// One-line human title (first heading or note line of the content).
    pub title: String,
    /// The paper artifact this reproduces (e.g. `Table 2 (in-room base
    /// case)`).
    pub paper_artifact: &'static str,
    /// Requested test-packet transmissions at the scale the report was run
    /// at (the budget, not the stochastic delivery count).
    pub packets: u64,
    /// Content blocks in render order.
    pub blocks: Vec<Block>,
}

impl Report {
    /// Builds a report, deriving [`Report::title`] from the first heading or
    /// note line in `blocks`.
    pub fn new(
        artifact: &'static str,
        paper_artifact: &'static str,
        packets: u64,
        blocks: Vec<Block>,
    ) -> Report {
        let title = blocks
            .iter()
            .find_map(|b| match b {
                Block::Table(t) => t
                    .heading
                    .as_deref()
                    .and_then(|h| h.lines().next())
                    .map(str::to_string),
                Block::Note(n) => n.lines().next().map(str::to_string),
                Block::Blank => None,
            })
            .unwrap_or_default();
        Report {
            artifact,
            title,
            paper_artifact,
            packets,
            blocks,
        }
    }

    /// Renders the report to the exact text the paper-style tables use.
    pub fn render(&self) -> String {
        render_blocks(&self.blocks)
    }

    /// All table blocks, in render order.
    pub(crate) fn tables(&self) -> impl Iterator<Item = &Table> {
        self.blocks.iter().filter_map(|b| match b {
            Block::Table(t) => Some(t),
            _ => None,
        })
    }

    /// The first table whose heading starts with `prefix` (e.g. `"Table 6"`
    /// finds `Table 6: Signal metrics for multi-room experiment`).
    pub fn table_by_heading(&self, prefix: &str) -> Option<&Table> {
        self.tables()
            .find(|t| t.heading.as_deref().is_some_and(|h| h.starts_with(prefix)))
    }
}

/// Column schema of the paper's Table 1 results shape.
fn results_columns() -> Vec<Column> {
    vec![
        Column::new("trial", "Trial").width(22).left().sep(""),
        Column::new("received", "Received").width(9),
        Column::new("loss", "Loss").width(8),
        Column::new("truncated", "Truncated").width(10),
        Column::new("bits", "Bits").width(12),
        Column::new("wrapper", "Wrapper").width(8),
        Column::new("body", "Body").width(6),
        Column::new("worst", "Worst").width(6),
    ]
}

/// Builds a results table (the Table 2 / 5 / 8 / 11 shape).
pub fn results_table(title: &str, rows: &[TrialSummary]) -> Table {
    Table {
        heading: Some(title.to_string()),
        columns: results_columns(),
        rows: rows
            .iter()
            .map(|r| {
                vec![
                    Cell::Str(r.name.clone()),
                    Cell::UInt(r.packets_received),
                    Cell::LossPercent(r.packet_loss),
                    Cell::UInt(r.packets_truncated),
                    Cell::PowerOfTen(r.bits_received),
                    Cell::UInt(r.wrapper_damaged),
                    Cell::UInt(r.body_bits_damaged),
                    Cell::DashIfZero(u64::from(r.worst_body)),
                ]
            })
            .collect(),
    }
}

/// Column schema of the signal-metrics shape.
fn signal_columns() -> Vec<Column> {
    vec![
        Column::new("row", "Row").width(28).left().sep(""),
        Column::new("packets", "Packets").width(8),
        Column::new("level", "Level  v mean (sd) ^")
            .width(22)
            .sep("  ")
            .header_align(Align::Center),
        Column::new("silence", "Silence  v mean (sd) ^")
            .width(22)
            .sep("  ")
            .header_align(Align::Center),
        Column::new("quality", "Quality  v mean (sd) ^")
            .width(22)
            .sep("  ")
            .header_align(Align::Center),
    ]
}

/// Builds a signal-metrics table (the Table 3 / 6 / 9 / 12 shape).
pub fn signal_table(title: &str, rows: &[SignalRow]) -> Table {
    Table {
        heading: Some(title.to_string()),
        columns: signal_columns(),
        rows: rows
            .iter()
            .map(|r| {
                vec![
                    Cell::Str(r.name.clone()),
                    Cell::UInt(r.packets),
                    Cell::from(&r.level),
                    Cell::from(&r.silence),
                    Cell::from(&r.quality),
                ]
            })
            .collect(),
    }
}

/// One row of a signal-metrics table.
#[derive(Debug, Clone)]
pub struct SignalRow {
    /// Row label (trial name or packet class).
    pub name: String,
    /// Packets in the row.
    pub packets: u64,
    /// Level statistics.
    pub level: SignalStats,
    /// Silence statistics.
    pub silence: SignalStats,
    /// Quality statistics.
    pub quality: SignalStats,
}

impl SignalRow {
    /// Builds a row from the `(level, silence, quality)` triple that
    /// [`crate::classify::TraceAnalysis::stats_where`] returns.
    pub fn new(name: &str, stats: (SignalStats, SignalStats, SignalStats)) -> SignalRow {
        SignalRow {
            name: name.to_string(),
            packets: stats.0.count(),
            level: stats.0,
            silence: stats.1,
            quality: stats.2,
        }
    }
}

/// Renders a results table (the Table 2 / 5 / 8 / 11 shape).
pub fn render_results_table(title: &str, rows: &[TrialSummary]) -> String {
    results_table(title, rows).render()
}

/// Renders a signal-metrics table (the Table 3 / 6 / 9 / 12 shape).
pub fn render_signal_table(title: &str, rows: &[SignalRow]) -> String {
    signal_table(title, rows).render()
}

impl Serialize for StatsCell {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("StatsCell", 4)?;
        s.serialize_field("min", &self.min)?;
        s.serialize_field("mean", &self.mean)?;
        s.serialize_field("sd", &self.sd)?;
        s.serialize_field("max", &self.max)?;
        s.end()
    }
}

impl Serialize for Cell {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Cell::Str(v) => serializer.serialize_str(v),
            Cell::UInt(v) | Cell::Bar(v) | Cell::PowerOfTen(v) | Cell::DashIfZero(v) => {
                serializer.serialize_u64(*v)
            }
            Cell::Float(v) | Cell::LossPercent(v) => serializer.serialize_f64(*v),
            Cell::Stats(stats) => stats.serialize(serializer),
        }
    }
}

impl Serialize for Column {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Column", 3)?;
        s.serialize_field("name", self.name)?;
        s.serialize_field("header", self.header)?;
        s.serialize_field("suffix", self.suffix)?;
        s.end()
    }
}

impl Serialize for Table {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Table", 4)?;
        s.serialize_field("type", "table")?;
        s.serialize_field("heading", &self.heading)?;
        s.serialize_field("columns", &self.columns)?;
        s.serialize_field("rows", &self.rows)?;
        s.end()
    }
}

impl Serialize for Block {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Block::Table(t) => t.serialize(serializer),
            Block::Note(text) => {
                let mut s = serializer.serialize_struct("Note", 2)?;
                s.serialize_field("type", "note")?;
                s.serialize_field("text", text)?;
                s.end()
            }
            Block::Blank => {
                let mut s = serializer.serialize_struct("Blank", 1)?;
                s.serialize_field("type", "blank")?;
                s.end()
            }
        }
    }
}

impl Serialize for Report {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Report", 5)?;
        s.serialize_field("artifact", self.artifact)?;
        s.serialize_field("title", &self.title)?;
        s.serialize_field("paper_artifact", self.paper_artifact)?;
        s.serialize_field("packets", &self.packets)?;
        s.serialize_field("blocks", &self.blocks)?;
        s.end()
    }
}

/// A full reproduction run as a serializable document: the scale and seed
/// it ran at plus every artifact's [`Report`], in run order.
///
/// This is the canonical machine format for a set of reports — `repro
/// --format json` prints one, and the `wavelan-serve` daemon's
/// `/run/{artifact}` endpoint serves one per artifact. Both go through
/// [`crate::json::to_string_pretty`], so a served response is byte-identical
/// to the CLI output for the same `(artifact, seed, scale)`.
#[derive(Debug, Clone)]
pub struct RunDocument {
    /// Scale name (`smoke`, `reduced`, `paper`).
    pub scale: &'static str,
    /// Base seed of the run.
    pub seed: u64,
    /// One report per artifact run.
    pub artifacts: Vec<Report>,
}

impl Serialize for RunDocument {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("RunDocument", 3)?;
        s.serialize_field("scale", &self.scale)?;
        s.serialize_field("seed", &self.seed)?;
        s.serialize_field("artifacts", &self.artifacts)?;
        s.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_table_renders_all_rows() {
        let rows = vec![
            TrialSummary {
                name: "office1".into(),
                packets_received: 102_720,
                packet_loss: 0.0003,
                packets_truncated: 1,
                bits_received: 800_000_000,
                wrapper_damaged: 0,
                body_bits_damaged: 0,
                worst_body: 0,
            },
            TrialSummary {
                name: "Tx5".into(),
                packets_received: 1_440,
                packet_loss: 0.0007,
                packets_truncated: 1,
                bits_received: 10_000_000,
                wrapper_damaged: 0,
                body_bits_damaged: 82,
                worst_body: 7,
            },
        ];
        let table = render_results_table("Table 2: in-room", &rows);
        assert!(table.contains("office1"));
        assert!(table.contains("102720"));
        assert!(table.contains("8 x 10^8"));
        assert!(table.contains("Tx5"));
        assert!(table.contains("82"));
        // Zero damage prints a dash, like the paper.
        assert!(table.lines().nth(2).unwrap().trim_end().ends_with('-'));
    }

    #[test]
    fn signal_table_renders_stats_cells() {
        let mut level = SignalStats::new();
        let mut silence = SignalStats::new();
        let mut quality = SignalStats::new();
        for v in [25u8, 26, 28] {
            level.push(v);
        }
        for v in [0u8, 2, 4] {
            silence.push(v);
        }
        for _ in 0..3 {
            quality.push(15);
        }
        let row = SignalRow::new("All test packets", (level, silence, quality));
        assert_eq!(row.packets, 3);
        let table = render_signal_table("Table 3", &[row]);
        assert!(table.contains("All test packets"));
        assert!(table.contains("26.33"));
        assert!(table.contains("15.00"));
    }

    #[test]
    fn header_overrides_and_skips() {
        let table = Table {
            heading: None,
            columns: vec![
                Column::new("a", "a").width(4).sep(""),
                Column::new("b", "bee").width(2).header_width(5),
                Column::new("skip", "").width(3).no_header(),
                Column {
                    header_sep: Some("   "),
                    ..Column::new("c", "c").width(2)
                },
            ],
            rows: vec![vec![
                Cell::UInt(1),
                Cell::UInt(2),
                Cell::Str("x".into()),
                Cell::UInt(3),
            ]],
        };
        let text = table.render();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("   a   bee    c"));
        assert_eq!(lines.next(), Some("   1  2   x  3"));
    }

    #[test]
    fn headerless_table_has_no_header_line() {
        let table = Table {
            heading: Some("title".into()),
            columns: vec![Column::new("v", "").width(3).sep("").precision(1)],
            rows: vec![vec![Cell::Float(1.25)]],
        };
        assert_eq!(table.render(), "title\n1.2\n");
    }

    #[test]
    fn cell_extraction_by_column_and_label() {
        let mut level = SignalStats::new();
        for v in [25u8, 26, 28] {
            level.push(v);
        }
        let silence = SignalStats::new();
        let quality = SignalStats::new();
        let row = SignalRow::new("  Outsiders", (level, silence, quality));
        let table = signal_table("Table 9: x", &[row]);
        let report = Report::new("t", "Table 9", 3, vec![Block::Table(table)]);
        let t = report.table_by_heading("Table 9:").expect("found");
        assert!(report.table_by_heading("Table 8:").is_none());
        let li = t.column_index("level").expect("level column");
        let row = t.row_by_label("Outsiders").expect("trimmed label match");
        assert_eq!(row[li].stat(StatField::Mean), Some(79.0 / 3.0));
        assert_eq!(row[li].stat(StatField::Min), Some(25.0));
        assert_eq!(row[li].number(), None);
        assert_eq!(row[t.column_index("packets").unwrap()].number(), Some(3.0));
        assert!(t.row_by_label("missing").is_none());
    }

    #[test]
    fn report_title_comes_from_first_content_line() {
        let report = Report::new(
            "x",
            "Table X",
            7,
            vec![
                Block::Blank,
                Block::note("first line\nsecond line"),
                Block::note("later"),
            ],
        );
        assert_eq!(report.title, "first line");
        assert_eq!(report.render(), "\nfirst line\nsecond line\nlater\n");
        assert_eq!(report.packets, 7);
    }
}
