//! Parameter-sweep engine over [`ScenarioSpec`] fields.
//!
//! A [`ParameterSpace`] names a base spec plus a set of [`Axis`] knobs —
//! any numeric spec field path — and a [`Sampling`] strategy (full grid,
//! seeded random, or latin-hypercube). [`ParameterSpace::expand`] turns it
//! into concrete specs with collision-free per-point seeds, and
//! [`ParameterSpace::run`] fans those over the deterministic
//! [`Executor`], folding each point's [`SpecMetrics`] into a ranked
//! [`SweepDocument`] (best/worst configurations, per-knob sensitivity)
//! that renders through the `wavelan-analysis` report model in both text
//! and JSON.
//!
//! Determinism contract: the same space and base seed produce bit-identical
//! documents at any worker count and under any axis declaration order
//! (axes are canonicalized by field name, and every random draw is keyed by
//! the axis field, the point index, and the base seed — never by iteration
//! state).

use crate::executor::{trial_seed, Executor};
use crate::experiments::common::Scale;
use crate::spec::{check_keys, InterfererSpec, ScenarioSpec, SpecError, SpecMetrics, METRIC_NAMES};
use serde::{Serialize, SerializeStruct, Serializer};
use wavelan_analysis::json::{self, Value};
use wavelan_analysis::{Block, Cell, Column, Report, Table};
use wavelan_sim::SimScratch;

/// Seed-stream id for per-point sweep seeds (distinct from every registry
/// experiment id and from [`crate::spec::SPEC_STREAM`]).
pub(crate) const SWEEP_STREAM: u64 = 0x53_57_50;

/// How many configurations the summary tables show on each end.
const RANKED_SHOWN: usize = 5;

/// The values an axis takes.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValues {
    /// An explicit level list (grid axes; samplers draw from the list).
    Levels(Vec<f64>),
    /// A continuous range (random / latin-hypercube axes).
    Range {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
}

/// One swept knob: a spec field path plus the values it takes.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Spec field path (see `ScenarioSpec::set_field`).
    pub field: String,
    /// The values the knob takes.
    pub values: AxisValues,
}

impl Axis {
    /// A grid axis over explicit levels.
    pub fn levels(field: &str, levels: &[f64]) -> Axis {
        Axis {
            field: field.into(),
            values: AxisValues::Levels(levels.to_vec()),
        }
    }

    /// A continuous axis over `[lo, hi]`.
    pub(crate) fn range(field: &str, lo: f64, hi: f64) -> Axis {
        Axis {
            field: field.into(),
            values: AxisValues::Range { lo, hi },
        }
    }
}

/// How the space is sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampling {
    /// The full cartesian product of every axis's levels.
    Grid,
    /// `points` independent uniform draws per axis.
    Random {
        /// Number of points.
        points: usize,
    },
    /// `points` latin-hypercube strata per axis (each axis's range is cut
    /// into `points` equal strata; a seeded permutation assigns exactly one
    /// point per stratum per axis).
    LatinHypercube {
        /// Number of points.
        points: usize,
    },
}

impl Sampling {
    /// The JSON name of the strategy.
    pub fn name(self) -> &'static str {
        match self {
            Sampling::Grid => "grid",
            Sampling::Random { .. } => "random",
            Sampling::LatinHypercube { .. } => "latin-hypercube",
        }
    }
}

/// A declarative parameter space: base spec, knobs, sampling, objective.
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterSpace {
    /// Space name (preset name, or the space file's `name` field).
    pub name: String,
    /// The spec every point starts from.
    pub base: ScenarioSpec,
    /// Sampling strategy.
    pub sampling: Sampling,
    /// Swept knobs.
    pub axes: Vec<Axis>,
    /// The [`SpecMetrics`] name points are ranked on.
    pub objective: String,
    /// Rank descending (best = largest) instead of ascending.
    pub maximize: bool,
}

/// One expanded point: the axis values applied, the concrete spec, and the
/// point's derived seed.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// `(field, value)` pairs in canonical (field-sorted) order.
    pub values: Vec<(String, f64)>,
    /// The concrete spec.
    pub spec: ScenarioSpec,
    /// The per-point seed (collision-free across the space).
    pub seed: u64,
}

impl ParameterSpace {
    /// Creates a grid/random/LHS space over `base` with defaults: objective
    /// `packet_loss_pct`, minimized.
    pub fn new(
        name: &str,
        base: ScenarioSpec,
        sampling: Sampling,
        axes: Vec<Axis>,
    ) -> ParameterSpace {
        ParameterSpace {
            name: name.into(),
            base,
            sampling,
            axes,
            objective: "packet_loss_pct".into(),
            maximize: false,
        }
    }

    /// Overrides the sample count of a random / latin-hypercube space;
    /// no-op for grids (a grid's size is the product of its level lists).
    pub fn with_points(mut self, points: usize) -> ParameterSpace {
        self.sampling = match self.sampling {
            Sampling::Grid => Sampling::Grid,
            Sampling::Random { .. } => Sampling::Random { points },
            Sampling::LatinHypercube { .. } => Sampling::LatinHypercube { points },
        };
        self
    }

    /// Validates the space and canonicalizes axis order (sorted by field
    /// name, so declaration order never affects results).
    pub(crate) fn canonicalize(mut self) -> Result<ParameterSpace, SpecError> {
        if self.axes.is_empty() {
            return Err(SpecError(
                "a parameter space needs at least one axis".into(),
            ));
        }
        self.axes.sort_by(|a, b| a.field.cmp(&b.field));
        for pair in self.axes.windows(2) {
            if pair[0].field == pair[1].field {
                return Err(SpecError(format!("duplicate axis {:?}", pair[0].field)));
            }
        }
        for axis in &self.axes {
            self.base.get_field(&axis.field)?;
            let finite = match &axis.values {
                AxisValues::Levels(levels) => levels.iter().all(|v| v.is_finite()),
                AxisValues::Range { lo, hi } => lo.is_finite() && hi.is_finite(),
            };
            if !finite {
                return Err(SpecError(format!(
                    "axis {:?} has a non-finite value",
                    axis.field
                )));
            }
            match &axis.values {
                AxisValues::Levels(levels) if levels.is_empty() => {
                    return Err(SpecError(format!("axis {:?} has no levels", axis.field)));
                }
                AxisValues::Range { lo, hi } if lo.partial_cmp(hi).is_none_or(|o| o.is_gt()) => {
                    return Err(SpecError(format!(
                        "axis {:?} range is inverted ({lo} > {hi})",
                        axis.field
                    )));
                }
                _ => {}
            }
        }
        if !METRIC_NAMES.contains(&self.objective.as_str()) {
            return Err(SpecError(format!(
                "unknown objective {:?} (expected one of {})",
                self.objective,
                METRIC_NAMES.join(", ")
            )));
        }
        match self.sampling {
            Sampling::Random { points } | Sampling::LatinHypercube { points } if points == 0 => {
                Err(SpecError("sampling needs at least one point".into()))
            }
            _ => Ok(self),
        }
    }

    /// The number of points the space expands to.
    pub fn point_count(&self) -> usize {
        match self.sampling {
            Sampling::Grid => self
                .axes
                .iter()
                .map(|a| match &a.values {
                    AxisValues::Levels(l) => l.len(),
                    AxisValues::Range { .. } => 1,
                })
                .product(),
            Sampling::Random { points } | Sampling::LatinHypercube { points } => points,
        }
    }

    /// Expands the (canonicalized) space into concrete points with derived
    /// per-point seeds.
    pub fn expand(&self, base_seed: u64) -> Result<Vec<SweepPoint>, SpecError> {
        let space = self.clone().canonicalize()?;
        let n = space.point_count();
        let mut points = Vec::with_capacity(n);
        // Per-axis latin-hypercube stratum permutations, keyed only by the
        // axis field and the base seed.
        let lhs_perms: Vec<Vec<usize>> = match space.sampling {
            Sampling::LatinHypercube { points } => space
                .axes
                .iter()
                .map(|axis| {
                    permutation(
                        points,
                        trial_seed(fnv64(axis.field.as_bytes()), u64::MAX, base_seed),
                    )
                })
                .collect(),
            _ => Vec::new(),
        };
        #[allow(clippy::needless_range_loop)] // `i` is the point index, not a collection index
        for i in 0..n {
            let mut values = Vec::with_capacity(space.axes.len());
            let mut radix = i;
            for (k, axis) in space.axes.iter().enumerate() {
                let value = match space.sampling {
                    Sampling::Grid => match &axis.values {
                        AxisValues::Levels(levels) => {
                            let v = levels[radix % levels.len()];
                            radix /= levels.len();
                            v
                        }
                        AxisValues::Range { lo, hi } => (lo + hi) / 2.0,
                    },
                    Sampling::Random { .. } => {
                        let u = unit(trial_seed(
                            fnv64(axis.field.as_bytes()),
                            i as u64,
                            base_seed,
                        ));
                        axis_value(&axis.values, u)
                    }
                    Sampling::LatinHypercube { points } => {
                        let stratum = lhs_perms[k][i];
                        let u = (stratum as f64 + 0.5) / points as f64;
                        axis_value(&axis.values, u)
                    }
                };
                values.push((axis.field.clone(), value));
            }
            let mut spec = space.base.clone();
            for (field, value) in &values {
                spec.set_field(field, *value)?;
            }
            let seed = trial_seed(SWEEP_STREAM, point_key(&values), base_seed);
            points.push(SweepPoint { values, spec, seed });
        }
        Ok(points)
    }

    /// Expands the space and runs every point over the executor, producing
    /// the ranked document.
    pub fn run(
        &self,
        scale: Scale,
        base_seed: u64,
        exec: &Executor,
    ) -> Result<SweepDocument, SpecError> {
        let space = self.clone().canonicalize()?;
        let points = space.expand(base_seed)?;
        let results = exec.map_indices_with(points.len(), SimScratch::new, |scratch, i| {
            points[i].spec.run_in(scale, points[i].seed, scratch)
        });
        let mut runs = Vec::with_capacity(points.len());
        for (point, result) in points.into_iter().zip(results) {
            let metrics = result?;
            let objective = metrics
                .metric(&space.objective)
                .expect("objective validated in canonicalize");
            runs.push(PointRun {
                values: point.values,
                seed: point.seed,
                metrics,
                objective,
            });
        }
        let mut ranked: Vec<usize> = (0..runs.len()).collect();
        ranked.sort_by(|&a, &b| {
            let (va, vb) = (runs[a].objective, runs[b].objective);
            let ord = va.partial_cmp(&vb).expect("objectives are finite");
            if space.maximize { ord.reverse() } else { ord }.then(a.cmp(&b))
        });
        let sensitivity = space
            .axes
            .iter()
            .enumerate()
            .map(|(k, axis)| knob_sensitivity(&axis.field, k, &runs))
            .collect();
        Ok(SweepDocument {
            space: space.name.clone(),
            space_hash: space.canonical_hash(),
            sampling: space.sampling.name(),
            scale: scale.name(),
            seed: base_seed,
            objective: space.objective.clone(),
            maximize: space.maximize,
            axes: space.axes.iter().map(|a| a.field.clone()).collect(),
            total_packets: runs.iter().map(|r| r.metrics.transmitted).sum(),
            points: runs,
            ranked,
            sensitivity,
        })
    }

    /// A canonical content hash of the space (axis order independent): the
    /// FNV-64 of the canonicalized space's JSON serialization. The serve
    /// cache keys `/sweep` responses on it.
    pub fn canonical_hash(&self) -> u64 {
        let canonical = match self.clone().canonicalize() {
            Ok(space) => space,
            Err(_) => self.clone(),
        };
        fnv64(json::to_string_pretty(&canonical).as_bytes())
    }
}

/// Maps a unit draw onto an axis's values.
fn axis_value(values: &AxisValues, u: f64) -> f64 {
    match values {
        AxisValues::Range { lo, hi } => lo + u * (hi - lo),
        AxisValues::Levels(levels) => {
            let idx = ((u * levels.len() as f64) as usize).min(levels.len() - 1);
            levels[idx]
        }
    }
}

/// A uniform draw in `[0, 1)` from a mixed seed.
fn unit(seed: u64) -> f64 {
    (seed >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a 64-bit.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The point's identity: a hash of its canonical `(field, value)` pairs, so
/// per-point seeds depend only on *what* the point is, never on expansion
/// order.
fn point_key(values: &[(String, f64)]) -> u64 {
    let mut bytes = Vec::with_capacity(values.len() * 24);
    for (field, value) in values {
        bytes.extend_from_slice(field.as_bytes());
        bytes.push(b'=');
        bytes.extend_from_slice(&value.to_bits().to_le_bytes());
        bytes.push(b';');
    }
    fnv64(&bytes)
}

/// A seeded Fisher–Yates permutation of `0..n` (SplitMix64 stream).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// One executed sweep point.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// `(field, value)` pairs in canonical order.
    pub values: Vec<(String, f64)>,
    /// The seed the point ran at.
    pub seed: u64,
    /// The measured metrics.
    pub metrics: SpecMetrics,
    /// The objective metric's value.
    pub objective: f64,
}

/// Per-knob sensitivity: mean objective over the points in the lower vs
/// upper half of the knob's observed values.
#[derive(Debug, Clone)]
pub struct KnobSensitivity {
    /// The knob's field path.
    pub field: String,
    /// Mean objective where the knob ≤ its observed midpoint.
    pub low_mean: f64,
    /// Mean objective where the knob > its observed midpoint.
    pub high_mean: f64,
    /// `high_mean - low_mean` — the knob's first-order effect.
    pub delta: f64,
}

/// Splits `runs` on axis `k`'s observed midpoint and compares objective
/// means.
fn knob_sensitivity(field: &str, k: usize, runs: &[PointRun]) -> KnobSensitivity {
    let values: Vec<f64> = runs.iter().map(|r| r.values[k].1).collect();
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let mid = (min + max) / 2.0;
    let mean = |upper: bool| {
        let group: Vec<f64> = runs
            .iter()
            .filter(|r| (r.values[k].1 > mid) == upper)
            .map(|r| r.objective)
            .collect();
        if group.is_empty() {
            0.0
        } else {
            group.iter().sum::<f64>() / group.len() as f64
        }
    };
    let (low_mean, high_mean) = (mean(false), mean(true));
    KnobSensitivity {
        field: field.into(),
        low_mean,
        high_mean,
        delta: high_mean - low_mean,
    }
}

/// A complete executed sweep: every point's metrics, the ranking, and the
/// per-knob sensitivity — the canonical machine format for a sweep, shared
/// byte-for-byte by `repro sweep --format json` and the daemon's `/sweep`
/// endpoint (both go through [`json::to_string_pretty`]).
#[derive(Debug, Clone)]
pub struct SweepDocument {
    /// Space name.
    pub space: String,
    /// Canonical space hash (see [`ParameterSpace::canonical_hash`]).
    pub space_hash: u64,
    /// Sampling strategy name.
    pub sampling: &'static str,
    /// Scale name.
    pub scale: &'static str,
    /// Base seed.
    pub seed: u64,
    /// Objective metric name.
    pub objective: String,
    /// Whether ranking is descending.
    pub maximize: bool,
    /// Axis field paths in canonical order.
    pub axes: Vec<String>,
    /// Total test packets transmitted across all points.
    pub total_packets: u64,
    /// Every executed point, in expansion order.
    pub points: Vec<PointRun>,
    /// Point indices from best to worst.
    pub ranked: Vec<usize>,
    /// Per-knob sensitivity, one entry per axis.
    pub sensitivity: Vec<KnobSensitivity>,
}

impl SweepDocument {
    /// Renders the ranked summary through the report model.
    pub(crate) fn report(&self) -> Report {
        let goal = if self.maximize {
            "maximize"
        } else {
            "minimize"
        };
        let header = format!(
            "Parameter sweep: {} ({}, {} points, {} {})",
            self.space,
            self.sampling,
            self.points.len(),
            goal,
            self.objective,
        );
        let mut blocks = vec![Block::note(header), Block::Blank];
        let shown = RANKED_SHOWN.min(self.ranked.len());
        blocks.push(Block::Table(self.ranked_table(
            &format!("Best {shown} configurations"),
            self.ranked[..shown].iter().copied(),
        )));
        blocks.push(Block::Blank);
        blocks.push(Block::Table(
            self.ranked_table(
                &format!("Worst {shown} configurations"),
                self.ranked[self.ranked.len() - shown..]
                    .iter()
                    .rev()
                    .copied(),
            ),
        ));
        blocks.push(Block::Blank);
        blocks.push(Block::Table(self.sensitivity_table()));
        blocks.push(Block::Blank);
        blocks.push(Block::note(format!(
            "{} points, {} test packets total, base seed {}, space hash {:016x}",
            self.points.len(),
            self.total_packets,
            self.seed,
            self.space_hash,
        )));
        Report::new("sweep", "Parameter sweep", self.total_packets, blocks)
    }

    /// A ranked-configurations table over the given point indices.
    fn ranked_table(&self, heading: &str, indices: impl Iterator<Item = usize>) -> Table {
        let mut columns = vec![Column::new("rank", "Rank").width(4)];
        for field in &self.axes {
            columns.push(
                Column::new("axis", leak(field))
                    .width(field.len().max(10))
                    .precision(3),
            );
        }
        columns.push(
            Column::new("objective", leak(&self.objective))
                .width(self.objective.len().max(12))
                .precision(4),
        );
        columns.push(Column::new("loss", "Loss%").width(8).precision(3));
        columns.push(Column::new("intact", "Intact%").width(8).precision(2));
        columns.push(Column::new("seed", "Seed").width(20));
        let rows = indices
            .enumerate()
            .map(|(rank, i)| {
                let run = &self.points[i];
                let mut row = vec![Cell::UInt(rank as u64 + 1)];
                row.extend(run.values.iter().map(|(_, v)| Cell::Float(*v)));
                row.push(Cell::Float(run.objective));
                row.push(Cell::Float(run.metrics.packet_loss_pct));
                row.push(Cell::Float(run.metrics.intact_pct));
                row.push(Cell::UInt(run.seed));
                row
            })
            .collect();
        Table {
            heading: Some(heading.to_string()),
            columns,
            rows,
        }
    }

    /// The per-knob sensitivity table.
    fn sensitivity_table(&self) -> Table {
        let width = self.axes.iter().map(|f| f.len()).max().unwrap_or(0).max(10);
        Table {
            heading: Some("Per-knob sensitivity (mean objective, low vs high half)".to_string()),
            columns: vec![
                Column::new("knob", "Knob").width(width).left(),
                Column::new("low", "Low half").width(10).precision(4),
                Column::new("high", "High half").width(10).precision(4),
                Column::new("delta", "Delta").width(10).precision(4),
            ],
            rows: self
                .sensitivity
                .iter()
                .map(|s| {
                    vec![
                        Cell::Str(s.field.clone()),
                        Cell::Float(s.low_mean),
                        Cell::Float(s.high_mean),
                        Cell::Float(s.delta),
                    ]
                })
                .collect(),
        }
    }

    /// Renders the text form (the report's render).
    pub fn render_text(&self) -> String {
        self.report().render()
    }
}

/// Leaks a string into a `&'static str` (the report model's column headers
/// are static; sweeps build a handful per render).
fn leak(s: &str) -> &'static str {
    Box::leak(s.to_string().into_boxed_str())
}

impl Serialize for PointRun {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("PointRun", 4)?;
        let values: Vec<f64> = self.values.iter().map(|(_, v)| *v).collect();
        s.serialize_field("values", &values)?;
        s.serialize_field("seed", &self.seed)?;
        s.serialize_field("objective", &self.objective)?;
        s.serialize_field("metrics", &self.metrics)?;
        s.end()
    }
}

impl Serialize for KnobSensitivity {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("KnobSensitivity", 4)?;
        s.serialize_field("field", &self.field)?;
        s.serialize_field("low_mean", &self.low_mean)?;
        s.serialize_field("high_mean", &self.high_mean)?;
        s.serialize_field("delta", &self.delta)?;
        s.end()
    }
}

impl Serialize for SweepDocument {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("SweepDocument", 13)?;
        s.serialize_field("space", &self.space)?;
        s.serialize_field("space_hash", &format!("{:016x}", self.space_hash))?;
        s.serialize_field("sampling", self.sampling)?;
        s.serialize_field("scale", self.scale)?;
        s.serialize_field("seed", &self.seed)?;
        s.serialize_field("objective", &self.objective)?;
        s.serialize_field("maximize", &self.maximize)?;
        s.serialize_field("axes", &self.axes)?;
        s.serialize_field("points", &(self.points.len() as u64))?;
        s.serialize_field("total_packets", &self.total_packets)?;
        s.serialize_field("results", &self.points)?;
        s.serialize_field("ranked", &ranked_u64(&self.ranked))?;
        s.serialize_field("sensitivity", &self.sensitivity)?;
        s.end()
    }
}

/// `usize` indices as serializable `u64`s.
fn ranked_u64(ranked: &[usize]) -> Vec<u64> {
    ranked.iter().map(|&i| i as u64).collect()
}

impl Serialize for Axis {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match &self.values {
            AxisValues::Levels(levels) => {
                let mut s = serializer.serialize_struct("Axis", 2)?;
                s.serialize_field("field", &self.field)?;
                s.serialize_field("levels", levels)?;
                s.end()
            }
            AxisValues::Range { lo, hi } => {
                let mut s = serializer.serialize_struct("Axis", 3)?;
                s.serialize_field("field", &self.field)?;
                s.serialize_field("lo", lo)?;
                s.serialize_field("hi", hi)?;
                s.end()
            }
        }
    }
}

impl Serialize for ParameterSpace {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("ParameterSpace", 7)?;
        s.serialize_field("name", &self.name)?;
        s.serialize_field("sampling", self.sampling.name())?;
        match self.sampling {
            Sampling::Grid => {}
            Sampling::Random { points } | Sampling::LatinHypercube { points } => {
                s.serialize_field("points", &(points as u64))?;
            }
        }
        s.serialize_field("axes", &self.axes)?;
        s.serialize_field("objective", &self.objective)?;
        s.serialize_field("maximize", &self.maximize)?;
        s.serialize_field("base", &self.base)?;
        s.end()
    }
}

impl ParameterSpace {
    /// Rebuilds a space from a parsed JSON value (the `--space <file>`
    /// format; see EXPERIMENTS.md "Parameter sweeps"). Every key
    /// serialization writes is required (`points` exactly for the sampled
    /// spaces), and no other key is accepted, at any level.
    pub(crate) fn from_value(value: &Value) -> Result<ParameterSpace, SpecError> {
        check_keys(
            value,
            &[
                "name",
                "sampling",
                "points",
                "axes",
                "objective",
                "maximize",
                "base",
            ],
            "space",
        )?;
        let name = match value.get("name") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err(SpecError("space: missing or non-string \"name\"".into())),
        };
        let base = match value.get("base") {
            Some(base) => ScenarioSpec::from_value(base)?,
            None => return Err(SpecError("space: missing \"base\" spec".into())),
        };
        let points =
            match value.get("points") {
                None => None,
                Some(Value::Number(lexeme)) => Some(lexeme.parse::<usize>().map_err(|_| {
                    SpecError("space: \"points\" must be an unsigned integer".into())
                })?),
                Some(_) => return Err(SpecError("space: \"points\" must be a number".into())),
            };
        let sampling = match value.get("sampling") {
            Some(Value::Str(s)) => match (s.as_str(), points) {
                ("grid", None) => Sampling::Grid,
                ("grid", Some(_)) => {
                    return Err(SpecError(
                        "space: sampling \"grid\" takes no \"points\"".into(),
                    ));
                }
                ("random", Some(points)) => Sampling::Random { points },
                ("latin-hypercube", Some(points)) => Sampling::LatinHypercube { points },
                ("random" | "latin-hypercube", None) => {
                    return Err(SpecError(format!("space: sampling {s:?} needs \"points\"")));
                }
                (other, _) => {
                    return Err(SpecError(format!(
                        "space: unknown sampling {other:?} (grid, random, latin-hypercube)"
                    )));
                }
            },
            _ => {
                return Err(SpecError(
                    "space: missing or non-string \"sampling\"".into(),
                ))
            }
        };
        let mut axes = Vec::new();
        match value.get("axes") {
            Some(Value::Array(items)) => {
                for item in items {
                    check_keys(item, &["field", "levels", "lo", "hi"], "axis")?;
                    let field = match item.get("field") {
                        Some(Value::Str(s)) => s.clone(),
                        _ => return Err(SpecError("axis: missing \"field\"".into())),
                    };
                    let values = match (item.get("levels"), item.get("lo"), item.get("hi")) {
                        (Some(Value::Array(levels)), None, None) => {
                            let mut out = Vec::with_capacity(levels.len());
                            for level in levels {
                                match level {
                                    Value::Number(lexeme) => {
                                        out.push(lexeme.parse::<f64>().map_err(|_| {
                                            SpecError(format!("axis {field:?}: bad level"))
                                        })?);
                                    }
                                    _ => {
                                        return Err(SpecError(format!(
                                            "axis {field:?}: levels must be numbers"
                                        )));
                                    }
                                }
                            }
                            AxisValues::Levels(out)
                        }
                        (None, Some(Value::Number(lo)), Some(Value::Number(hi))) => {
                            let parse = |lexeme: &str| {
                                lexeme
                                    .parse::<f64>()
                                    .map_err(|_| SpecError(format!("axis {field:?}: bad bound")))
                            };
                            AxisValues::Range {
                                lo: parse(lo)?,
                                hi: parse(hi)?,
                            }
                        }
                        _ => {
                            return Err(SpecError(format!(
                                "axis {field:?}: needs either \"levels\" or \"lo\"/\"hi\""
                            )));
                        }
                    };
                    axes.push(Axis { field, values });
                }
            }
            _ => return Err(SpecError("space: missing \"axes\" array".into())),
        }
        let mut space = ParameterSpace::new(&name, base, sampling, axes);
        match value.get("objective") {
            Some(Value::Str(objective)) => space.objective = objective.clone(),
            _ => {
                return Err(SpecError(
                    "space: missing or non-string \"objective\"".into(),
                ))
            }
        }
        match value.get("maximize") {
            Some(Value::Bool(maximize)) => space.maximize = *maximize,
            _ => {
                return Err(SpecError(
                    "space: missing or non-boolean \"maximize\"".into(),
                ))
            }
        }
        space.canonicalize()
    }

    /// Parses a space from JSON text.
    pub fn parse(text: &str) -> Result<ParameterSpace, SpecError> {
        let value = json::parse(text).map_err(|e| SpecError(format!("space JSON: {e}")))?;
        ParameterSpace::from_value(&value)
    }
}

// ---------------------------------------------------------------------------
// Presets.

/// Built-in sweep presets `repro sweep --space <preset>` and the `/sweep`
/// endpoint resolve by name.
pub const PRESET_NAMES: [&str; 3] = ["oven-smoke", "oven-grid", "oven-lhs"];

/// The microwave-oven interference cell every oven preset perturbs: the
/// scenario-library `oven-sweep` regime (receiver at the origin, sender at
/// 7 ft, a wideband in-band source at the oven's −42 dBm with the 16.5 ms
/// magnetron frame) with shadowing frozen so duty/frame effects dominate.
fn oven_base() -> ScenarioSpec {
    let mut spec = ScenarioSpec::pair("oven-cell", (0.0, 0.0), (7.0, 0.0), 2_880)
        .with_interferer(InterfererSpec::burst("wideband", -42.0, 25.0, 33_000));
    spec.propagation.shadowing_sigma_db = 0.0;
    spec
}

/// Resolves a preset by name.
pub fn preset(name: &str) -> Option<ParameterSpace> {
    let duty = "interferers[0].duty_pct";
    let frame = "stations[1].frame_bytes";
    let power = "interferers[0].power_dbm";
    Some(match name {
        // The scenario library's oven matrix: 3 duty cycles x 3 frame
        // lengths (9 points; pinned as tests/golden/sweep_smoke.json).
        "oven-smoke" => ParameterSpace::new(
            "oven-smoke",
            oven_base(),
            Sampling::Grid,
            vec![
                Axis::levels(duty, &[0.0, 25.0, 50.0]),
                Axis::levels(frame, &[64.0, 512.0, 1_024.0]),
            ],
        ),
        // The acceptance-scale matrix: duty x frame x oven power (100
        // points).
        "oven-grid" => ParameterSpace::new(
            "oven-grid",
            oven_base(),
            Sampling::Grid,
            vec![
                Axis::levels(duty, &[0.0, 10.0, 20.0, 30.0, 40.0]),
                Axis::levels(frame, &[64.0, 256.0, 512.0, 1_024.0, 1_500.0]),
                Axis::levels(power, &[-50.0, -45.0, -40.0, -35.0]),
            ],
        ),
        // A latin-hypercube over the same three knobs, continuous ranges.
        "oven-lhs" => ParameterSpace::new(
            "oven-lhs",
            oven_base(),
            Sampling::LatinHypercube { points: 128 },
            vec![
                Axis::range(duty, 0.0, 50.0),
                Axis::range(frame, 64.0, 1_500.0),
                Axis::range(power, -55.0, -30.0),
            ],
        ),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_space() -> ParameterSpace {
        preset("oven-smoke").expect("preset exists")
    }

    #[test]
    fn grid_expands_in_canonical_order() {
        let points = tiny_space().expand(1996).expect("expands");
        assert_eq!(points.len(), 9);
        // Canonical axis order is field-sorted: duty_pct before frame_bytes.
        assert_eq!(points[0].values[0].0, "interferers[0].duty_pct");
        assert_eq!(points[0].values[1].0, "stations[1].frame_bytes");
        // First axis varies fastest.
        assert_eq!(points[0].values[0].1, 0.0);
        assert_eq!(points[1].values[0].1, 25.0);
        assert_eq!(points[3].values[1].1, 512.0);
    }

    #[test]
    fn axis_declaration_order_is_irrelevant() {
        let forward = tiny_space();
        let mut reversed = tiny_space();
        reversed.axes.reverse();
        let a = forward.expand(7).expect("expands");
        let b = reversed.expand(7).expect("expands");
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.values, pb.values);
            assert_eq!(pa.seed, pb.seed);
        }
        assert_eq!(forward.canonical_hash(), reversed.canonical_hash());
    }

    #[test]
    fn per_point_seeds_are_distinct() {
        let points = tiny_space().expand(1996).expect("expands");
        let mut seeds: Vec<u64> = points.iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), points.len());
    }

    #[test]
    fn lhs_covers_every_stratum_once() {
        let space = preset("oven-lhs").expect("preset exists").with_points(16);
        let points = space.expand(3).expect("expands");
        assert_eq!(points.len(), 16);
        for k in 0..3 {
            let axis = &space.clone().canonicalize().unwrap().axes[k];
            let (lo, hi) = match axis.values {
                AxisValues::Range { lo, hi } => (lo, hi),
                _ => unreachable!(),
            };
            let mut strata: Vec<usize> = points
                .iter()
                .map(|p| (((p.values[k].1 - lo) / (hi - lo)) * 16.0) as usize)
                .collect();
            strata.sort_unstable();
            assert_eq!(strata, (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn random_draws_are_seed_stable_and_in_range() {
        let space = ParameterSpace::new(
            "r",
            oven_base(),
            Sampling::Random { points: 32 },
            vec![Axis::range("interferers[0].power_dbm", -55.0, -30.0)],
        );
        let a = space.expand(11).expect("expands");
        let b = space.expand(11).expect("expands");
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.values, pb.values);
            let v = pa.values[0].1;
            assert!((-55.0..=-30.0).contains(&v));
        }
        let c = space.expand(12).expect("expands");
        assert!(a.iter().zip(&c).any(|(pa, pc)| pa.values != pc.values));
    }

    #[test]
    fn space_json_round_trips() {
        let space = preset("oven-grid").expect("preset exists");
        let text = json::to_string_pretty(&space);
        let back = ParameterSpace::parse(&text).expect("parses");
        assert_eq!(space.clone().canonicalize().unwrap(), back);
        assert_eq!(space.canonical_hash(), back.canonical_hash());
    }

    #[test]
    fn canonicalize_rejects_bad_spaces() {
        let mut dup = tiny_space();
        dup.axes.push(dup.axes[0].clone());
        assert!(dup.canonicalize().is_err());
        let mut bad_field = tiny_space();
        bad_field.axes[0].field = "stations[9].x_ft".into();
        assert!(bad_field.canonicalize().is_err());
        let mut bad_objective = tiny_space();
        bad_objective.objective = "nonsense".into();
        assert!(bad_objective.canonicalize().is_err());
        let empty = ParameterSpace::new("e", oven_base(), Sampling::Grid, Vec::new());
        assert!(empty.canonicalize().is_err());
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        // `1e999` is a valid JSON number that parses to infinity.
        let space = tiny_space();
        let text = json::to_string_pretty(&space);
        let infinite_level = text.replacen(
            r#"{"field": "interferers[0].duty_pct", "levels": [0, 25, 50]}"#,
            r#"{"field": "stations[1].x_ft", "levels": [1e999]}"#,
            1,
        );
        assert_ne!(infinite_level, text);
        assert!(ParameterSpace::parse(&infinite_level).is_err());
        let infinite_station = text.replacen(r#""x_ft": 7,"#, r#""x_ft": 1e999,"#, 1);
        assert_ne!(infinite_station, text);
        assert!(ParameterSpace::parse(&infinite_station).is_err());
        let range = ParameterSpace::new(
            "r",
            oven_base(),
            Sampling::LatinHypercube { points: 2 },
            vec![Axis::range("stations[1].x_ft", 0.0, f64::INFINITY)],
        );
        assert!(range.canonicalize().is_err());
    }

    #[test]
    fn smoke_sweep_runs_and_ranks() {
        let doc = tiny_space()
            .run(Scale::Smoke, 1996, &Executor::new(2))
            .expect("runs");
        assert_eq!(doc.points.len(), 9);
        assert_eq!(doc.ranked.len(), 9);
        // Ranking is non-decreasing in the (minimized) objective.
        for pair in doc.ranked.windows(2) {
            assert!(doc.points[pair[0]].objective <= doc.points[pair[1]].objective);
        }
        assert_eq!(doc.sensitivity.len(), 2);
        let text = doc.render_text();
        assert!(text.contains("Parameter sweep: oven-smoke"));
        assert!(text.contains("Per-knob sensitivity"));
    }
}
