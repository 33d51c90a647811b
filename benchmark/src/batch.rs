//! The batch workloads: registry artifacts over seeds (clean-channel,
//! interference, fec-harq), the trace round trip, and the LHS sweep.

use crate::layers::Trial;
use crate::run::{Checks, LayerSource, Params, PassOut, PassWorkload, Sampled};
use crate::trace::Tracer;
use std::time::Instant;
use wavelan_analysis::json::to_string_pretty;
use wavelan_analysis::tracecodec::TraceReader;
use wavelan_analysis::{Report, RunDocument};
use wavelan_core::capture::CAPTURE_TRIALS;
use wavelan_core::sweep::{preset, ParameterSpace, SweepDocument};
use wavelan_core::{export_trace, find, reanalyze_file, registry, Executor, Scale};

/// Executor width of every batch workload (the host has two cores).
pub const JOBS: usize = 2;

fn scale(p: &Params, full: Scale) -> Scale {
    if p.quick {
        Scale::Smoke
    } else {
        full
    }
}

fn run_artifact(name: &str, scale: Scale, seed: u64, exec: &Executor) -> Report {
    find(name)
        .expect("benchmark names registered artifacts")
        .run(scale, seed, exec)
}

/// Registry artifacts at one scale over consecutive seeds.
pub struct Batch {
    artifacts: &'static [&'static str],
    seeds: u64,
    full_scale: Scale,
    golden: bool,
    exec: Executor,
    last: Vec<RunDocument>,
}

impl Batch {
    /// `table2`, `figure1`, `table4`, `table5-7` at reduced scale, one
    /// seed; set-up checks the smoke-scale run of every artifact against
    /// the committed golden document. Reduced rather than paper scale:
    /// every trial and the per-record path stay the same, but table2's
    /// buffered paper-scale traces peak at 1.3 GB and a pass takes ~4 s.
    pub fn clean_channel() -> Batch {
        Batch::new(
            &["table2", "figure1", "table4", "table5-7"],
            1,
            Scale::Reduced,
            true,
        )
    }

    /// `table10`, `table11-13`, `table14` at paper scale over eight seeds.
    pub fn interference() -> Batch {
        Batch::new(
            &["table10", "table11-13", "table14"],
            8,
            Scale::Paper,
            false,
        )
    }

    /// `fec` and `harq` at paper scale over four seeds.
    pub fn fec_harq() -> Batch {
        Batch::new(&["fec", "harq"], 4, Scale::Paper, false)
    }

    fn new(
        artifacts: &'static [&'static str],
        seeds: u64,
        full_scale: Scale,
        golden: bool,
    ) -> Batch {
        Batch {
            artifacts,
            seeds,
            full_scale,
            golden,
            exec: Executor::new(JOBS),
            last: Vec::new(),
        }
    }

    fn seeds(&self, p: &Params) -> impl Iterator<Item = u64> {
        let n = if p.quick { 1 } else { self.seeds };
        let base = p.seed;
        (0..n).map(move |j| base.wrapping_add(j))
    }
}

/// Where the smoke-scale golden document lives, relative to the checkout.
const GOLDEN: &str = "tests/golden/repro_smoke.json";

/// The seed the golden document was rendered at.
const GOLDEN_SEED: u64 = 1996;

impl PassWorkload for Batch {
    fn setup(&mut self, p: &Params, checks: &mut Checks) {
        if self.golden {
            let doc = RunDocument {
                scale: Scale::Smoke.name(),
                seed: GOLDEN_SEED,
                artifacts: registry::NAMES
                    .iter()
                    .map(|name| run_artifact(name, Scale::Smoke, GOLDEN_SEED, &self.exec))
                    .collect(),
            };
            let rendered = to_string_pretty(&doc);
            let golden = std::fs::read_to_string(GOLDEN);
            checks.check(golden.as_deref().ok() == Some(rendered.as_str()), || {
                format!("smoke run of every artifact differs from {GOLDEN}")
            });
        }
        // Warm-up: the pass's artifacts once at smoke scale.
        for name in self.artifacts {
            std::hint::black_box(run_artifact(name, Scale::Smoke, p.seed, &self.exec));
        }
    }

    fn pass(&mut self, p: &Params, tracer: &mut Tracer, _checks: &mut Checks) -> PassOut {
        let start = Instant::now();
        let scale = scale(p, self.full_scale);
        let mut output = Vec::new();
        let mut packets = 0u64;
        self.last.clear();
        for seed in self.seeds(p) {
            let reports: Vec<Report> = self
                .artifacts
                .iter()
                .map(|name| {
                    tracer.span(&format!("run:{name}"), |_| {
                        run_artifact(name, scale, seed, &self.exec)
                    })
                })
                .collect();
            packets += reports.iter().map(|r| r.packets).sum::<u64>();
            let doc = RunDocument {
                scale: scale.name(),
                seed,
                artifacts: reports,
            };
            output.extend_from_slice(
                tracer
                    .span("report.json", |_| to_string_pretty(&doc))
                    .as_bytes(),
            );
            self.last.push(doc);
        }
        let secs = start.elapsed().as_secs_f64();
        PassOut {
            throughput: packets as f64 / secs,
            latency_ms: secs * 1e3,
            output,
        }
    }
}

impl LayerSource for Batch {
    fn trials(&self, p: &Params) -> Vec<Trial> {
        Trial::artifacts(self.artifacts, scale(p, self.full_scale), p.seed)
    }

    fn document(&self) -> String {
        self.last.first().map(to_string_pretty).unwrap_or_default()
    }

    fn serialize(&self) -> usize {
        self.last.iter().map(|d| to_string_pretty(d).len()).sum()
    }
}

/// `export_trace(table2, reduced, S)` into a reused in-memory buffer, then
/// `reanalyze_file` from that buffer.
pub struct TraceRoundtrip {
    buffer: Vec<u8>,
    records: Option<u64>,
    reanalyze_per_s: Vec<f64>,
    last: Option<Report>,
}

/// The artifact the round trip captures.
const TRACE_ARTIFACT: &str = "table2";

impl TraceRoundtrip {
    /// An empty round trip; set-up sizes the buffer.
    pub fn new() -> TraceRoundtrip {
        TraceRoundtrip {
            buffer: Vec::new(),
            records: None,
            reanalyze_per_s: Vec::new(),
            last: None,
        }
    }
}

/// Bytes a captured record takes, rounded up: a 1,070-byte frame plus its
/// columns.
const RECORD_BYTES_BOUND: u64 = 1_200;

/// Records in a trace, counted by decoding it.
fn count_records(bytes: &[u8]) -> u64 {
    let mut reader = TraceReader::open(bytes).expect("own capture decodes");
    let mut total = 0;
    while reader.next_stream().expect("own capture decodes").is_some() {
        total += reader
            .for_each_record(|_| {})
            .expect("own capture decodes")
            .records;
    }
    total
}

impl PassWorkload for TraceRoundtrip {
    fn setup(&mut self, p: &Params, checks: &mut Checks) {
        let entry = find(TRACE_ARTIFACT).expect("registered");
        // A smoke-scale round trip must reproduce its live report.
        let mut small = Vec::new();
        let live = export_trace(entry, Scale::Smoke, p.seed, &mut small);
        let offline = reanalyze_file(&small[..]);
        checks.check(
            matches!((&live, &offline), (Ok(a), Ok(b)) if to_string_pretty(a) == to_string_pretty(b)),
            || String::from("smoke-scale trace round trip differs from the live report"),
        );
        // Size and touch the reused buffer, so no pass pays for growing it.
        let packets = scale(p, Scale::Reduced).packets(entry.spec().packet_budget);
        let capacity = (packets * CAPTURE_TRIALS * RECORD_BYTES_BOUND) as usize;
        self.buffer = Vec::new();
        self.buffer.resize(capacity, 0);
        self.buffer.clear();
    }

    fn pass(&mut self, p: &Params, tracer: &mut Tracer, checks: &mut Checks) -> PassOut {
        let entry = find(TRACE_ARTIFACT).expect("registered");
        self.buffer.clear();
        let start = Instant::now();
        let live = tracer.span("capture", |_| {
            export_trace(entry, scale(p, Scale::Reduced), p.seed, &mut self.buffer)
        });
        let captured = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let offline = tracer.span("reanalyze", |_| reanalyze_file(&self.buffer[..]));
        let reanalyzed = start.elapsed().as_secs_f64();
        let records = *self
            .records
            .get_or_insert_with(|| count_records(&self.buffer));
        let mut output = Vec::new();
        match (live, offline) {
            (Ok(live), Ok(offline)) => {
                let (a, b) = tracer.span("report.json", |_| {
                    (to_string_pretty(&live), to_string_pretty(&offline))
                });
                checks.check(a == b && live.render() == offline.render(), || {
                    String::from("reanalyzed report differs from the live report")
                });
                output.extend_from_slice(a.as_bytes());
                self.last = Some(live);
            }
            (live, offline) => checks.check(false, || {
                format!(
                    "trace round trip failed: {:?} / {:?}",
                    live.err(),
                    offline.err()
                )
            }),
        }
        self.reanalyze_per_s.push(records as f64 / reanalyzed);
        PassOut {
            throughput: records as f64 / captured,
            latency_ms: reanalyzed * 1e3,
            output,
        }
    }

    fn details(&self) -> Vec<Sampled> {
        vec![
            Sampled::new(
                "reanalyze_records_per_s",
                "records/s",
                self.reanalyze_per_s.clone(),
            ),
            Sampled::new(
                "trace_records",
                "count",
                vec![self.records.unwrap_or(0) as f64],
            ),
        ]
    }
}

impl LayerSource for TraceRoundtrip {
    fn trials(&self, p: &Params) -> Vec<Trial> {
        let spec = find(TRACE_ARTIFACT).expect("registered").spec();
        (1..=CAPTURE_TRIALS)
            .map(|t| {
                Trial::of(
                    &format!("{TRACE_ARTIFACT}/trial-{t}"),
                    spec.clone(),
                    scale(p, Scale::Reduced),
                    p.seed,
                    t,
                )
            })
            .collect()
    }

    fn document(&self) -> String {
        self.last.as_ref().map(to_string_pretty).unwrap_or_default()
    }

    fn serialize(&self) -> usize {
        self.last.as_ref().map_or(0, |r| to_string_pretty(r).len())
    }
}

/// The `oven-lhs` preset with 1,024 latin-hypercube points at reduced
/// scale.
pub struct SweepLhs {
    exec: Executor,
    packets_per_s: Vec<f64>,
    last: Option<SweepDocument>,
}

/// Points of the timed sweep.
const SWEEP_POINTS: usize = 1_024;

/// Points of the smoke-scale warm-up sweep in set-up.
const WARMUP_POINTS: usize = 256;

impl SweepLhs {
    /// A sweep on a two-worker executor.
    pub fn new() -> SweepLhs {
        SweepLhs {
            exec: Executor::new(JOBS),
            packets_per_s: Vec::new(),
            last: None,
        }
    }

    fn space(points: usize) -> ParameterSpace {
        preset("oven-lhs")
            .expect("preset exists")
            .with_points(points)
    }
}

impl PassWorkload for SweepLhs {
    fn setup(&mut self, p: &Params, checks: &mut Checks) {
        let points = SweepLhs::space(SWEEP_POINTS).expand(p.seed);
        checks.check(matches!(&points, Ok(v) if v.len() == SWEEP_POINTS), || {
            format!(
                "oven-lhs did not expand to {SWEEP_POINTS} points: {:?}",
                points.as_ref().err()
            )
        });
        let warm = SweepLhs::space(WARMUP_POINTS).run(Scale::Smoke, p.seed, &self.exec);
        checks.check(warm.is_ok(), || {
            String::from("smoke-scale warm-up sweep failed")
        });
    }

    fn pass(&mut self, p: &Params, tracer: &mut Tracer, checks: &mut Checks) -> PassOut {
        let start = Instant::now();
        let space = SweepLhs::space(if p.quick { WARMUP_POINTS } else { SWEEP_POINTS });
        let doc = tracer.span("sweep.run", |_| {
            space.run(scale(p, Scale::Reduced), p.seed, &self.exec)
        });
        let mut output = Vec::new();
        let (mut points, mut packets) = (0, 0);
        match doc {
            Ok(doc) => {
                output = tracer
                    .span("report.json", |_| to_string_pretty(&doc))
                    .into_bytes();
                points = doc.points.len();
                packets = doc.total_packets;
                self.last = Some(doc);
            }
            Err(e) => checks.check(false, || format!("sweep failed: {e}")),
        }
        let secs = start.elapsed().as_secs_f64();
        self.packets_per_s.push(packets as f64 / secs);
        PassOut {
            throughput: points as f64 / secs,
            latency_ms: secs * 1e3,
            output,
        }
    }

    fn details(&self) -> Vec<Sampled> {
        vec![Sampled::new(
            "pkt_per_s",
            "pkt/s",
            self.packets_per_s.clone(),
        )]
    }
}

impl LayerSource for SweepLhs {
    fn trials(&self, p: &Params) -> Vec<Trial> {
        let points = SweepLhs::space(SWEEP_POINTS)
            .expand(p.seed)
            .expect("checked in set-up");
        let scale = scale(p, Scale::Reduced);
        points
            .into_iter()
            .take(8)
            .enumerate()
            .map(|(i, point)| Trial {
                label: format!("oven-lhs/point-{i}"),
                packets: scale.packets(point.spec.packet_budget),
                seed: point.seed,
                spec: point.spec,
            })
            .collect()
    }

    fn document(&self) -> String {
        self.last.as_ref().map(to_string_pretty).unwrap_or_default()
    }

    fn serialize(&self) -> usize {
        self.last.as_ref().map_or(0, |d| to_string_pretty(d).len())
    }
}
