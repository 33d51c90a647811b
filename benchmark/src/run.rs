//! What every workload shares: parameters, output checks, the output
//! digest, and the loop that times set-ups and passes.

use crate::layers::{self, Layer, Split, Trial};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Passes every run makes, however long they take.
pub const MIN_PASSES: usize = 2;

/// How one workload process runs.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: f64,
    /// Smoke scale and about one second of measurement.
    pub quick: bool,
    /// Run the traced pass and the per-layer split after measuring.
    pub trace: bool,
    /// Where scratch files (the serve store, replay stores) go.
    pub scratch: PathBuf,
}

/// Output checks, counted into `attempted` and `failed`.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong or that failed outright.
    pub failed: u64,
}

impl Checks {
    /// Counts one checked operation; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[check failed: {}]", what());
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported quantity with all its samples.
#[derive(Debug, Clone)]
pub struct Sampled {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Every sample the run took.
    pub samples: Vec<f64>,
}

impl Sampled {
    /// A metric with the given samples.
    pub fn new(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Sampled {
        Sampled {
            name,
            unit,
            samples,
        }
    }
}

/// The traced run's findings.
#[derive(Debug)]
pub struct Traced {
    /// Spans of the traced pass.
    pub tracer: Tracer,
    /// The traced pass's headline time against the untraced median,
    /// in percent.
    pub overhead_pct: f64,
    /// The canonical re-run.
    pub split: Split,
    /// Every per-layer metric of the benchmark's per-layer set.
    pub layers: Vec<Layer>,
    /// Further per-layer numbers this workload alone has.
    pub extras: Vec<Layer>,
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Measured {
    /// End-to-end metrics: `setup_s`, `throughput_per_s`, `latency_ms`,
    /// `peak_rss_mb`.
    pub metrics: Vec<Sampled>,
    /// Workload-specific numbers, under the names the older benchmark
    /// records used (e.g. `pkt_per_s`).
    pub details: Vec<Sampled>,
    /// Output checks.
    pub checks: Checks,
    /// FNV-64 of the workload's outputs: a speed-only change keeps it.
    pub digest: u64,
    /// The traced run, when asked for.
    pub traced: Option<Traced>,
}

/// One pass's result.
#[derive(Debug, Clone)]
pub struct PassOut {
    /// The pass's `throughput_per_s` sample.
    pub throughput: f64,
    /// The pass's `latency_ms` sample.
    pub latency_ms: f64,
    /// The pass's output bytes; every pass must produce the same.
    pub output: Vec<u8>,
}

/// What the per-layer split needs from a workload.
pub trait LayerSource {
    /// The canonical trials behind the workload.
    fn trials(&self, p: &Params) -> Vec<Trial>;
    /// One result document, as the store would hold it.
    fn document(&self) -> String;
    /// Re-serializes the workload's last reports; returns the byte count.
    fn serialize(&self) -> usize;
}

/// A workload made of a set-up and identical, repeatable passes.
pub trait PassWorkload: LayerSource {
    /// One set-up: build the inputs and run the checks that precede timing.
    fn setup(&mut self, p: &Params, checks: &mut Checks);
    /// One pass over the workload's inputs.
    fn pass(&mut self, p: &Params, tracer: &mut Tracer, checks: &mut Checks) -> PassOut;
    /// Workload-specific numbers gathered over the passes.
    fn details(&self) -> Vec<Sampled> {
        Vec::new()
    }
}

/// Times [`SETUPS`] set-ups (one when quick), then passes until `seconds`
/// are used up (at least [`MIN_PASSES`]), checking every pass's
/// output against the first; with `p.trace`, adds one traced pass and the
/// per-layer split.
pub fn measure(w: &mut dyn PassWorkload, p: &Params) -> Measured {
    let mut checks = Checks::default();
    let setups = if p.quick { 1 } else { SETUPS };
    let setup_s: Vec<f64> = (0..setups)
        .map(|_| {
            let start = Instant::now();
            w.setup(p, &mut checks);
            start.elapsed().as_secs_f64()
        })
        .collect();

    let mut first: Option<Vec<u8>> = None;
    let (mut throughput, mut latency, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let budget = Duration::from_secs_f64(p.seconds);
    loop {
        let t = Instant::now();
        let out = w.pass(p, &mut Tracer::off(), &mut checks);
        let wall = t.elapsed();
        walls.push(wall.as_secs_f64());
        throughput.push(out.throughput);
        latency.push(out.latency_ms);
        match &first {
            None => first = Some(out.output),
            Some(reference) => checks.check(*reference == out.output, || {
                format!("pass {} output differs from pass 1", walls.len())
            }),
        }
        // Start another pass only if it should end within half a pass of
        // the budget.
        if walls.len() >= MIN_PASSES && start.elapsed() + wall / 2 > budget {
            break;
        }
    }
    let digest = wavelan_store::fnv64(first.as_deref().unwrap_or_default());
    let rss = peak_rss_mb();
    let details = w.details();
    let traced = p.trace.then(|| {
        let mut tracer = Tracer::on(Instant::now());
        let out = tracer.span("pass", |t| w.pass(p, t, &mut checks));
        checks.check(first.as_deref() == Some(&out.output[..]), || {
            String::from("traced pass output differs from pass 1")
        });
        let traced_wall = tracer.spans()[0].duration().as_secs_f64();
        let untraced = crate::stats::percentile(&walls, 50.0).expect("at least one pass");
        per_layer(
            &*w,
            p,
            tracer,
            100.0 * (traced_wall / untraced - 1.0),
            Vec::new(),
        )
    });
    Measured {
        metrics: vec![
            Sampled::new("setup_s", "s", setup_s),
            Sampled::new("throughput_per_s", "1/s", throughput),
            Sampled::new("latency_ms", "ms", latency),
            Sampled::new("peak_rss_mb", "MB", vec![rss]),
        ],
        details,
        checks,
        digest,
        traced,
    }
}

/// The canonical re-run and the layer replays for a traced run.
pub fn per_layer<W: LayerSource + ?Sized>(
    w: &W,
    p: &Params,
    tracer: Tracer,
    overhead_pct: f64,
    extras: Vec<Layer>,
) -> Traced {
    let split = layers::split(&w.trials(p));
    let dir = p
        .scratch
        .join(format!("replay-store-{}", std::process::id()));
    let budget = Duration::from_millis(if p.quick { 20 } else { 100 });
    let replays = layers::replays(budget, &w.document(), &|| w.serialize(), &split, &dir);
    // Best effort: the directory is under the gitignored scratch root.
    let _ = std::fs::remove_dir_all(&dir);
    let mut all = split.layers.clone();
    all.extend(replays);
    Traced {
        tracer,
        overhead_pct,
        split,
        layers: all,
        extras,
    }
}
