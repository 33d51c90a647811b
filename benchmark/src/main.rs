//! The repository's benchmark: six seeded workloads driven through the
//! public API, each in its own process, reporting every end-to-end metric
//! with its median, quartiles and sample count, checking the outputs, and
//! (with `--trace`) splitting the time by layer.
//!
//! ```text
//! benchmark/run.sh [--workload NAME] [--seed N] [--trace] [--quick]
//! benchmark/run.sh --compare PARENT.json CHANGE.json
//! ```
//!
//! Run from the repository root. Results go to `target/benchmark/`. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — the end-to-end metrics of `BENCHMARK.json`, or
//! with `--trace` its per-layer metrics.
//!
//! A harness that runs `BENCHMARK.json`'s `command` calls it as
//! `--workload W --seed N --seconds S --trace 0|1`, so `--seconds` (the
//! measured time, otherwise `run_seconds`, or 1 s with `--quick`) and the
//! `0|1` form of `--trace` are accepted as well.

mod batch;
mod compare;
mod http;
mod json;
mod layers;
mod openloop;
mod run;
mod serve;
mod stats;
mod trace;
mod zipf;

use json::{compact, get_array, get_f64, get_str, int, num, object, parse, string, Value};
use run::{Measured, Params, Sampled, Traced};
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Every workload, in run order.
const WORKLOADS: [&str; 6] = [
    "clean-channel",
    "interference",
    "fec-harq",
    "trace-roundtrip",
    "sweep-lhs",
    "serve-zipf",
];

/// Where results, traces and scratch files go, relative to the checkout.
const OUT_DIR: &str = "target/benchmark";

/// The benchmark definition, relative to the checkout.
const DEFINITION: &str = "BENCHMARK.json";

const USAGE: &str = "\
usage: benchmark/run.sh [--workload NAME] [--seed N] [--trace] [--quick]
       benchmark/run.sh --compare PARENT.json CHANGE.json
also accepted: --seconds S (default run_seconds, 1 with --quick), --trace 0|1
workloads: clean-channel interference fec-harq trace-roundtrip sweep-lhs serve-zipf";

fn usage(message: &str) -> ExitCode {
    eprintln!("{message}\n{USAGE}");
    ExitCode::from(2)
}

/// Parsed command line.
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    child: bool,
    compare: Option<(String, String)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1996,
        seconds: None,
        trace: false,
        quick: false,
        child: false,
        compare: None,
    };
    let mut it = raw.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" | "--child" => {
                let name = it.next().ok_or("--workload needs a name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workloads.push(name.clone());
                args.child |= arg == "--child";
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs an unsigned number")?;
            }
            "--seconds" => {
                args.seconds = Some(
                    it.next()
                        .and_then(|s| s.parse::<f64>().ok())
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                );
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--compare" => {
                let a = it.next().ok_or("--compare needs two result files")?;
                let b = it.next().ok_or("--compare needs two result files")?;
                args.compare = Some((a.clone(), b.clone()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.child && args.workloads.len() != 1 {
        return Err(String::from("a child process runs exactly one workload"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => return usage(&message),
    };
    let definition = match std::fs::read_to_string(DEFINITION)
        .map_err(|e| e.to_string())
        .and_then(|text| parse(&text).map_err(|e| e.to_string()))
    {
        Ok(value) => value,
        Err(e) => {
            eprintln!("cannot load {DEFINITION} from the current directory: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare_files(&definition, a, b);
    }
    let seconds = match (args.seconds, args.quick) {
        (Some(s), _) => s,
        (None, true) => 1.0,
        (None, false) => get_f64(&definition, "run_seconds").unwrap_or(10.0),
    };
    let params = Params {
        seed: args.seed,
        seconds,
        quick: args.quick,
        trace: args.trace,
        scratch: PathBuf::from(OUT_DIR),
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }
    if args.child {
        return run_child(&args.workloads[0], &params, &definition);
    }
    let workloads: Vec<String> = if args.workloads.is_empty() {
        WORKLOADS.iter().map(|s| s.to_string()).collect()
    } else {
        args.workloads
    };
    orchestrate(&workloads, &params)
}

/// Runs each workload in its own process, then collects their results
/// into `target/benchmark/result.json`.
fn orchestrate(workloads: &[String], p: &Params) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::from(1);
        }
    };
    let mut results = Vec::new();
    for name in workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--child", name, "--seed", &p.seed.to_string()])
            .args(["--seconds", &p.seconds.to_string()]);
        if p.trace {
            cmd.arg("--trace");
        }
        if p.quick {
            cmd.arg("--quick");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("workload {name} failed: {status}");
                return ExitCode::from(1);
            }
            Err(e) => {
                eprintln!("cannot start workload {name}: {e}");
                return ExitCode::from(1);
            }
        }
        let file = detail_path(name, p.trace);
        match std::fs::read_to_string(&file).map(|t| parse(&t)) {
            Ok(Ok(detail)) => results.push((name.clone(), detail)),
            _ => {
                eprintln!("workload {name} left no readable {}", file.display());
                return ExitCode::from(1);
            }
        }
    }
    let doc = object([
        ("seed", int(p.seed)),
        ("seconds", num(p.seconds)),
        ("quick", Value::Bool(p.quick)),
        ("trace", Value::Bool(p.trace)),
        ("workloads", object(results.iter().cloned())),
    ]);
    let path = Path::new(OUT_DIR).join("result.json");
    if let Err(e) = std::fs::write(&path, to_pretty(&doc)) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::from(1);
    }
    eprintln!("[results written to {}]", path.display());
    if results.len() > 1 {
        // One summary line over every workload; a single workload's own
        // line is already the last one printed.
        let sum = |key| {
            results
                .iter()
                .map(|(_, d)| get_f64(d, key).unwrap_or(0.0) as u64)
                .sum::<u64>()
        };
        let metrics = results.iter().flat_map(|(name, d)| {
            json::get_entries(d, "reported")
                .iter()
                .map(move |(m, v)| (format!("{name}.{m}"), v.clone()))
        });
        println!(
            "{}",
            compact(&object([
                ("correct", Value::Bool(sum("failed") == 0)),
                ("attempted", int(sum("attempted"))),
                ("failed", int(sum("failed"))),
                ("metrics", object(metrics)),
            ]))
        );
    }
    ExitCode::SUCCESS
}

fn detail_path(workload: &str, trace: bool) -> PathBuf {
    let suffix = if trace { "-trace" } else { "" };
    Path::new(OUT_DIR).join(format!("{workload}{suffix}.json"))
}

/// Pretty JSON through the workspace writer.
fn to_pretty(value: &Value) -> String {
    wavelan_analysis::json::to_string_pretty(value)
}

/// Runs one workload in this process and reports it.
fn run_child(name: &str, p: &Params, definition: &Value) -> ExitCode {
    let measured = match name {
        "clean-channel" => run::measure(&mut batch::Batch::clean_channel(), p),
        "interference" => run::measure(&mut batch::Batch::interference(), p),
        "fec-harq" => run::measure(&mut batch::Batch::fec_harq(), p),
        "trace-roundtrip" => run::measure(&mut batch::TraceRoundtrip::new(), p),
        "sweep-lhs" => run::measure(&mut batch::SweepLhs::new(), p),
        "serve-zipf" => serve::measure(p),
        _ => unreachable!("workload names are validated when parsed"),
    };
    let metrics = &measured.metrics;
    print_human(name, p, &measured, metrics);

    // The reported set is exactly the definition's list for this mode.
    let wanted = if p.trace { "per_layer" } else { "end_to_end" };
    let mut reported = Vec::new();
    for def in get_array(definition, wanted) {
        let metric = get_str(def, "name").unwrap_or_default();
        let found = if p.trace {
            measured
                .traced
                .as_ref()
                .and_then(|t| t.layers.iter().find(|l| l.name == metric))
                .map(|l| (l.value, l.unit))
        } else {
            metrics
                .iter()
                .find(|m| m.name == metric)
                .and_then(|m| Summary::of(&m.samples).map(|s| (s.median, m.unit)))
        };
        let Some((value, unit)) = found else {
            eprintln!("{name} measured no {metric} ({wanted} metric of {DEFINITION})");
            return ExitCode::from(1);
        };
        reported.push((
            metric.to_string(),
            object([("value", num(value)), ("unit", string(unit))]),
        ));
    }

    let checks = &measured.checks;
    let detail = detail_json(name, p, &measured, metrics, &reported);
    let path = detail_path(name, p.trace);
    if let Err(e) = std::fs::write(&path, to_pretty(&detail)) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::from(1);
    }
    if let Some(traced) = &measured.traced {
        let trace_path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
        if let Err(e) = std::fs::write(&trace_path, to_pretty(&trace_json(name, p, traced))) {
            eprintln!("cannot write {}: {e}", trace_path.display());
            return ExitCode::from(1);
        }
        println!("  trace written to {}", trace_path.display());
    }
    println!(
        "{}",
        compact(&object([
            ("correct", Value::Bool(checks.failed == 0)),
            ("attempted", int(checks.attempted.max(1))),
            ("failed", int(checks.failed)),
            ("metrics", object(reported)),
        ]))
    );
    ExitCode::SUCCESS
}

fn summary_json(m: &Sampled) -> Value {
    let s = Summary::of(&m.samples);
    object([
        ("unit", string(m.unit)),
        ("median", s.map_or(Value::Null, |s| num(s.median))),
        ("q1", s.map_or(Value::Null, |s| num(s.q1))),
        ("q3", s.map_or(Value::Null, |s| num(s.q3))),
        ("n", int(m.samples.len() as u64)),
        (
            "samples",
            Value::Array(m.samples.iter().map(|&v| num(v)).collect()),
        ),
    ])
}

fn layers_json(layers: &[layers::Layer]) -> Value {
    object(layers.iter().map(|l| {
        let mut fields = vec![("value", num(l.value)), ("unit", string(l.unit))];
        if let Some(calls) = l.calls {
            fields.push(("calls", int(calls)));
        }
        (l.name, object(fields))
    }))
}

fn detail_json(
    name: &str,
    p: &Params,
    m: &Measured,
    metrics: &[Sampled],
    reported: &[(String, Value)],
) -> Value {
    let c = &m.checks;
    let mut fields = vec![
        ("workload", string(name)),
        ("seed", int(p.seed)),
        ("seconds", num(p.seconds)),
        ("quick", Value::Bool(p.quick)),
        ("trace", Value::Bool(p.trace)),
        ("correct", Value::Bool(c.failed == 0)),
        ("attempted", int(c.attempted)),
        ("failed", int(c.failed)),
        (
            "fail_ratio",
            num(c.failed as f64 / c.attempted.max(1) as f64),
        ),
        ("output_digest", string(&format!("{:016x}", m.digest))),
        (
            "metrics",
            object(metrics.iter().map(|s| (s.name, summary_json(s)))),
        ),
        (
            "details",
            object(m.details.iter().map(|s| (s.name, summary_json(s)))),
        ),
        ("reported", object(reported.iter().cloned())),
    ];
    if let Some(t) = &m.traced {
        fields.push(("tracing_overhead_pct", num(t.overhead_pct)));
        fields.push(("layers", layers_json(&t.layers)));
        fields.push(("extras", layers_json(&t.extras)));
    }
    object(fields)
}

fn trace_json(name: &str, p: &Params, t: &Traced) -> Value {
    let self_time = t.tracer.self_times().into_iter().map(|(span, s)| {
        object([
            ("span", string(&span)),
            ("count", int(s.count as u64)),
            ("total_ms", num(s.total.as_secs_f64() * 1e3)),
            ("self_ms", num(s.own.as_secs_f64() * 1e3)),
        ])
    });
    let trials = t.split.trials.iter().map(|r| {
        object([
            ("trial", string(&r.label)),
            ("records", int(r.records)),
            ("transmissions", int(r.transmissions)),
            ("build_us", num(r.build.as_secs_f64() * 1e6)),
            ("run_ms", num(r.run.as_secs_f64() * 1e3)),
            ("sim_self_ms", num(r.sim().as_secs_f64() * 1e3)),
            ("fold_ms", num(r.fold.as_secs_f64() * 1e3)),
        ])
    });
    object([
        ("workload", string(name)),
        ("seed", int(p.seed)),
        ("tracing_overhead_pct", num(t.overhead_pct)),
        ("fec_kernel", string(layers::fec_kernel())),
        ("self_time", Value::Array(self_time.collect())),
        ("layers", layers_json(&t.layers)),
        ("extras", layers_json(&t.extras)),
        ("trials", Value::Array(trials.collect())),
        ("spans", t.tracer.to_json()),
    ])
}

/// The human-readable report: every metric with unit, median, quartiles
/// and sample count; the checks and digest; and the traced tables.
fn print_human(name: &str, p: &Params, m: &Measured, metrics: &[Sampled]) {
    println!(
        "== {name}: seed {}, {} s{}{} ==",
        p.seed,
        p.seconds,
        if p.quick { ", quick" } else { "" },
        if p.trace { ", traced" } else { "" }
    );
    for s in metrics.iter().chain(&m.details) {
        match Summary::of(&s.samples) {
            Some(x) => println!(
                "  {:<26} {:<10} median {:<14.6} q1 {:<14.6} q3 {:<14.6} n {}",
                s.name, s.unit, x.median, x.q1, x.q3, x.n
            ),
            None => println!("  {:<26} {:<10} (no samples)", s.name, s.unit),
        }
    }
    let c = &m.checks;
    println!(
        "  checks: {} attempted, {} failed (fail_ratio {}); output_digest {:016x}",
        c.attempted,
        c.failed,
        c.failed as f64 / c.attempted.max(1) as f64,
        m.digest
    );
    let Some(t) = &m.traced else { return };
    println!("  traced pass, self time by span:");
    println!(
        "    {:<24} {:>7} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (span, s) in t.tracer.self_times() {
        println!(
            "    {:<24} {:>7} {:>12.3} {:>12.3}",
            span,
            s.count,
            s.total.as_secs_f64() * 1e3,
            s.own.as_secs_f64() * 1e3
        );
    }
    println!("  canonical re-run (serial, fold timed):");
    println!(
        "    {:<22} {:>9} {:>9} {:>8} {:>12} {:>12}",
        "trial", "records", "tx", "tx/rec", "sim ns/rec", "fold ns/rec"
    );
    for r in &t.split.trials {
        let per = |d: std::time::Duration| d.as_nanos() as f64 / r.records.max(1) as f64;
        println!(
            "    {:<22} {:>9} {:>9} {:>8.2} {:>12.1} {:>12.1}",
            r.label,
            r.records,
            r.transmissions,
            r.transmissions as f64 / r.records.max(1) as f64,
            per(r.sim()),
            per(r.fold)
        );
    }
    println!("  per-layer (fec kernel {}):", layers::fec_kernel());
    for l in t.layers.iter().chain(&t.extras) {
        let calls = l.calls.map_or(String::from("-"), |c| c.to_string());
        println!(
            "    {:<36} {:>14.3} {:<6} calls {}",
            l.name, l.value, l.unit, calls
        );
    }
    println!("  tracing_overhead_pct {:.2}", t.overhead_pct);
}

/// `--compare A B`: prints one verdict per workload and metric; exits 1 if
/// anything regressed.
fn compare_files(definition: &Value, a: &str, b: &str) -> ExitCode {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (parent, change) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => return usage(&e),
    };
    let rows = compare::compare(definition, &parent, &change);
    println!(
        "{:<16} {:<18} {:>20} {:>20}  verdict",
        "workload", "metric", "parent", "change"
    );
    for r in &rows {
        println!(
            "{:<16} {:<18} {:>20} {:>20}  {}",
            r.workload, r.metric, r.parent, r.change, r.verdict
        );
    }
    if rows.iter().any(|r| r.verdict == "regressed") {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
