//! Regenerates the paper's tables and figures — and serves them.
//!
//! ```text
//! repro [--scale smoke|reduced|paper] [--seed N] [--jobs N]
//!       [--format text|json] [--list] [artifact ...]
//! repro <artifact> --trace-out FILE [--scale S] [--seed N] [--format F]
//! repro reanalyze FILE [--format text|json]
//! repro trace-info FILE
//! repro --scenario NAME [--scale S] [--seed N] [--jobs N] [--format F]
//! repro --validate [--seeds N] [--scale smoke|reduced|paper] [--seed N]
//!       [--jobs N] [--format text|json]
//! repro sweep --space NAME|PATH [--points N] [--scale S] [--seed N]
//!       [--jobs N] [--format text|json]
//! repro serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!       [--timeout-ms N] [--jobs N] [--addr-file PATH] [--store DIR]
//! repro --http-get URL
//! repro --check-json PATH
//! ```
//!
//! With no artifact arguments, everything is regenerated in paper order.
//! Run `repro --list` for the artifact names, the paper artifact each one
//! reproduces, and its packet budget at the selected scale — plus the
//! scripted scenario names and the sweep preset names.
//!
//! `sweep` expands a declarative parameter space (`wavelan-core::sweep`)
//! over a base [`ScenarioSpec`] and runs every point through the
//! deterministic executor, folding the results into a ranked summary
//! (best/worst configurations plus per-knob sensitivity). `--space` names
//! a built-in preset (`--space list` prints them) or a JSON space file;
//! `--points` overrides the sample count of random/LHS spaces. Sweeps
//! default to smoke scale (each point is a full scenario run; a 100-point
//! space at paper scale is 100 paper-scale simulations). Per-point seeds
//! derive from the point's *content*, so the document is bit-identical at
//! any worker count and any axis declaration order.
//!
//! `--scenario NAME` runs one scripted scenario from the event-DAG library
//! (`wavelan-core::scenario`) instead of a registry artifact and renders
//! its report — the scenario's `require` verdicts included. Exit code 0
//! means every require held, 1 means at least one failed, 2 means the name
//! is unknown (the error lists the valid names; `--scenario list` prints
//! them without running anything).
//!
//! `--trace-out FILE` (one artifact only) runs the artifact's canonical
//! scenario through the **streaming** capture pipeline, tees every receiver
//! trace record into a self-describing columnar trace file (the WLTC format
//! — see `wavelan-analysis::tracecodec`), and prints the capture report.
//! `reanalyze FILE` re-runs the paper's classifier over such a file offline
//! — no simulator involved — and reproduces the originating run's report
//! byte-for-byte (the CI gate `cmp`s the two). `trace-info FILE` prints the
//! file's header and stream skeleton without re-analyzing.
//!
//! `--validate` runs the paper-fidelity harness (`wavelan-validate`)
//! instead of regenerating artifacts: every expectation for Tables 2–14
//! and Figures 1–3 is checked against `--seeds N` consecutive seeds
//! starting at `--seed` (default 3 seeds from 1996). Exit code 0 means no
//! table failed (warns allowed), 1 means at least one `fail` verdict,
//! 2 means a usage error.
//!
//! `--format json` emits the run as one JSON document (the serde-serialized
//! structured reports — see the "Report model" section of the README)
//! instead of the rendered text tables.
//!
//! `--jobs N` sets the trial executor's worker count (default: one worker
//! per core; `--jobs 1` is fully serial). Trial seeds derive purely from
//! `(experiment id, trial index, base seed)` and results merge in
//! declaration order, so stdout is bit-identical at any worker count —
//! only the wall-clock report on stderr changes: one
//! `[artifact: S s, N packets, R pkt/s]` line per artifact. Repeatable
//! measurements with medians and quartiles live in `benchmark/run.sh`.
//!
//! `--check-json PATH` parses a JSON file with the vendored round-trip
//! parser and exits 0 if it is well-formed (2 otherwise) — the CI gate
//! uses it to validate the documents it just wrote without depending on
//! `jq`.
//!
//! `serve` starts the `wavelan-serve` daemon (see that crate's docs for
//! the endpoints and status codes) and drains gracefully on
//! SIGTERM/ctrl-c. `--addr-file PATH` writes the bound address — useful
//! with `--addr 127.0.0.1:0`, where the kernel picks the port. `--store
//! DIR` attaches the persistent result tier: computed responses are
//! written to `DIR` as content-addressed WLST entries, and a restarted
//! daemon re-serves them byte-identically without recomputing.
//!
//! `--http-get URL` is a minimal HTTP GET client (body to stdout, exit 0
//! only on HTTP 200) so CI can poke the daemon without `curl`.
//!
//! Unknown flags, unknown artifacts, and malformed values all exit 2 with
//! a usage message.

use std::io::Write as _;
use std::time::{Duration, Instant};
use wavelan_analysis::json::to_string_pretty;
use wavelan_bench::{run_report, RunDocument, ARTIFACTS};
use wavelan_core::{registry, Executor, Scale};

/// Writes to stdout through one locked handle. A reader that closes the
/// pipe early (`repro ... | head`) ends the run quietly with status 0, as
/// for any Unix filter; any other write failure exits 1.
fn emit(args: std::fmt::Arguments) {
    let written = {
        let mut stdout = std::io::stdout().lock();
        stdout.write_fmt(args).and_then(|()| stdout.flush())
    };
    match written {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// One-line usage summary, printed with every usage error (exit 2).
const USAGE: &str = "\
usage: repro [--scale smoke|reduced|paper] [--seed N] [--jobs N]
             [--format text|json] [--list] [artifact ...]
       repro <artifact> --trace-out FILE [--scale S] [--seed N] [--format F]
       repro reanalyze FILE [--format text|json]
       repro trace-info FILE
       repro --scenario NAME [--scale S] [--seed N] [--jobs N] [--format F]
       repro --validate [--seeds N] [--scale S] [--seed N] [--jobs N] [--format F]
       repro sweep --space NAME|PATH [--points N] [--scale S] [--seed N]
             [--jobs N] [--format text|json]
       repro serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
             [--timeout-ms N] [--jobs N] [--addr-file PATH] [--store DIR]
       repro --http-get URL
       repro --check-json PATH
run `repro --list` for artifact names and `repro --help` for details";

/// Prints `message` and the usage block to stderr, then exits 2 — the
/// contract for every malformed invocation (pinned by the CLI tests).
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Output format of the run.
#[derive(Clone, Copy, PartialEq)]
enum Format {
    /// The rendered text tables (the golden-transcript format).
    Text,
    /// One JSON document of serde-serialized [`wavelan_analysis::Report`]s.
    Json,
}

/// Prints the registry listing for `--list`, plus the scripted scenario
/// names and the sweep presets (the other two runnable namespaces).
fn list_artifacts(scale: Scale) {
    outln!(
        "artifacts in paper order (packet budgets at scale {}):",
        scale.name()
    );
    for e in registry::REGISTRY {
        outln!(
            "  {:<18} {:>9}  {}",
            e.artifact_name(),
            e.packet_budget(scale),
            e.paper_artifact()
        );
    }
    outln!("\nscenarios (event-DAG scripts; run with --scenario <name>):");
    for n in wavelan_core::scenario::SCENARIO_NAMES {
        outln!("  {n}");
    }
    outln!("\nsweep presets (run with `repro sweep --space <name>`):");
    for name in wavelan_core::sweep::PRESET_NAMES {
        let space = wavelan_core::sweep::preset(name).expect("preset names resolve");
        let axes: Vec<&str> = space.axes.iter().map(|a| a.field.as_str()).collect();
        outln!(
            "  {:<12} {:>4} points  {} over {}",
            name,
            space.point_count(),
            space.sampling.name(),
            axes.join(" x ")
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        serve_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("sweep") {
        sweep_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("reanalyze") {
        reanalyze_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("trace-info") {
        trace_info_main(&args[1..]);
    }
    let mut scale = Scale::Reduced;
    let mut seed = 1996u64;
    let mut jobs = 0usize;
    let mut format = Format::Text;
    let mut list = false;
    let mut validate = false;
    let mut scenario: Option<String> = None;
    let mut seeds = 3u64;
    let mut trace_out_path: Option<String> = None;
    let mut artifacts: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("smoke") => Scale::Smoke,
                    Some("reduced") => Scale::Reduced,
                    Some("paper") => Scale::Paper,
                    other => usage_error(&format!("unknown scale {other:?}")),
                }
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage_error("--seed needs an unsigned number"))
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage_error("--jobs needs a number (0 = one per core)"))
            }
            "--format" => {
                format = match it.next().map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => usage_error(&format!("unknown format {other:?} (text or json)")),
                }
            }
            "--list" => list = true,
            "--check-json" => {
                let path = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| usage_error("--check-json needs a path"));
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(2);
                });
                match wavelan_analysis::json::parse(&text) {
                    Ok(_) => {
                        eprintln!("[{path}: valid JSON]");
                        return;
                    }
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--http-get" => {
                let url = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| usage_error("--http-get needs a URL"));
                http_get(&url);
            }
            "--validate" => validate = true,
            "--scenario" => {
                scenario = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage_error("--scenario needs a name (or `list`)")),
                )
            }
            "--seeds" => {
                seeds = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| usage_error("--seeds needs a positive number"))
            }
            "--trace-out" => {
                trace_out_path = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage_error("--trace-out needs a path")),
                )
            }
            "--help" | "-h" => {
                outln!(
                    "{USAGE}\n\
                     `--validate` checks the reproduction against the paper's \
                     published values (exit 1 on any fail verdict); `sweep` \
                     expands a parameter space over a base scenario spec and \
                     prints the ranked summary (`--space list` for presets); \
                     `serve` starts the HTTP daemon (endpoints: /healthz \
                     /artifacts /run/{{artifact}} /validate /sweep /metrics) \
                     and drains on SIGTERM/ctrl-c"
                );
                return;
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag {flag}")),
            name => artifacts.push(name.to_string()),
        }
    }
    if list {
        list_artifacts(scale);
        return;
    }
    if let Some(name) = scenario {
        if validate {
            usage_error("--scenario and --validate are mutually exclusive");
        }
        if !artifacts.is_empty() {
            eprintln!("--scenario runs one named scenario; drop the artifact arguments");
            std::process::exit(2);
        }
        run_scenario(&name, scale, seed, jobs, format);
    }
    if validate {
        if !artifacts.is_empty() {
            eprintln!("--validate always checks the full corpus; drop the artifact arguments");
            std::process::exit(2);
        }
        let exec = Executor::new(jobs);
        eprintln!("[executor: {} worker(s)]", exec.jobs());
        let config = wavelan_validate::Config {
            scale,
            base_seed: seed,
            seeds,
        };
        let start = Instant::now();
        let fidelity = wavelan_validate::run(&config, &exec);
        eprintln!("[validate: {:.2}s]", start.elapsed().as_secs_f64());
        match format {
            Format::Text => out!("{}", fidelity.to_report().render()),
            Format::Json => out!("{}", to_string_pretty(&fidelity)),
        }
        std::process::exit(i32::from(fidelity.failed()));
    }
    if artifacts.is_empty() {
        artifacts = ARTIFACTS.iter().map(|s| s.to_string()).collect();
    }

    // Fail fast on unknown names, before any simulation time is spent.
    let mut unknown = false;
    for artifact in &artifacts {
        if registry::find(artifact).is_none() {
            eprintln!("unknown artifact {artifact}");
            unknown = true;
        }
    }
    if unknown {
        eprintln!("valid artifacts: {}", ARTIFACTS.join(" "));
        std::process::exit(2);
    }

    if let Some(path) = trace_out_path {
        if artifacts.len() != 1 {
            usage_error("--trace-out captures exactly one artifact (name it explicitly)");
        }
        run_trace_export(&artifacts[0], &path, scale, seed, format);
    }

    let exec = Executor::new(jobs);
    eprintln!("[executor: {} worker(s)]", exec.jobs());
    if format == Format::Text {
        outln!(
            "# Reproduction of Eckhardt & Steenkiste, SIGCOMM '96 (scale {scale:?}, seed {seed})\n"
        );
    }
    let total_start = Instant::now();
    let mut total_packets = 0u64;
    let mut reports = Vec::new();
    for artifact in &artifacts {
        let start = Instant::now();
        let report = run_report(artifact, scale, seed, &exec).expect("validated above");
        let elapsed = start.elapsed().as_secs_f64();
        let packets = report.packets;
        match format {
            Format::Text => outln!("{}", report.render()),
            Format::Json => reports.push(report),
        }
        // Timing goes to stderr: stdout stays bit-identical across runs and
        // worker counts (the golden regression diffs it verbatim).
        eprintln!(
            "[{artifact}: {:.2}s, {} packets, {:.0} pkt/s]",
            elapsed,
            packets,
            packets as f64 / elapsed.max(1e-9)
        );
        total_packets += packets;
    }
    if format == Format::Json {
        let doc = RunDocument {
            scale: scale.name(),
            seed,
            artifacts: reports,
        };
        out!("{}", to_string_pretty(&doc));
    }
    let total = total_start.elapsed().as_secs_f64();
    eprintln!(
        "[total: {:.2}s, {} packets, {:.0} pkt/s]",
        total,
        total_packets,
        total_packets as f64 / total.max(1e-9)
    );
}

/// The `repro sweep` subcommand: expand a parameter space and run it over
/// the deterministic executor, printing the ranked summary. Exit 0 on
/// success, 2 on usage/parse errors.
fn sweep_main(args: &[String]) -> ! {
    use wavelan_core::sweep::{preset, ParameterSpace, PRESET_NAMES};
    let mut space_arg: Option<String> = None;
    let mut points: Option<usize> = None;
    // Sweeps default to smoke: every point is a full scenario run, so the
    // per-point budget multiplies by the space size.
    let mut scale = Scale::Smoke;
    let mut seed = 1996u64;
    let mut jobs = 0usize;
    let mut format = Format::Text;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--space" => {
                space_arg = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage_error("--space needs a preset name or a path")),
                )
            }
            "--points" => {
                points = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|n| *n > 0)
                        .unwrap_or_else(|| usage_error("--points needs a positive number")),
                )
            }
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("smoke") => Scale::Smoke,
                    Some("reduced") => Scale::Reduced,
                    Some("paper") => Scale::Paper,
                    other => usage_error(&format!("unknown scale {other:?}")),
                }
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage_error("--seed needs an unsigned number"))
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage_error("--jobs needs a number (0 = one per core)"))
            }
            "--format" => {
                format = match it.next().map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => usage_error(&format!("unknown format {other:?} (text or json)")),
                }
            }
            flag => usage_error(&format!("unknown sweep flag {flag}")),
        }
    }
    let Some(space_arg) = space_arg else {
        usage_error("sweep needs --space NAME|PATH (`--space list` prints the presets)");
    };
    if space_arg == "list" {
        outln!("sweep presets (run with `repro sweep --space <name>`):");
        for name in PRESET_NAMES {
            outln!("  {name}");
        }
        std::process::exit(0);
    }
    let mut space = match preset(&space_arg) {
        Some(space) => space,
        None => {
            let text = std::fs::read_to_string(&space_arg).unwrap_or_else(|e| {
                eprintln!("{space_arg} is neither a preset nor a readable space file: {e}");
                eprintln!("presets: {}", PRESET_NAMES.join(" "));
                std::process::exit(2);
            });
            ParameterSpace::parse(&text).unwrap_or_else(|e| {
                eprintln!("{space_arg}: {e}");
                std::process::exit(2);
            })
        }
    };
    if let Some(points) = points {
        space = space.with_points(points);
    }
    let exec = Executor::new(jobs);
    eprintln!("[executor: {} worker(s)]", exec.jobs());
    let start = Instant::now();
    let doc = space.run(scale, seed, &exec).unwrap_or_else(|e| {
        eprintln!("sweep failed: {e}");
        std::process::exit(2);
    });
    let seconds = start.elapsed().as_secs_f64();
    // Timing to stderr only: stdout stays bit-identical across runs and
    // worker counts.
    eprintln!(
        "[sweep {}: {} points, {:.2}s, {:.1} points/s]",
        doc.space,
        doc.points.len(),
        seconds,
        doc.points.len() as f64 / seconds.max(1e-9)
    );
    match format {
        Format::Text => out!("{}", doc.render_text()),
        Format::Json => out!("{}", to_string_pretty(&doc)),
    }
    std::process::exit(0);
}

/// `--scenario NAME`: run one event-DAG library scenario and render its
/// report (require verdicts included). Exit 0 if every require held, 1 if
/// any failed, 2 if the name is unknown.
fn run_scenario(name: &str, scale: Scale, seed: u64, jobs: usize, format: Format) -> ! {
    use wavelan_core::scenario::{run_named, SCENARIO_NAMES};
    if name == "list" {
        outln!("scenarios (event-DAG scripts; run with --scenario <name>):");
        for n in SCENARIO_NAMES {
            outln!("  {n}");
        }
        std::process::exit(0);
    }
    let exec = Executor::new(jobs);
    eprintln!("[executor: {} worker(s)]", exec.jobs());
    let start = Instant::now();
    let Some(run) = run_named(name, seed, scale, &exec) else {
        eprintln!("unknown scenario {name}");
        eprintln!("valid scenarios: {}", SCENARIO_NAMES.join(" "));
        std::process::exit(2);
    };
    // Timing to stderr only: stdout stays bit-identical across runs and
    // worker counts (the CI gate diffs it against a golden transcript).
    eprintln!("[scenario {name}: {:.2}s]", start.elapsed().as_secs_f64());
    match format {
        Format::Text => out!("{}", run.report.render()),
        Format::Json => out!("{}", to_string_pretty(&run.report)),
    }
    std::process::exit(i32::from(!run.passed()));
}

/// `<artifact> --trace-out FILE`: run the streaming capture pipeline,
/// teeing every receiver record into a columnar trace file, and print the
/// capture report — the report `reanalyze` must reproduce byte-for-byte.
fn run_trace_export(artifact: &str, path: &str, scale: Scale, seed: u64, format: Format) -> ! {
    let entry = registry::find(artifact).expect("validated by caller");
    let file = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        std::process::exit(2);
    });
    let start = Instant::now();
    let report = wavelan_core::export_trace(entry, scale, seed, std::io::BufWriter::new(file))
        .unwrap_or_else(|e| {
            eprintln!("trace export failed: {e}");
            std::process::exit(1);
        });
    // Timing to stderr only: stdout is the report `reanalyze` is compared
    // against, so it must carry no wall-clock noise.
    eprintln!(
        "[trace {artifact}: {:.2}s, {} packets, written to {path}]",
        start.elapsed().as_secs_f64(),
        report.packets
    );
    match format {
        Format::Text => out!("{}", report.render()),
        Format::Json => out!("{}", to_string_pretty(&report)),
    }
    std::process::exit(0);
}

/// `reanalyze FILE`: re-run the paper's classifier over an exported trace,
/// offline, and print the reconstructed report. Exit 0 on success, 1 on a
/// decode/conformance error, 2 on usage errors.
fn reanalyze_main(args: &[String]) -> ! {
    let mut format = Format::Text;
    let mut path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                format = match it.next().map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => usage_error(&format!("unknown format {other:?} (text or json)")),
                }
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown reanalyze flag {flag}")),
            file if path.is_none() => path = Some(file.to_string()),
            _ => usage_error("reanalyze takes exactly one trace file"),
        }
    }
    let Some(path) = path else {
        usage_error("reanalyze needs a trace file path");
    };
    let file = std::fs::File::open(&path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(2);
    });
    let start = Instant::now();
    let report = wavelan_core::reanalyze_file(std::io::BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    // Timing to stderr only: stdout must be byte-identical to the live run.
    eprintln!("[reanalyze {path}: {:.2}s]", start.elapsed().as_secs_f64());
    match format {
        Format::Text => out!("{}", report.render()),
        Format::Json => out!("{}", to_string_pretty(&report)),
    }
    std::process::exit(0);
}

/// `trace-info FILE`: print a trace file's header and stream skeleton
/// (pinned by the golden header snapshot). Exit 0 on success, 1 on decode
/// errors, 2 on usage errors.
fn trace_info_main(args: &[String]) -> ! {
    let [path] = args else {
        usage_error("trace-info takes exactly one trace file");
    };
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(2);
    });
    match wavelan_core::trace_info(std::io::BufReader::new(file)) {
        Ok(info) => {
            out!("{info}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}

/// `--http-get URL`: fetch, print the body, exit 0 only on HTTP 200.
fn http_get(url: &str) -> ! {
    if wavelan_serve::client::split_url(url).is_none() {
        usage_error(&format!(
            "--http-get needs an http://host:port/path URL, got {url:?}"
        ));
    }
    match wavelan_serve::client::get_url(url, Duration::from_secs(60)) {
        Ok(response) => {
            out!("{}", response.body);
            if response.status == 200 {
                std::process::exit(0);
            }
            eprintln!("[{url}: HTTP {}]", response.status);
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("{url}: {e}");
            std::process::exit(1);
        }
    }
}

/// The `repro serve` subcommand: parse flags, install signal handlers,
/// run the daemon until SIGTERM/ctrl-c, drain, exit 0.
fn serve_main(args: &[String]) -> ! {
    use wavelan_serve::{signals, Config, Server};
    let mut addr = String::from("127.0.0.1:8095");
    let mut addr_file: Option<String> = None;
    let mut config = Config::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                addr = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| usage_error("--addr needs HOST:PORT"))
            }
            "--addr-file" => {
                addr_file = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage_error("--addr-file needs a path")),
                )
            }
            "--workers" => {
                config.workers = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage_error("--workers needs a number (0 = one per core)"))
            }
            "--queue" => {
                config.queue_depth = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage_error("--queue needs a number"))
            }
            "--cache" => {
                config.cache_capacity = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage_error("--cache needs a number of entries"))
            }
            "--timeout-ms" => {
                config.request_timeout = it
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .map(Duration::from_millis)
                    .unwrap_or_else(|| usage_error("--timeout-ms needs a number"))
            }
            "--jobs" => {
                config.jobs_per_run = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage_error("--jobs needs a number (0 = one per core)"))
            }
            "--store" => {
                config.store_dir = Some(std::path::PathBuf::from(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage_error("--store needs a directory")),
                ))
            }
            flag => usage_error(&format!("unknown serve flag {flag}")),
        }
    }
    signals::install();
    let server = Server::bind(&addr, config).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    let bound = server
        .local_addr()
        .expect("bound listener has an address")
        .to_string();
    eprintln!(
        "[serving on {bound}; {} worker(s); SIGTERM or ctrl-c drains]",
        server.workers()
    );
    if let Some(path) = &addr_file {
        if let Err(e) = std::fs::write(path, &bound) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    let handle = server.shutdown_handle();
    std::thread::spawn(move || loop {
        if signals::triggered() {
            handle.request();
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    });
    match server.run() {
        Ok(()) => {
            eprintln!("[drained, shutting down]");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            std::process::exit(1);
        }
    }
}
