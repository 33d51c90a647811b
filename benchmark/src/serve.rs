//! The `serve-zipf` workload: an in-process daemon with a disk store,
//! driven open-loop over loopback by two client threads with one keep-alive
//! connection each.
//!
//! The request mix is 98.5% `/run` over 360 smoke-scale keys (9 cheap
//! artifacts × 40 seeds) drawn from a Zipf(1.0) rank distribution, 1%
//! `/metrics`, and 0.5% keys never asked before, which compute. The key set
//! is larger than the daemon's 256-entry memory tier, so memory hits, disk
//! loads, computes and admission all land in one latency distribution.
//! `/metrics` and the never-seen keys sit at fixed positions of the
//! schedule and the never-seen keys all belong to one artifact, so every
//! window of a step carries the same amount of compute.

use crate::http::Client;
use crate::json::{get_entries, get_f64, parse, Value};
use crate::layers::{Layer, Trial};
use crate::openloop::{drive, schedule, Outcome, Sample, WallClock};
use crate::run::{peak_rss_mb, per_layer, Checks, LayerSource, Measured, Params, Sampled, SETUPS};
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::zipf::{permutation, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use wavelan_analysis::json::to_string_pretty;
use wavelan_analysis::RunDocument;
use wavelan_core::{find, Executor, Scale};
use wavelan_serve::{Config, Server, ShutdownHandle};

/// The cheap smoke-scale artifacts the key set is made of.
pub const ARTIFACTS: [&str; 9] = [
    "table4",
    "table5-7",
    "table8-9",
    "table10",
    "table11-13",
    "figure3",
    "tdma",
    "quality-threshold",
    "hidden-terminal",
];
/// The artifact of never-seen keys: the cheapest to compute, so every
/// compute stalls its connection for about the same time.
const FRESH_ARTIFACT: &str = "table8-9";
/// Seeds per artifact in the key set.
const SEEDS: u64 = 40;
/// Client threads, each with one keep-alive connection.
const CLIENTS: usize = 2;
/// Daemon worker threads.
const WORKERS: usize = 2;
/// Zipf exponent of the key popularity.
const ZIPF_S: f64 = 1.0;
/// Share of set-up keys re-checked against in-process runs.
const SAMPLE_SHARE: f64 = 0.10;
/// The fixed-rate step.
const BASE_RATE: f64 = 2_000.0;
/// An offered rate far above what two connections can complete: the
/// saturated step measures the rate the daemon sustains flat out.
const SATURATION_RATE: f64 = 200_000.0;
/// Once a step's time is up, requests later than this are not sent.
const MAX_LAG: Duration = Duration::from_millis(10);
/// Windows each step is split into; latency and throughput are the median
/// over windows.
const WINDOWS: usize = 8;
/// Client socket timeout.
const TIMEOUT: Duration = Duration::from_secs(30);

/// One `/run` key.
#[derive(Debug, Clone)]
struct Key {
    artifact: &'static str,
    seed: u64,
}

impl Key {
    fn path(&self) -> String {
        format!("/run/{}?seed={}&scale=smoke", self.artifact, self.seed)
    }

    /// The body the daemon must return, computed in-process.
    fn expected(&self, exec: &Executor) -> RunDocument {
        let report = find(self.artifact)
            .expect("registered")
            .run(Scale::Smoke, self.seed, exec);
        RunDocument {
            scale: Scale::Smoke.name(),
            seed: self.seed,
            artifacts: vec![report],
        }
    }
}

/// A running in-process daemon.
struct Daemon {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

impl Daemon {
    fn start(dir: PathBuf) -> Daemon {
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(
            "127.0.0.1:0",
            Config {
                workers: WORKERS,
                store_dir: Some(dir.clone()),
                ..Config::default()
            },
        )
        .expect("bind an ephemeral loopback port");
        let addr = server.local_addr().expect("bound address");
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        let daemon = Daemon {
            addr,
            handle,
            thread,
            dir,
        };
        let healthy = (0..500).any(|_| {
            let ok = matches!(
                wavelan_serve::client::get(&addr.to_string(), "/healthz", Duration::from_millis(250)),
                Ok(r) if r.status == 200
            );
            if !ok {
                std::thread::sleep(Duration::from_millis(10));
            }
            ok
        });
        assert!(healthy, "daemon never became healthy");
        daemon
    }

    fn metrics(&self) -> Option<Value> {
        let r = wavelan_serve::client::get(&self.addr.to_string(), "/metrics", TIMEOUT).ok()?;
        parse(&r.body).ok()
    }

    fn stop(self) {
        self.handle.request();
        let joined = self.thread.join();
        assert!(matches!(joined, Ok(Ok(()))), "daemon did not drain cleanly");
        // Best effort: the directory is under the gitignored scratch root.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What a request is, decided from the seed, the step and its index alone.
enum Request {
    Run(usize),
    Metrics,
    Fresh,
}

/// What a correct response to a request looks like.
enum Expect {
    /// The set-up body of this key rank.
    Body(usize),
    /// A JSON document (`/metrics`).
    Json,
    /// A freshly computed document, kept for the sampled in-process check.
    Fresh,
}

/// One fixed-rate step's results.
#[derive(Debug, Default)]
struct Step {
    samples: Vec<Sample>,
    failed: usize,
    /// Client-side phase times, µs: connect (when one happened), time to
    /// first byte, rest of the body.
    connect_us: Vec<f64>,
    ttfb_us: Vec<f64>,
    body_us: Vec<f64>,
    /// Bodies of the never-seen keys the step asked for.
    fresh: Vec<(Key, Vec<u8>)>,
}

impl Step {
    fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(Sample::latency_us).collect()
    }

    fn p(&self, q: f64) -> f64 {
        percentile(&self.latencies(), q).unwrap_or(f64::INFINITY)
    }

    /// How late the generator was when it sent the step's last request.
    fn end_lag_ms(&self) -> f64 {
        self.samples
            .iter()
            .max_by_key(|s| s.due)
            .map_or(0.0, Sample::lag_ms)
    }

    /// Responses completed per second in each of [`WINDOWS`] consecutive
    /// windows of the step's planned length, by completion time.
    fn completion_rates(&self, length: Duration) -> Vec<f64> {
        let width = length.as_secs_f64() / WINDOWS as f64;
        let mut done = [0usize; WINDOWS];
        for s in &self.samples {
            if let Some(n) = done.get_mut((s.done.as_secs_f64() / width) as usize) {
                *n += 1;
            }
        }
        done.iter().map(|&n| n as f64 / width).collect()
    }

    /// Percentile `q` of each of [`WINDOWS`] consecutive windows by due time.
    fn windowed(&self, q: f64, length: Duration) -> Vec<f64> {
        let width = length.as_secs_f64() / WINDOWS as f64;
        (0..WINDOWS)
            .filter_map(|w| {
                let lat: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|s| (s.due.as_secs_f64() / width) as usize == w)
                    .map(Sample::latency_us)
                    .collect();
                percentile(&lat, q)
            })
            .collect()
    }
}

/// The serving workload's state across set-ups and steps.
pub struct ServeZipf {
    keys: Vec<Key>,
    bodies: Vec<Vec<u8>>,
    zipf: Zipf,
    daemon: Option<Daemon>,
    fresh: AtomicU64,
    fresh_bodies: Vec<(Key, Vec<u8>)>,
    checked: Vec<RunDocument>,
    steps: u64,
}

impl ServeZipf {
    /// The key set of seed `seed`, hottest first.
    pub fn new(seed: u64) -> ServeZipf {
        let all: Vec<Key> = ARTIFACTS
            .iter()
            .flat_map(|&artifact| {
                (0..SEEDS).map(move |j| Key {
                    artifact,
                    seed: seed.wrapping_add(j),
                })
            })
            .collect();
        let order = permutation(&mut StdRng::seed_from_u64(seed ^ 0x5E_72E5), all.len());
        let keys: Vec<Key> = order.into_iter().map(|i| all[i].clone()).collect();
        ServeZipf {
            zipf: Zipf::new(keys.len(), ZIPF_S),
            keys,
            bodies: Vec::new(),
            daemon: None,
            fresh: AtomicU64::new(0),
            fresh_bodies: Vec::new(),
            checked: Vec::new(),
            steps: 0,
        }
    }

    /// The request at `index` of step `step`. Fresh keys and `/metrics`
    /// sit at fixed positions (alternating between the two clients), so
    /// every window of a step carries the same share of computes; `/run`
    /// keys are Zipf draws seeded by the workload seed, the step and the
    /// index.
    fn request(&self, seed: u64, step: u64, index: usize) -> Request {
        match index % 400 {
            100 | 301 => Request::Fresh,
            r if r % 200 == 20 || r % 200 == 121 => Request::Metrics,
            _ => {
                let mut rng = StdRng::seed_from_u64(
                    seed ^ step.rotate_left(40) ^ (index as u64).wrapping_mul(0x9E37_79B9),
                );
                Request::Run(self.zipf.sample(&mut rng))
            }
        }
    }

    fn fresh_key(&self, seed: u64) -> Key {
        let n = self.fresh.fetch_add(1, Ordering::Relaxed);
        Key {
            artifact: FRESH_ARTIFACT,
            seed: seed.wrapping_add(SEEDS + n),
        }
    }

    /// One set-up: a fresh store directory, bind, and one fetch of every
    /// key. Every set-up must return the same bodies.
    fn setup(&mut self, p: &Params, index: usize, checks: &mut Checks) {
        if let Some(old) = self.daemon.take() {
            old.stop();
        }
        let dir = p
            .scratch
            .join(format!("serve-store-{}-{index}", std::process::id()));
        let daemon = Daemon::start(dir);
        let keys = &self.keys;
        let fetched: Vec<Option<Vec<u8>>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    s.spawn(move || {
                        let mut client = Client::new(daemon.addr, TIMEOUT);
                        (c..keys.len())
                            .step_by(CLIENTS)
                            .map(|i| {
                                let mut body = Vec::new();
                                match client.get(&keys[i].path(), &mut body) {
                                    Ok(r) if r.status == 200 => Some(body),
                                    _ => None,
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let per_client: Vec<Vec<Option<Vec<u8>>>> = workers
                .into_iter()
                .map(|w| w.join().expect("set-up client thread"))
                .collect();
            (0..keys.len())
                .map(|i| per_client[i % CLIENTS][i / CLIENTS].clone())
                .collect()
        });
        let ok = fetched.iter().all(Option::is_some);
        checks.check(ok, || String::from("a set-up fetch failed"));
        let bodies: Vec<Vec<u8>> = fetched.into_iter().map(Option::unwrap_or_default).collect();
        if self.bodies.is_empty() {
            self.bodies = bodies;
        } else {
            checks.check(self.bodies == bodies, || {
                String::from("set-up bodies differ from the first set-up's")
            });
        }
        self.daemon = Some(daemon);
    }

    /// Checks a seeded sample of the set-up bodies against in-process runs.
    fn check_sample(&mut self, seed: u64, checks: &mut Checks) {
        let exec = Executor::new(1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4EC);
        for (key, body) in self.keys.iter().zip(&self.bodies) {
            if !rng.gen_bool(SAMPLE_SHARE) {
                continue;
            }
            let doc = key.expected(&exec);
            checks.check(to_string_pretty(&doc).as_bytes() == &body[..], || {
                format!("{} differs from the in-process run", key.path())
            });
            self.checked.push(doc);
        }
    }

    /// Runs one open-loop step at `rate` for `length` from [`CLIENTS`]
    /// threads and merges what they saw.
    fn step(&self, p: &Params, rate: f64, length: Duration, tracer: &mut Tracer) -> Step {
        let origin = Instant::now() + Duration::from_millis(5);
        let runs: Vec<ClientRun> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let local = if tracer.enabled() {
                        Tracer::on(tracer.origin())
                    } else {
                        Tracer::off()
                    };
                    s.spawn(move || self.client(p, rate, length, c, origin, local))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread"))
                .collect()
        });
        let mut step = Step::default();
        let parent = tracer.current();
        for run in runs {
            step.failed += run.outcome.samples.iter().filter(|s| !s.ok).count();
            step.samples.extend(run.outcome.samples);
            step.connect_us.extend(run.connect_us);
            step.ttfb_us.extend(run.ttfb_us);
            step.body_us.extend(run.body_us);
            step.fresh.extend(run.fresh);
            tracer.absorb(run.tracer, parent);
        }
        step.samples.sort_by_key(|s| s.index);
        step
    }

    /// One client's share of a step: its requests on its own connection,
    /// each response checked.
    fn client(
        &self,
        p: &Params,
        rate: f64,
        length: Duration,
        client: usize,
        origin: Instant,
        mut tracer: Tracer,
    ) -> ClientRun {
        let addr = self.daemon.as_ref().expect("set up").addr;
        let mut conn = Client::new(addr, TIMEOUT);
        let (mut connect_us, mut ttfb_us, mut body_us) = (Vec::new(), Vec::new(), Vec::new());
        let mut fresh = Vec::new();
        let mut body = Vec::new();
        let mut clock = WallClock(origin);
        let outcome = drive(
            &mut clock,
            schedule(rate, client, CLIENTS),
            length,
            MAX_LAG,
            |index| {
                let (path, expect) = match self.request(p.seed, self.steps, index) {
                    Request::Run(rank) => (self.keys[rank].path(), Expect::Body(rank)),
                    Request::Metrics => (String::from("/metrics"), Expect::Json),
                    Request::Fresh => {
                        let key = self.fresh_key(p.seed);
                        let path = key.path();
                        fresh.push((key, Vec::new()));
                        (path, Expect::Fresh)
                    }
                };
                let Ok(r) = conn.get(&path, &mut body) else {
                    return false;
                };
                let t = r.phases;
                let ready = t.connected.unwrap_or(t.start);
                let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
                if let Some(c) = t.connected {
                    connect_us.push(us(t.start, c));
                }
                ttfb_us.push(us(ready, t.first_byte));
                body_us.push(us(t.first_byte, t.done));
                if tracer.enabled() {
                    let id = Some(index as u64);
                    let req = tracer.record("serve.request", t.start, t.done, None, id);
                    if let Some(c) = t.connected {
                        tracer.record("serve.connect", t.start, c, req, id);
                    }
                    tracer.record("serve.ttfb", ready, t.first_byte, req, id);
                    tracer.record("serve.body", t.first_byte, t.done, req, id);
                }
                if r.status != 200 {
                    return false;
                }
                match expect {
                    Expect::Body(rank) => body == self.bodies[rank],
                    Expect::Json => std::str::from_utf8(&body).is_ok_and(|b| parse(b).is_ok()),
                    Expect::Fresh => {
                        let slot = fresh.last_mut().expect("pushed above");
                        slot.1 = std::mem::take(&mut body);
                        slot.1.first() == Some(&b'{')
                    }
                }
            },
        );
        ClientRun {
            outcome,
            connect_us,
            ttfb_us,
            body_us,
            fresh,
            tracer,
        }
    }
}

/// What one client thread saw in one step.
struct ClientRun {
    outcome: Outcome,
    connect_us: Vec<f64>,
    ttfb_us: Vec<f64>,
    body_us: Vec<f64>,
    fresh: Vec<(Key, Vec<u8>)>,
    tracer: Tracer,
}

impl LayerSource for ServeZipf {
    fn trials(&self, p: &Params) -> Vec<Trial> {
        Trial::artifacts(&ARTIFACTS, Scale::Smoke, p.seed)
    }

    fn document(&self) -> String {
        self.bodies
            .first()
            .map(|b| String::from_utf8_lossy(b).into_owned())
            .unwrap_or_default()
    }

    fn serialize(&self) -> usize {
        self.checked.iter().map(|d| to_string_pretty(d).len()).sum()
    }
}

/// Runs the workload: set-ups, the fixed-rate step and the saturated step
/// (half of `p.seconds` each), the output checks, and with `p.trace` a
/// traced fixed-rate step plus the per-layer split.
pub fn measure(p: &Params) -> Measured {
    let mut w = ServeZipf::new(p.seed);
    let mut checks = Checks::default();
    let setups = if p.quick { 1 } else { SETUPS };
    let setup_s: Vec<f64> = (0..setups)
        .map(|i| {
            let start = Instant::now();
            w.setup(p, i, &mut checks);
            start.elapsed().as_secs_f64()
        })
        .collect();
    let digest = wavelan_store::fnv64(&w.bodies.concat());
    w.check_sample(p.seed, &mut checks);

    let half = Duration::from_secs_f64(p.seconds / 2.0);
    let mut off = Tracer::off();
    let run_step = |w: &mut ServeZipf, rate: f64, len: Duration, tracer: &mut Tracer| {
        let mut step = w.step(p, rate, len, tracer);
        w.steps += 1;
        w.fresh_bodies.append(&mut step.fresh);
        step
    };
    let base = run_step(&mut w, BASE_RATE, half, &mut off);
    // The saturated step keeps more samples the faster the daemon is; the
    // peak up to here covers set-up and a fixed amount of work.
    let rss = peak_rss_mb();
    let saturated = run_step(&mut w, SATURATION_RATE, half, &mut off);
    for step in [&base, &saturated] {
        checks.attempted += step.samples.len() as u64;
        checks.failed += step.failed as u64;
    }
    check_fresh(&w.fresh_bodies, p.seed, &mut checks);

    let traced = p.trace.then(|| {
        let before = w.daemon.as_ref().and_then(Daemon::metrics);
        let mut tracer = Tracer::on(Instant::now());
        let length = Duration::from_secs_f64(p.seconds * 0.15);
        let step = tracer.span("step", |t| run_step(&mut w, BASE_RATE, length, t));
        let after = w.daemon.as_ref().and_then(Daemon::metrics);
        checks.attempted += step.samples.len() as u64;
        checks.failed += step.failed as u64;
        let overhead = 100.0 * (step.p(50.0) / base.p(50.0) - 1.0);
        let extras = serve_layers(&step, before.as_ref(), after.as_ref());
        per_layer(&w, p, tracer, overhead, extras)
    });
    if let Some(daemon) = w.daemon.take() {
        daemon.stop();
    }

    let p99_us = base.windowed(99.0, half);
    Measured {
        metrics: vec![
            Sampled::new("setup_s", "s", setup_s),
            Sampled::new("throughput_per_s", "1/s", saturated.completion_rates(half)),
            Sampled::new(
                "latency_ms",
                "ms",
                p99_us.iter().map(|us| us / 1e3).collect(),
            ),
            Sampled::new("peak_rss_mb", "MB", vec![rss]),
        ],
        details: vec![
            Sampled::new("serve_p50_us_2k", "us", base.windowed(50.0, half)),
            Sampled::new("serve_p99_us_2k", "us", p99_us),
            Sampled::new("generator_lag_ms", "ms", vec![base.end_lag_ms()]),
        ],
        checks,
        digest,
        traced,
    }
}

/// Checks a seeded tenth of the computed fresh-key bodies against
/// in-process runs.
fn check_fresh(fresh: &[(Key, Vec<u8>)], seed: u64, checks: &mut Checks) {
    let exec = Executor::new(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF2E5);
    for (key, body) in fresh {
        if !rng.gen_bool(SAMPLE_SHARE) {
            continue;
        }
        checks.check(
            to_string_pretty(&key.expected(&exec)).as_bytes() == &body[..],
            || format!("fresh {} differs from the in-process run", key.path()),
        );
    }
}

/// Serve and store numbers of the traced step: client-side phases, tier
/// hit ratios and status counts from `/metrics` deltas, and the bucketed
/// server-side median.
fn serve_layers(step: &Step, before: Option<&Value>, after: Option<&Value>) -> Vec<Layer> {
    let med = |v: &[f64]| percentile(v, 50.0).unwrap_or(0.0);
    let delta = |section: &str, key: &str| {
        let read = |m: Option<&Value>| {
            m.and_then(|m| m.get(section))
                .and_then(|s| get_f64(s, key))
                .unwrap_or(0.0)
        };
        read(after) - read(before)
    };
    let (l1, l2, miss) = (
        delta("store", "l1_hits"),
        delta("store", "l2_hits"),
        delta("store", "misses"),
    );
    let lookups = (l1 + l2 + miss).max(1.0);
    let layer = |name, value, unit| Layer {
        name,
        value,
        unit,
        calls: None,
    };
    vec![
        layer("store.l1_hit_ratio", l1 / lookups, "ratio"),
        layer("store.l2_hit_ratio", l2 / lookups, "ratio"),
        layer("store.miss_ratio", miss / lookups, "ratio"),
        layer("serve.connect_us", med(&step.connect_us), "us"),
        layer("serve.ttfb_us", med(&step.ttfb_us), "us"),
        layer("serve.body_us", med(&step.body_us), "us"),
        layer("serve.server_p50_us", server_p50_us(before, after), "us"),
        layer("serve.rejected_429", delta("status", "429"), "count"),
        layer("serve.timeouts_503", delta("status", "503"), "count"),
        layer("serve.generator_lag_ms", step.end_lag_ms(), "ms"),
    ]
}

/// The upper bound of the server-side latency bucket holding the median
/// `/run` request of the window (from the daemon's histograms).
fn server_p50_us(before: Option<&Value>, after: Option<&Value>) -> f64 {
    const BOUNDS: [(&str, f64); 7] = [
        ("le_100us", 100.0),
        ("le_1ms", 1e3),
        ("le_10ms", 1e4),
        ("le_100ms", 1e5),
        ("le_1s", 1e6),
        ("le_10s", 1e7),
        ("inf", f64::INFINITY),
    ];
    let buckets = |m: Option<&Value>| -> Vec<f64> {
        let mut sums = vec![0.0; BOUNDS.len()];
        let Some(m) = m else { return sums };
        for (label, hist) in get_entries(m, "latency") {
            if !label.starts_with("run:") {
                continue;
            }
            for (slot, (name, _)) in BOUNDS.iter().enumerate() {
                sums[slot] += hist
                    .get("buckets")
                    .and_then(|b| get_f64(b, name))
                    .unwrap_or(0.0);
            }
        }
        sums
    };
    let (a, b) = (buckets(before), buckets(after));
    let counts: Vec<f64> = b.iter().zip(&a).map(|(x, y)| x - y).collect();
    let total: f64 = counts.iter().sum();
    let mut seen = 0.0;
    for (count, (_, bound)) in counts.iter().zip(BOUNDS) {
        seen += count;
        if total > 0.0 && seen >= total / 2.0 {
            return bound;
        }
    }
    0.0
}
