#![warn(missing_docs)]

//! # wavelan-serve
//!
//! The serving layer over the deterministic reproduction stack: a
//! dependency-free HTTP/1.1 daemon (hand-rolled on
//! [`std::net::TcpListener`] — the build registry is offline) that turns
//! the experiment registry, report model, and fidelity harness into a
//! long-lived queryable service. `repro serve` is the CLI front end.
//!
//! ## Endpoints
//!
//! | Path | Response |
//! |------|----------|
//! | `GET /healthz` | `ok` (text) — liveness |
//! | `GET /artifacts` | registry listing with paper metadata and packet budgets (JSON) |
//! | `GET /run/{artifact}?seed=N&scale=S` | the artifact's [`RunDocument`] — byte-identical to `repro --format json {artifact}` |
//! | `GET /validate?seeds=N&seed=N&scale=S` | the fidelity harness's `FidelityReport` (JSON) |
//! | `GET /sweep?preset=P&seed=N&scale=S&points=N` | a parameter-sweep `SweepDocument` — byte-identical to `repro sweep --space P --format json` |
//! | `GET /metrics` | request counts, tier hits/misses, per-label latency histograms (JSON) |
//!
//! ## Architecture
//!
//! One accept loop feeds a **bounded queue** serviced by a fixed worker
//! pool. Connections are **persistent** (HTTP/1.1 keep-alive, pipelining
//! included): a worker owns a connection from admission until the client
//! closes, idles out, or asks for `Connection: close`, and admission
//! bounds *connections* — when queue plus busy workers are at capacity the
//! accept loop answers `429` immediately instead of letting latency grow
//! unbounded.
//!
//! For the compute endpoints each worker consults the **tiered result
//! store** ([`wavelan_store::TieredStore`]) first: a sharded in-process
//! LRU (L1) in front of an optional disk-backed content-addressed store
//! (L2, `Config::store_dir`). Runs are deterministic, so the key
//! `(artifact, seed, scale)` — for `/sweep`, the parameter space's
//! canonical hash in place of the artifact name — fully identifies the
//! response bytes; repeat requests never re-simulate, and with a store
//! directory they survive restarts: a fresh daemon re-serves persisted
//! results byte-identically without recomputing (paper-default keys are
//! warmed into L1 at bind). Entries record the artifact's scenario spec
//! hash, so editing an experiment invalidates its stored results instead
//! of serving stale bytes.
//!
//! Misses run on a detached compute thread (each request gets its own
//! [`Executor`], the same deterministic trial fan-out the CLI uses) so the
//! worker can enforce the **per-request deadline**: a run that outlives it
//! gets `503` and the abandoned computation still finishes and warms the
//! store for the retry. A panicking run is caught and answered with `500`
//! — the daemon, its workers, and the other in-flight requests are
//! unaffected. Shutdown (SIGTERM/SIGINT via [`signals`], or
//! [`ShutdownHandle::request`]) stops accepting, then drains the queue and
//! in-flight work before [`Server::run`] returns.
//!
//! Status codes: `200` served, `400` malformed request or parameters,
//! `404` unknown path or artifact, `405` non-GET, `429` queue full, `500`
//! run panicked, `503` deadline exceeded.

pub mod client;
pub mod http;
pub mod metrics;
pub mod signals;

use http::{read_request_from, write_response, ReadOutcome, Request};
use metrics::{Metrics, SnapshotContext};
use serde::{Serialize, SerializeStruct, Serializer};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wavelan_analysis::json::to_string_pretty;
use wavelan_analysis::RunDocument;
use wavelan_core::{registry, registry_spec_hashes, sweep, Executor, Scale};
use wavelan_store::{StoreKey, TieredStore};

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Worker threads servicing requests; `0` means one per core.
    pub workers: usize,
    /// Connections allowed to wait beyond the ones being serviced; a full
    /// queue answers `429`. `0` means "no waiting room": anything beyond
    /// the workers' current connections is rejected.
    pub queue_depth: usize,
    /// In-memory (L1) result-cache capacity in entries (`0` disables the
    /// memory tier — with a store directory, every hit is an L2 hit).
    pub cache_capacity: usize,
    /// Deadline per request, measured from admission (first request on a
    /// connection) or from arrival (subsequent ones); exceeded → `503`.
    pub request_timeout: Duration,
    /// Executor worker count for each run (`0` = one per core). The
    /// default is 1: the daemon's parallelism comes from serving requests
    /// concurrently, and results are bit-identical at any setting.
    pub jobs_per_run: usize,
    /// Directory for the persistent (L2) result store; `None` runs
    /// memory-only. Paper-default keys found here are warmed into L1 at
    /// bind.
    pub store_dir: Option<PathBuf>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            workers: 0,
            queue_depth: 64,
            cache_capacity: 256,
            request_timeout: Duration::from_secs(30),
            jobs_per_run: 1,
            store_dir: None,
        }
    }
}

/// The default seed when `/run` or `/validate` omit `seed=` — the same
/// default as the `repro` CLI.
pub const DEFAULT_SEED: u64 = 1996;

/// Ceiling on `/validate?seeds=N` — each seed is a full multi-artifact
/// sweep, so an unbounded N would be a self-inflicted denial of service.
pub const MAX_VALIDATE_SEEDS: u64 = 32;

/// Ceiling on `/sweep?points=N` — every point is a full scenario run, so
/// the same self-DoS logic as [`MAX_VALIDATE_SEEDS`] applies.
pub const MAX_SWEEP_POINTS: usize = 4_096;

/// How long a worker waits for the *first* request after admission before
/// answering 400 — a connected-but-silent client.
const FIRST_REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a worker keeps an idle persistent connection open waiting for
/// its next request before closing it (and freeing the worker).
const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(2);

/// Requests served on one connection before the server closes it — bounds
/// how long a single client can monopolize a worker.
const MAX_REQUESTS_PER_CONN: usize = 1_000;

/// Shared server state: queue, result tier, counters, shutdown flag.
struct State {
    shutdown: AtomicBool,
    queue: Mutex<Queue>,
    available: Condvar,
    metrics: Metrics,
    tier: TieredStore,
    workers: usize,
    queue_depth: usize,
    request_timeout: Duration,
    jobs_per_run: usize,
}

/// The admission queue: accepted connections waiting for a worker, plus
/// the number currently being serviced — admission bounds their *sum*, so
/// "no waiting room" (`queue_depth: 0`) really means "reject whenever all
/// workers are busy".
struct Queue {
    conns: VecDeque<(TcpStream, Instant)>,
    /// Connections popped by a worker and not yet finished. Updated under
    /// this mutex so admission sees an exact count (no pop/start gap).
    busy: usize,
    /// Set once the accept loop exits; workers drain and then quit.
    closed: bool,
}

/// Requests a running [`Server`] to stop accepting and drain.
#[derive(Clone)]
pub struct ShutdownHandle(Arc<State>);

impl ShutdownHandle {
    /// Triggers a graceful shutdown: the accept loop stops, queued and
    /// in-flight requests finish, then [`Server::run`] returns.
    pub fn request(&self) {
        self.0.shutdown.store(true, Ordering::SeqCst);
        self.0.available.notify_all();
    }

    /// True once shutdown has been requested.
    pub fn is_requested(&self) -> bool {
        self.0.shutdown.load(Ordering::SeqCst)
    }
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), opens the
    /// persistent store when configured, warms paper-default keys from it,
    /// and builds the shared state. The socket is listening once this
    /// returns, but no request is served until [`Server::run`].
    pub fn bind(addr: &str, config: Config) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            config.workers
        };
        let tier = match &config.store_dir {
            Some(dir) => TieredStore::with_disk(config.cache_capacity, dir)
                .map_err(|e| io::Error::other(format!("cannot open store {dir:?}: {e}")))?,
            None => TieredStore::memory_only(config.cache_capacity),
        };
        if config.store_dir.is_some() {
            tier.warm(&paper_default_keys());
        }
        Ok(Server {
            listener,
            state: Arc::new(State {
                shutdown: AtomicBool::new(false),
                queue: Mutex::new(Queue {
                    conns: VecDeque::new(),
                    busy: 0,
                    closed: false,
                }),
                available: Condvar::new(),
                metrics: Metrics::new(),
                tier,
                workers,
                queue_depth: config.queue_depth,
                request_timeout: config.request_timeout,
                jobs_per_run: config.jobs_per_run,
            }),
        })
    }

    /// The bound address (resolves the actual port for `:0` binds).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.state))
    }

    /// The resolved worker count (`Config::workers` with `0` expanded).
    pub fn workers(&self) -> usize {
        self.state.workers
    }

    /// Keys the store warmed into memory at bind (0 without a store).
    pub fn warmed(&self) -> u64 {
        self.state.tier.snapshot().warmed
    }

    /// Serves until shutdown is requested, then drains and returns.
    ///
    /// Blocking: the accept loop runs on the calling thread, the worker
    /// pool on scoped threads — everything is joined before this returns.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let state = &self.state;
        std::thread::scope(|scope| {
            for _ in 0..state.workers {
                scope.spawn(|| worker_loop(state));
            }
            while !state.shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => admit(state, stream),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        // Transient accept failure (e.g. aborted handshake);
                        // keep serving.
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
            }
            // Close the queue: workers finish what is queued, then exit.
            state.queue.lock().unwrap().closed = true;
            state.available.notify_all();
        });
        Ok(())
    }
}

/// The key set warmed from disk at startup: every registry artifact at the
/// CLI-default seed, at the `/run` default scale (reduced) and the CI
/// scale (smoke), each bound to its current spec hash so edits to an
/// experiment leave its stale entries cold.
fn paper_default_keys() -> Vec<(StoreKey, u64)> {
    let mut keys = Vec::new();
    for (name, spec_hash) in registry_spec_hashes() {
        for scale in ["reduced", "smoke"] {
            keys.push((StoreKey::run(name, DEFAULT_SEED, scale), spec_hash));
        }
    }
    keys
}

/// Admission control: enqueue the connection or reject it with `429`.
fn admit(state: &Arc<State>, stream: TcpStream) {
    // Accepted sockets may inherit the listener's non-blocking mode on some
    // platforms; the workers want plain blocking I/O with timeouts. Nagle
    // off: responses go out in one write, and coalescing small pipelined
    // responses behind delayed ACKs would stall keep-alive clients.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let mut queue = state.queue.lock().unwrap();
    if queue.conns.len() + queue.busy >= state.queue_depth + state.workers {
        drop(queue);
        state.metrics.reject();
        // Drain the request head before answering: closing a socket with
        // unread inbound data makes the kernel send RST, which can discard
        // the 429 bytes before the client reads them.
        let mut stream = stream;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
        let _ = read_request_from(&mut stream, &mut Vec::new());
        respond(
            state,
            &mut stream,
            429,
            "admission",
            Instant::now(),
            false,
            true,
            |_| {
                (
                    "text/plain; charset=utf-8",
                    String::from("queue full, retry later\n"),
                )
            },
        );
        return;
    }
    state.metrics.admit();
    queue.conns.push_back((stream, Instant::now()));
    drop(queue);
    state.available.notify_one();
}

/// One worker: pull admitted connections until the queue closes empty.
fn worker_loop(state: &Arc<State>) {
    loop {
        let (stream, admitted_at) = {
            let mut queue = state.queue.lock().unwrap();
            loop {
                if let Some(conn) = queue.conns.pop_front() {
                    queue.busy += 1;
                    break conn;
                }
                if queue.closed {
                    return;
                }
                queue = state.available.wait(queue).unwrap();
            }
        };
        state.metrics.start();
        // A handler bug must cost one response, not the daemon: the worker
        // catches the unwind, answers 500 if the socket is still writable,
        // and moves on.
        let result = catch_unwind(AssertUnwindSafe(|| {
            handle_connection(state, stream, admitted_at)
        }));
        if let Err(_panic) = result {
            state
                .metrics
                .complete(500, "handler-panic", admitted_at.elapsed(), true);
        }
        state.queue.lock().unwrap().busy -= 1;
    }
}

/// What a compute endpoint produced.
enum Computed {
    /// The response body (from a tier or a finished run).
    Body(Arc<String>),
    /// The per-request deadline passed before the run finished.
    DeadlineExceeded,
    /// The run panicked; the message is the panic payload.
    Panicked(String),
}

/// Services one persistent connection: requests are read (pipelined bytes
/// carry over between heads) and answered until the client closes, idles
/// out, asks for `Connection: close`, hits the per-connection request cap,
/// or shutdown begins.
fn handle_connection(state: &Arc<State>, mut stream: TcpStream, admitted_at: Instant) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let mut carry = Vec::new();
    let mut served = 0usize;
    loop {
        let timeout = if served == 0 {
            FIRST_REQUEST_TIMEOUT
        } else {
            KEEP_ALIVE_IDLE
        };
        let _ = stream.set_read_timeout(Some(timeout));
        let request = match read_request_from(&mut stream, &mut carry) {
            Ok(ReadOutcome::Request(request)) => request,
            Ok(ReadOutcome::Closed) => break,
            Ok(ReadOutcome::Idle) if served > 0 => break,
            Ok(ReadOutcome::Idle) => {
                // Connected, never sent a request: that costs a 400, like
                // any other malformed exchange.
                respond(state, &mut stream, 400, "malformed", admitted_at, true, true, |_| {
                    (
                        "text/plain; charset=utf-8",
                        String::from("bad request: timed out waiting for request\n"),
                    )
                });
                break;
            }
            Err(why) => {
                respond(state, &mut stream, 400, "malformed", admitted_at, true, true, |_| {
                    ("text/plain; charset=utf-8", format!("bad request: {why}\n"))
                });
                break;
            }
        };
        // The first request's clock starts at admission (queue wait counts
        // against its deadline); later requests start when they arrive.
        let started = if served == 0 { admitted_at } else { Instant::now() };
        served += 1;
        let close = !request.keep_alive
            || served >= MAX_REQUESTS_PER_CONN
            || state.shutdown.load(Ordering::SeqCst);
        handle_request(state, &mut stream, &request, started, close);
        if close {
            break;
        }
    }
}

/// Routes and answers one parsed request.
fn handle_request(
    state: &Arc<State>,
    stream: &mut TcpStream,
    request: &Request,
    started: Instant,
    close: bool,
) {
    if request.method != "GET" {
        respond(
            state,
            stream,
            405,
            "method-not-allowed",
            started,
            true,
            close,
            |_| {
                (
                    "text/plain; charset=utf-8",
                    String::from("only GET is supported\n"),
                )
            },
        );
        return;
    }
    match request.path.as_str() {
        "/healthz" => respond(state, stream, 200, "healthz", started, true, close, |_| {
            ("text/plain; charset=utf-8", String::from("ok\n"))
        }),
        "/artifacts" => respond(state, stream, 200, "artifacts", started, true, close, |_| {
            ("application/json", to_string_pretty(&ArtifactsDoc))
        }),
        "/metrics" => {
            let snapshot = state.metrics.snapshot(SnapshotContext {
                workers: state.workers,
                queue_depth: state.queue_depth,
                tier: state.tier.snapshot(),
            });
            respond(state, stream, 200, "metrics", started, true, close, |_| {
                ("application/json", to_string_pretty(&snapshot))
            })
        }
        path if path.starts_with("/run/") => {
            handle_run(state, stream, request, started, close);
        }
        "/validate" => {
            handle_validate(state, stream, request, started, close);
        }
        "/sweep" => {
            handle_sweep(state, stream, request, started, close);
        }
        _ => respond(state, stream, 404, "notfound", started, true, close, |_| {
            (
                "text/plain; charset=utf-8",
                String::from(
                    "no such endpoint; try /healthz /artifacts /run/{artifact} /validate /sweep /metrics\n",
                ),
            )
        }),
    }
}

/// `GET /run/{artifact}?seed=N&scale=S`.
fn handle_run(
    state: &Arc<State>,
    stream: &mut TcpStream,
    request: &Request,
    started: Instant,
    close: bool,
) {
    let raw_name = &request.path["/run/".len()..];
    let Some(experiment) = registry::find(raw_name) else {
        respond(state, stream, 404, "run", started, true, close, |_| {
            (
                "text/plain; charset=utf-8",
                format!(
                    "unknown artifact {raw_name:?}; valid artifacts: {}\n",
                    registry::NAMES.join(" ")
                ),
            )
        });
        return;
    };
    let params = match RunParams::from_query(request, &["seed", "scale"]) {
        Ok(params) => params,
        Err(why) => {
            respond(state, stream, 400, "run", started, true, close, |_| {
                ("text/plain; charset=utf-8", format!("{why}\n"))
            });
            return;
        }
    };
    let name = experiment.artifact_name();
    let label = format!("run:{name}");
    let key = StoreKey::run(name, params.seed, params.scale.name());
    let spec_hash = wavelan_core::spec_hash(&experiment.spec());
    let jobs = state.jobs_per_run;
    let (seed, scale) = (params.seed, params.scale);
    let computed = lookup_or_compute(state, &key, spec_hash, started, move || {
        let exec = Executor::new(jobs);
        let report = experiment.run(scale, seed, &exec);
        to_string_pretty(&RunDocument {
            scale: scale.name(),
            seed,
            artifacts: vec![report],
        })
    });
    respond_computed(state, stream, &label, started, close, computed);
}

/// `GET /validate?seeds=N&seed=N&scale=S`.
fn handle_validate(
    state: &Arc<State>,
    stream: &mut TcpStream,
    request: &Request,
    started: Instant,
    close: bool,
) {
    let params = match RunParams::from_query(request, &["seed", "scale", "seeds"]) {
        Ok(params) => params,
        Err(why) => {
            respond(state, stream, 400, "validate", started, true, close, |_| {
                ("text/plain; charset=utf-8", format!("{why}\n"))
            });
            return;
        }
    };
    let key = StoreKey::validate(params.seeds, params.seed, params.scale.name());
    let jobs = state.jobs_per_run;
    let (seed, scale, seeds) = (params.seed, params.scale, params.seeds);
    // The fidelity report spans every artifact; no single scenario spec
    // identifies it, so its entries carry spec hash 0.
    let computed = lookup_or_compute(state, &key, 0, started, move || {
        let exec = Executor::new(jobs);
        let config = wavelan_validate::Config {
            scale,
            base_seed: seed,
            seeds,
        };
        to_string_pretty(&wavelan_validate::run(&config, &exec))
    });
    respond_computed(state, stream, "validate", started, close, computed);
}

/// `GET /sweep?preset=P&seed=N&scale=S&points=N`.
///
/// Scale defaults to **smoke** here (unlike `/run`'s reduced): the
/// per-point budget multiplies by the space size, and matching the
/// `repro sweep` default keeps the daemon's bytes comparable to the CLI's
/// without extra flags.
fn handle_sweep(
    state: &Arc<State>,
    stream: &mut TcpStream,
    request: &Request,
    started: Instant,
    close: bool,
) {
    let params = match RunParams::from_query(request, &["preset", "seed", "scale", "points"]) {
        Ok(params) => params,
        Err(why) => {
            respond(state, stream, 400, "sweep", started, true, close, |_| {
                ("text/plain; charset=utf-8", format!("{why}\n"))
            });
            return;
        }
    };
    let scale = if request.param("scale").is_none() {
        Scale::Smoke
    } else {
        params.scale
    };
    let preset_name = request.param("preset").unwrap_or(sweep::PRESET_NAMES[0]);
    let Some(mut space) = sweep::preset(preset_name) else {
        let preset_name = preset_name.to_string();
        respond(state, stream, 404, "sweep", started, true, close, move |_| {
            (
                "text/plain; charset=utf-8",
                format!(
                    "unknown sweep preset {preset_name:?}; valid presets: {}\n",
                    sweep::PRESET_NAMES.join(" ")
                ),
            )
        });
        return;
    };
    match request.param("points") {
        None => {}
        Some(raw) => match raw
            .parse::<usize>()
            .ok()
            .filter(|n| (1..=MAX_SWEEP_POINTS).contains(n))
        {
            Some(points) => space = space.with_points(points),
            None => {
                let raw = raw.to_string();
                respond(state, stream, 400, "sweep", started, true, close, move |_| {
                    (
                        "text/plain; charset=utf-8",
                        format!("points must be an integer in 1..={MAX_SWEEP_POINTS}, got {raw:?}"),
                    )
                });
                return;
            }
        },
    }
    let space_hash = space.canonical_hash();
    let key = StoreKey::sweep(space_hash, params.seed, scale.name());
    let jobs = state.jobs_per_run;
    let seed = params.seed;
    // The canonical space hash *is* the sweep's spec identity.
    let computed = lookup_or_compute(state, &key, space_hash, started, move || {
        let exec = Executor::new(jobs);
        let doc = space
            .run(scale, seed, &exec)
            .unwrap_or_else(|e| panic!("sweep failed: {e}"));
        to_string_pretty(&doc)
    });
    respond_computed(state, stream, "sweep", started, close, computed);
}

/// Validated query parameters of the compute endpoints.
struct RunParams {
    seed: u64,
    scale: Scale,
    seeds: u64,
}

impl RunParams {
    /// Parses and validates, rejecting unknown keys — a typo like
    /// `?sede=7` must 400, not silently serve the default seed.
    fn from_query(request: &Request, allowed: &[&str]) -> Result<RunParams, String> {
        for (key, _) in &request.query {
            if !allowed.contains(&key.as_str()) {
                return Err(format!(
                    "unknown query parameter {key:?}; allowed: {}",
                    allowed.join(" ")
                ));
            }
        }
        let seed = match request.param("seed") {
            None => DEFAULT_SEED,
            Some(raw) => raw
                .parse::<u64>()
                .map_err(|_| format!("seed must be an unsigned integer, got {raw:?}"))?,
        };
        let scale = match request.param("scale") {
            None => Scale::Reduced,
            Some("smoke") => Scale::Smoke,
            Some("reduced") => Scale::Reduced,
            Some("paper") => Scale::Paper,
            Some(raw) => {
                return Err(format!(
                    "unknown scale {raw:?}; expected smoke, reduced, or paper"
                ))
            }
        };
        let seeds = match request.param("seeds") {
            None => 3,
            Some(raw) => raw
                .parse::<u64>()
                .ok()
                .filter(|n| (1..=MAX_VALIDATE_SEEDS).contains(n))
                .ok_or_else(|| {
                    format!("seeds must be an integer in 1..={MAX_VALIDATE_SEEDS}, got {raw:?}")
                })?,
        };
        Ok(RunParams { seed, scale, seeds })
    }
}

/// Serves `key` from the result tier; on a miss, runs `produce` on a
/// detached compute thread under the request deadline.
///
/// The detached thread inserts into the tier itself, so a response
/// abandoned at the deadline still warms the store for the next attempt —
/// and a panicking run unwinds that thread alone, reported back here as
/// [`Computed::Panicked`].
fn lookup_or_compute<F>(
    state: &Arc<State>,
    key: &StoreKey,
    spec_hash: u64,
    started: Instant,
    produce: F,
) -> Computed
where
    F: FnOnce() -> String + Send + 'static,
{
    if let Some(body) = state.tier.get(key, spec_hash) {
        state.metrics.cache_hit();
        return Computed::Body(body);
    }
    state.metrics.cache_miss();
    let deadline = started + state.request_timeout;
    let (tx, rx) = mpsc::channel::<Result<Arc<String>, String>>();
    {
        // The thread outlives a timed-out request on purpose; it owns a
        // clone of the state Arc and the key, not borrows.
        let state = Arc::clone(state);
        let key = key.clone();
        let spawned = std::thread::Builder::new()
            .name(String::from("serve-compute"))
            .spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(produce));
                let message = match outcome {
                    Ok(body) => {
                        let body = Arc::new(body);
                        state.tier.insert(&key, spec_hash, Arc::clone(&body));
                        Ok(body)
                    }
                    Err(payload) => Err(panic_message(payload)),
                };
                // The receiver may be gone (deadline passed): ignore.
                let _ = tx.send(message);
            });
        if spawned.is_err() {
            return Computed::Panicked(String::from("could not spawn compute thread"));
        }
    }
    let remaining = deadline.saturating_duration_since(Instant::now());
    match rx.recv_timeout(remaining) {
        Ok(Ok(body)) => Computed::Body(body),
        Ok(Err(message)) => Computed::Panicked(message),
        Err(RecvTimeoutError::Timeout) => Computed::DeadlineExceeded,
        Err(RecvTimeoutError::Disconnected) => {
            Computed::Panicked(String::from("compute thread vanished"))
        }
    }
}

/// Extracts a readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

/// Turns a [`Computed`] into the final response.
fn respond_computed(
    state: &Arc<State>,
    stream: &mut TcpStream,
    label: &str,
    started: Instant,
    close: bool,
    computed: Computed,
) {
    match computed {
        Computed::Body(body) => respond(state, stream, 200, label, started, true, close, move |_| {
            ("application/json", body.as_ref().clone())
        }),
        Computed::DeadlineExceeded => {
            respond(state, stream, 503, label, started, true, close, |_| {
                (
                    "text/plain; charset=utf-8",
                    String::from(
                        "request deadline exceeded; the run continues and will be cached\n",
                    ),
                )
            })
        }
        Computed::Panicked(message) => {
            respond(state, stream, 500, label, started, true, close, move |_| {
                (
                    "text/plain; charset=utf-8",
                    format!("run failed: {message}\n"),
                )
            })
        }
    }
}

/// Writes the response and records its metrics.
#[allow(clippy::too_many_arguments)]
fn respond<F>(
    state: &Arc<State>,
    stream: &mut TcpStream,
    status: u16,
    label: &str,
    started: Instant,
    in_service: bool,
    close: bool,
    body: F,
) where
    F: FnOnce(&Arc<State>) -> (&'static str, String),
{
    let (content_type, text) = body(state);
    // A peer that hung up already doesn't un-serve the request; the
    // counters record what the server did, not what the client saw.
    let _ = write_response(stream, status, content_type, &text, close);
    state
        .metrics
        .complete(status, label, started.elapsed(), in_service);
}

/// `GET /artifacts`: the registry with paper metadata and budgets.
struct ArtifactsDoc;

impl Serialize for ArtifactsDoc {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("ArtifactsDoc", 2)?;
        s.serialize_field("count", &registry::REGISTRY.len())?;
        let entries: Vec<ArtifactEntry> = registry::REGISTRY
            .iter()
            .map(|e| ArtifactEntry(*e))
            .collect();
        s.serialize_field("artifacts", &entries)?;
        s.end()
    }
}

/// One `/artifacts` row.
struct ArtifactEntry(&'static dyn registry::Experiment);

impl Serialize for ArtifactEntry {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let e = self.0;
        let mut s = serializer.serialize_struct("ArtifactEntry", 5)?;
        s.serialize_field("name", e.artifact_name())?;
        s.serialize_field("paper_artifact", e.paper_artifact())?;
        s.serialize_field("aliases", &e.aliases().to_vec())?;
        s.serialize_field("paper_tables", &e.paper_tables().to_vec())?;
        s.serialize_field("budgets", &Budgets(e))?;
        s.end()
    }
}

/// Packet budgets at each scale for one artifact.
struct Budgets(&'static dyn registry::Experiment);

impl Serialize for Budgets {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Budgets", 3)?;
        s.serialize_field("smoke", &self.0.packet_budget(Scale::Smoke))?;
        s.serialize_field("reduced", &self.0.packet_budget(Scale::Reduced))?;
        s.serialize_field("paper", &self.0.packet_budget(Scale::Paper))?;
        s.end()
    }
}
