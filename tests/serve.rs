//! Integration tests for the `wavelan-serve` daemon: byte-identity with
//! the CLI's JSON output under concurrent load, cache-hit accounting,
//! error statuses (400/404/405/429/503), graceful shutdown drain,
//! HTTP/1.1 keep-alive and pipelining, and the persistent store tier
//! (restart survival, warming, tier metrics).
//!
//! Every test boots a real server on an ephemeral port and talks to it
//! over TCP with the crate's own minimal client — the same path `repro
//! --http-get` and the CI smoke test use.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread;
use std::time::Duration;
use wavelan_analysis::json::{parse, to_string_pretty, Value};
use wavelan_bench::{run_report, RunDocument};
use wavelan_core::{Executor, Scale};
use wavelan_serve::client::{get, Conn, HttpResponse};
use wavelan_serve::{Config, Server, ShutdownHandle};

/// Boots a server, waits for `/healthz`, and returns the address, the
/// shutdown handle, and the join handle for [`Server::run`].
fn start(
    config: Config,
) -> (
    String,
    ShutdownHandle,
    thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = server.shutdown_handle();
    let join = thread::spawn(move || server.run());
    for _ in 0..500 {
        if let Ok(r) = get(&addr, "/healthz", Duration::from_millis(250)) {
            if r.status == 200 {
                return (addr, handle, join);
            }
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("server never became healthy");
}

/// Fetches with a generous timeout (cold runs simulate).
fn fetch(addr: &str, path: &str) -> HttpResponse {
    get(addr, path, Duration::from_secs(300)).expect("request completes")
}

/// What `repro --format json <artifact> --scale <scale> --seed <seed>`
/// prints — the byte-exact contract for `/run/{artifact}`.
fn cli_json(artifact: &str, scale: Scale, seed: u64) -> String {
    let exec = Executor::serial();
    let report = run_report(artifact, scale, seed, &exec).expect("known artifact");
    to_string_pretty(&RunDocument {
        scale: scale.name(),
        seed,
        artifacts: vec![report],
    })
}

/// Reads a `u64` out of a parsed metrics document.
fn metric(value: &Value, path: &[&str]) -> u64 {
    let mut v = value;
    for key in path {
        v = v.get(key).unwrap_or_else(|| panic!("metrics key {key}"));
    }
    match v {
        Value::Number(lexeme) => lexeme.parse().expect("integer metric"),
        other => panic!("metric {path:?} is not a number: {other:?}"),
    }
}

#[test]
fn concurrent_responses_are_byte_identical_to_cli_json() {
    let (addr, handle, join) = start(Config {
        workers: 4,
        ..Config::default()
    });
    let seed = 1996;
    let expected_tdma = cli_json("tdma", Scale::Smoke, seed);
    let expected_harq = cli_json("harq", Scale::Smoke, seed);

    // 8 client threads, each hitting both artifacts: every response must
    // be the exact bytes the CLI would print, regardless of which worker
    // served it, whether it was a cache hit, or who raced whom.
    thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                let r = fetch(&addr, "/run/tdma?seed=1996&scale=smoke");
                assert_eq!(r.status, 200);
                assert_eq!(r.body, expected_tdma, "tdma response differs from CLI");
                let r = fetch(&addr, "/run/harq?seed=1996&scale=smoke");
                assert_eq!(r.status, 200);
                assert_eq!(r.body, expected_harq, "harq response differs from CLI");
            });
        }
    });

    // A repeat of an already-computed key must be a cache hit, visible in
    // /metrics.
    let before = parse(&fetch(&addr, "/metrics").body).expect("metrics parse");
    let hits_before = metric(&before, &["cache", "hits"]);
    let r = fetch(&addr, "/run/tdma?seed=1996&scale=smoke");
    assert_eq!(r.status, 200);
    assert_eq!(r.body, expected_tdma);
    let after = parse(&fetch(&addr, "/metrics").body).expect("metrics parse");
    assert_eq!(
        metric(&after, &["cache", "hits"]),
        hits_before + 1,
        "second identical request must hit the cache"
    );
    assert!(metric(&after, &["cache", "entries"]) >= 2);
    assert_eq!(metric(&after, &["rejected"]), 0);

    handle.request();
    join.join().expect("server thread").expect("clean run");
}

#[test]
fn error_statuses_for_bad_requests() {
    let (addr, handle, join) = start(Config {
        workers: 2,
        ..Config::default()
    });
    // Unknown artifact → 404, listing the valid names.
    let r = fetch(&addr, "/run/no-such-artifact");
    assert_eq!(r.status, 404);
    assert!(r.body.contains("table2"));
    // Malformed parameter values → 400.
    assert_eq!(fetch(&addr, "/run/tdma?seed=banana").status, 400);
    assert_eq!(fetch(&addr, "/run/tdma?scale=huge").status, 400);
    assert_eq!(fetch(&addr, "/validate?seeds=0").status, 400);
    assert_eq!(fetch(&addr, "/validate?seeds=9999").status, 400);
    // Unknown parameter keys → 400 (a typo must not silently serve
    // defaults).
    assert_eq!(fetch(&addr, "/run/tdma?sede=7").status, 400);
    // Unknown path → 404.
    assert_eq!(fetch(&addr, "/bogus").status, 404);
    handle.request();
    join.join().expect("server thread").expect("clean run");
}

#[test]
fn malformed_wire_requests_get_400_and_post_gets_405() {
    let (addr, handle, join) = start(Config {
        workers: 1,
        ..Config::default()
    });
    let raw = |payload: &str| -> String {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream.write_all(payload.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    };
    assert!(
        raw("GARBAGE\r\n\r\n").starts_with("HTTP/1.1 400"),
        "unparseable request line must 400"
    );
    assert!(raw("GET /healthz SPDY/3\r\n\r\n").starts_with("HTTP/1.1 400"));
    assert!(raw("POST /run/tdma HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"));
    // The daemon must still be healthy after eating garbage.
    assert_eq!(fetch(&addr, "/healthz").status, 200);
    handle.request();
    join.join().expect("server thread").expect("clean run");
}

#[test]
fn queue_overflow_gets_429() {
    // One worker, no waiting room: while the worker chews on a long
    // validation sweep, any other connection must be turned away with 429
    // instead of queueing unboundedly.
    let (addr, handle, join) = start(Config {
        workers: 1,
        queue_depth: 0,
        request_timeout: Duration::from_secs(300),
        ..Config::default()
    });
    let slow = thread::spawn({
        let addr = addr.clone();
        move || fetch(&addr, "/validate?seeds=1&scale=smoke")
    });
    // Give the worker ample time to pick the slow request up; the full
    // smoke-scale corpus sweep runs for seconds.
    thread::sleep(Duration::from_millis(300));
    let rejected = get(&addr, "/healthz", Duration::from_secs(10)).expect("rejection response");
    assert_eq!(rejected.status, 429, "no waiting room → immediate 429");
    let served = slow.join().expect("slow client");
    assert_eq!(served.status, 200, "the admitted request still completes");
    parse(&served.body).expect("fidelity report is well-formed JSON");
    handle.request();
    join.join().expect("server thread").expect("clean run");
}

#[test]
fn deadline_exceeded_gets_503_and_warms_the_cache() {
    let (addr, handle, join) = start(Config {
        workers: 1,
        request_timeout: Duration::from_millis(1),
        ..Config::default()
    });
    // 1 ms is gone before any smoke run finishes: the response is 503,
    // but the abandoned computation keeps going and caches its result.
    let r = fetch(&addr, "/run/tdma?seed=1996&scale=smoke");
    assert_eq!(r.status, 503);
    assert!(r.body.contains("deadline"));
    // Retry until the detached run lands in the cache: a hit is served
    // from memory, which beats any deadline.
    let expected = cli_json("tdma", Scale::Smoke, 1996);
    let mut served = None;
    for _ in 0..600 {
        let r = fetch(&addr, "/run/tdma?seed=1996&scale=smoke");
        if r.status == 200 {
            served = Some(r.body);
            break;
        }
        assert_eq!(r.status, 503, "only 503 until the cache warms");
        thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        served.expect("cache eventually warms"),
        expected,
        "post-timeout cached response still matches the CLI bytes"
    );
    handle.request();
    join.join().expect("server thread").expect("clean run");
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let (addr, handle, join) = start(Config {
        workers: 2,
        ..Config::default()
    });
    let expected = cli_json("table2", Scale::Smoke, 7);
    let in_flight = thread::spawn({
        let addr = addr.clone();
        move || fetch(&addr, "/run/table2?seed=7&scale=smoke")
    });
    // Wait until a worker has actually picked the slow request up: it is
    // the only compute request in this test, so its cache miss is the
    // signal — healthz/metrics polls never touch the cache, and startup
    // health polls that timed out client-side can't inflate it the way
    // they inflate `admitted`.
    let mut polls = 0u32;
    loop {
        polls += 1;
        let m = parse(&fetch(&addr, "/metrics").body).expect("metrics parse");
        if metric(&m, &["cache", "misses"]) >= 1 {
            break;
        }
        assert!(polls < 500, "slow request never picked up");
        thread::sleep(Duration::from_millis(5));
    }
    handle.request();
    // The in-flight run must finish with full-fidelity bytes, not be cut
    // off by shutdown.
    let r = in_flight.join().expect("client thread");
    assert_eq!(r.status, 200, "in-flight request drained, not dropped");
    assert_eq!(r.body, expected);
    join.join().expect("server thread").expect("clean run");
    // And the listener is really gone.
    assert!(
        TcpStream::connect(&addr).is_err()
            || get(&addr, "/healthz", Duration::from_millis(200)).is_err(),
        "socket must be closed after drain"
    );
}

#[test]
fn sweep_endpoint_matches_cli_bytes_and_caches() {
    let (addr, handle, join) = start(Config {
        workers: 2,
        ..Config::default()
    });
    // What `repro sweep --space oven-smoke --format json` prints — the
    // byte-exact contract for `/sweep`.
    let space = wavelan_core::sweep::preset("oven-smoke").expect("preset exists");
    let expected = to_string_pretty(
        &space
            .run(Scale::Smoke, 1996, &Executor::serial())
            .expect("sweep runs"),
    );

    let r = fetch(&addr, "/sweep?preset=oven-smoke&seed=1996&scale=smoke");
    assert_eq!(r.status, 200);
    assert_eq!(r.body, expected, "daemon sweep bytes differ from the CLI");

    // The defaults (preset oven-smoke, seed 1996, scale smoke) name the
    // same space hash → same cache key → a hit, not a re-run.
    let before = parse(&fetch(&addr, "/metrics").body).expect("metrics parse");
    let hits_before = metric(&before, &["cache", "hits"]);
    let r = fetch(&addr, "/sweep");
    assert_eq!(r.status, 200);
    assert_eq!(r.body, expected);
    let after = parse(&fetch(&addr, "/metrics").body).expect("metrics parse");
    assert_eq!(
        metric(&after, &["cache", "hits"]),
        hits_before + 1,
        "default-parameter sweep must hit the cache"
    );

    // Unknown preset → 404 listing the valid names; bad points → 400; a
    // resized sampled space still serves.
    let r = fetch(&addr, "/sweep?preset=no-such-space");
    assert_eq!(r.status, 404);
    assert!(r.body.contains("oven-smoke"));
    assert_eq!(fetch(&addr, "/sweep?points=0").status, 400);
    assert_eq!(fetch(&addr, "/sweep?points=banana").status, 400);
    assert_eq!(fetch(&addr, "/sweep?preset=oven-lhs&points=4").status, 200);
    handle.request();
    join.join().expect("server thread").expect("clean run");
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wavelan_serve_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn metrics_expose_store_tier_counters() {
    let dir = scratch_dir("metrics");
    let (addr, handle, join) = start(Config {
        workers: 1,
        store_dir: Some(dir.clone()),
        ..Config::default()
    });
    // Every store-tier counter must be present and integer-valued, so
    // scripts can grep/parse them without guessing the schema.
    let m = parse(&fetch(&addr, "/metrics").body).expect("metrics parse");
    for counter in [
        "l1_hits",
        "l2_hits",
        "misses",
        "evictions",
        "persist_errors",
        "read_errors",
        "warmed",
        "disk_enabled",
    ] {
        let _ = metric(&m, &["store", counter]);
    }
    assert_eq!(metric(&m, &["store", "disk_enabled"]), 1);
    // A single daemon has no peers to count or proxy to.
    assert!(m.get("peers").is_none());
    assert!(m.get("store").and_then(|s| s.get("peer_proxied")).is_none());

    // One compute then a repeat: the miss and the L1 hit must both be
    // visible, and the legacy `cache` section must stay consistent with
    // the tier breakdown (hits = any-tier hits).
    assert_eq!(fetch(&addr, "/run/tdma?seed=1996&scale=smoke").status, 200);
    assert_eq!(fetch(&addr, "/run/tdma?seed=1996&scale=smoke").status, 200);
    let m = parse(&fetch(&addr, "/metrics").body).expect("metrics parse");
    assert!(metric(&m, &["store", "misses"]) >= 1);
    assert!(metric(&m, &["store", "l1_hits"]) >= 1);
    assert_eq!(
        metric(&m, &["cache", "hits"]),
        metric(&m, &["store", "l1_hits"]) + metric(&m, &["store", "l2_hits"]),
        "legacy cache.hits must equal the tier hits combined"
    );
    handle.request();
    join.join().expect("server thread").expect("clean run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_against_same_store_dir_serves_from_disk_without_recompute() {
    let dir = scratch_dir("restart");
    let expected_odd = cli_json("tdma", Scale::Smoke, 7);
    let expected_default = cli_json("tdma", Scale::Smoke, 1996);
    let config = || Config {
        workers: 2,
        store_dir: Some(dir.clone()),
        ..Config::default()
    };

    // First daemon: compute one paper-default key (seed 1996 — warmed on
    // restart) and one off-default key (seed 7 — only on disk).
    let (addr, handle, join) = start(config());
    let r = fetch(&addr, "/run/tdma?seed=7&scale=smoke");
    assert_eq!(r.status, 200);
    assert_eq!(r.body, expected_odd);
    let r = fetch(&addr, "/run/tdma?seed=1996&scale=smoke");
    assert_eq!(r.status, 200);
    assert_eq!(r.body, expected_default);
    handle.request();
    join.join().expect("server thread").expect("clean run");

    // Second daemon, same directory. The default key was warmed into L1
    // at startup; the off-default key must come from the disk tier. In
    // both cases the bytes are the persisted ones — no recompute.
    let (addr, handle, join) = start(config());
    let before = parse(&fetch(&addr, "/metrics").body).expect("metrics parse");
    assert!(
        metric(&before, &["store", "warmed"]) >= 1,
        "startup warming must preload the persisted paper-default key"
    );
    let misses_before = metric(&before, &["store", "misses"]);

    let r = fetch(&addr, "/run/tdma?seed=7&scale=smoke");
    assert_eq!(r.status, 200);
    assert_eq!(r.body, expected_odd, "restarted daemon altered the persisted bytes");
    let r = fetch(&addr, "/run/tdma?seed=1996&scale=smoke");
    assert_eq!(r.status, 200);
    assert_eq!(r.body, expected_default);

    let after = parse(&fetch(&addr, "/metrics").body).expect("metrics parse");
    assert_eq!(
        metric(&after, &["store", "l2_hits"]),
        1,
        "the off-default key must be served from the disk tier"
    );
    assert!(
        metric(&after, &["store", "l1_hits"]) >= 1,
        "the warmed default key must be served from memory"
    );
    assert_eq!(
        metric(&after, &["store", "misses"]),
        misses_before,
        "nothing recomputed after restart"
    );
    handle.request();
    join.join().expect("server thread").expect("clean run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn keep_alive_connection_serves_many_requests() {
    let (addr, handle, join) = start(Config {
        workers: 1,
        ..Config::default()
    });
    let mut conn = Conn::connect(&addr, Duration::from_secs(10)).expect("connect");
    for _ in 0..20 {
        let r = conn.request("/healthz").expect("keep-alive request");
        assert_eq!(r.status, 200);
    }
    let r = conn.request("/metrics").expect("metrics over keep-alive");
    assert_eq!(r.status, 200);
    parse(&r.body).expect("metrics parse over keep-alive");
    drop(conn);
    handle.request();
    join.join().expect("server thread").expect("clean run");
}

#[test]
fn pipelined_requests_on_one_socket_each_get_a_response() {
    let (addr, handle, join) = start(Config {
        workers: 1,
        ..Config::default()
    });
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // Three requests in a single write; the last one closes. Every one
    // must be answered, in order, on the same socket.
    let payload = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
                   GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
                   GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
    stream.write_all(payload.as_bytes()).expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert_eq!(
        response.matches("HTTP/1.1 200").count(),
        3,
        "all pipelined requests answered:\n{response}"
    );
    assert_eq!(response.matches("Connection: keep-alive").count(), 2);
    assert_eq!(response.matches("Connection: close").count(), 1);
    handle.request();
    join.join().expect("server thread").expect("clean run");
}

#[test]
fn artifacts_listing_covers_the_registry() {
    let (addr, handle, join) = start(Config {
        workers: 1,
        ..Config::default()
    });
    let r = fetch(&addr, "/artifacts");
    assert_eq!(r.status, 200);
    let doc = parse(&r.body).expect("artifacts parse");
    assert_eq!(metric(&doc, &["count"]), wavelan_core::NAMES.len() as u64);
    let listed = match doc.get("artifacts").expect("artifacts array") {
        Value::Array(items) => items
            .iter()
            .map(|item| match item.get("name").expect("name") {
                Value::Str(s) => s.clone(),
                other => panic!("name is not a string: {other:?}"),
            })
            .collect::<Vec<String>>(),
        other => panic!("artifacts is not an array: {other:?}"),
    };
    assert_eq!(listed, wavelan_core::NAMES.to_vec());
    handle.request();
    join.join().expect("server thread").expect("clean run");
}
