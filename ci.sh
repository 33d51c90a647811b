#!/bin/sh
# Tier-1 CI gate. Any failure — including a golden-transcript diff, which
# `cargo test` surfaces via tests/golden_repro.rs — fails the run.
set -eux

# Regenerated run artifacts land under out/ (gitignored); of the files the
# gate writes, only FIDELITY.json is committed at the repo root.
OUT=out
mkdir -p "$OUT"

cargo build --release
cargo build --release -p wavelan-bench
REPRO=./target/release/repro
# Formatting: the tree must be rustfmt's output.
cargo fmt --all -- --check
# Lint every target, test code included.
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc must build without warnings (broken or private intra-doc links).
# The vendored stand-ins under vendor/ are workspace path dependencies, not
# this project's code, so they are not linted.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps \
    --exclude proptest --exclude rand --exclude serde --exclude serde_derive
# Every test in every crate: goldens, determinism, the scenario and trace
# conformance suites (buffered == streamed capture included), the property
# suites (codec, store, framing, HTTP heads, FEC bit-identity), the
# zero-allocation proofs, the ablation effect directions, serve and the CLI
# contract.
cargo test --workspace -q
# Every example must run to completion (trace_dump also asserts that its
# reloaded trace equals the capture).
for example in quickstart site_survey interference_lab adaptive_fec trace_dump; do
    cargo run --release --example "$example" > "$OUT/EXAMPLE_$example.txt"
done
"$REPRO" --list
"$REPRO" --scale smoke --format json > "$OUT/REPRO_SMOKE.json"
# Validate the JSON output parses (the in-tree round-trip tests cover the
# parser itself; jq is a belt-and-braces check where available).
if command -v jq >/dev/null 2>&1; then
    jq . "$OUT/REPRO_SMOKE.json" > /dev/null
else
    # The golden test diffs the same document; a byte-identical match to the
    # committed tests/golden/repro_smoke.json proves it parses.
    cmp "$OUT/REPRO_SMOKE.json" tests/golden/repro_smoke.json
fi
# Scenario-scripting gate: one scripted scenario's transcript is pinned
# byte-for-byte against its golden file (the event-DAG conformance suite
# runs in the workspace tests above).
"$REPRO" --scenario list
"$REPRO" --scenario walk-by --scale smoke > "$OUT/SCENARIO_WALKBY.txt"
cmp "$OUT/SCENARIO_WALKBY.txt" tests/golden/scenario_walkby_smoke.txt
# Every library scenario must also hold its requires at reduced scale
# (`repro --scenario` exits 1 on a failed require; `set -e` fails CI).
for scenario in capture-chatter equal-power walk-by oven-sweep dense-cell; do
    "$REPRO" --scenario "$scenario" --scale reduced --seed 1996 > "$OUT/SCENARIO_REDUCED_$scenario.txt"
done

# Parameter-sweep gate: the smoke preset's JSON document is pinned against
# its golden file (ranking, sensitivity, per-point seeds — any drift in
# sweep determinism shows up as a byte diff), then the 100-point oven grid
# runs at smoke scale and its document must parse.
# tests/sweep_determinism.rs covers jobs- and axis-order-invariance under
# `cargo test` above.
"$REPRO" sweep --space list
"$REPRO" sweep --space oven-smoke --format json > "$OUT/SWEEP_SMOKE.json"
cmp "$OUT/SWEEP_SMOKE.json" tests/golden/sweep_smoke.json
"$REPRO" sweep --space oven-grid --format json > "$OUT/SWEEP_GRID.json"
"$REPRO" --check-json "$OUT/SWEEP_GRID.json"

# Trace-pipeline gate: export one artifact's columnar trace, re-analyze it
# offline, and require the offline report to match the live run's JSON
# byte-for-byte. The `trace-info` header summary is pinned against a golden
# snapshot (format version, spec hash, seed, per-stream tallies). The
# streaming conformance suites run in the workspace tests above.
"$REPRO" table2 --scale smoke --seed 1996 --trace-out "$OUT/TRACE_TABLE2.wltc" --format json > "$OUT/TRACE_LIVE.json"
"$REPRO" reanalyze "$OUT/TRACE_TABLE2.wltc" --format json > "$OUT/TRACE_REANALYZED.json"
cmp "$OUT/TRACE_LIVE.json" "$OUT/TRACE_REANALYZED.json"
"$REPRO" trace-info "$OUT/TRACE_TABLE2.wltc" > "$OUT/TRACE_INFO.txt"
cmp "$OUT/TRACE_INFO.txt" tests/golden/trace_header_smoke.txt

# Paper-fidelity gate: every Table 2-14 / Figure 1-3 expectation must be
# within tolerance (exit 1 on any fail verdict), and the report must parse
# with the vendored JSON parser.
"$REPRO" --validate --scale smoke --format json > FIDELITY.json
"$REPRO" --check-json FIDELITY.json
# The same gate at paper scale over three seeds (the committed
# FIDELITY.json stays the smoke run); `set -e` fails CI on its exit 1.
"$REPRO" --validate --seeds 3 --scale paper --format json > "$OUT/FIDELITY_PAPER.json"

# FEC hot-path gate: fail if either decode-heavy artifact's smoke-scale
# throughput (the per-artifact `[name: S s, N packets, R pkt/s]` stderr
# line) falls to 10x the PR5-era baseline (fec 1,079.6 and harq 1,154.8
# pkt/s) — generous slack under the >=20x measured since, so host noise
# cannot flap the gate while a real kernel regression still trips it. The
# printed rate is rounded to whole pkt/s, so it must exceed the floor.
"$REPRO" fec harq --scale smoke 2> "$OUT/FEC_TIMING.txt" > /dev/null
for artifact in fec harq; do
    pps=$(sed -n "s/^\[$artifact: .*, \([0-9.]*\) pkt\/s\]\$/\1/p" "$OUT/FEC_TIMING.txt")
    floor=$([ "$artifact" = fec ] && echo 10796 || echo 11548)
    awk -v v="$pps" -v floor="$floor" 'BEGIN { exit !(v != "" && v > floor) }' || {
        echo "FEC hot-path regression: $artifact at $pps pkt/s (floor $floor)" >&2
        exit 1
    }
done

# Benchmark gate: every workload of benchmark/run.sh at smoke scale. Its
# last line must report "correct":true with no failed check — every
# serve-zipf response is byte-checked against the CLI's bytes — and
# serve-zipf must complete requests (throughput_per_s > 0).
benchmark/run.sh --quick > "$OUT/BENCH_QUICK.txt"
LAST=$(tail -n 1 "$OUT/BENCH_QUICK.txt")
echo "$LAST" | grep -q '^{"correct":true,' || {
    echo "benchmark run is not correct: $LAST" >&2
    exit 1
}
echo "$LAST" | grep -q '"failed":0,' || {
    echo "benchmark checks failed: $LAST" >&2
    exit 1
}
ZIPF=$(awk '/^== serve-zipf/ { f = 1 } f && /^\{/ { print; exit }' "$OUT/BENCH_QUICK.txt")
echo "$ZIPF" | grep -q '"failed":0,' || {
    echo "serve-zipf had failed requests: $ZIPF" >&2
    exit 1
}
QPS=$(echo "$ZIPF" | sed -n 's/.*"throughput_per_s":{"value":\([0-9.e+-]*\),.*/\1/p')
awk -v v="$QPS" 'BEGIN { exit !(v != "" && v > 0) }' || {
    echo "serve-zipf completed no requests: $ZIPF" >&2
    exit 1
}

# Polls /healthz until the daemon answers. $1 is the daemon's address or
# the --addr-file it writes its address to; the address is left in $ADDR.
wait_healthy() {
    for _ in $(seq 1 100); do
        if [ -f "$1" ]; then ADDR=$(cat "$1"); else ADDR=$1; fi
        if [ -n "$ADDR" ] && "$REPRO" --http-get "http://$ADDR/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "daemon at $1 never became healthy" >&2
    return 1
}

# Boots `repro serve` as a separate process on an ephemeral port with any
# extra flags, and waits until it answers.
start_daemon() {
    ADDR_FILE=$(mktemp)
    "$REPRO" serve --addr 127.0.0.1:0 --addr-file "$ADDR_FILE" --workers 2 "$@" &
    SERVE_PID=$!
    wait_healthy "$ADDR_FILE"
}

# SIGTERM must drain the daemon with exit 0.
stop_daemon() {
    kill -TERM "$SERVE_PID"
    wait "$SERVE_PID"
    rm -f "$ADDR_FILE"
}

# Daemon smoke test: fetch one artifact and one sweep and byte-compare
# both to the CLI's JSON, check /metrics parses, then drain.
start_daemon
"$REPRO" --http-get "http://$ADDR/run/tdma?seed=1996&scale=smoke" > "$OUT/SERVE_RUN.json"
"$REPRO" --check-json "$OUT/SERVE_RUN.json"
"$REPRO" --scale smoke --seed 1996 --format json tdma > "$OUT/CLI_RUN.json"
cmp "$OUT/SERVE_RUN.json" "$OUT/CLI_RUN.json"
"$REPRO" --http-get "http://$ADDR/sweep?preset=oven-smoke&scale=smoke&seed=1996" > "$OUT/SERVE_SWEEP.json"
cmp "$OUT/SERVE_SWEEP.json" "$OUT/SWEEP_SMOKE.json"
"$REPRO" --http-get "http://$ADDR/metrics" > "$OUT/SERVE_METRICS.json"
"$REPRO" --check-json "$OUT/SERVE_METRICS.json"
stop_daemon

# Store-tier smoke: restart survival. Compute one off-default key (seed 7
# is not warmed at startup, so the warm daemon cannot answer from L1)
# through a daemon with a persistent store, stop the daemon, restart it
# against the same directory, and require the re-served bytes to come from
# the disk tier (l2_hits moves — no recompute) and to match both the cold
# response and the CLI byte-for-byte.
STORE_DIR=$(mktemp -d)
start_daemon --store "$STORE_DIR"
"$REPRO" --http-get "http://$ADDR/run/tdma?seed=7&scale=smoke" > "$OUT/STORE_COLD.json"
stop_daemon
start_daemon --store "$STORE_DIR"
"$REPRO" --http-get "http://$ADDR/run/tdma?seed=7&scale=smoke" > "$OUT/STORE_WARM.json"
"$REPRO" --http-get "http://$ADDR/metrics" > "$OUT/STORE_METRICS.json"
stop_daemon
cmp "$OUT/STORE_COLD.json" "$OUT/STORE_WARM.json"
"$REPRO" --scale smoke --seed 7 --format json tdma > "$OUT/STORE_CLI.json"
cmp "$OUT/STORE_WARM.json" "$OUT/STORE_CLI.json"
L2_HITS=$(tr ',' '\n' < "$OUT/STORE_METRICS.json" | grep '"l2_hits"' | tr -dc '0-9')
test "$L2_HITS" -ge 1
rm -rf "$STORE_DIR"
