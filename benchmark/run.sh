#!/usr/bin/env bash
# The repository's benchmark, as one command. Builds the benchmark package
# (release, offline) and runs it from the repository root; every argument
# is passed through. See benchmark/README.md.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--trace] [--quick]
#   benchmark/run.sh --compare PARENT.json CHANGE.json
#
# Also accepted, as BENCHMARK.json's command is called: --seconds S and
# --trace 0|1.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

if [[ ! -f crates/core/Cargo.toml ]]; then
    echo "benchmark/run.sh: no workspace sources under $root/crates; run it from a full checkout" >&2
    exit 1
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Build output must not reach stdout: its last line is the result.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/wavelan-benchmark" "$@"
