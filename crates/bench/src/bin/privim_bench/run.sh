#!/usr/bin/env bash
# Build the benchmark and the shipped privim-serve binary it drives, then
# run the benchmark with the given arguments, e.g.
#
#   bash crates/bench/src/bin/privim_bench/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
#
# Both binaries come from one build of this directory's Cargo.toml, so they
# share its release profile. Build output goes to $CARGO_TARGET_DIR
# (default: .bench_build at the repository root). Cargo's output goes to
# stderr, so the benchmark's result line stays the last line of stdout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p privim_bench --bin privim_bench -p privim-serve --bin privim-serve >&2

exec "$CARGO_TARGET_DIR/release/privim_bench" "$@"
