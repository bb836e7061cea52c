#!/usr/bin/env bash
# Offline CI gate: the workspace must lint clean (DP accounting,
# determinism, panic-surface, and dependency-policy invariants — see
# DESIGN.md §"Static invariant enforcement"), then build and test with
# crates.io unreachable.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== static analysis (privim-lint, all rules incl. cross-file flow)"
# Covers the dependency policy (every Cargo.toml must be path-only), the
# panic-surface gate, and the v2 flow rules (lock-order, dp-taint,
# unsafe-audit) that analyze the workspace call graph. The run is timed:
# whole-workspace analysis staying interactive (< 15 s wall, lexing +
# parsing + fixpoint included, debug build) is part of the contract —
# a quadratic regression in the resolver should fail CI, not annoy users.
LINT_JSON="results/lint.json"
mkdir -p results
LINT_T0=$(date +%s)
cargo run -q --offline -p privim-lint -- --workspace --json > "$LINT_JSON"
LINT_T1=$(date +%s)
LINT_SECS=$((LINT_T1 - LINT_T0))
if [ "$LINT_SECS" -gt 15 ]; then
    echo "privim-lint took ${LINT_SECS}s (> 15s budget)" >&2
    exit 1
fi
# Schema drift gate: the archived artifact must be v2 with call-graph
# stats; downstream dashboards key on these fields.
grep -q '"version":2' "$LINT_JSON" || { echo "lint.json is not schema v2" >&2; exit 1; }
grep -q '"callgraph"' "$LINT_JSON" || { echo "lint.json lacks callgraph stats" >&2; exit 1; }
grep -q '"rules"' "$LINT_JSON" || { echo "lint.json lacks per-rule counts" >&2; exit 1; }
echo "archived $LINT_JSON (${LINT_SECS}s)"

echo "== lint self-check (the analyzer's own sources must pass its rules)"
cargo run -q --offline -p privim-lint -- --workspace --under crates/lint

echo "== lint audit of the unsafe modules (SIMD dispatch + aligned pool)"
# The only `unsafe` in the tensor crate lives in the SIMD dispatch layer
# and the 64-byte-aligned allocator. Run the unsafe-audit / panic-surface
# rules scoped to exactly those modules and archive the artifact so a new
# uncommented unsafe block fails CI even if the workspace-wide run above
# is ever relaxed.
cargo run -q --offline -p privim-lint -- --workspace \
    --under crates/tensor/src/simd.rs --json > results/lint-simd.json
cargo run -q --offline -p privim-lint -- --workspace \
    --under crates/tensor/src/pool.rs --json > results/lint-pool.json
echo "archived results/lint-simd.json results/lint-pool.json"

echo "== offline release build (all targets)"
cargo build --release --offline --all-targets

echo "== rustdoc (every intra-doc link must resolve)"
# A deletion that leaves a doc link to a removed or private item behind
# fails here instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== offline tests (workspace)"
cargo test -q --offline --workspace

echo "== reactor suite, three runs in a row (real sockets, timers and threads)"
# These tests race a real reactor against real clients, so a timing bug
# can pass one run and fail the next; three back-to-back runs make a
# flaky test show up here rather than in a later change's CI.
for run in 1 2 3; do
    echo "-- run $run"
    cargo test -q --offline -p privim-serve --test reactor
done

echo "== offline tests (workspace, PRIVIM_SIMD=scalar)"
# Every test must pass with SIMD dispatch pinned to the scalar backend.
# Because the lane-accumulator contract (DESIGN.md §14) makes all
# backends bit-identical, this leg catches any kernel that quietly
# diverges from the scalar reference — the determinism suite compares
# the two backends directly, and the rest of the workspace re-runs its
# numeric assertions on the fallback path.
PRIVIM_SIMD=scalar cargo test -q --offline --workspace

echo "== bench smoke (kernel harness + bit-identity assertions, tiny sizes)"
# bench_kernels asserts SIMD/tiled/parallel kernels match their scalar
# and naive references bitwise before timing anything; --smoke proves
# that in well under a second without touching the checked-in
# BENCH_kernels.json trajectory. Run it twice — with dispatch free
# (auto picks AVX2 where the CPU has it) and pinned to scalar (the
# baseline build, SSE2 on x86-64) — so the bit-identity assertions
# against the naive references (the column tail, the attention forward
# gather against the arc-order scatter, the attention backward) execute
# under both builds of every kernel.
cargo run -q --release --offline -p privim-bench --bin bench_kernels -- --smoke
PRIVIM_SIMD=scalar cargo run -q --release --offline -p privim-bench --bin bench_kernels -- --smoke

echo "== Max-Cut smoke (the §VI objective through the shared DP-SGD loop)"
# private_maxcut samples, calibrates σ and trains a GNN on the Max-Cut
# loss through the same trainer loop as IM, end to end.
cargo run -q --release --offline --example private_maxcut

echo "== examples (each example program runs to completion)"
# Library code stays only while a program reaches it, and examples are
# programs: quickstart asserts its coverage, outbreak_detection drives the
# LT and SIS estimators.
for example in quickstart viral_marketing privacy_accounting outbreak_detection; do
    echo "-- $example"
    cargo run -q --release --offline --example "$example"
done

echo "== fault-injection matrix (divergence recovery under seeded faults)"
for seed in 1 2; do
    echo "-- PRIVIM_FAULT_SEED=$seed"
    PRIVIM_FAULT_SEED=$seed cargo test -q --offline -p privim-repro --test fault_tolerance
done

echo "== serve smoke (pack a tiny checkpoint bundle, hit every endpoint, drain)"
# `pack --fast` trains a CI-sized model through the real pipeline and
# writes the versioned+checksummed bundle; bench_serve --smoke self-hosts
# the server on an ephemeral port, sends each data request twice with
# response assertions (the repeat must be answered inline by the reactor,
# with the same body apart from the cache flag), checks /metrics
# accounting, and asserts the shutdown drain completes cleanly.
SERVE_BUNDLE="$(mktemp /tmp/privim-serve-ci-XXXXXX.json)"
CHAOS_BUNDLE="$(mktemp /tmp/privim-chaos-ci-XXXXXX.json)"
BENCH_TMP="$(mktemp -d /tmp/privim-bench-ci-XXXXXX)"
trap 'rm -f "$SERVE_BUNDLE" "$CHAOS_BUNDLE" "$CHAOS_BUNDLE.wal"; rm -rf "$BENCH_TMP"' EXIT
cargo run -q --release --offline -p privim-serve -- pack \
    --out "$SERVE_BUNDLE" --nodes 120 --k 10 --fast
cargo run -q --release --offline -p privim-bench --bin bench_serve -- \
    --smoke --bundle "$SERVE_BUNDLE"

echo "== benchmark smoke (privim_bench: every workload at tiny size, every check)"
# Runs both training workloads and both served traffic mixes against a
# spawned privim-serve, and checks every served body byte for byte
# against an in-process replay through serve's public functions — so a
# change that alters a served payload (an embed score, a spread, a seed
# prefix) fails here. No bounds and no timing gates; then the
# benchmark's own unit tests (statistics, load generator, schema).
cargo build --release --offline -p privim-bench -p privim-serve
target/release/privim_bench --seed 1 --out "$BENCH_TMP" --smoke
cargo test -q --offline -p privim-bench --bin privim_bench

echo "== slowloris + idle-connection gate (reactor reaps abusive connections)"
# slowloris_serve spawns a real privim-serve process with short header and
# idle timeouts, opens a pack of connections that dribble a half-request
# one byte at a time, and exits non-zero unless every one is reaped and
# attributed in /metrics while a healthy keep-alive client keeps getting
# 200s; an idle kept-alive connection must likewise be closed and counted.
cargo run -q --release --offline -p privim-bench --bin slowloris_serve -- \
    --server-bin target/release/privim-serve --bundle "$SERVE_BUNDLE" --smoke

echo "== attack canary (empirical ε lower bound must not exceed accounted ε)"
# Trains canary-scale IN/OUT/shadow models through the real DP-SGD path,
# mounts the membership + topology attacks, and exits non-zero if the
# empirical ε lower bound ever climbs above the accountant's upper bound
# — the ordering a correct DP implementation can never violate.
cargo run -q --release --offline -p privim-attack --bin attack-canary -- \
    --nodes 60 --sigma 1.5 --seed 2024

echo "== budget-ledger gate (exhausted tenant must get 429 + correct gauges)"
# e2e over real TCP: a metered bundle with a tight per-tenant budget is
# driven to exhaustion; the test asserts the 429 + Retry-After refusal,
# tenant isolation, that metered traffic adds no inline (reactor-answered)
# response, and that /metrics budget gauges match the spend.
cargo test -q --release --offline -p privim-serve --test e2e \
    exhausted_tenant_gets_429_with_retry_after_and_correct_gauges

echo "== WAL I/O fault matrix (journal appends under each injected I/O failure)"
# One leg per privim_rt::fault I/O point. The env plan applies to the
# whole test process, so each leg runs only the env-driven recovery test
# (by name filter) rather than the full suite: it appends through the
# armed fault at a 40% rate with restarts on poison, recovers, and
# asserts no 2xx-acknowledged charge was lost (DESIGN.md §13).
for point in io_short_write io_torn_write io_fsync_fail crash_after_write; do
    echo "-- PRIVIM_FAULT=$point"
    PRIVIM_FAULT=$point PRIVIM_FAULT_RATE=0.4 PRIVIM_FAULT_SEED=11 \
        cargo test -q --release --offline -p privim-serve --test wal \
        env_plan_io_faults_recovery
done

echo "== kill-9 chaos gate (crash-durable ledger across a real process death)"
# chaos_serve drives a real privim-serve process with metered traffic,
# SIGKILLs it mid-flight, restarts it on the same bundle + journal, and
# exits non-zero if any tenant's recovered spend is below what clients
# saw acknowledged with a 2xx — the never-undercharge contract.
cargo run -q --release --offline -p privim-serve -- pack \
    --out "$CHAOS_BUNDLE" --nodes 120 --k 10 --fast --seed 7 \
    --tenant-budget 4 --query-sigma 24
cargo run -q --release --offline -p privim-bench --bin chaos_serve -- \
    --server-bin target/release/privim-serve --bundle "$CHAOS_BUNDLE" --smoke

echo "CI green"
