#!/usr/bin/env bash
# CI gate for the Helios workspace: formatting, lints (including an
# unwrap/expect deny gate for the non-test code of crates/fl, crates/net,
# crates/obs, crates/scenario, crates/tensor and crates/nn),
# docs, build, tests, the kernel-throughput + thread-scaling microbench
# (emits results/BENCH_parallel.json and self-checks that the blocked
# GEMM beats the naive reference >= 3x geomean on alexnet-class
# shapes), the network-simulation bench (emits
# results/BENCH_net.json and self-checks that a soft-trained straggler's
# upload frame is smaller than the full-model frame), and the
# round-engine phase bench (emits results/BENCH_engine.json and
# self-checks that Helios shrinks the straggler train-phase share
# versus synchronous FedAvg), the fleet-scaling bench (emits
# results/BENCH_fleet.json and self-checks that peak memory stays
# near-flat from 1k to 100k enrolled devices), the packed-execution bench (emits
# results/BENCH_masked.json and self-checks that masked training
# flops scale with the live parameter fraction), and the observability
# bench (emits results/BENCH_obs.json plus a JSONL + Chrome trace and
# self-checks that disabled-mode tracing costs under 3%; the trace is
# then re-validated with trace_report --validate), and the scenario
# dynamics bench (emits results/BENCH_scenarios.json plus
# results/trace_scenario.jsonl and self-checks that throttling raises
# straggler skip counts and Helios beats synchronous FedAvg under
# churn + throttle + drift).
#
# Usage: ./ci.sh [--skip-bench]
set -euo pipefail
cd "$(dirname "$0")"

SKIP_BENCH=0
for arg in "$@"; do
    case "$arg" in
        --skip-bench) SKIP_BENCH=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "clippy unwrap/expect deny gate (crates/fl, net, obs, scenario, tensor, nn)"
# These crates carry `#![cfg_attr(not(test), deny(clippy::unwrap_used,
# clippy::expect_used))]`, locking in typed errors for non-test code;
# this step compiles them standalone so a violation fails CI even if the
# workspace pass above is ever narrowed.
cargo clippy -p helios-fl -p helios-net -p helios-obs -p helios-scenario \
    -p helios-tensor -p helios-nn --all-targets

step "cargo doc (warnings are errors)"
# Scoped to first-party crates: the vendored deps are workspace members
# but their docs are upstream's, not ours to lint.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
    -p helios-tensor -p helios-nn -p helios-data -p helios-device \
    -p helios-net -p helios-fl -p helios-core -p helios-bench \
    -p helios-obs -p helios-scenario -p helios-examples -p helios-integration

step "cargo build --release"
cargo build --release --workspace

step "cargo test -q"
cargo test -q --workspace

if [ "$SKIP_BENCH" -eq 0 ]; then
    step "kernel-throughput + thread-scaling microbench (results/BENCH_parallel.json)"
    # bench_parallel self-checks and exits nonzero unless the blocked
    # GEMM kernel's single-core flops/s beats the pinned naive reference
    # by >= 3x geomean (1.8x per shape) on the alexnet-class shapes.
    cargo run --release -p helios-bench --bin bench_parallel

    step "network-simulation bench (results/BENCH_net.json)"
    # bench_net re-parses its own JSON and exits nonzero unless every
    # soft-trained straggler's wire frame is smaller than a full one,
    # and unless the wire-v2 accuracy-vs-bytes curve holds: lossless
    # modes match the reference run exactly, lossy modes shrink the
    # frame and stay within their per-mode accuracy tolerance.
    cargo run --release -p helios-bench --bin bench_net
    [ -s results/BENCH_net.json ] || { echo "BENCH_net.json missing or empty" >&2; exit 1; }

    step "round-engine phase bench (results/BENCH_engine.json)"
    # bench_engine re-parses its own JSON and exits nonzero unless Helios
    # shrinks both total train time and the straggler's train-phase share
    # of the round versus synchronous FedAvg.
    cargo run --release -p helios-bench --bin bench_engine
    [ -s results/BENCH_engine.json ] || { echo "BENCH_engine.json missing or empty" >&2; exit 1; }

    step "fleet-scaling bench (results/BENCH_fleet.json)"
    # bench_fleet re-parses its own JSON and exits nonzero unless every
    # cycle aggregates exactly the 500-device cohort, live clients stay
    # capped at the cohort, peak memory is near-flat across the
    # 1k/10k/100k population sweep, and a repeated run replays bitwise.
    cargo run --release -p helios-bench --bin bench_fleet
    [ -s results/BENCH_fleet.json ] || { echo "BENCH_fleet.json missing or empty" >&2; exit 1; }

    step "packed sub-model execution bench (results/BENCH_masked.json)"
    # bench_masked re-parses its own JSON and exits nonzero unless packed
    # train flops shrink monotonically with the keep ratio and the
    # keep=0.25 sub-model costs at most 40% of the full model.
    cargo run --release -p helios-bench --bin bench_masked
    [ -s results/BENCH_masked.json ] || { echo "BENCH_masked.json missing or empty" >&2; exit 1; }

    step "observability bench (results/BENCH_obs.json + traces)"
    # bench_obs re-parses its own JSON and exits nonzero unless the
    # estimated disabled-mode tracing overhead stays under its budget.
    cargo run --release -p helios-bench --bin bench_obs
    [ -s results/BENCH_obs.json ] || { echo "BENCH_obs.json missing or empty" >&2; exit 1; }

    step "trace_report --validate (results/trace_obs.jsonl)"
    # Structural validation of the trace bench_obs just wrote: monotone
    # sim time, balanced phase spans, every fault event settled.
    cargo run --release -p helios-obs --bin trace_report -- --validate results/trace_obs.jsonl

    step "scenario dynamics bench (results/BENCH_scenarios.json + trace)"
    # bench_scenarios re-parses its own JSON and exits nonzero unless
    # throttling raises the accumulated straggler skip mass, the churn
    # timeline never starves a cycle, Helios beats synchronous FedAvg
    # under churn + throttle + drift, and the recorded trace carries
    # every scheduled scenario event kind.
    cargo run --release -p helios-bench --bin bench_scenarios
    [ -s results/BENCH_scenarios.json ] || { echo "BENCH_scenarios.json missing or empty" >&2; exit 1; }

    step "trace_report --validate (results/trace_scenario.jsonl)"
    # The combined churn + drift walkthrough trace must pass the same
    # structural validation, including the scenario-event kind check.
    cargo run --release -p helios-obs --bin trace_report -- --validate results/trace_scenario.jsonl
else
    step "skipping microbench (--skip-bench)"
fi

step "CI green"
