#!/usr/bin/env bash
# Crash-safe-service gate, ctest-invocable (see CMakeLists
# EXO2_ENABLE_SERVE): first the persistent-cache and daemon unit tests,
# then bench_serve --faults — a forked daemon hammered by concurrent
# clients under each injected fault class in turn (corrupted and stale
# cache entries, a saturated admission queue, failing/crashing JIT
# builds), each round ending with a kill -9 of the daemon mid-run, a
# restart, and clients retrying through the outage. A pass means zero
# failed requests — backpressure REJECTED (retried) and flagged
# `degraded` answers are the only permitted non-ok outcomes — AND a
# non-zero injected-fault count, AND, in a cache_corrupt/cache_stale
# pass, a non-zero count of entries quarantined as corrupt/stale
# (bench_serve --faults fails on a vacuous run itself and prints the
# per-cache counts), so the gate proves the service detects the damage
# and heals instead of dying.
#
# Usage: scripts/check_serve.sh <test_cache> <test_serve> <bench_serve>
set -euo pipefail

test_cache="${1:?usage: check_serve.sh <test_cache> <test_serve> <bench_serve>}"
test_serve="${2:?usage: check_serve.sh <test_cache> <test_serve> <bench_serve>}"
bench="${3:?usage: check_serve.sh <test_cache> <test_serve> <bench_serve>}"

# The JIT honors $CC (default cc); pin and export it so the gate
# exercises the same toolchain as the rest of CI.
: "${CC:=cc}"
export CC

echo "=== cache unit tests ==="
"$test_cache"

echo "=== daemon unit tests ==="
"$test_serve"

# One fault class per pass: high enough probability that faults fire
# throughout the run, low enough that retries always converge. The
# seed makes every pass replayable. Every pass also includes the
# kill -9/restart round (see bench_serve --faults).
specs=(
    "cache_corrupt=0.6"
    "cache_stale=0.6"
    "queue_full=0.3"
    "compile_fail=0.2,dlopen_fail=0.2"
    "cache_corrupt=0.3,cache_stale=0.3,queue_full=0.2"
)

for spec in "${specs[@]}"; do
    echo "=== serve fault pass: $spec ==="
    EXO2_FAULTS="seed=23,$spec" \
    EXO2_CJIT_TIMEOUT=5 \
        "$bench" --faults
done

echo "serve gate OK"
