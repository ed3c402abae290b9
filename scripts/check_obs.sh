#!/usr/bin/env bash
# Observability gate, ctest-invocable (see CMakeLists EXO2_ENABLE_OBS):
# first the tracer/metrics/daemon-telemetry unit tests, then
# `exo2trace --overhead` — a deterministic proof that tracing costs
# nothing when it is off. The overhead pass runs a real autotune
# workload twice: once untraced for a wall-clock baseline, once traced
# to count captured spans (>= 1000 required, so the bound cannot pass
# vacuously on an uninstrumented build), then prices the disabled
# EXO2_SPAN fast path with a tight probe loop and asserts
# per-span-cost x span-count < 2% of the untraced wall clock. A unit
# cost times a real span census is stable where an A/B wall-clock diff
# of two noisy runs is not.
#
# Usage: scripts/check_obs.sh <test_obs> <exo2trace>
set -euo pipefail

test_obs="${1:?usage: check_obs.sh <test_obs> <exo2trace>}"
exo2trace="${2:?usage: check_obs.sh <test_obs> <exo2trace>}"

# The traced workload must not inherit a tracing or cache environment
# from the CI job: the gate times the *disabled* path.
unset EXO2_TRACE EXO2_TRACE_RING EXO2_CACHE_DIR

echo "=== obs unit tests ==="
"$test_obs"

echo "=== tracing-off overhead gate ==="
"$exo2trace" --overhead

echo "obs gate OK"
