#!/usr/bin/env bash
# Hidden-input gate (tier-1 ctest `env_reads`): every environment read
# under src/ must be on the allowlist below. Library behaviour is set
# by explicit options (TuneOpts, ServeConfig, ...); the environment
# only supplies deployment settings — a cache path, the target ISA,
# the compiler, timeouts, fault specs, tracing, and the daemon's
# ServeConfig::from_env. A new getenv()/util::env_*() read fails here
# until it is added to the list on purpose.
#
# Usage: scripts/check_env_reads.sh [repo-root]
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

# <file>:<variable>, one line per allowed read.
allow="src/cache/cache.cc:EXO2_CACHE_DIR
src/verify/cjit.cc:EXO2_NATIVE_ISA
src/verify/cjit.cc:CC
src/verify/cjit.cc:EXO2_CJIT_TIMEOUT
src/verify/sandbox.cc:EXO2_FAULTS
src/verify/sandbox.cc:EXO2_SANDBOX_WALL
src/obs/obs.cc:EXO2_TRACE
src/obs/obs.cc:EXO2_TRACE_RING
src/serve/daemon.cc:EXO2_SERVE_SOCKET
src/serve/daemon.cc:EXO2_SERVE_WORKERS
src/serve/daemon.cc:EXO2_SERVE_QUEUE
src/serve/daemon.cc:EXO2_SERVE_DEADLINE"

reads=0
bad=0
while IFS= read -r f; do
    # src/util/env.* implement the readers; everything else calls them.
    case "$f" in src/util/env.cc | src/util/env.h) continue ;; esac
    # One line per call, the argument list may span lines (-z).
    while IFS= read -r call; do
        [ -n "$call" ] || continue
        reads=$((reads + 1))
        name=$(sed -nE 's/.*\(\s*"([^"]*)".*/\1/p' <<<"$call")
        if [ -z "$name" ] || ! grep -qxF "$f:$name" <<<"$allow"; then
            echo "env_reads: $f reads ${name:-a non-literal name}:" \
                 "$call" >&2
            bad=$((bad + 1))
        fi
    done < <(grep -Pzo '\b(secure_getenv|getenv|env_int|env_double|env_flag|env_string)\s*\(\s*("[^"]*")?' "$f" |
             tr '\n' ' ' | tr '\0' '\n')
done < <(find src -name '*.cc' -o -name '*.h' | sort)

if [ "$bad" -gt 0 ]; then
    echo "env_reads: $bad read(s) outside the allowlist in" \
         "scripts/check_env_reads.sh" >&2
    exit 1
fi
echo "env_reads: $reads environment read(s) under src/, all allowlisted"
