#!/usr/bin/env python3
"""Run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload corpus|tune|native|serve \
        --seed N --seconds S --trace 0|1

Builds the harness (perfbench/CMakeLists.txt: the exo2 library from src/
plus perfbench/src/) into .bench_build/perfbench, clears every ambient
EXO2_* variable so no hidden input changes what is measured, runs the
workload, checks the shape of its result line, and forwards its output.
The last line of stdout is the result object. Build logs go to stderr.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "ir", "proc.h")):
        fail("no exo2 sources under src/ (run from the root of a checkout)")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append([cmake, "-S", src, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append([cmake, "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if res.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def clean_env(tmp_dir):
    """The environment of the run: no ambient EXO2_* configuration (the
    tuner, the JIT, the tracer, the caches and the daemon all read such
    variables), and scratch files kept inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EXO2_")}
    env["TMPDIR"] = tmp_dir
    return env


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if not isinstance(res, dict) or set(res) != {"correct", "attempted",
                                                 "failed", "metrics"}:
        fail("result object has the wrong keys")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail("no operation attempted")
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                             "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        if sorted(want) != sorted(res["metrics"]):
            fail("printed metrics differ from BENCHMARK.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["corpus", "tune", "native", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    binary = build(root, build_dir)

    run_dir = os.path.join(".bench_build", "run-%s-%d" % (args.workload,
                                                           os.getpid()))
    tmp_dir = os.path.join(root, run_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", run_dir]
    # Own process group, so a timeout also stops the compilers and
    # sandbox children the run started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            env=clean_env(tmp_dir), universal_newlines=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(os.path.join(root, run_dir), ignore_errors=True)
    if proc.returncode != 0:
        fail("run failed with exit code %d" % proc.returncode)
    lines = out.rstrip("\n").split("\n")
    check_result(lines[-1], args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
