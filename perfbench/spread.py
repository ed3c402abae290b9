#!/usr/bin/env python3
"""Run one workload once per seed and report each end-to-end metric's
spread: the distance between its first and third quartile as a share of
its median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload serve --seeds 1 2 3 4 5

Run from the root of a checkout. A spread below a third of the bound is
steady; `setup_s` is exempt from the spread rule (only its median is
bounded). --compare A.json B.json instead compares the medians of two
saved result sets (--out) against the bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          universal_newlines=True)
    if proc.returncode != 0:
        sys.exit("seed %d: run failed (exit %d):\n%s"
                 % (seed, proc.returncode, proc.stderr[-3000:]))
    res = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if not res["correct"]:
        print("seed %d: outputs NOT correct (%d of %d failed)"
              % (seed, res["failed"], res["attempted"]), file=sys.stderr)
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out", help="save the per-seed metrics as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        ok = True
        for name, m in bounds.items():
            a = statistics.median(r[name] for r in sets[0])
            b = statistics.median(r[name] for r in sets[1])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "ok" if worse <= m["bound"] else "WORSE"
            ok = ok and flag == "ok"
            print("%-12s %14.6g %14.6g  %+7.1f%% worse  bound %4.0f%%  %s"
                  % (name, a, b, 100 * worse, 100 * m["bound"], flag))
        sys.exit(0 if ok else 1)

    if not args.workload:
        ap.error("--workload is required")
    seconds = args.seconds or spec["run_seconds"]
    results = []
    for seed in args.seeds:
        results.append(run(args.workload, seed, seconds))
        print("seed %d: %s" % (seed, json.dumps(results[-1])), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    for name, m in bounds.items():
        med, sp = spread([r[name] for r in results])
        limit = m["bound"] / 3
        flag = "exempt" if name == "setup_s" else (
            "steady" if sp < limit else "NOISY")
        print("%-12s median %14.6g  spread %6.2f%%  bound %4.0f%%  %s"
              % (name, med, 100 * sp, 100 * m["bound"], flag))


if __name__ == "__main__":
    main()
