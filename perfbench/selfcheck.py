#!/usr/bin/env python3
"""The benchmark's own test: exact counts must repeat across two traced
runs with one seed.

    python3 perfbench/selfcheck.py [--seed N] [--workloads corpus tune]

Run from the root of a checkout. For each workload it makes two traced
runs (--trace 1, --seconds 1: one untraced and one traced pass each),
requires both to be correct, compares the counts the program computes
deterministically, and prints the three largest span self-times. Exits 1
on any mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Counts that depend only on the inputs, never on timing.
EXACT = {
    "corpus": ["codegen.c_lines", "lint.errors", "cost_sim.calls",
               "frontend.parse_calls", "sched.calls"],
    "tune": ["tune.cost_ratio", "tune.states_scored", "cost_sim.calls",
             "tune.actions_enumerated", "tune.dedup_skips"],
    "native": ["cjit.builds", "oracle.failures", "interp.calls"],
    "serve": [],
}


def traced_run(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, universal_newlines=True,
                         check=True).stdout
    return json.loads(out.rstrip("\n").split("\n")[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workloads", nargs="+", default=["corpus", "tune"],
                    choices=sorted(EXACT))
    args = ap.parse_args()
    ok = True
    for w in args.workloads:
        a, b = traced_run(w, args.seed), traced_run(w, args.seed)
        for r in (a, b):
            if not r["correct"]:
                print("%s: outputs not correct (%d of %d failed)"
                      % (w, r["failed"], r["attempted"]))
                ok = False
        for name in EXACT[w]:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            same = va == vb
            ok = ok and same
            print("%s %-26s %s %r vs %r" % (w, name, "same" if same
                                            else "DIFFERS", va, vb))
        spans = sorted(((v["value"], k) for k, v in a["metrics"].items()
                        if k.startswith("span.") and k.endswith(".self_ms")),
                       reverse=True)[:3]
        print("%s largest self time: %s" % (w, ", ".join(
            "%s %.1f ms/op" % (k[5:-8], v) for v, k in spans)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
