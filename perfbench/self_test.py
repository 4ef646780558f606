#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark. Run from the repository root:

    python3 perfbench/self_test.py

Runs every workload at 2% of its size and checks that
  * every metric BENCHMARK.json names is emitted (untraced runs give the
    end-to-end metrics, traced runs the per-layer ones), finite, with the
    unit the file states, and nothing else is emitted;
  * every run is correct;
  * two traced runs with the same seed give identical exact-repeat counts;
  * a different seed changes the inputs.
Exits non-zero on the first failed check.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["solve-syn2d", "solve-household7d"]
EXACT = ["serve.recomputes", "serve.evictions", "serve.demotions", "serve.promotions",
         "index.grid_cells", "core.approx.peaks"]


def run(workload, seed, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "2", "--trace", str(trace), "--scale", "0.02"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd)} exited {out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    fingerprint = next(l for l in lines if l.startswith("input_fingerprint="))
    return json.loads(lines[-1]), fingerprint


def check(ok, what):
    if not ok:
        sys.exit("FAIL " + what)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    emitted = {0: set(), 1: set()}
    for workload in WORKLOADS:
        results = {}
        for seed, trace in [(1, 0), (1, 1), (1, 1), (2, 1)]:
            result, fingerprint = run(workload, seed, trace)
            results.setdefault((seed, trace), []).append((result, fingerprint))
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} seed={seed} trace={trace} correct")
            for name, metric in result["metrics"].items():
                check(name in units and metric["unit"] == units[name]
                      and math.isfinite(metric["value"]),
                      f"{workload} trace={trace} {name} named, finite, in {units.get(name)}")
                emitted[trace].add(name)
        (a, fa), (b, fb) = results[(1, 1)]
        for name in EXACT:
            if name in a["metrics"]:
                check(a["metrics"][name]["value"] == b["metrics"][name]["value"],
                      f"{workload} {name} repeats exactly "
                      f"({a['metrics'][name]['value']:g})")
        check(fa == fb, f"{workload} same seed, same inputs")
        check(results[(2, 1)][0][1] != fa, f"{workload} another seed, other inputs")
        print(f"ok   {workload}")
    check(emitted[0] == {m["name"] for m in spec["end_to_end"]},
          "untraced runs emit exactly the end-to-end metrics")
    check(emitted[1] == {m["name"] for m in spec["per_layer"]},
          "traced runs emit exactly the per-layer metrics")
    print("self-test passed")


if __name__ == "__main__":
    main()
