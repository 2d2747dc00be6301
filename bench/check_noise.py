#!/usr/bin/env python3
"""Does the benchmark agree with itself? Two back-to-back sets of runs
of the same tree, compared the way a regression check would compare a
change against its parent.

    python3 bench/check_noise.py [--runs 3] [--workload NAME ...]

Per workload and end-to-end metric it prints both set medians, how much
worse the second is than the first (as a share of the first), the spread
of all runs — (max - min) / median, and the interquartile range / median
the acceptance rule uses — and the metric's bound. Exit status 1 if the
two medians differ by more than the bound in either direction (the code
is the same, so which set ran first must not decide), if the
interquartile range of a metric other than ``setup_s`` exceeds its bound,
if any op failed, or if a counter that must repeat exactly did not.

Run ``i`` of each set uses seed ``i``, so the two sets see the same
instances and a run-to-run difference is the machine's, not the input's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: Per-layer counters that are pure functions of the instance: any
#: difference between two runs is a behaviour change, not noise. (The
#: real backends' message and byte counts are not here: idle signals
#: depend on timing, so they differ by a few messages run to run.)
EXACT = {
    "sim-fig13": ("sim.messages", "sim.makespan_sum_s", "runtime.tasks", "runtime.subtasks"),
    "ed-coarse": ("runtime.tasks",),
    "swgg-shm": ("runtime.tasks",),
}


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - t0  # the whole run, against the driver's cap
    # "# raw wall_s=1.47 setup_s=0.27": the two times as measured, shown
    # ungated beside the ones reported at reference speed.
    raw = next((line.split() for line in lines if line.startswith("# raw ")), [])
    for field in raw[2:]:
        name, _, value = field.partition("=")
        result["metrics"]["raw:" + name] = {"value": float(value), "unit": "s"}
    return result


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    delta = (second - first) if better == "lower" else (first - second)
    return delta / abs(first) if first else 0.0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=3, help="runs per set and workload")
    ap.add_argument("--workload", action="append", choices=names,
                    help="restrict to these workloads (default: all)")
    ap.add_argument("--no-trace", action="store_true",
                    help="skip the traced run per set that checks the exact counters")
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    workloads = args.workload or names

    ok = True
    # sets[k][workload] = list of result dicts
    sets = [{w: [] for w in workloads} for _ in range(2)]
    traced = [{} for _ in range(2)]
    for k in range(2):
        for w in workloads:
            for i in range(args.runs):
                print(f"set {k + 1} {w} run {i + 1}/{args.runs}", file=sys.stderr, flush=True)
                sets[k][w].append(run(w, i + 1, 0, seconds))
            if not args.no_trace and w in EXACT:
                traced[k][w] = run(w, 1, 1, seconds)

    print(f"{'workload':14s} {'metric':12s} {'set 1':>11s} {'set 2':>11s} "
          f"{'worse by':>9s} {'spread':>8s} {'iqr':>8s} {'bound':>6s}")
    for w in workloads:
        results = sets[0][w] + sets[1][w]
        failed = sum(r["failed"] for r in results)
        if failed or not all(r["correct"] for r in results):
            print(f"{w}: {failed} failed ops")
            ok = False
        shown = [(m["name"], m["better"], m["bound"], True) for m in spec["end_to_end"]]
        shown += [(name, "lower", 0.0, False) for name in sorted(results[0]["metrics"])
                  if name.startswith("raw:")]
        for name, better, bound, gated in shown:
            med = [statistics.median(r["metrics"][name]["value"] for r in sets[k][w])
                   for k in range(2)]
            every = [r["metrics"][name]["value"] for r in results]
            spread = (max(every) - min(every)) / statistics.median(every)
            # The acceptance rule's spread, per set of runs (needs >= 4).
            iqrs = []
            for k in range(2):
                vals = [r["metrics"][name]["value"] for r in sets[k][w]]
                if len(vals) >= 4:
                    q = statistics.quantiles(vals, n=4)
                    iqrs.append((q[2] - q[0]) / statistics.median(vals))
            iqr = f"{max(iqrs):8.1%}" if iqrs else f"{'-':>8s}"
            worse = worse_by(med[0], med[1], better)
            flag = ""
            if not gated:
                flag = "  (as measured, not gated)"
            elif abs(worse) > bound:
                flag = "  <-- medians differ beyond bound"
                ok = False
            elif iqrs and name != "setup_s" and max(iqrs) > bound:
                flag = "  <-- iqr beyond bound"
                ok = False
            print(f"{w:14s} {name:12s} {med[0]:11.4f} {med[1]:11.4f} {worse:+9.1%} "
                  f"{spread:8.1%} {iqr} {bound:6.2f}{flag}")
        slowest = max(r["elapsed_s"] for r in results)
        print(f"{w:14s} slowest whole run {slowest:.1f} s")
        for name in EXACT.get(w, ()) if not args.no_trace else ():
            a, b = (traced[k][w]["metrics"][name]["value"] for k in range(2))
            same = "identical" if a == b else "DIFFERENT"
            print(f"{w:14s} {name:24s} {a!r} / {b!r}  {same}")
            ok = ok and a == b
    runs = [r for k in range(2) for w in workloads for r in sets[k][w]]
    mean = statistics.fmean(r["elapsed_s"] for r in runs)
    print(f"{len(runs)} untraced runs, {mean:.1f} s each on average")
    out = os.path.join(BENCH_DIR, "out", "noise.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"sets": sets, "traced": traced}, fh, indent=1)
    print(f"every run's result is in {out}")
    print("noise check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
