#!/usr/bin/env python3
"""One command per workload: ``python3 bench/run.py --workload <name>``.

Prints every metric by name with its unit, checks outputs against the
serial oracle, and ends with one JSON line::

    {"correct": true, "attempted": 13, "failed": 0, "metrics": {...}}

``--trace 0`` (default) measures the end-to-end metrics with the
program's telemetry off; ``--trace 1`` is the separate traced pass that
yields the per-layer metrics and writes ``bench/out/trace-<workload>.json``.
See ``README.md`` for what each number means and how they interact.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()

# The measurement environment is pinned before anything heavy is
# imported: one BLAS thread (the slaves are the parallelism), a fixed
# hash seed (the bench process is the master; set iteration order must
# not differ run to run), and no bytecode written anywhere. The hash seed
# only takes effect at interpreter start, hence the re-exec.
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED.items()):
    os.environ.update(PINNED)
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import measure  # noqa: E402
from measure import BENCH_DIR, OUT_DIR, ROOT  # noqa: E402

if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"bench: no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing")
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: No repetition starts after this many seconds of process life: the
#: contract allows 180 s per run and the oracle still has to run.
HARD_LIMIT_S = 120.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy

    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        describe = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": describe,
        **{k: os.environ.get(k) for k in PINNED},
    }


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1,
                    help="feeds instance and job-mix generation only")
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                    help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced pass (per-layer metrics)")
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, one repetition (smoke test)")
    ap.add_argument("--expected", default=os.path.join(BENCH_DIR, "expected.json"),
                    help="recorded oracle outputs")
    ap.add_argument("--record-expected", action="store_true",
                    help="recompute the default-seed oracle outputs into --expected")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not args.workload and not args.record_expected:
        ap.error("--workload is required")

    from workloads import WORKLOADS

    if args.record_expected:
        entries: dict = {}
        with measure.Sandbox() as box:
            for cls in WORKLOADS.values():
                entries.update(cls(box, measure.Tracer(cls.name, False), 1, False, {}).record())
        with open(args.expected, "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {len(entries)} oracle entries in {args.expected}")
        return 0

    with open(args.expected, encoding="utf-8") as fh:
        expected = json.load(fh)
    tracer = measure.Tracer(args.workload, enabled=bool(args.trace))
    deadline = T_START + HARD_LIMIT_S

    if args.setup_only:
        # A fresh-process set-up for the parent's ``setup_s`` median.
        with measure.Sandbox() as box:
            wl = WORKLOADS[args.workload](box, tracer, args.seed, args.quick, expected)
            try:
                wl.setup()
                print("READY", flush=True)
            finally:
                wl.teardown()
        return 0

    env = environment()
    print(f"# bench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' quick' if args.quick else ''}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))

    setups, setup_blocks = [], []
    if not args.trace:
        child = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                 "--seed", str(args.seed), "--expected", args.expected, "--setup-only"]
        setups, setup_blocks = measure.measure_setup(
            child + (["--quick"] if args.quick else []), 1 if args.quick else SETUP_REPEATS)

    with measure.Sandbox() as box:
        wl = WORKLOADS[args.workload](box, tracer, args.seed, args.quick, expected)
        try:
            with tracer.span("setup"):
                wl.setup()
            with tracer.span("warmup"):
                wl.warmup()
            wl.reset()  # the warm-up is not a sample
            load0 = os.getloadavg()[0]
            busy0, steal0 = measure.guest_cpu()
            with tracer.span("measure"):
                if args.trace:
                    wl.trace(args.seconds, deadline)
                else:
                    wl.measure(args.seconds, deadline)
            busy1, steal1 = measure.guest_cpu()
        finally:
            wl.teardown()
        leaked = box.sweep_shm()
        if args.trace:
            from probes import run_probes

            with tracer.span("probes"):
                wl.layer.update(run_probes(args.workload, tracer, box.tmp, args.quick))
        with tracer.span("verify"):
            wl.verify()
    if leaked:
        wl.fail(f"{leaked} shared-memory segments left in /dev/shm")

    reference = [x for block in wl.blocks for x in block]
    demand = (busy1 - busy0) + (steal1 - steal0)
    steal_frac = (steal1 - steal0) / demand if demand else 0.0
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        metrics = dict(wl.layer)
        metrics.update({
            "comm.shm_segments_leaked": (leaked, "count"),
            "bench.warmup_s": (wl.warmup_s, "s"),
            "bench.calib_spin_ms": (statistics.fmean(reference) * 1e3, "ms"),
            "bench.loadavg_1m": (load0, "load"),
            "bench.reps": (len(wl.samples), "count"),
            "bench.steal_frac": (steal_frac, "ratio"),
        })
        declared = spec["per_layer"]
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}.json"))
    else:
        metrics = {
            "wall_s": (wl.wall_s(), "s"),
            "peak_rss_mb": (measure.peak_rss_mib(), "MiB"),
            "setup_s": (
                statistics.median(measure.at_reference_speed(setups, setup_blocks)), "s"),
        }
        declared = spec["end_to_end"]
        # As measured, beside the two times reported at reference speed.
        print(f"# raw wall_s={wl.raw_wall_s():.4f} setup_s={statistics.median(setups):.4f}")
    print(f"# {len(wl.samples)} timed sections; machine: reference loop "
          f"{statistics.fmean(reference) * 1e3:.2f} ms over {len(reference)} samples, "
          f"steal {steal_frac:.1%}, load {load0:.2f}")

    # Exactly the declared metrics, in the declared units. The result
    # line must carry a number for each; a layer this workload does not
    # exercise (no jobs went through serve on a DP workload; the
    # simulator moved no bytes) is shown as '-' here and carried as 0.
    result = {}
    for m in declared:
        value, unit = metrics.get(m["name"], (None, m["unit"]))
        if unit != m["unit"]:
            raise SystemExit(f"bench: {m['name']} measured in {unit}, declared {m['unit']}")
        result[m["name"]] = {"value": 0.0 if value is None else value, "unit": unit}
        shown = f"{'-':>16s}" if value is None else f"{value:16.6f}"
        print(f"{m['name']:36s} {shown} {unit}")
    if len(metrics) < len(declared):
        print("# '-': this workload does not exercise that layer; the result line carries 0")
    undeclared = sorted(set(metrics) - set(result))
    if undeclared:
        raise SystemExit(f"bench: measured but not declared in BENCHMARK.json: {undeclared}")
    print(f"ops attempted {wl.attempted}  failed {wl.failed}")
    # The run record: every repetition as measured, for whoever doubts a median.
    record = os.path.join(
        OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({
            "env": env, "seconds": args.seconds, "attempted": wl.attempted,
            "failed": wl.failed, "setup_s": setups, "setup_reference_s": setup_blocks,
            "reference_s": wl.blocks, "steal_frac": steal_frac, "reps": wl.samples,
            "parts": wl.parts, "metrics": result,
        }, fh, indent=1)
    print(json.dumps({
        "correct": wl.failed == 0,
        "attempted": max(1, wl.attempted),
        "failed": wl.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    # No process outlives this one, whichever way it ends: orphaned
    # grandchildren are handed to it, SIGTERM unwinds through the
    # ``finally`` blocks, and the last act is to stop and wait for
    # whatever is left (the resource trackers of the shm data plane are
    # the ones that always are).
    measure.adopt_orphans()
    signal.signal(signal.SIGTERM, measure.raise_exit)
    try:
        code = main()
        sys.stdout.flush()
    finally:
        measure.reap_children()
    sys.exit(code)
