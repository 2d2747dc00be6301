"""Performance-trajectory baseline: wall time and bytes on the wire.

One standard workload — the wavefront edit-distance instance defined in
:mod:`repro.analysis.trajectory` — measured on all four backends, with
the results committed to ``BENCH_BASELINE.json`` at the repo root. Each
entry in that file is one recorded revision, so the file accumulates the
project's performance trajectory over time instead of a single mutable
number.

Three verbs::

    python benchmarks/bench_baseline.py              # measure and print
    python benchmarks/bench_baseline.py --write --label <rev>   # append
    python benchmarks/bench_baseline.py --write --label <pr> --bench claim.json
    python benchmarks/bench_baseline.py --check      # compare vs latest

What is comparable: the byte/message counters of the serial and
simulated backends and the simulated makespan are fully deterministic
(the simulator is a DES, the serial backend sends nothing), so ``--check``
requires them equal to the latest recorded entry — the refactor oracle.
The threads/processes backends' message counts depend on poll timing and
their wall times on machine load; those are recorded, never compared
(timing is ``bench/``'s job). A PR that claims a gain passes ``--bench``:
a JSON file ``{workload: {metric: {median, runs, bound, parent_median}}}``
of ``bench/run.py``'s numbers, stored on the entry as its ``bench`` object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.trajectory import (  # noqa: E402
    STANDARD,
    append_entry,
    exact_drift,
    format_measurement,
    git_describe_label,
    latest_entry,
    measure,
    measure_backend,
)
from repro.utils.errors import ConfigError  # noqa: E402

__all__ = ["BASELINE_PATH", "STANDARD", "measure", "measure_backend"]

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_BASELINE.json")


def cmd_write(label: str, bench_path: str | None) -> int:
    bench = None
    if bench_path is not None:
        with open(bench_path, encoding="utf-8") as fh:
            bench = json.load(fh)
    try:
        entry = append_entry(BASELINE_PATH, label=label, bench=bench)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"recorded entry {entry['label']!r} -> {os.path.normpath(BASELINE_PATH)}")
    print(format_measurement(entry["backends"]))
    return 0


def cmd_check() -> int:
    try:
        latest = latest_entry(BASELINE_PATH)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    current = measure()
    print(format_measurement(current))
    drifted = exact_drift(latest["backends"], current)
    if drifted:
        print("baseline drift (deterministic counters / simulated makespan changed):")
        for line in drifted:
            print(f"  {line}")
        return 1
    print(
        f"wire counters and simulated makespan match baseline entry {latest['label']!r}"
    )
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    verb = ap.add_mutually_exclusive_group()
    verb.add_argument("--write", action="store_true", help="append an entry to BENCH_BASELINE.json")
    verb.add_argument("--check", action="store_true", help="compare against the latest entry")
    ap.add_argument(
        "--label",
        default=None,
        help="entry label for --write (defaults to `git describe` output)",
    )
    ap.add_argument(
        "--bench",
        default=None,
        metavar="JSON",
        help="with --write: file holding the entry's bench object (a claimed gain)",
    )
    args = ap.parse_args()
    if args.bench is not None and not args.write:
        ap.error("--bench only goes with --write")
    if args.write:
        label = args.label if args.label is not None else git_describe_label()
        return cmd_write(label, args.bench)
    if args.check:
        return cmd_check()
    print(format_measurement(measure()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
