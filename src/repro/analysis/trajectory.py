"""The recorded trajectory: appendable baselines and one exact check.

``BENCH_BASELINE.json`` at the repo root holds one entry per recorded
revision — a run of the pinned :data:`STANDARD` workload on all four
backends. This module owns that file's schema and the operations on it
(``benchmarks/bench_baseline.py`` is the front-end):

- :func:`append_entry` — measure and append (``--write``), labelled
  with ``git describe`` output by default;
- :func:`exact_drift` — the **refactor oracle** (``--check``): the
  serial and simulated backends' wire counters and the simulated
  makespan are deterministic, so they must equal the latest entry
  bit-for-bit. Any difference is a protocol or cost-model change someone
  must acknowledge by recording a new entry.

Wall times of the real backends are recorded but never compared: one
un-repeated sub-second run cannot gate anything. Timing regressions are
``bench/``'s job (repeats, reference-block normalisation, a noise-derived
bound — ``BENCHMARK.json``). An entry that records a claimed gain carries
``bench/``'s numbers for it as a ``bench`` object (:data:`BENCH_CLAIM_KEYS`,
optionally with every run pair, :data:`BENCH_CLAIM_PAIRS`).
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from typing import Dict, List, Optional

from repro.utils.errors import ConfigError

SCHEMA = "repro-bench-baseline-1"

#: The standard workload: small enough for CI, large enough that the
#: dispatch/commit path dominates interpreter startup.
STANDARD = dict(
    algorithm="edit-distance",
    size=240,
    seed=0,
    nodes=3,
    threads_per_node=2,
    process_partition=40,
    thread_partition=10,
)

BACKENDS = ("serial", "threads", "processes", "simulated")

#: Deterministic backends: wire counters must reproduce bit-for-bit.
DETERMINISTIC = ("serial", "simulated")

#: What must reproduce bit-for-bit against the latest entry.
EXACT = tuple(
    (backend, key)
    for backend in DETERMINISTIC
    for key in ("messages", "bytes_to_slaves", "bytes_to_master")
) + (("simulated", "makespan_s"),)


#: What a ``bench`` object records for each claimed (workload, metric):
#: ``entry["bench"][workload][metric]`` maps exactly these keys — the median
#: of ``bench/run.py``'s runs of the change, how many runs, the metric's
#: regression bound from ``BENCHMARK.json`` and the parent commit's median.
BENCH_CLAIM_KEYS = ("median", "runs", "bound", "parent_median")

#: Optional beside them: every alternating run pair, ``[parent, change]``,
#: one per run.
BENCH_CLAIM_PAIRS = "pairs"


def _positive(v: object) -> bool:
    return type(v) in (int, float) and v > 0  # type: ignore[operator]


def check_bench(bench: object) -> None:
    """Raise :class:`ConfigError` unless ``bench`` is a well-formed
    ``{workload: {metric: {median, runs, bound, parent_median[, pairs]}}}``."""
    if not isinstance(bench, dict) or not bench:
        raise ConfigError("bench must be a non-empty {workload: {metric: claim}} mapping")
    for workload, metrics in bench.items():
        if not isinstance(metrics, dict) or not metrics:
            raise ConfigError(f"bench[{workload!r}] must be a non-empty {{metric: claim}} mapping")
        for metric, claim in metrics.items():
            where = f"bench[{workload!r}][{metric!r}]"
            if not isinstance(claim, dict) or set(claim) - {BENCH_CLAIM_PAIRS} != set(
                BENCH_CLAIM_KEYS
            ):
                raise ConfigError(
                    f"{where} must have exactly the keys {BENCH_CLAIM_KEYS} "
                    f"(and optionally {BENCH_CLAIM_PAIRS!r})"
                )
            numbers = all(_positive(claim[k]) for k in BENCH_CLAIM_KEYS)
            if not numbers or type(claim["runs"]) is not int:
                raise ConfigError(
                    f"{where}: every value must be a positive number and runs a whole one: {claim}"
                )
            pairs = claim.get(BENCH_CLAIM_PAIRS)
            if pairs is not None and not (
                isinstance(pairs, list)
                and len(pairs) == claim["runs"]
                and all(
                    isinstance(p, list) and len(p) == 2 and all(map(_positive, p))
                    for p in pairs
                )
            ):
                raise ConfigError(
                    f"{where}: {BENCH_CLAIM_PAIRS} must list runs [parent, change] "
                    f"pairs of positive numbers: {pairs}"
                )


def measure_backend(backend: str) -> Dict[str, object]:
    """Run the standard workload once on ``backend`` and digest it."""
    from repro import EasyHPS, RunConfig
    from repro.algorithms import EditDistance

    problem = EditDistance.random(STANDARD["size"], seed=STANDARD["seed"])
    config = RunConfig(
        nodes=STANDARD["nodes"],
        threads_per_node=STANDARD["threads_per_node"],
        backend=backend,
        process_partition=STANDARD["process_partition"],
        thread_partition=STANDARD["thread_partition"],
    )
    t0 = time.perf_counter()
    run = EasyHPS(config).run(problem)
    wall = time.perf_counter() - t0
    rep = run.report
    return {
        "wall_time_s": round(wall, 6),
        "makespan_s": round(rep.makespan, 6),
        "messages": rep.messages,
        "bytes_to_slaves": rep.bytes_to_slaves,
        "bytes_to_master": rep.bytes_to_master,
    }


def measure() -> Dict[str, Dict[str, object]]:
    """The standard workload on every backend."""
    return {backend: measure_backend(backend) for backend in BACKENDS}


def git_describe_label(cwd: Optional[str] = None) -> str:
    """A revision label from ``git describe`` (tags or short hash, with
    ``-dirty``); falls back to ``"dev"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "dev"
    label = out.stdout.strip()
    return label if out.returncode == 0 and label else "dev"


def load_trajectory(path: str) -> Dict[str, object]:
    """The baseline document, or an empty skeleton when absent."""
    if not os.path.exists(path):
        return {"schema": SCHEMA, "workload": dict(STANDARD), "entries": []}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise ConfigError(
            f"{path}: unknown baseline schema {doc.get('schema')!r} "
            f"(expected {SCHEMA!r})"
        )
    return doc


def append_entry(
    path: str,
    label: Optional[str] = None,
    measured: Optional[Dict[str, Dict[str, object]]] = None,
    bench: Optional[Dict[str, Dict[str, Dict[str, float]]]] = None,
) -> Dict[str, object]:
    """Measure (unless given) and append one trajectory entry; returns it.

    ``bench`` is the record of a claimed gain (see :func:`check_bench`);
    a malformed one raises before anything is measured or written.
    """
    if bench is not None:
        check_bench(bench)
    doc = load_trajectory(path)
    doc["schema"] = SCHEMA
    doc["workload"] = dict(STANDARD)
    entry = {
        "label": label or git_describe_label(os.path.dirname(path) or None),
        "backends": measured if measured is not None else measure(),
    }
    if bench is not None:
        entry["bench"] = bench
    doc.setdefault("entries", []).append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return entry


def latest_entry(path: str) -> Dict[str, object]:
    """The newest trajectory entry; :class:`ConfigError` when there is
    none (a setup error, not a drift)."""
    entries = load_trajectory(path).get("entries", [])
    if not entries:
        raise ConfigError(f"{path}: no baseline entries; record one with --write first")
    return entries[-1]


def exact_drift(
    recorded: Dict[str, Dict[str, object]], current: Dict[str, Dict[str, object]]
) -> List[str]:
    """Every :data:`EXACT` value of ``current`` that differs from the
    ``recorded`` entry's, described; empty when the oracle holds."""
    return [
        f"{backend}.{key}: baseline {recorded[backend][key]} != current {current[backend][key]}"
        for backend, key in EXACT
        if recorded[backend][key] != current[backend][key]
    ]


def format_measurement(measured: Dict[str, Dict[str, object]]) -> str:
    """One line per backend, aligned (shared by the CLI and the script)."""
    lines = []
    for backend, m in measured.items():
        lines.append(
            f"  {backend:10s} wall={m['wall_time_s']:8.3f}s "
            f"makespan={m['makespan_s']:8.3f}s msgs={m['messages']:6d} "
            f"out={m['bytes_to_slaves']:9d}B back={m['bytes_to_master']:9d}B"
        )
    return "\n".join(lines)
