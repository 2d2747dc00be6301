"""Where one ``sim-fig13`` pass spends its time, under cProfile.

Runs the twelve Fig 13 configurations of ``bench/``'s ``sim-fig13``
workload (SWGG n = 10000, 200 / 10 partitions, X in {2, 5} nodes, every
other paper core count) once and splits the profiled time three ways:

- **thread level** — ``simulate_level`` plus ``_SimulatedRun._level``,
  which builds each block shape's inner level once (its sub-partition,
  the compiled inner DAG and the sub-blocks' local ranges);
- **cost derivation** — the rest of ``_SimulatedRun._inner``: cost
  classes and the 400 sub-block costs of each class (one
  ``subblock_costs`` call);
- **outer per-task path** — everything else: the event queue, the
  dispatch core, waves, transfers, commits.

Usage::

    python benchmarks/profile_sim_fig13.py            # split + top 25
    python benchmarks/profile_sim_fig13.py --top 40

cProfile inflates call-heavy code, so the split is a share, not a
wall time: the wall time of a pass is ``bench/run.py --workload
sim-fig13``'s ``wall_s``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import RunConfig  # noqa: E402
from repro.algorithms import SmithWatermanGG  # noqa: E402
from repro.backends.simulated import paper_core_range, run_simulated  # noqa: E402

SEQ_LEN = 10000
PARTITION = dict(process_partition=200, thread_partition=10)


def configs():
    grid = [(x, y) for x in (2, 5) for y in paper_core_range(x)[::2]]
    return [RunConfig.experiment(x, y, **PARTITION) for x, y in grid]


def one_pass(problem, cfgs) -> float:
    return sum(run_simulated(problem, c)[1].makespan for c in cfgs)


def _cum(stats: pstats.Stats, name: str, module: str = "", caller: str = "") -> float:
    """Cumulative seconds of every function called ``name`` (in a file
    whose path ends with ``module``, and only the calls made from a
    function called ``caller``, when given)."""
    total = 0.0
    for (file, _line, fn), (_cc, _nc, _tt, ct, callers) in stats.stats.items():
        if fn != name or not file.endswith(module):
            continue
        if not caller:
            total += ct
            continue
        for (_cf, _cl, cfn), entry in callers.items():
            if cfn == caller:
                total += entry[3]
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--top", type=int, default=25, help="rows of the cumulative table")
    args = ap.parse_args(argv)

    problem = SmithWatermanGG.random(SEQ_LEN, seed=1)
    cfgs = configs()
    t0 = time.perf_counter()
    makespan_sum = one_pass(problem, cfgs)  # unprofiled, for the wall time
    wall = time.perf_counter() - t0

    prof = cProfile.Profile()
    prof.enable()
    one_pass(problem, cfgs)
    prof.disable()
    stats = pstats.Stats(prof)
    total = stats.total_tt
    inner = _cum(stats, "_inner")
    simulated = os.path.join("backends", "simulated.py")
    thread = _cum(stats, "simulate_level", module=simulated) + _cum(
        stats, "_level", module=simulated, caller="_inner"
    )
    cost = inner - thread
    outer = total - inner

    print(f"sim-fig13 pass: {len(cfgs)} configurations, makespan sum {makespan_sum!r}")
    print(f"unprofiled pass: {wall:.3f} s; profiled: {total:.3f} s")
    for label, secs in (
        ("thread level", thread),
        ("cost derivation", cost),
        ("outer per-task path", outer),
    ):
        print(f"  {label:<20} {secs:8.3f} s  {100.0 * secs / total:5.1f} %")
    out = io.StringIO()
    pstats.Stats(prof, stream=out).strip_dirs().sort_stats("cumulative").print_stats(args.top)
    print(out.getvalue().rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
