"""Ablations over the design choices DESIGN.md calls out.

Not a paper figure — these quantify which modeled mechanisms carry the
paper's findings:

- scheduler: dynamic vs BCW vs CW (CW is the degenerate baseline the
  paper folds into BCW);
- process partition size: message overhead vs idle tails;
- per-node contention: switch it off and the Fig 15 crossover vanishes;
- link speed: Infiniband vs gigabit ethernet;
- fault recovery overhead vs a fault-free run.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from benchmarks.common import BENCH_SEQ_LEN, PAPER_PARTITION, swgg_instance
from repro import RunConfig
from repro.analysis.tables import ascii_table
from repro.backends.simulated import run_simulated
from repro.cluster.faults import FaultPlan, Faults
from repro.cluster.network import GIGABIT_ETHERNET


def _makespan(problem, cfg) -> float:
    return run_simulated(problem, cfg)[1].makespan


def ablate_scheduler(problem):
    rows = []
    for sched in ("dynamic", "bcw", "cw"):
        cfg = RunConfig.experiment(
            4, 22, scheduler=sched, thread_scheduler=sched, **PAPER_PARTITION
        )
        _, rep = run_simulated(problem, cfg)
        rows.append([sched, rep.makespan, rep.idle_while_ready, f"{rep.utilization:.1%}"])
    return rows


def ablate_partition_size(problem):
    rows = []
    for proc in (50, 100, 200, 500, 1000):
        cfg = RunConfig.experiment(
            4, 22, process_partition=proc, thread_partition=max(5, proc // 20)
        )
        rows.append([proc, _makespan(problem, cfg)])
    return rows


def ablate_contention(problem):
    rows = []
    for gamma in (0.0, 0.02, 0.08):
        for nodes, cores in ((4, 40), (5, 40)):
            base = RunConfig.experiment(nodes, cores, **PAPER_PARTITION)
            spec = base.cluster_spec()
            spec = replace(
                spec, compute_nodes=tuple(replace(n, contention=gamma) for n in spec.compute_nodes)
            )
            cfg = replace(base, cluster=spec)
            rows.append([gamma, nodes, cores, _makespan(problem, cfg)])
    return rows


def ablate_link(problem):
    rows = []
    base = RunConfig.experiment(4, 22, **PAPER_PARTITION)
    rows.append(["infiniband-qdr", _makespan(problem, base)])
    slow = replace(base, cluster=base.cluster_spec().with_link(GIGABIT_ETHERNET))
    rows.append(["gigabit-ethernet", _makespan(problem, slow)])
    return rows


def ablate_heterogeneity(problem):
    """Mixed node speeds: the dynamic pool adapts, the static deal pays."""
    from repro.cluster.machine import NodeSpec
    from repro.cluster.topology import ClusterSpec

    rows = []
    for slow_factor in (1.0, 2.0, 4.0):
        fast = NodeSpec(threads=4)
        slow = NodeSpec(threads=4, flops_per_second=fast.flops_per_second / slow_factor)
        cluster = ClusterSpec(compute_nodes=(fast, fast, slow))
        times = {}
        for sched in ("dynamic", "bcw"):
            cfg = RunConfig(nodes=4, threads_per_node=4, backend="simulated",
                            cluster=cluster, scheduler=sched, **PAPER_PARTITION)
            _, rep = run_simulated(problem, cfg)
            times[sched] = rep.makespan
        rows.append([slow_factor, times["dynamic"], times["bcw"],
                     round(times["bcw"] / times["dynamic"], 3)])
    return rows


def ablate_faults(problem):
    rows = []
    clean = RunConfig.experiment(4, 22, task_timeout=5.0, **PAPER_PARTITION)
    rows.append(["no faults", _makespan(problem, clean)])
    for p in (0.02, 0.10):
        cfg = RunConfig.experiment(
            4, 22, task_timeout=5.0, faults=Faults(task=FaultPlan.random(p, seed=1)),
            **PAPER_PARTITION,
        )
        _, rep = run_simulated(problem, cfg)
        rows.append([f"crash p={p}", rep.makespan])
    return rows


# -- pytest-benchmark entry points -------------------------------------------------


def test_ablation_scheduler(benchmark):
    problem = swgg_instance()
    rows = benchmark.pedantic(lambda: ablate_scheduler(problem), rounds=1, iterations=1)
    by_name = {r[0]: r[1] for r in rows}
    assert by_name["dynamic"] <= by_name["bcw"] * 1.001
    assert by_name["bcw"] < by_name["cw"], "CW must be the worst static layout"


def test_ablation_partition_extremes_lose(benchmark):
    problem = swgg_instance()
    rows = benchmark.pedantic(lambda: ablate_partition_size(problem), rounds=1, iterations=1)
    times = {r[0]: r[1] for r in rows}
    assert times[200] < times[1000], "huge blocks serialize the wavefront"


def test_ablation_contention_creates_crossover(benchmark):
    problem = swgg_instance()
    rows = benchmark.pedantic(lambda: ablate_contention(problem), rounds=1, iterations=1)
    t = {(g, n): m for g, n, _, m in rows}
    # Without contention, packing onto 4 nodes is at least as good at 40
    # cores; with strong contention 5 nodes win — the crossover's cause.
    assert t[(0.0, 4)] <= t[(0.0, 5)] * 1.02
    assert t[(0.08, 5)] < t[(0.08, 4)]


def test_ablation_link_speed(benchmark):
    problem = swgg_instance()
    rows = benchmark.pedantic(lambda: ablate_link(problem), rounds=1, iterations=1)
    assert rows[0][1] < rows[1][1], "slower fabric must cost time"


def test_ablation_heterogeneity_punishes_static(benchmark):
    problem = swgg_instance()
    rows = benchmark.pedantic(lambda: ablate_heterogeneity(problem), rounds=1, iterations=1)
    ratios = [r[3] for r in rows]
    assert ratios[-1] > ratios[0], "BCW penalty must grow with node skew"


def test_ablation_fault_overhead(benchmark):
    problem = swgg_instance()
    rows = benchmark.pedantic(lambda: ablate_faults(problem), rounds=1, iterations=1)
    clean, p2, p10 = (r[1] for r in rows)
    assert clean < p2 < p10, "more faults, more recovery time"


def main(seq_len: int = BENCH_SEQ_LEN) -> str:
    problem = swgg_instance(seq_len)
    blocks = [
        "## Ablations (SWGG, Experiment_4_22 unless noted)\n",
        ascii_table(["scheduler", "makespan (s)", "idle-while-ready (s)", "util"],
                    ablate_scheduler(problem)),
        "",
        ascii_table(["process partition", "makespan (s)"], ablate_partition_size(problem)),
        "",
        ascii_table(["contention gamma", "nodes", "cores", "makespan (s)"],
                    ablate_contention(problem)),
        "",
        ascii_table(["link", "makespan (s)"], ablate_link(problem)),
        "",
        ascii_table(["slow-node factor", "dynamic (s)", "bcw (s)", "bcw/dyn"],
                    ablate_heterogeneity(problem)),
        "",
        ascii_table(["fault injection", "makespan (s)"], ablate_faults(problem)),
    ]
    out = "\n".join(blocks)
    print(out)
    return out


if __name__ == "__main__":
    main()
