"""Benchmarks of the extension features (beyond the paper's evaluation).

- boundary-retention memory mode: peak master memory vs the dense matrix
  (the paper's stated future-work item, quantified);
- slave-side input caching (``data_reuse``, with and without the
  affinity pool): bytes shipped to slaves;
- the chain pattern (Viterbi) as a parallelization negative control:
  adding nodes must NOT help a pure chain.
"""

from __future__ import annotations

import pytest

from benchmarks.common import BENCH_SEQ_LEN, PAPER_PARTITION
from repro import RunConfig
from repro.algorithms import EditDistance, ViterbiDecoding
from repro.analysis.tables import ascii_table
from repro.backends.simulated import run_simulated
from repro.dag.partition import partition_pattern


def boundary_memory_rows(n: int = 2000):
    ed = EditDistance.random(n, n, seed=1)
    compact = EditDistance(ed.a, ed.b, retain="boundary")
    part = partition_pattern(compact.pattern(), 200)
    state = compact.make_state()
    for bid in part.abstract.topological_order():
        inputs = compact.extract_inputs(state, part, bid)
        outputs = compact.evaluator(part, bid, inputs).run_serial(
            part.sub_partition(bid, 50)
        )
        compact.apply_result(state, part, bid, outputs)
    res = compact.finalize(state)
    return [
        ["dense matrix bytes", res.dense_bytes],
        ["boundary peak bytes", res.peak_bytes],
        ["reduction factor", round(res.reduction, 1)],
    ]


def reuse_rows(seq_len: int):
    from benchmarks.common import swgg_instance

    problem = swgg_instance(seq_len)
    rows = []
    for label, kw in (
        ("no reuse (paper model)", {}),
        ("data_reuse", dict(data_reuse=True)),
        ("data_reuse + affinity", dict(data_reuse=True, scheduler="dynamic-affinity")),
    ):
        cfg = RunConfig.experiment(5, 33, **PAPER_PARTITION, **kw)
        _, rep = run_simulated(problem, cfg)
        rows.append([label, rep.makespan, round(rep.bytes_to_slaves / 1e9, 2)])
    return rows


def chain_rows(T: int = 5000):
    vi = ViterbiDecoding.random(T, n_states=8, seed=1)
    rows = []
    for nodes, cores in ((2, 6), (3, 11), (5, 21)):
        cfg = RunConfig.experiment(nodes, cores, process_partition=250, thread_partition=50)
        _, rep = run_simulated(vi, cfg)
        rows.append([nodes, cores, rep.makespan])
    return rows


# -- pytest-benchmark entry points --------------------------------------------------


def test_boundary_memory_reduction(benchmark):
    rows = benchmark.pedantic(lambda: boundary_memory_rows(800), rounds=1, iterations=1)
    stats = {r[0]: r[1] for r in rows}
    assert stats["boundary peak bytes"] * 5 < stats["dense matrix bytes"]


def test_data_reuse_halves_swgg_traffic(benchmark):
    rows = benchmark.pedantic(lambda: reuse_rows(BENCH_SEQ_LEN), rounds=1, iterations=1)
    t = {r[0]: r[2] for r in rows}
    assert t["data_reuse"] < t["no reuse (paper model)"] * 0.75


def test_chain_gains_nothing_from_nodes(benchmark):
    rows = benchmark.pedantic(lambda: chain_rows(2000), rounds=1, iterations=1)
    times = [r[2] for r in rows]
    # A pure chain cannot speed up; more nodes only add communication.
    assert max(times) <= min(times) * 1.25
    assert times[-1] >= times[0] * 0.95


def main(seq_len: int = BENCH_SEQ_LEN) -> str:
    blocks = [
        "## Extensions (beyond the paper)\n",
        "Boundary-retention memory mode (edit distance, n=2000, blocks 200/50):",
        ascii_table(["metric", "value"], boundary_memory_rows()),
        "",
        "Slave-side input caching (SWGG, Experiment_5_33):",
        ascii_table(["mode", "makespan (s)", "bytes to slaves (GB)"], reuse_rows(seq_len)),
        "",
        "Chain-pattern negative control (Viterbi, T=5000, 8 states):",
        ascii_table(["nodes", "cores", "makespan (s)"], chain_rows()),
        "",
        "Readings: compaction reduces master memory by the block-grid",
        "factor; a chain DP gains nothing from more nodes.",
    ]
    out = "\n".join(blocks)
    print(out)
    return out


if __name__ == "__main__":
    main()
