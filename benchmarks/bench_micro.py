"""Micro-benchmarks of the runtime's hot paths.

Not a paper figure — these keep the substrate honest: DAG parsing
throughput, kernel cell rates, the thread-level list scheduler, and
transport round-trips. pytest-benchmark reports ops/sec.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import EditDistance, Nussinov
from repro.algorithms.kernels import edit_distance_region, nussinov_region, swgg_region
from repro.comm.messages import TaskAssign
from repro.comm.transport import channel_pair
from repro.dag.library import TriangularPattern, WavefrontPattern
from repro.dag.parser import DAGParser
from repro.dag.partition import partition_pattern
from repro.backends.simulated import simulate_level
from repro.schedulers.policy import make_policy


def test_parser_drain_2500_blocks(benchmark):
    """Parsing the paper-scale abstract DAG (50x50 blocks)."""
    pattern = WavefrontPattern(50, 50)

    def drain():
        return len(DAGParser(pattern).run_all())

    assert benchmark(drain) == 2500


def test_partition_triangular_paper_scale(benchmark):
    pattern = TriangularPattern(10000)
    part = benchmark(lambda: partition_pattern(pattern, 200))
    assert part.n_blocks == 50 * 51 // 2


def _ns_per_cell(benchmark, capsys, kernel: str, region: int) -> None:
    """Cost per cell is set by region size (numpy calls per row), so the
    kernel rows are a curve over it; print the point next to the table,
    which is per call."""
    if benchmark.stats is None:  # --benchmark-disable: ran once, untimed
        return
    ns = benchmark.stats["mean"] * 1e9 / (region * region)
    with capsys.disabled():
        print(f"\n  {kernel} r={region}: {ns:.1f} ns/cell")


@pytest.mark.parametrize("region", [1, 2, 4, 25, 62, 125, 250])
def test_edit_distance_kernel_cells_per_second(benchmark, capsys, region):
    """Edit distance n = 2000 (250-wide blocks): the default thread
    partition at one (250) and two (125) computing threads a node, beside
    the quarter block (62) it was before and n = 800's quarter block (25).
    The default rests on this curve only falling as regions grow. 1, 2
    and 4 are the serve daemon's small-job blocks, where the bit-parallel
    kernel's fixed cost per call shows."""
    D = np.zeros((region + 1, region + 1))
    D[0, :] = np.arange(region + 1)
    D[:, 0] = np.arange(region + 1)
    sub = np.random.default_rng(0).random((region, region)).round()

    benchmark(lambda: edit_distance_region(D, sub, range(region), range(region)))
    _ns_per_cell(benchmark, capsys, "edit_distance_region", region)


def _swgg_block(origin: int, gap_fn, block: int = 50):
    """A real ``block x block`` block of an SWGG table at matrix cell
    ``(origin, origin)``: its strips as the problem class ships them."""
    rng = np.random.default_rng(0)
    m = origin + block
    scores = rng.choice([2.0, -1.0], size=(m, m))
    gap = gap_fn(np.arange(m + 1.0))
    gap[0] = 1e30
    H, Hloc = np.zeros((m + 1, m + 1)), np.zeros((m + 1, m + 1))
    swgg_region(Hloc, H[1:, 0:1], H[0:1, 1:], scores, gap, 1, 1, range(m), range(m))
    H[1:, 1:] = Hloc[1:, 1:]
    o, e = origin, origin + block
    Hloc = H[o - 1 : e, o - 1 : e].copy()
    sub = np.ascontiguousarray(scores[o - 1 : e - 1, o - 1 : e - 1])
    return Hloc, H[o:e, 0:o].copy(), H[0:o, o:e].copy(), sub, gap, o, o


@pytest.mark.parametrize("region", [12, 25, 50])
def test_swgg_kernel_cells_per_second(benchmark, capsys, region):
    """A region of a mid-matrix 50 x 50 block of SWGG n = 400 (200-cell
    row and column prefixes): the default thread partition at one (50) and
    two (25) computing threads a node, beside the old quarter block (12)."""
    block, origin = 50, 200
    rng = np.random.default_rng(0)
    Hloc = rng.random((block + 1, block + 1))
    Hrow, Hcol = rng.random((block, origin)), rng.random((origin, block))
    sub = rng.random((block, block))
    gap = 2.0 + 0.5 * np.arange(origin + block + 2)
    rows = cols = range(region)

    benchmark(lambda: swgg_region(Hloc, Hrow, Hcol, sub, gap, origin, origin, rows, cols))
    _ns_per_cell(benchmark, capsys, "swgg_region", region)


@pytest.mark.parametrize("gap_name,origin", [("quadratic", 175), ("affine", 350)])
def test_swgg_kernel_real_block(benchmark, capsys, gap_name, origin):
    """A whole 50 x 50 block cut from a real table. ``quadratic``
    (``0.05 d**2``, superadditive) needs more than two sweeps on most rows,
    so it times the push-loop tail; ``affine`` at 350-cell prefixes times
    a deep origin, where the two prefix reductions dominate."""
    gap_fn = {"quadratic": lambda d: 0.05 * d * d, "affine": lambda d: 2.0 + 0.5 * d}[gap_name]
    Hloc, Hrow, Hcol, sub, gap, c0, r0 = _swgg_block(origin, gap_fn)
    rows = cols = range(50)

    benchmark(lambda: swgg_region(Hloc, Hrow, Hcol, sub, gap, c0, r0, rows, cols))
    _ns_per_cell(benchmark, capsys, f"swgg_region {gap_name} prefixes {origin}", 50)


def test_nussinov_kernel_block(benchmark):
    n = 96
    can = np.triu(np.random.default_rng(0).random((n, n)) < 0.4, 1)

    def run():
        W = np.zeros((n, n))
        nussinov_region(W, can, 0, range(n), range(n))
        return W[0, n - 1]

    benchmark(run)


def test_simulate_level_400_tasks(benchmark):
    """The memoized thread-level scheduler (one inner DAG of paper shape)."""
    pattern = WavefrontPattern(20, 20)
    costs = {v: 0.001 for v in pattern.vertices()}
    policy = make_policy("dynamic", 11, 20)

    benchmark(lambda: simulate_level(pattern, costs, 11, policy))


def _swgg_inner_run():
    """A ``sim-fig13`` configuration's simulated run, before it runs:
    SWGG n = 10000, 200 / 10 partitions, Experiment_2_14 (11 computing
    threads on the one computing node)."""
    from repro.algorithms import SmithWatermanGG
    from repro.backends.simulated import _SimulatedRun
    from repro.runtime.config import RunConfig

    problem = SmithWatermanGG.random(10000, seed=1)
    config = RunConfig.experiment(2, 14, process_partition=200, thread_partition=10)
    return _SimulatedRun(problem, config)


def test_simulate_level_swgg_costs(benchmark):
    """What ``sim-fig13`` schedules: one 20 x 20 inner DAG with SWGG's
    i + j sub-block costs (a mid-matrix block) on 11 threads, over a
    parser compiled once."""
    run = _swgg_inner_run()
    bid = (10, 20)
    parser, ranges, n_cols = run._level(bid)
    spec = run.nodes[0].spec
    rate = spec.flops_per_second * spec.thread_efficiency(spec.threads)
    flops = run.problem.subblock_costs(run.partition, bid, ranges)
    costs = {sub: f / rate for sub, f in zip(parser.vertex_ids, flops)}
    policy = make_policy("dynamic", spec.threads, n_cols)

    benchmark(lambda: simulate_level(parser, costs, spec.threads, policy))


def test_subblock_costs_swgg_block(benchmark):
    """One cold cost class's sub-block costs: a single ``subblock_costs``
    call over the 400 sub-blocks of a mid-matrix 200 / 10 SWGG block."""
    run = _swgg_inner_run()
    bid = (10, 20)
    _parser, ranges, _n_cols = run._level(bid)

    benchmark(lambda: run.problem.subblock_costs(run.partition, bid, ranges))


def test_simulated_inner_cold_class(benchmark):
    """One cold ``_SimulatedRun._inner`` cost class: its 400 sub-block
    costs plus the schedule (the shape's compile is already paid)."""
    run = _swgg_inner_run()
    spec = run.nodes[0].spec
    run._inner((0, 0), spec)  # compiles the block shape

    def cold():
        run._inner_memo.clear()
        return run._inner((10, 20), spec)

    benchmark(cold)


def test_queue_channel_round_trip(benchmark):
    a, b = channel_pair()
    payload = {"x": np.zeros(1000)}

    def round_trip():
        a.send(TaskAssign((0, 0), 0, payload))
        return b.recv(timeout=1.0)

    benchmark(round_trip)


def test_extract_inputs_swgg_like(benchmark):
    """Master-side input slicing for a mid-matrix block."""
    from repro.algorithms import SmithWatermanGG

    sw = SmithWatermanGG.random(2000, seed=0)
    part = partition_pattern(sw.pattern(), 200)
    state = sw.make_state()

    benchmark(lambda: sw.extract_inputs(state, part, (5, 5)))


def test_block_evaluation_edit_distance(benchmark):
    ed = EditDistance.random(512, 512, seed=0)
    part = partition_pattern(ed.pattern(), 128)
    state = ed.make_state()
    inputs = ed.extract_inputs(state, part, (0, 0))
    inner = part.sub_partition((0, 0), 32)

    def evaluate():
        return ed.evaluator(part, (0, 0), inputs).run_serial(inner)

    benchmark(evaluate)


@pytest.mark.parametrize("mode", ["inline", "pool"])
@pytest.mark.parametrize("edge", [2, 32, 250])
def test_block_inline_vs_pool(benchmark, edge, mode):
    """One edit-distance block on a two-thread slave: left whole and
    computed by the thread that received it, vs cut 2 x 2 and handed to the
    worker pool (explicit thread sizes: the default cuts only the 250). The
    difference / 4 is the handoff a region has to cover; ``repro calibrate``
    prints the same."""
    from repro.runtime.config import RunConfig
    from repro.runtime.slave import SlavePart

    ed = EditDistance.random(8 * edge, 8 * edge, seed=0)
    thread_partition = edge if mode == "inline" else edge // 2
    config = RunConfig(threads_per_node=2, thread_partition=thread_partition)
    proc, thread = config.partitions_for(ed)
    assert proc == (edge, edge)
    part = partition_pattern(ed.pattern(), proc)
    slave = SlavePart(0, channel_pair()[0], ed, part, config, thread_size=thread)
    assign = TaskAssign((0, 0), 0, ed.extract_inputs(ed.make_state(), part, (0, 0)))

    benchmark(lambda: slave._compute(assign))


def test_block_evaluation_nussinov(benchmark):
    nu = Nussinov.random(256, seed=0)
    part = partition_pattern(nu.pattern(), 64)
    state = nu.make_state()
    inputs = nu.extract_inputs(state, part, (0, 0))
    inner = part.sub_partition((0, 0), 16)

    benchmark(lambda: nu.evaluator(part, (0, 0), inputs).run_serial(inner))
