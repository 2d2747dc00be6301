"""The simulator's sub-block cost model, bit for bit.

``DPProblem.subblock_costs`` derives a block's thread-level sub-block
costs in one call: it looks up the block's global ranges and diagonal
flag once, then charges each sub-block through ``region_flops``. These
tests hold that batch to the per-sub-block definition written out here —
translate the block-local ranges to global ones, mark a sub-block that
sits on a diagonal block's diagonal as a triangle, call ``region_flops``;
for Floyd-Warshall, cells times the pivot stage's width — with ``==``, on
every block of every registered algorithm. The sizes leave a ragged last
block row and column and ragged sub-blocks inside them.
"""

import pytest

from repro.algorithms import ALGORITHMS, FloydWarshall, make_problem
from repro.algorithms.floyd_warshall import fw_block_type
from repro.dag.parser import DAGParser

#: Seed 6 samples a full 23-token CYK sentence; most seeds give the
#: arithmetic grammar one of 1-5 tokens, a single block.
SIZE, SEED, PROC, THREAD = 23, 6, 7, 3
NAMES = sorted(ALGORITHMS)


def per_subblock_cost(problem, part, bid, local_rows, local_cols):
    """One sub-block's work units, derived from scratch."""
    if isinstance(problem, FloydWarshall):
        pivot = len(part.grid.row_range(bid[0]))
        return float(len(local_rows) * len(local_cols) * pivot)
    rows, cols = part.block_ranges(bid)
    grows = range(rows.start + local_rows.start, rows.start + local_rows.stop)
    gcols = range(cols.start + local_cols.start, cols.start + local_cols.stop)
    diagonal = part.is_diagonal_block(bid) and grows == gcols
    return problem.region_flops(grows, gcols, diagonal)


def local_ranges(part, bid):
    """Each sub-block's block-local ranges, in the compiled inner DAG's
    index order (the order the simulator asks for them)."""
    inner = part.sub_partition(bid, THREAD)
    return [inner.block_ranges(sub) for sub in DAGParser(inner.abstract).vertex_ids]


def walk(name):
    """``(problem, partition, bid, ranges)`` for every block of ``name``."""
    problem = make_problem(name, SIZE, SEED)
    part = problem.build_partition(PROC)
    for bid in part.block_ids():
        yield problem, part, bid, local_ranges(part, bid)


@pytest.mark.parametrize("name", NAMES)
def test_batch_equals_per_subblock_definition(name):
    """Every block: edges, ragged last blocks, diagonal blocks, FW stages."""
    n = 0
    for problem, part, bid, ranges in walk(name):
        want = [per_subblock_cost(problem, part, bid, lr, lc) for lr, lc in ranges]
        assert problem.subblock_costs(part, bid, ranges) == want, bid
        n += 1
    assert n == part.n_blocks


@pytest.mark.parametrize("name", NAMES)
def test_costs_follow_the_order_of_the_ranges(name):
    for problem, part, bid, ranges in walk(name):
        costs = problem.subblock_costs(part, bid, ranges)
        assert problem.subblock_costs(part, bid, ranges[::-1]) == costs[::-1], bid
        assert problem.subblock_costs(part, bid, []) == []


def test_the_fixtures_reach_every_case():
    """The walk above covers what it claims: a ragged last block with
    ragged sub-blocks, and all four Floyd-Warshall stages."""
    ragged = [
        ranges
        for _problem, part, bid, ranges in walk("swgg")
        if len(part.block_ranges(bid)[0]) < PROC
    ]
    assert ragged and any(len(lr) < THREAD for rs in ragged for lr, _lc in rs)
    stages = {fw_block_type(bid) for _p, _part, bid, _r in walk("floyd-warshall")}
    assert stages == {"pivot", "row", "col", "phase3"}


@pytest.mark.parametrize("name", ["nussinov", "cyk", "matrix-chain", "optimal-bst"])
def test_the_triangle_flag_matters(name):
    """Some sub-block on a diagonal block's diagonal costs differently as
    a triangle than as a square, so the batch's diagonal flag is checked."""
    differ = 0
    for problem, part, bid, ranges in walk(name):
        if not part.is_diagonal_block(bid):
            continue
        rows, cols = part.block_ranges(bid)
        for (lr, lc), cost in zip(ranges, problem.subblock_costs(part, bid, ranges)):
            grows = range(rows.start + lr.start, rows.start + lr.stop)
            gcols = range(cols.start + lc.start, cols.start + lc.stop)
            differ += lr == lc and cost != problem.region_flops(grows, gcols, False)
    assert differ > 0
