"""``simulate_level``'s outputs, pinned bit for bit.

Every Fig 13–17 makespan the simulated backend reports is a sum of
thread-level makespans, so the list scheduler must make the same picks
in the same order and reach every time value through the same float
operations. ``sim-fig13`` only runs the ``dynamic`` policy; this table
holds the other three to their recorded numbers too, on five pattern
families, at one, three and eleven workers, plus one case with a
per-task overhead. The values were recorded before the scheduler was
rewritten over the compiled parser and are compared with ``==``.
"""

from __future__ import annotations

import random

import pytest

from repro.backends.simulated import simulate_level
from repro.dag.library import (
    ChainPattern,
    CustomPattern,
    RowColPrefixPattern,
    TriangularPattern,
    WavefrontPattern,
)
from repro.dag.parser import DAGParser
from repro.schedulers.policy import POLICIES, make_policy

#: A node's thread rate at the paper's contention (flops per second).
RATE = 1.0e9 * 0.83


def _swgg_costs(pattern, r0=400, c0=1200, edge=10):
    """SWGG's i + j cell cost over the 20 x 20 sub-blocks of a 200 x 200
    block at global origin ``(r0, c0)`` — ``region_flops`` of each
    ``edge``-wide sub-block over the node rate."""
    costs = {}
    for i, j in pattern.vertices():
        rows = range(r0 + i * edge, r0 + (i + 1) * edge)
        cols = range(c0 + j * edge, c0 + (j + 1) * edge)
        mean_i = (rows.start + 1 + rows.stop) / 2.0
        mean_j = (cols.start + 1 + cols.stop) / 2.0
        costs[(i, j)] = edge * edge * (mean_i + mean_j) / RATE
    return costs


def _random_costs(pattern, seed):
    rng = random.Random(seed)
    return {v: rng.uniform(0.5, 3.0) / RATE for v in pattern.vertices()}


def _cases():
    wave = WavefrontPattern(20, 20)
    rowcol = RowColPrefixPattern(7, 9, row_reversed=True)
    tri = TriangularPattern(12)
    chain = ChainPattern(15)
    # Fan-out / fan-in with ids the parser orders by repr: (10,), (11,)
    # before (9,).
    custom = CustomPattern({
        (0,): [], (9,): [(0,)], (10,): [(0,)], (11,): [(0,)], (4,): [(0,)],
        (12,): [(9,), (10,)], (13,): [(11,), (4,)], (14,): [(12,), (13,)],
    })
    return {
        "wavefront-swgg": (wave, _swgg_costs(wave)),
        "rowcol": (rowcol, _random_costs(rowcol, 1)),
        "triangular": (tri, _random_costs(tri, 2)),
        "chain": (chain, _random_costs(chain, 3)),
        "custom": (custom, _random_costs(custom, 4)),
    }


CASES = _cases()


def _policy(name, t, pattern):
    n_columns = max(v[-1] for v in pattern.vertices()) + 1
    neighbors = {v: pattern.predecessors(v) + pattern.successors(v) for v in pattern.vertices()}
    return make_policy(name, t, n_columns, neighbor_fn=neighbors.__getitem__)


def run_case(pattern_name, policy_name, t, overhead=0.0):
    pattern, costs = CASES[pattern_name]
    policy = _policy(policy_name, t, pattern)
    return simulate_level(pattern, costs, t, policy, overhead=overhead)


#: (pattern, policy, workers) -> (makespan, busy, idle_while_ready).
EXPECTED = {
    ('chain', 'dynamic', 1): (3.075129943812295e-08, 3.075129943812295e-08, 0.0),
    ('chain', 'dynamic', 3): (3.075129943812295e-08, 3.075129943812295e-08, 0.0),
    ('chain', 'dynamic', 11): (3.075129943812295e-08, 3.075129943812295e-08, 0.0),
    ('chain', 'dynamic-affinity', 1): (3.075129943812295e-08, 3.075129943812295e-08, 0.0),
    ('chain', 'dynamic-affinity', 3): (3.075129943812295e-08, 3.075129943812295e-08, 0.0),
    ('chain', 'dynamic-affinity', 11): (3.075129943812295e-08, 3.075129943812295e-08, 0.0),
    ('chain', 'bcw', 1): (3.075129943812295e-08, 3.075129943812295e-08, 0.0),
    ('chain', 'bcw', 3): (3.075129943812295e-08, 3.075129943812295e-08, 0.0),
    ('chain', 'bcw', 11): (3.075129943812295e-08, 3.075129943812295e-08, 0.0),
    ('chain', 'cw', 1): (3.075129943812295e-08, 3.075129943812295e-08, 0.0),
    ('chain', 'cw', 3): (3.075129943812295e-08, 3.075129943812295e-08, 0.0),
    ('chain', 'cw', 11): (3.075129943812295e-08, 3.075129943812295e-08, 0.0),
    ('custom', 'dynamic', 1): (1.4086620910028414e-08, 1.4086620910028414e-08, 0.0),
    ('custom', 'dynamic', 3): (8.607293730577343e-09, 1.4086620910028414e-08, 0.0),
    ('custom', 'dynamic', 11): (8.607293730577343e-09, 1.4086620910028414e-08, 0.0),
    ('custom', 'dynamic-affinity', 1): (1.4086620910028414e-08, 1.4086620910028414e-08, 0.0),
    ('custom', 'dynamic-affinity', 3): (8.607293730577343e-09, 1.4086620910028414e-08, 0.0),
    ('custom', 'dynamic-affinity', 11): (8.607293730577343e-09, 1.4086620910028414e-08, 0.0),
    ('custom', 'bcw', 1): (1.4086620910028414e-08, 1.4086620910028414e-08, 0.0),
    ('custom', 'bcw', 3): (1.1488508445298683e-08, 1.4086620910028414e-08, 5.962857880562044e-09),
    ('custom', 'bcw', 11): (8.607293730577343e-09, 1.4086620910028416e-08, 0.0),
    ('custom', 'cw', 1): (1.4086620910028414e-08, 1.4086620910028414e-08, 0.0),
    ('custom', 'cw', 3): (1.13781140520724e-08, 1.4086620910028414e-08, 4.65943519606251e-09),
    ('custom', 'cw', 11): (1.0419314858544436e-08, 1.4086620910028414e-08, 3.0507403234340555e-08),
    ('rowcol', 'dynamic', 1): (1.2959508883845167e-07, 1.2959508883845167e-07, 0.0),
    ('rowcol', 'dynamic', 3): (5.0118680953114914e-08, 1.2959508883845162e-07, 0.0),
    ('rowcol', 'dynamic', 11): (3.7109129301012107e-08, 1.2959508883845165e-07, 0.0),
    ('rowcol', 'dynamic-affinity', 1): (1.2959508883845167e-07, 1.2959508883845167e-07, 0.0),
    ('rowcol', 'dynamic-affinity', 3): (5.0118680953114914e-08, 1.2959508883845162e-07, 0.0),
    ('rowcol', 'dynamic-affinity', 11): (3.7109129301012107e-08, 1.2959508883845165e-07, 0.0),
    ('rowcol', 'bcw', 1): (1.2959508883845167e-07, 1.2959508883845167e-07, 0.0),
    ('rowcol', 'bcw', 3): (5.3487037060103793e-08, 1.2959508883845165e-07, 8.49467103480136e-09),
    ('rowcol', 'bcw', 11): (3.7109129301012107e-08, 1.2959508883845162e-07, 0.0),
    ('rowcol', 'cw', 1): (1.2959508883845167e-07, 1.2959508883845167e-07, 0.0),
    ('rowcol', 'cw', 3): (5.981112718476253e-08, 1.2959508883845162e-07, 2.4566887867222677e-08),
    ('rowcol', 'cw', 11): (3.7109129301012107e-08, 1.2959508883845162e-07, 0.0),
    ('triangular', 'dynamic', 1): (1.785755112385672e-07, 1.785755112385672e-07, 0.0),
    ('triangular', 'dynamic', 3): (6.736516034096446e-08, 1.7857551123856722e-07, 0.0),
    ('triangular', 'dynamic', 11): (3.268178292801465e-08, 1.7857551123856714e-07, 0.0),
    ('triangular', 'dynamic-affinity', 1): (1.785755112385672e-07, 1.785755112385672e-07, 0.0),
    ('triangular', 'dynamic-affinity', 3): (6.736516034096446e-08, 1.7857551123856722e-07, 0.0),
    ('triangular', 'dynamic-affinity', 11): (3.268178292801465e-08, 1.7857551123856714e-07, 0.0),
    ('triangular', 'bcw', 1): (1.785755112385672e-07, 1.785755112385672e-07, 0.0),
    ('triangular', 'bcw', 3): (6.721439091397349e-08, 1.785755112385672e-07, 1.225051787468731e-08),
    ('triangular', 'bcw', 11): (3.268178292801465e-08, 1.7857551123856714e-07, 6.153696056157508e-09),
    ('triangular', 'cw', 1): (1.785755112385672e-07, 1.785755112385672e-07, 0.0),
    ('triangular', 'cw', 3): (9.285263291027631e-08, 1.7857551123856714e-07, 6.735432186139259e-08),
    ('triangular', 'cw', 11): (5.009225496137883e-08, 1.7857551123856714e-07, 2.7885875271191613e-07),
    ('wavefront-swgg', 'dynamic', 1): (0.08679518072289155, 0.08679518072289155, 0.0),
    ('wavefront-swgg', 'dynamic', 3): (0.030656746987951792, 0.0867951807228916, 0.0),
    ('wavefront-swgg', 'dynamic', 11): (0.010458795180722891, 0.08679518072289136, 0.0),
    ('wavefront-swgg', 'dynamic-affinity', 1): (0.08679518072289155, 0.08679518072289155, 0.0),
    ('wavefront-swgg', 'dynamic-affinity', 3): (0.030656746987951792, 0.0867951807228916, 0.0),
    ('wavefront-swgg', 'dynamic-affinity', 11): (0.010458795180722891, 0.08679518072289136, 0.0),
    ('wavefront-swgg', 'bcw', 1): (0.08679518072289155, 0.08679518072289155, 0.0),
    ('wavefront-swgg', 'bcw', 3): (0.030656746987951792, 0.0867951807228916, 0.0),
    ('wavefront-swgg', 'bcw', 11): (0.010458795180722891, 0.08679518072289136, 0.0),
    ('wavefront-swgg', 'cw', 1): (0.08679518072289155, 0.08679518072289155, 0.0),
    ('wavefront-swgg', 'cw', 3): (0.07852674698795178, 0.08679518072289157, 0.13227349397590357),
    ('wavefront-swgg', 'cw', 11): (0.04969024096385542, 0.08679518072289158, 0.3770274698795179),
}

#: One overhead case: the 20 x 20 SWGG wavefront, dynamic, 3 workers.
OVERHEAD = 3.7e-07
EXPECTED_OVERHEAD = (0.030708916987951803, 0.0869431807228916, 0.0)


@pytest.mark.parametrize("t", [1, 3, 11])
@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("pattern_name", sorted(CASES))
def test_outputs_are_pinned(pattern_name, policy_name, t):
    assert run_case(pattern_name, policy_name, t) == EXPECTED[(pattern_name, policy_name, t)]


def test_overhead_is_pinned():
    assert run_case("wavefront-swgg", "dynamic", 3, OVERHEAD) == EXPECTED_OVERHEAD


def test_compiled_parser_is_reusable():
    """A parser compiled once and handed to several schedules (as the
    simulated backend does per block shape) gives what a fresh parse of
    the pattern gives, every time."""
    pattern, costs = CASES["wavefront-swgg"]
    parser = DAGParser(pattern)
    for t in (1, 3, 11):
        policy = _policy("bcw", t, pattern)
        assert simulate_level(parser, costs, t, policy) == EXPECTED[("wavefront-swgg", "bcw", t)]
