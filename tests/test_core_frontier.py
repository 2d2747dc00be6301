"""The dispatch core's frontier, held to the Section IV-E reference parser.

The core is the runtime's only answer to "what is computable": its
initial :meth:`~repro.runtime.dispatch.DispatchCore.frontier`, what each
``commit`` releases, and the frontier an ``Invalidate`` carries. A shell
that follows only those answers over a seeded random sequence of commits
and taints must hold exactly what a fresh :class:`DAGParser`, replayed
from ``core.committed`` in topological order, calls computable — and
every answer comes in the parser's order.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.floyd_warshall import FloydWarshallPattern
from repro.dag.library import (
    ChainPattern,
    CustomPattern,
    TriangularPattern,
    WavefrontPattern,
)
from repro.dag.parser import DAGParser
from tests.test_dispatch_core import bare_core

PATTERNS = {
    "wavefront": WavefrontPattern(4, 5),
    "triangular": TriangularPattern(5),
    "chain": ChainPattern(12),
    # Anti-dependence edges: a round-t writer waits for every round-(t-1)
    # reader of the strip it overwrites.
    "floyd-warshall": FloydWarshallPattern(3),
    # A fan-out / fan-in whose successors are listed numerically while the
    # parser orders non-grid ids by repr: (10,) and (11,) before (9,).
    "custom-fan": CustomPattern({
        (0,): [], (9,): [(0,)], (10,): [(0,)], (11,): [(0,)],
        (12,): [(9,), (10,), (11,)],
    }),
}


def reference(pattern, committed):
    parser = DAGParser(pattern)
    for vid in pattern.topological_order():
        if vid in committed:
            parser.complete(vid)
    return parser.computable()


def in_reference_order(tasks, expected) -> bool:
    return list(tasks) == [v for v in expected if v in set(tasks)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_frontier_matches_reference_parser(name, seed):
    pattern = PATTERNS[name]
    rng = random.Random(seed)
    core = bare_core(1, task_timeout=1.0, max_retries=0, pattern=pattern)
    ready = core.frontier()
    assert ready == reference(pattern, {})
    for step in range(4 * pattern.n_vertices()):
        if not ready:
            break
        # Taints come early enough to hit closures of every size; the
        # tail only commits, so every sequence drains.
        if core.committed and step < 2 * pattern.n_vertices() and rng.random() < 0.2:
            (inv,) = core.taint(rng.choice(sorted(core.committed)))
            ready = [t for t in ready if core.inputs_committed(t)] + list(inv.frontier)
            released = inv.frontier
        else:
            released, _ = core.commit(ready.pop(rng.randrange(len(ready))), step, 0)
            ready += released
        expected = reference(pattern, core.committed)
        assert in_reference_order(released, expected)
        assert sorted(ready) == sorted(expected)
        assert core.frontier() == expected
        assert core.n_remaining == pattern.n_vertices() - len(core.committed)
    assert not ready and not core.n_remaining
