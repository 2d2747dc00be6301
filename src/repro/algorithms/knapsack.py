"""0/1 knapsack — a chain-of-rows DP.

``D[t, c] = max(D[t-1, c], D[t-1, c - w_t] + v_t)`` over items ``t`` and
capacities ``c``: each row depends on the *whole* previous row (the
back-reference ``c - w_t`` can jump arbitrarily far left), so the
schedulable DAG is a chain of item blocks, like Viterbi — another honest
"parallelize across rows is impossible, but rows vectorize" workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.algorithms.problem import ELEMENT_BYTES, BlockEvaluator, DPProblem, InputRegion, Region
from repro.dag.library import ChainPattern
from repro.dag.partition import Partition
from repro.dag.pattern import VertexId


@dataclass(frozen=True)
class KnapsackResult:
    """Final answer: best value and one optimal item subset."""

    value: float
    chosen: Tuple[int, ...]

    def total_weight(self, weights) -> int:
        return int(sum(weights[i] for i in self.chosen))


class _KnapsackEvaluator(BlockEvaluator):
    """Computes DP rows for a block of items given the previous row."""

    def __init__(self, problem: "Knapsack", t_range: range, prev: np.ndarray | None) -> None:
        self._p = problem
        self._t_range = t_range
        # The first block is shipped no row: before item 0 every capacity is worth 0.
        self._prev = np.zeros(problem.capacity + 1) if prev is None else prev
        self._rows = np.empty((len(t_range), problem.capacity + 1), dtype=np.float64)

    def run_subblock(self, local_rows: range, local_cols: range) -> None:
        p = self._p
        for a in local_rows:
            t = self._t_range.start + a
            prev = self._prev if a == 0 else self._rows[a - 1]
            row = prev.copy()
            w, v = p.weights[t], p.values[t]
            if w <= p.capacity:
                np.maximum(row[w:], prev[: p.capacity + 1 - w] + v, out=row[w:])
            self._rows[a] = row

    def outputs(self) -> Dict[str, np.ndarray]:
        return {"rows": self._rows}


class Knapsack(DPProblem):
    """0/1 knapsack under EasyHPS (chain pattern over item blocks)."""

    name = "knapsack"
    size = property(lambda self: self.n_items)

    def __init__(self, weights, values, capacity: int) -> None:
        self.weights = [int(w) for w in weights]
        self.values = [float(v) for v in values]
        if len(self.weights) != len(self.values) or not self.weights:
            raise ValueError("weights and values must be equal-length and non-empty")
        if any(w <= 0 for w in self.weights):
            raise ValueError("item weights must be positive")
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = int(capacity)
        self.n_items = len(self.weights)

    @classmethod
    def random(cls, n: int, capacity: int | None = None, seed: int | None = None) -> "Knapsack":
        rng = np.random.default_rng(seed)
        weights = rng.integers(1, 20, size=n)
        values = rng.integers(1, 50, size=n).astype(float)
        capacity = capacity if capacity is not None else int(weights.sum() // 3) + 1
        return cls(weights.tolist(), values.tolist(), capacity)

    # -- structure -------------------------------------------------------------

    def pattern(self) -> ChainPattern:
        return ChainPattern(self.n_items)

    def default_partition_sizes(self, threads=1, process_partition=None):
        proc = process_partition or max(1, self.n_items // 8)
        return super().default_partition_sizes(threads, proc)

    # -- data flow -----------------------------------------------------------------

    def make_state(self) -> Dict[str, np.ndarray]:
        return {"D": np.zeros((self.n_items, self.capacity + 1), dtype=np.float64)}

    def input_regions(self, partition: Partition, bid: VertexId) -> Dict[str, InputRegion]:
        rows, _ = partition.block_ranges(bid)
        if rows.start == 0:
            return {}
        return {"prev": ("D", rows.start - 1, None, 0, self.capacity + 1, None)}

    def output_regions(self, partition: Partition, bid: VertexId) -> Dict[str, Region]:
        rows, _ = partition.block_ranges(bid)
        return {"rows": ("D", rows.start, rows.stop, 0, self.capacity + 1)}

    def evaluator(
        self, partition: Partition, bid: VertexId, inputs: Dict[str, np.ndarray]
    ) -> _KnapsackEvaluator:
        rows, _ = partition.block_ranges(bid)
        return _KnapsackEvaluator(self, rows, inputs.get("prev"))

    def finalize(self, state: Dict[str, np.ndarray]) -> KnapsackResult:
        D = state["D"]
        chosen: List[int] = []
        c = self.capacity
        for t in range(self.n_items - 1, -1, -1):
            without = D[t - 1, c] if t > 0 else 0.0
            if not np.isclose(D[t, c], without):
                chosen.append(t)
                c -= self.weights[t]
        chosen.reverse()
        return KnapsackResult(value=float(D[self.n_items - 1, self.capacity]), chosen=tuple(chosen))

    # -- reference -------------------------------------------------------------------

    def reference(self) -> float:
        """Independent pure-Python row-rolling implementation."""
        prev = [0.0] * (self.capacity + 1)
        for w, v in zip(self.weights, self.values):
            cur = prev[:]
            for c in range(w, self.capacity + 1):
                cur[c] = max(prev[c], prev[c - w] + v)
            prev = cur
        return prev[self.capacity]

    # -- cost model ---------------------------------------------------------------------

    def region_flops(self, rows: range, cols: range, diagonal: bool = False) -> float:
        return float(len(rows)) * (self.capacity + 1)

    def output_bytes(self, partition: Partition, bid: VertexId) -> int:
        rows, _ = partition.block_ranges(bid)
        return ELEMENT_BYTES * len(rows) * (self.capacity + 1)

    def __repr__(self) -> str:
        return f"Knapsack(items={self.n_items}, capacity={self.capacity})"
