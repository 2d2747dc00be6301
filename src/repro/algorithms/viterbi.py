"""Viterbi decoding of a hidden Markov model — a 1D chain DP.

``delta[t, s] = max_{s'} delta[t-1, s'] + logA[s', s] + logB[s, o_t]``

The DAG is a pure chain over time blocks (the library's
:class:`ChainPattern`): no two blocks can run concurrently, so this
workload is the honest degenerate case of DP parallelization — EasyHPS
schedules it correctly but cannot speed it up, which the chain-pattern
tests and the ablation bench use as a negative control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.algorithms.problem import ELEMENT_BYTES, BlockEvaluator, DPProblem, InputRegion, Region
from repro.dag.library import ChainPattern
from repro.dag.partition import Partition
from repro.dag.pattern import VertexId


@dataclass(frozen=True)
class ViterbiResult:
    """Final answer: the most probable state path and its log-probability."""

    log_prob: float
    path: Tuple[int, ...]


class _ViterbiEvaluator(BlockEvaluator):
    """Computes delta/psi rows for one time block given the previous row."""

    def __init__(
        self, problem: "ViterbiDecoding", t_range: range, prev: np.ndarray | None
    ) -> None:
        self._p = problem
        self._t_range = t_range
        self._prev = prev
        h = len(t_range)
        self._delta = np.empty((h, problem.n_states), dtype=np.float64)
        self._psi = np.zeros((h, problem.n_states), dtype=np.int64)

    def run_subblock(self, local_rows: range, local_cols: range) -> None:
        p = self._p
        for a in local_rows:
            t = self._t_range.start + a
            obs_scores = p.log_b[:, p.obs[t]]
            if t == 0:
                self._delta[a] = p.log_pi + obs_scores
                continue
            prev = self._prev if a == 0 else self._delta[a - 1]
            cand = prev[:, None] + p.log_a  # cand[s', s]
            self._psi[a] = np.argmax(cand, axis=0)
            self._delta[a] = cand[self._psi[a], np.arange(p.n_states)] + obs_scores

    def outputs(self) -> Dict[str, np.ndarray]:
        return {"delta": self._delta, "psi": self._psi}


class ViterbiDecoding(DPProblem):
    """Most-probable-path decoding under EasyHPS.

    Parameters are log-space HMM matrices: ``log_pi (S,)``,
    ``log_a (S, S)`` transitions, ``log_b (S, V)`` emissions, and an
    integer observation sequence ``obs (T,)`` over vocabulary ``V``.
    """

    name = "viterbi"
    size = property(lambda self: self.T)

    def __init__(
        self,
        log_pi: np.ndarray,
        log_a: np.ndarray,
        log_b: np.ndarray,
        obs: np.ndarray,
    ) -> None:
        self.log_pi = np.asarray(log_pi, dtype=np.float64)
        self.log_a = np.asarray(log_a, dtype=np.float64)
        self.log_b = np.asarray(log_b, dtype=np.float64)
        self.obs = np.asarray(obs, dtype=np.int64)
        S = self.log_pi.shape[0]
        if self.log_a.shape != (S, S):
            raise ValueError(f"log_a must be ({S}, {S}), got {self.log_a.shape}")
        if self.log_b.shape[0] != S:
            raise ValueError(f"log_b must have {S} rows, got {self.log_b.shape}")
        if self.obs.ndim != 1 or self.obs.size == 0:
            raise ValueError("obs must be a non-empty 1D sequence")
        if self.obs.min() < 0 or self.obs.max() >= self.log_b.shape[1]:
            raise ValueError("observation symbols outside emission vocabulary")
        self.n_states = S
        self.T = int(self.obs.size)

    @classmethod
    def random(
        cls, T: int, n_states: int = 4, n_symbols: int = 6, seed: int | None = None
    ) -> "ViterbiDecoding":
        """A random (row-normalized) HMM with a random observation string."""
        rng = np.random.default_rng(seed)

        def log_rows(shape):
            m = rng.random(shape) + 0.05
            return np.log(m / m.sum(axis=-1, keepdims=True))

        return cls(
            log_pi=log_rows(n_states),
            log_a=log_rows((n_states, n_states)),
            log_b=log_rows((n_states, n_symbols)),
            obs=rng.integers(0, n_symbols, size=T),
        )

    # -- structure -------------------------------------------------------------

    def pattern(self) -> ChainPattern:
        return ChainPattern(self.T)

    def default_partition_sizes(self, threads=1, process_partition=None):
        proc = process_partition or max(1, self.T // 8)
        return super().default_partition_sizes(threads, proc)

    # -- data flow ----------------------------------------------------------------

    def make_state(self) -> Dict[str, np.ndarray]:
        return {
            "delta": np.zeros((self.T, self.n_states), dtype=np.float64),
            "psi": np.zeros((self.T, self.n_states), dtype=np.int64),
        }

    def input_regions(self, partition: Partition, bid: VertexId) -> Dict[str, InputRegion]:
        rows, _ = partition.block_ranges(bid)
        if rows.start == 0:
            return {}  # t = 0 starts from log_pi, not from a previous row
        return {"prev": ("delta", rows.start - 1, None, 0, self.n_states, None)}

    def output_regions(self, partition: Partition, bid: VertexId) -> Dict[str, Region]:
        rows, _ = partition.block_ranges(bid)
        return {
            "delta": ("delta", rows.start, rows.stop, 0, self.n_states),
            "psi": ("psi", rows.start, rows.stop, 0, self.n_states),
        }

    def evaluator(
        self, partition: Partition, bid: VertexId, inputs: Dict[str, np.ndarray]
    ) -> _ViterbiEvaluator:
        rows, _ = partition.block_ranges(bid)
        return _ViterbiEvaluator(self, rows, inputs.get("prev"))

    def finalize(self, state: Dict[str, np.ndarray]) -> ViterbiResult:
        delta, psi = state["delta"], state["psi"]
        path = [int(np.argmax(delta[self.T - 1]))]
        for t in range(self.T - 1, 0, -1):
            path.append(int(psi[t, path[-1]]))
        path.reverse()
        return ViterbiResult(log_prob=float(np.max(delta[self.T - 1])), path=tuple(path))

    # -- reference -------------------------------------------------------------------

    def reference(self) -> float:
        """Independent pure-Python implementation of the best log-prob."""
        prev = [float(self.log_pi[s] + self.log_b[s, self.obs[0]]) for s in range(self.n_states)]
        for t in range(1, self.T):
            cur = []
            for s in range(self.n_states):
                best = max(prev[sp] + float(self.log_a[sp, s]) for sp in range(self.n_states))
                cur.append(best + float(self.log_b[s, self.obs[t]]))
            prev = cur
        return max(prev)

    # -- cost model ---------------------------------------------------------------------

    def region_flops(self, rows: range, cols: range, diagonal: bool = False) -> float:
        return float(len(rows)) * self.n_states * self.n_states

    def output_bytes(self, partition: Partition, bid: VertexId) -> int:
        rows, _ = partition.block_ranges(bid)
        return 2 * ELEMENT_BYTES * len(rows) * self.n_states

    def __repr__(self) -> str:
        return f"ViterbiDecoding(T={self.T}, states={self.n_states})"
