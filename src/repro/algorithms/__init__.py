"""DP applications implemented on top of the DAG Data Driven Model.

Each algorithm is a :class:`~repro.algorithms.problem.DPProblem`: it names
its DAG pattern, knows how to split itself into blocks, what data each
block needs (the data-communication level), how to compute a block (the
``process`` function of Table I), and what a block costs — the latter
feeds the simulated cluster backend.
"""

from typing import Callable, Dict

from repro.algorithms.problem import BlockEvaluator, DPProblem
from repro.algorithms.edit_distance import EditDistance
from repro.algorithms.lcs import LongestCommonSubsequence
from repro.algorithms.needleman_wunsch import NeedlemanWunsch
from repro.algorithms.smith_waterman import SmithWatermanGG
from repro.algorithms.nussinov import Nussinov
from repro.algorithms.matrix_chain import MatrixChainOrder
from repro.algorithms.cyk import CYKParsing, Grammar
from repro.algorithms.viterbi import ViterbiDecoding
from repro.algorithms.floyd_warshall import FloydWarshall
from repro.algorithms.obst import OptimalBST
from repro.algorithms.knapsack import Knapsack
from repro.algorithms import sequences
from repro.utils.errors import ConfigError

#: name -> factory(size, seed) of a seeded random instance: how the CLI, a
#: serve job spec, a chaos campaign and ``repro check`` name an algorithm.
ALGORITHMS: Dict[str, Callable[[int, int], DPProblem]] = {
    "edit-distance": lambda size, seed: EditDistance.random(size, size, seed=seed),
    "lcs": lambda size, seed: LongestCommonSubsequence.random(size, size, seed=seed),
    "needleman-wunsch": lambda size, seed: NeedlemanWunsch.random(size, size, seed=seed),
    "swgg": lambda size, seed: SmithWatermanGG.random(size, seed=seed),
    "nussinov": lambda size, seed: Nussinov.random(size, seed=seed),
    "matrix-chain": lambda size, seed: MatrixChainOrder.random(size, seed=seed),
    "cyk": lambda size, seed: CYKParsing.random(size, seed=seed),
    "viterbi": lambda size, seed: ViterbiDecoding.random(size, seed=seed),
    "floyd-warshall": lambda size, seed: FloydWarshall.random(size, seed=seed),
    "optimal-bst": lambda size, seed: OptimalBST.random(size, seed=seed),
    "knapsack": lambda size, seed: Knapsack.random(size, seed=seed),
}


def make_problem(name: str, size: int, seed: int) -> DPProblem:
    """The registered algorithm ``name`` at ``size``, seeded with ``seed``."""
    try:
        factory = ALGORITHMS[name]
    except KeyError:
        raise ConfigError(
            f"unknown algorithm {name!r}; choose from {', '.join(sorted(ALGORITHMS))}"
        ) from None
    return factory(size, seed)


__all__ = [
    "ALGORITHMS",
    "make_problem",
    "DPProblem",
    "BlockEvaluator",
    "EditDistance",
    "LongestCommonSubsequence",
    "NeedlemanWunsch",
    "SmithWatermanGG",
    "Nussinov",
    "MatrixChainOrder",
    "CYKParsing",
    "Grammar",
    "ViterbiDecoding",
    "FloydWarshall",
    "OptimalBST",
    "Knapsack",
    "sequences",
]
