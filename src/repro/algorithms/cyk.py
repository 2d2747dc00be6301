"""CYK recognition of context-free grammars — a triangular 2D/1D DP.

The paper's introduction names context-free grammar recognition as a
motivating DP application; this module provides it on the same
:class:`TriangularPattern` machinery as Nussinov. Cells are ``uint64``
bitmasks over nonterminals: bit ``A`` of ``F[i, j]`` says nonterminal
``A`` derives the token span ``i..j`` (inclusive). Binary rules combine
row/column strips exactly like Nussinov's bifurcation scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.algorithms.kernels import cyk_region
from repro.algorithms.triangular_base import TriangularBlockEvaluator, TriangularProblem
from repro.dag.partition import Partition
from repro.dag.pattern import VertexId
from repro.utils.errors import InconsistentMatrix


@dataclass(frozen=True)
class Grammar:
    """A context-free grammar in Chomsky normal form (<= 64 nonterminals).

    ``binary_rules`` are ``(A, B, C)`` meaning ``A -> B C``;
    ``terminal_rules`` are ``(A, ch)`` meaning ``A -> ch``.
    """

    nonterminals: Tuple[str, ...]
    start: str
    binary_rules: Tuple[Tuple[str, str, str], ...]
    terminal_rules: Tuple[Tuple[str, str], ...]

    def __post_init__(self) -> None:
        if len(self.nonterminals) > 64:
            raise ValueError("bitmask cells support at most 64 nonterminals")
        if len(set(self.nonterminals)) != len(self.nonterminals):
            raise ValueError("duplicate nonterminal names")
        known = set(self.nonterminals)
        if self.start not in known:
            raise ValueError(f"start symbol {self.start!r} not a nonterminal")
        for a, b, c in self.binary_rules:
            if not {a, b, c} <= known:
                raise ValueError(f"rule {a} -> {b} {c} uses unknown nonterminals")
        for a, ch in self.terminal_rules:
            if a not in known:
                raise ValueError(f"terminal rule {a} -> {ch!r} uses unknown nonterminal")
            if len(ch) != 1:
                raise ValueError(f"terminal must be one character, got {ch!r}")

    # -- derived tables ---------------------------------------------------------

    def index(self, name: str) -> int:
        return self.nonterminals.index(name)

    def rule_indices(self) -> np.ndarray:
        """Binary rules as an (R, 3) integer array for the kernel."""
        return np.array(
            [[self.index(a), self.index(b), self.index(c)] for a, b, c in self.binary_rules],
            dtype=np.int64,
        ).reshape(-1, 3)

    def terminal_mask(self, ch: str) -> np.uint64:
        """Bitmask of nonterminals that derive the single token ``ch``."""
        mask = np.uint64(0)
        for a, t in self.terminal_rules:
            if t == ch:
                mask |= np.uint64(1) << np.uint64(self.index(a))
        return mask

    @property
    def terminals(self) -> Tuple[str, ...]:
        return tuple(sorted({ch for _, ch in self.terminal_rules}))

    # -- sampling ------------------------------------------------------------------

    def generate(self, rng: np.random.Generator, max_len: int = 40) -> str:
        """Sample one string of the language (rejection on length)."""
        by_head: Dict[str, list] = {}
        for a, b, c in self.binary_rules:
            by_head.setdefault(a, []).append(("bin", b, c))
        for a, ch in self.terminal_rules:
            by_head.setdefault(a, []).append(("term", ch, None))

        for _ in range(200):
            out = []
            stack = [self.start]
            budget = max_len
            ok = True
            while stack:
                head = stack.pop()
                options = by_head.get(head, [])
                if not options:
                    ok = False
                    break
                # Bias towards terminals as the budget shrinks.
                terms = [o for o in options if o[0] == "term"]
                if budget <= len(stack) + 1 and terms:
                    options = terms
                kind, x, y = options[rng.integers(0, len(options))]
                if kind == "term":
                    out.append(x)
                    budget -= 1
                else:
                    stack.append(y)
                    stack.append(x)
                if budget < 0:
                    ok = False
                    break
            if ok and out:
                return "".join(out)
        raise RuntimeError("could not sample a string within the length budget")

    # -- built-ins -------------------------------------------------------------------

    @classmethod
    def arithmetic(cls) -> "Grammar":
        """CNF of ``E -> E+T | T;  T -> T*F | F;  F -> (E) | a``."""
        return cls(
            nonterminals=("E", "T", "F", "R1", "R2", "R3", "Plus", "Times", "Open", "Close"),
            start="E",
            binary_rules=(
                ("E", "E", "R1"), ("R1", "Plus", "T"),
                ("T", "T", "R2"), ("R2", "Times", "F"),
                ("F", "Open", "R3"), ("R3", "E", "Close"),
                ("E", "T", "R2"), ("E", "Open", "R3"),
                ("T", "Open", "R3"),
            ),
            terminal_rules=(
                ("Plus", "+"), ("Times", "*"), ("Open", "("), ("Close", ")"),
                ("E", "a"), ("T", "a"), ("F", "a"),
            ),
        )

    @classmethod
    def palindromes(cls) -> "Grammar":
        """Palindromes over {a, b} of length >= 1."""
        return cls(
            nonterminals=("P", "A", "B", "C1", "C2"),
            start="P",
            binary_rules=(
                ("P", "A", "C1"), ("C1", "P", "A"),
                ("P", "B", "C2"), ("C2", "P", "B"),
                ("P", "A", "A"), ("P", "B", "B"),
            ),
            terminal_rules=(("P", "a"), ("P", "b"), ("A", "a"), ("B", "b")),
        )


@dataclass(frozen=True)
class CYKResult:
    """Final answer: acceptance, per-span derivability counts, parse tree."""

    accepted: bool
    #: Number of (i, j) spans derivable by at least one nonterminal.
    derivable_spans: int
    #: Nested ``(head, left, right)`` / ``(head, token)`` tuples, or None.
    tree: Optional[tuple] = field(default=None, compare=False)


class CYKParsing(TriangularProblem):
    """CYK recognition under EasyHPS."""

    name = "cyk"
    matrix_dtype = np.uint64
    size = None  # the sampled sentence's length depends on the seed

    def __init__(self, grammar: Grammar, text: str) -> None:
        if not text:
            raise ValueError("text must be non-empty")
        unknown = set(text) - set(grammar.terminals)
        if unknown:
            raise ValueError(f"text uses characters outside the grammar: {sorted(unknown)}")
        super().__init__(len(text))
        self.grammar = grammar
        self.text = text
        self._rules = grammar.rule_indices()
        # Charge the split scan per rule per split.
        self.span_cost_scale = max(1, len(grammar.binary_rules))

    @classmethod
    def random(cls, n: int, seed: int | None = None,
               grammar: Grammar | None = None) -> "CYKParsing":
        """A sampled in-language sentence of length ~n (arithmetic grammar)."""
        grammar = grammar or Grammar.arithmetic()
        rng = np.random.default_rng(seed)
        text = grammar.generate(rng, max_len=max(4, n))
        return cls(grammar, text)

    # -- kernel hooks -----------------------------------------------------------

    def cell_data_window(self, lo: int, hi: int) -> np.ndarray:
        return self._rules

    def kernel(self):
        return cyk_region

    def evaluator(
        self, partition: Partition, bid: VertexId, inputs: Dict[str, np.ndarray]
    ) -> TriangularBlockEvaluator:
        ev = super().evaluator(partition, bid, inputs)
        if partition.is_diagonal_block(bid):
            rows, _ = partition.block_ranges(bid)
            for i in rows:
                ev.seed_cell(i, i, self.grammar.terminal_mask(self.text[i]))
        return ev

    # -- result ------------------------------------------------------------------------

    def derives(self, state: Dict[str, np.ndarray], nt: str, i: int, j: int) -> bool:
        bit = np.uint64(1) << np.uint64(self.grammar.index(nt))
        return bool(state["F"][i, j] & bit)

    def finalize(self, state: Dict[str, np.ndarray]) -> CYKResult:
        F = state["F"]
        accepted = self.derives(state, self.grammar.start, 0, self.n - 1)
        derivable = int(np.count_nonzero(np.triu(F)))
        tree = self._tree(F, self.grammar.start, 0, self.n - 1) if accepted else None
        return CYKResult(accepted=accepted, derivable_spans=derivable, tree=tree)

    def _tree(self, F: np.ndarray, head: str, i: int, j: int) -> tuple:
        if i == j:
            return (head, self.text[i])
        one = np.uint64(1)
        for a, b, c in self.grammar.binary_rules:
            if a != head:
                continue
            bb = one << np.uint64(self.grammar.index(b))
            cc = one << np.uint64(self.grammar.index(c))
            for k in range(i, j):
                if (F[i, k] & bb) and (F[k + 1, j] & cc):
                    return (head, self._tree(F, b, i, k), self._tree(F, c, k + 1, j))
        raise InconsistentMatrix(f"no derivation of {head}", cell=(i, j))

    # -- reference --------------------------------------------------------------------

    def reference(self) -> bool:
        """Independent pure-Python set-based CYK recognition."""
        n = self.n
        table = [[set() for _ in range(n)] for _ in range(n)]
        for i, ch in enumerate(self.text):
            for a, t in self.grammar.terminal_rules:
                if t == ch:
                    table[i][i].add(a)
        for span in range(2, n + 1):
            for i in range(n - span + 1):
                j = i + span - 1
                for k in range(i, j):
                    for a, b, c in self.grammar.binary_rules:
                        if b in table[i][k] and c in table[k + 1][j]:
                            table[i][j].add(a)
        return self.grammar.start in table[0][n - 1]

    def __repr__(self) -> str:
        return f"CYKParsing(n={self.n}, grammar={len(self.grammar.nonterminals)} NTs)"
