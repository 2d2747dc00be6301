"""Tests for the extension algorithms: Needleman-Wunsch, Viterbi, CYK.

These cover the pattern families the paper's two headline workloads leave
unexercised end-to-end: max-form wavefront (NW), the pure chain (Viterbi)
and grammar recognition on the triangular pattern (CYK — named in the
paper's introduction as a motivating application).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EasyHPS, RunConfig
from repro.algorithms import CYKParsing, Grammar, NeedlemanWunsch, ViterbiDecoding
from repro.dag.library import ChainPattern, TriangularPattern, WavefrontPattern
from repro.dag.partition import partition_pattern


def run_blocked(problem, proc, thread):
    part = partition_pattern(problem.pattern(), proc)
    state = problem.make_state()
    for bid in part.abstract.topological_order():
        inputs = problem.extract_inputs(state, part, bid)
        ev = problem.evaluator(part, bid, inputs)
        outputs = ev.run_serial(part.sub_partition(bid, thread))
        problem.apply_result(state, part, bid, outputs)
    return problem.finalize(state), state


class TestNeedlemanWunsch:
    def test_blocked_equals_reference(self):
        nw = NeedlemanWunsch.random(33, 47, seed=1)
        res, _ = run_blocked(nw, 10, 4)
        assert np.isclose(res.score, nw.reference())

    def test_alignment_covers_both_sequences(self):
        nw = NeedlemanWunsch.random(25, 31, seed=2)
        res, _ = run_blocked(nw, 8, 4)
        assert res.aligned_a.replace("-", "") == nw.a
        assert res.aligned_b.replace("-", "") == nw.b
        assert len(res.aligned_a) == len(res.aligned_b)

    def test_identical_sequences_align_perfectly(self):
        nw = NeedlemanWunsch("ACGTACGT", "ACGTACGT")
        res, _ = run_blocked(nw, 3, 1)
        assert res.score == 8.0
        assert res.identity() == 1.0

    def test_all_gap_extreme(self):
        nw = NeedlemanWunsch("AAAA", "C", gap=1.0, mismatch=-5.0)
        res, _ = run_blocked(nw, 2, 1)
        assert np.isclose(res.score, nw.reference())

    def test_pattern_is_wavefront(self):
        assert isinstance(NeedlemanWunsch("AC", "GT").pattern(), WavefrontPattern)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            NeedlemanWunsch("A", "C", gap=-1.0)

    @given(
        a=st.text(alphabet="ACGT", min_size=1, max_size=18),
        b=st.text(alphabet="ACGT", min_size=1, max_size=18),
        proc=st.integers(1, 7),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_blocked_equals_reference(self, a, b, proc):
        nw = NeedlemanWunsch(a, b)
        res, _ = run_blocked(nw, proc, max(1, proc // 2))
        assert np.isclose(res.score, nw.reference())


class TestViterbi:
    def test_blocked_equals_reference(self):
        vi = ViterbiDecoding.random(57, n_states=5, seed=2)
        res, _ = run_blocked(vi, 10, 4)
        assert np.isclose(res.log_prob, vi.reference())

    def test_path_rescores_to_reported_logprob(self):
        vi = ViterbiDecoding.random(40, n_states=4, seed=3)
        res, _ = run_blocked(vi, 8, 2)
        lp = vi.log_pi[res.path[0]] + vi.log_b[res.path[0], vi.obs[0]]
        for t in range(1, vi.T):
            lp += vi.log_a[res.path[t - 1], res.path[t]] + vi.log_b[res.path[t], vi.obs[t]]
        assert np.isclose(lp, res.log_prob)

    def test_path_length_and_range(self):
        vi = ViterbiDecoding.random(25, n_states=3, seed=4)
        res, _ = run_blocked(vi, 5, 1)
        assert len(res.path) == 25
        assert all(0 <= s < 3 for s in res.path)

    def test_deterministic_hmm_recovers_forced_path(self):
        # Two states; state equals the observed symbol with certainty.
        big, small = 0.0, -1e3
        log_pi = np.array([np.log(0.5), np.log(0.5)])
        log_a = np.array([[np.log(0.5), np.log(0.5)], [np.log(0.5), np.log(0.5)]])
        log_b = np.array([[big, small], [small, big]])
        obs = np.array([0, 1, 1, 0, 1])
        vi = ViterbiDecoding(log_pi, log_a, log_b, obs)
        res, _ = run_blocked(vi, 2, 1)
        assert res.path == (0, 1, 1, 0, 1)

    def test_pattern_is_chain(self):
        assert isinstance(ViterbiDecoding.random(10, seed=0).pattern(), ChainPattern)

    def test_single_observation(self):
        vi = ViterbiDecoding.random(1, seed=0)
        res, _ = run_blocked(vi, 1, 1)
        assert np.isclose(res.log_prob, vi.reference())

    def test_validation(self):
        with pytest.raises(ValueError):
            ViterbiDecoding(np.zeros(2), np.zeros((3, 3)), np.zeros((2, 2)), np.array([0]))
        with pytest.raises(ValueError):
            ViterbiDecoding(np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2)), np.array([5]))

    def test_chain_cost_model(self):
        vi = ViterbiDecoding.random(32, n_states=4, seed=1)
        part = partition_pattern(vi.pattern(), 8)
        assert vi.block_flops(part, (0,)) == 8 * 16

    @given(T=st.integers(1, 40), proc=st.integers(1, 9))
    @settings(max_examples=25, deadline=None)
    def test_property_blocked_equals_reference(self, T, proc):
        vi = ViterbiDecoding.random(T, n_states=3, seed=T)
        res, _ = run_blocked(vi, proc, max(1, proc // 2))
        assert np.isclose(res.log_prob, vi.reference())


class TestGrammar:
    def test_builtin_grammars_validate(self):
        Grammar.arithmetic()
        Grammar.palindromes()

    def test_terminal_mask(self):
        g = Grammar.palindromes()
        mask = g.terminal_mask("a")
        assert mask & (np.uint64(1) << np.uint64(g.index("P")))
        assert mask & (np.uint64(1) << np.uint64(g.index("A")))
        assert not mask & (np.uint64(1) << np.uint64(g.index("B")))

    def test_generate_in_language(self):
        g = Grammar.arithmetic()
        rng = np.random.default_rng(1)
        for _ in range(5):
            s = g.generate(rng, max_len=20)
            assert CYKParsing(g, s).reference()

    def test_validation(self):
        with pytest.raises(ValueError, match="start symbol"):
            Grammar(("A",), "B", (), (("A", "a"),))
        with pytest.raises(ValueError, match="unknown nonterminals"):
            Grammar(("A",), "A", (("A", "A", "Z"),), ())
        with pytest.raises(ValueError, match="one character"):
            Grammar(("A",), "A", (), (("A", "ab"),))
        with pytest.raises(ValueError, match="at most 64"):
            Grammar(tuple(f"N{i}" for i in range(65)), "N0", (), (("N0", "a"),))


class TestCYK:
    @pytest.mark.parametrize("text,expected", [
        ("a", True), ("a+a", True), ("a*a+a", True), ("(a+a)*a", True),
        ("((a))", True), ("+", False), ("a+", False), ("(a", False),
        ("aa", False), ("a++a", False),
    ])
    def test_arithmetic_recognition(self, text, expected):
        cy = CYKParsing(Grammar.arithmetic(), text)
        res, _ = run_blocked(cy, 3, 2)
        assert res.accepted == expected
        assert res.accepted == cy.reference()

    @pytest.mark.parametrize("text,expected", [
        ("a", True), ("aba", True), ("abba", True), ("babab", True),
        ("ab", False), ("aab", False),
    ])
    def test_palindrome_recognition(self, text, expected):
        res, _ = run_blocked(CYKParsing(Grammar.palindromes(), text), 2, 1)
        assert res.accepted == expected

    def test_tree_is_valid_derivation(self):
        g = Grammar.arithmetic()
        res, _ = run_blocked(CYKParsing(g, "(a+a)*a"), 3, 1)
        binary = set(g.binary_rules)
        terminal = set(g.terminal_rules)

        def leaves(node):
            if len(node) == 2:
                assert (node[0], node[1]) in terminal, node
                return node[1]
            head, left, right = node
            assert (head, left[0], right[0]) in binary, node
            return leaves(left) + leaves(right)

        assert res.tree[0] == g.start
        assert leaves(res.tree) == "(a+a)*a"

    def test_rejected_text_has_no_tree(self):
        res, _ = run_blocked(CYKParsing(Grammar.arithmetic(), "a+"), 2, 1)
        assert res.tree is None

    def test_foreign_characters_rejected(self):
        with pytest.raises(ValueError, match="outside the grammar"):
            CYKParsing(Grammar.arithmetic(), "a-b")

    def test_pattern_and_dtype(self):
        cy = CYKParsing(Grammar.palindromes(), "aba")
        assert isinstance(cy.pattern(), TriangularPattern)
        assert cy.make_state()["F"].dtype == np.uint64

    def test_through_threads_backend(self):
        g = Grammar.arithmetic()
        cy = CYKParsing(g, "(a+a)*(a+a*a)+a")
        run = EasyHPS(RunConfig(nodes=3, threads_per_node=2, backend="threads",
                                process_partition=4, thread_partition=2)).run(cy)
        assert run.value.accepted == cy.reference() is True

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_blocked_equals_reference(self, data):
        g = Grammar.palindromes()
        text = data.draw(st.text(alphabet="ab", min_size=1, max_size=16))
        proc = data.draw(st.integers(1, 6))
        cy = CYKParsing(g, text)
        res, _ = run_blocked(cy, proc, max(1, proc // 2))
        assert res.accepted == cy.reference()
        # Acceptance must equal the palindrome predicate itself.
        assert res.accepted == (text == text[::-1])
