"""Unit tests for the five DPProblem implementations.

Each algorithm is checked three ways: blocked execution equals the
independent serial reference; the master-side extract/apply data flow is
exactly sufficient (a slave sees only shipped inputs); and the final
traceback produces a *valid witness*, not just the right number.
"""

import numpy as np
import pytest

from repro.algorithms import (
    EditDistance,
    LongestCommonSubsequence,
    MatrixChainOrder,
    Nussinov,
    SmithWatermanGG,
)
from repro.dag.library import RowColPrefixPattern, TriangularPattern, WavefrontPattern
from repro.dag.partition import partition_pattern
from repro.runtime.config import RunConfig


def run_blocked(problem, proc, thread):
    """Drain the partitioned problem serially through the evaluator API."""
    part = partition_pattern(problem.pattern(), proc)
    state = problem.make_state()
    for bid in part.abstract.topological_order():
        inputs = problem.extract_inputs(state, part, bid)
        ev = problem.evaluator(part, bid, inputs)
        outputs = ev.run_serial(part.sub_partition(bid, thread))
        problem.apply_result(state, part, bid, outputs)
    return problem.finalize(state), state


class TestEditDistance:
    def test_blocked_equals_reference(self, edit_distance_small):
        res, _ = run_blocked(edit_distance_small, 10, 3)
        assert res.distance == edit_distance_small.reference()

    def test_known_case(self):
        ed = EditDistance("kitten", "sitting")
        res, _ = run_blocked(ed, 3, 2)
        assert res.distance == 3

    def test_identical_strings(self):
        ed = EditDistance("ACGTACGT", "ACGTACGT")
        res, _ = run_blocked(ed, 3, 1)
        assert res.distance == 0
        assert all(op == "match" for op, _, _ in res.script)

    def test_script_is_valid_witness(self, edit_distance_small):
        res, _ = run_blocked(edit_distance_small, 8, 4)
        assert res.n_edits() == res.distance
        # Replaying the script on `a` must yield `b`.
        a, b = edit_distance_small.a, edit_distance_small.b
        out = []
        for op, i, j in res.script:
            if op in ("match", "substitute"):
                out.append(b[j] if op == "substitute" else a[i])
            elif op == "insert":
                out.append(b[j])
            # delete contributes nothing
        assert "".join(out) == b

    def test_pattern_and_defaults(self):
        ed = EditDistance("AAAA", "CCC")
        assert isinstance(ed.pattern(), WavefrontPattern)
        assert ed.pattern().shape == (4, 3)
        proc, thread = RunConfig().partitions_for(ed)
        assert min(proc) >= 1 and min(thread) >= 1

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            EditDistance("", "ACGT")


class TestLCS:
    def test_blocked_equals_reference(self, lcs_small):
        res, _ = run_blocked(lcs_small, 7, 2)
        assert res.length == lcs_small.reference()

    def test_subsequence_is_valid_witness(self, lcs_small):
        res, _ = run_blocked(lcs_small, 6, 3)

        def is_subseq(s, t):
            it = iter(t)
            return all(c in it for c in s)

        assert len(res.subsequence) == res.length
        assert is_subseq(res.subsequence, lcs_small.a)
        assert is_subseq(res.subsequence, lcs_small.b)

    def test_disjoint_alphabets(self):
        res, _ = run_blocked(LongestCommonSubsequence("AAAA", "CCCC"), 2, 1)
        assert res.length == 0
        assert res.subsequence == ""


class TestSWGG:
    def test_blocked_equals_reference_matrix(self, swgg_small):
        _, state = run_blocked(swgg_small, 8, 3)
        assert np.allclose(state["H"], swgg_small.reference_matrix())

    def test_score_nonnegative_and_max(self, swgg_small):
        res, state = run_blocked(swgg_small, 8, 3)
        assert res.score == np.max(state["H"]) >= 0

    def test_alignment_scores_back_to_score(self, swgg_small):
        """Re-scoring the reported alignment reproduces the reported score."""
        res, _ = run_blocked(swgg_small, 8, 3)
        score = 0.0
        gap_a = gap_b = 0

        def flush(d):
            return swgg_small.gap[d] if d else 0.0

        for x, y in zip(res.aligned_a, res.aligned_b):
            if x == "-":
                gap_a += 1
                continue
            if y == "-":
                gap_b += 1
                continue
            score -= flush(gap_a) + flush(gap_b)
            gap_a = gap_b = 0
            score += swgg_small.match if x == y else swgg_small.mismatch
        score -= flush(gap_a) + flush(gap_b)
        assert np.isclose(score, res.score)

    def test_general_gap_function_is_honored(self):
        """A concave custom gap must beat the affine default where long
        gaps are cheap."""
        a, b = "ACGTACGTAC", "ACGTTTTTTTACGTAC"
        affine = SmithWatermanGG(a, b)
        cheap_long = SmithWatermanGG(a, b, gap_fn=lambda d: 1.0 + np.log1p(d))
        res_a, _ = run_blocked(affine, 5, 2)
        res_c, _ = run_blocked(cheap_long, 5, 2)
        assert res_c.score >= res_a.score

    def test_gap_fn_shape_validated(self):
        with pytest.raises(ValueError, match="elementwise"):
            SmithWatermanGG("ACG", "ACG", gap_fn=lambda d: np.zeros(3))

    def test_pattern_type(self, swgg_small):
        assert isinstance(swgg_small.pattern(), RowColPrefixPattern)


class TestNussinov:
    def test_blocked_equals_reference(self, nussinov_small):
        res, _ = run_blocked(nussinov_small, 7, 3)
        assert res.score == nussinov_small.reference()

    def test_structure_is_valid(self, nussinov_small):
        res, _ = run_blocked(nussinov_small, 7, 3)
        assert len(res.pairs) == res.score
        used = set()
        for i, j in res.pairs:
            assert nussinov_small.can_pair(i, j)
            assert i < j
            assert not {i, j} & used
            used |= {i, j}
        # Non-crossing: for any two pairs, nested or disjoint.
        for (i1, j1) in res.pairs:
            for (i2, j2) in res.pairs:
                if i1 < i2 < j1:
                    assert j2 < j1

    def test_dot_bracket_consistent(self, nussinov_small):
        res, _ = run_blocked(nussinov_small, 7, 3)
        assert len(res.dot_bracket) == nussinov_small.n
        assert res.dot_bracket.count("(") == res.score
        assert res.dot_bracket.count(")") == res.score

    def test_min_sep_enforced(self):
        # AU can pair, but only when separated by more than min_sep bases.
        res5, _ = run_blocked(Nussinov("AAAUUU", min_sep=5), 3, 1)
        assert res5.score == 0
        # min_sep=1 blocks the innermost (2,3) pair, leaving two pairs.
        res1, _ = run_blocked(Nussinov("AAAUUU", min_sep=1), 3, 1)
        assert res1.score == 2
        res0, _ = run_blocked(Nussinov("AAAUUU", min_sep=0), 3, 1)
        assert res0.score == 3

    def test_unpairable_sequence(self):
        res, _ = run_blocked(Nussinov("AAAAAA"), 3, 1)
        assert res.score == 0
        assert res.dot_bracket == "......"

    def test_pattern_type(self, nussinov_small):
        p = nussinov_small.pattern()
        assert isinstance(p, TriangularPattern)
        assert p.n == nussinov_small.n

    def test_invalid_min_sep(self):
        with pytest.raises(ValueError):
            Nussinov("ACGU", min_sep=-1)


class TestMatrixChain:
    def test_blocked_equals_reference(self, matrix_chain_small):
        res, _ = run_blocked(matrix_chain_small, 6, 2)
        assert np.isclose(res.cost, matrix_chain_small.reference())

    def test_cormen_example(self):
        mc = MatrixChainOrder([30, 35, 15, 5, 10, 20, 25])
        res, _ = run_blocked(mc, 3, 1)
        assert res.cost == 15125
        assert res.parenthesization == "((A0(A1A2))((A3A4)A5))"

    def test_single_matrix(self):
        res, _ = run_blocked(MatrixChainOrder([4, 7]), 1, 1)
        assert res.cost == 0
        assert res.parenthesization == "A0"

    def test_validation(self):
        with pytest.raises(ValueError):
            MatrixChainOrder([5])
        with pytest.raises(ValueError):
            MatrixChainOrder([5, 0, 3])


class TestCostModel:
    def test_total_flops_additive(self, swgg_small):
        part = partition_pattern(swgg_small.pattern(), 8)
        assert swgg_small.total_flops(part) == pytest.approx(
            sum(swgg_small.block_flops(part, b) for b in part.block_ids())
        )

    def test_swgg_flops_grow_with_position(self, swgg_small):
        part = partition_pattern(swgg_small.pattern(), 8)
        assert swgg_small.block_flops(part, (0, 0)) < swgg_small.block_flops(part, (2, 2))

    def test_triangular_flops_grow_with_span(self, nussinov_small):
        part = partition_pattern(nussinov_small.pattern(), 8)
        assert nussinov_small.block_flops(part, (0, 1)) < nussinov_small.block_flops(part, (0, 4))

    def test_whole_problem_region_matches_total(self, nussinov_small):
        part = partition_pattern(nussinov_small.pattern(), 8)
        whole = nussinov_small.region_flops(
            range(nussinov_small.n), range(nussinov_small.n), diagonal=True
        )
        assert whole == pytest.approx(nussinov_small.total_flops(part), rel=0.02)

    def test_cost_class_groups_identical_blocks(self, swgg_small):
        part = partition_pattern(swgg_small.pattern(), 8)
        # Blocks on the same anti-diagonal with same shape share the class.
        c1 = swgg_small.block_cost_class(part, (0, 1))
        c2 = swgg_small.block_cost_class(part, (1, 0))
        assert c1 == c2
        assert swgg_small.block_cost_class(part, (0, 0)) != c1
