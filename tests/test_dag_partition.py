"""Unit tests for task partition (Fig 6) and the two-level recursion."""

import pytest

from repro.dag.library import (
    ChainPattern,
    CustomPattern,
    Full2DPattern,
    RowColPrefixPattern,
    TriangularPattern,
    WavefrontPattern,
)
from repro.dag.partition import BlockGrid, partition_pattern
from repro.utils.errors import PartitionError


class TestBlockGrid:
    def test_even_split(self):
        g = BlockGrid(shape=(100, 60), block_shape=(20, 15))
        assert (g.n_block_rows, g.n_block_cols) == (5, 4)
        assert g.n_blocks == 20
        assert g.row_range(0) == range(0, 20)
        assert g.col_range(3) == range(45, 60)

    def test_ragged_edge(self):
        g = BlockGrid(shape=(10, 10), block_shape=(4, 4))
        assert (g.n_block_rows, g.n_block_cols) == (3, 3)
        assert g.row_range(2) == range(8, 10)

    def test_block_of(self):
        g = BlockGrid(shape=(10, 10), block_shape=(4, 4))
        assert g.block_of(0, 0) == (0, 0)
        assert g.block_of(9, 9) == (2, 2)
        assert g.block_of(4, 3) == (1, 0)

    def test_block_of_out_of_range(self):
        g = BlockGrid(shape=(10, 10), block_shape=(4, 4))
        with pytest.raises(PartitionError):
            g.block_of(10, 0)

    def test_invalid_shapes(self):
        with pytest.raises(PartitionError):
            BlockGrid(shape=(0, 5), block_shape=(1, 1))
        with pytest.raises(PartitionError):
            BlockGrid(shape=(5, 5), block_shape=(0, 1))

    def test_range_bounds_checked(self):
        g = BlockGrid(shape=(10, 10), block_shape=(5, 5))
        with pytest.raises(PartitionError):
            g.row_range(2)


class TestPartitionFamilies:
    def test_wavefront_abstract_is_wavefront(self):
        part = partition_pattern(WavefrontPattern(100, 100), 25)
        assert isinstance(part.abstract, WavefrontPattern)
        assert part.abstract.shape == (4, 4)
        part.abstract.validate()

    def test_wavefront_flags_propagate(self):
        base = WavefrontPattern(40, 40, row_reversed=True, diagonal_data_dep=False)
        part = partition_pattern(base, 10)
        assert part.abstract.row_reversed
        assert not part.abstract.diagonal_data_dep

    def test_rowcol_abstract_keeps_prefix_semantics(self):
        part = partition_pattern(RowColPrefixPattern(60, 60), 20)
        assert isinstance(part.abstract, RowColPrefixPattern)
        deps = set(part.abstract.data_predecessors((1, 2)))
        assert {(1, 0), (1, 1), (0, 2)} <= deps

    def test_triangular_abstract_is_triangular(self):
        part = partition_pattern(TriangularPattern(30), 10)
        assert isinstance(part.abstract, TriangularPattern)
        assert part.abstract.n == 3
        assert part.n_blocks == 6

    def test_triangular_requires_square_blocks(self):
        with pytest.raises(PartitionError, match="square"):
            partition_pattern(TriangularPattern(30), (10, 5))

    def test_full2d_partition(self):
        part = partition_pattern(Full2DPattern(20, 30), (10, 10))
        assert isinstance(part.abstract, Full2DPattern)
        assert part.abstract.shape == (2, 3)

    def test_chain_partition(self):
        part = partition_pattern(ChainPattern(17), 5)
        assert isinstance(part.abstract, ChainPattern)
        assert part.abstract.n == 4
        assert part.block_ranges((3,))[0] == range(15, 17)

    def test_custom_pattern_has_no_rule(self):
        with pytest.raises(PartitionError, match="no built-in partition rule"):
            partition_pattern(CustomPattern({(0,): []}), 1)


class TestCellAccounting:
    def test_rectangular_counts_sum_to_total(self):
        part = partition_pattern(WavefrontPattern(37, 53), (10, 8))
        assert part.total_cells() == 37 * 53

    def test_triangular_counts_sum_to_total(self):
        for n, b in [(30, 10), (31, 10), (7, 3)]:
            part = partition_pattern(TriangularPattern(n), b)
            assert part.total_cells() == n * (n + 1) // 2, (n, b)

    def test_diagonal_block_detection(self):
        part = partition_pattern(TriangularPattern(30), 10)
        assert part.is_diagonal_block((1, 1))
        assert not part.is_diagonal_block((0, 1))
        rect = partition_pattern(WavefrontPattern(30, 30), 10)
        assert not rect.is_diagonal_block((1, 1))

    def test_chain_cell_count(self):
        part = partition_pattern(ChainPattern(17), 5)
        assert [part.cell_count((i,)) for i in range(4)] == [5, 5, 5, 2]


class TestTwoLevelRecursion:
    def test_wavefront_sub_partition(self):
        part = partition_pattern(WavefrontPattern(100, 100), 25)
        sub = part.sub_partition((1, 2), 5)
        assert isinstance(sub.abstract, WavefrontPattern)
        assert sub.abstract.shape == (5, 5)
        assert sub.total_cells() == 625

    def test_triangular_diagonal_block_pattern(self):
        part = partition_pattern(TriangularPattern(30), 10)
        diag = part.block_pattern((1, 1))
        assert isinstance(diag, TriangularPattern)
        assert diag.n == 10

    def test_triangular_offdiagonal_block_pattern_is_reversed_prefix(self):
        part = partition_pattern(TriangularPattern(30), 10)
        off = part.block_pattern((0, 2))
        assert isinstance(off, RowColPrefixPattern)
        assert off.row_reversed
        off.validate()

    def test_sub_partition_of_diagonal_block_validates(self):
        part = partition_pattern(TriangularPattern(40), 20)
        sub = part.sub_partition((0, 0), 5)
        sub.abstract.validate()
        assert sub.total_cells() == 20 * 21 // 2

    def test_ragged_sub_partition(self):
        part = partition_pattern(WavefrontPattern(23, 23), 10)
        sub = part.sub_partition((2, 2), 4)  # 3x3 remainder block
        assert sub.total_cells() == 9
        assert sub.abstract.shape == (1, 1)


class TestInnerPartitionPerShape:
    """A block's thread-level partition and its drained order are paid for
    once per block shape: every block of a shape shares them."""

    def _run_block(self, problem, part, state, bid, thread):
        inputs = problem.extract_inputs(state, part, bid)
        outputs = problem.evaluator(part, bid, inputs).run_serial(part.sub_partition(bid, thread))
        problem.apply_result(state, part, bid, outputs)

    def test_a_second_block_of_one_shape_builds_no_partition_or_parser(self, monkeypatch):
        from repro.algorithms import EditDistance
        from repro.dag import parser as parser_mod
        from repro.dag.partition import Partition

        problem = EditDistance.random(40, seed=3)
        part = partition_pattern(problem.pattern(), 10)
        state = problem.make_state()
        self._run_block(problem, part, state, (0, 0), 5)
        built = []

        def counting(cls):
            init = cls.__init__

            def __init__(self, *args, **kwargs):
                built.append(cls.__name__)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", __init__)

        counting(Partition)
        counting(parser_mod.DAGParser)
        self._run_block(problem, part, state, (0, 1), 5)
        assert built == []
        assert part.sub_partition((3, 3), (5, 5)) is part.sub_partition((0, 0), 5)
        part.sub_partition((0, 0), 2)  # another thread grain is another partition
        assert built == ["Partition"]

    def test_blocks_of_different_shapes_keep_their_own(self):
        part = partition_pattern(TriangularPattern(30), 10)
        diag, off = part.sub_partition((1, 1), 5), part.sub_partition((0, 2), 5)
        assert diag is not off
        assert isinstance(diag.abstract, TriangularPattern)
        assert isinstance(off.abstract, RowColPrefixPattern)
        assert part.sub_partition((2, 2), 5) is diag
        ragged = partition_pattern(WavefrontPattern(23, 23), 10)
        assert ragged.sub_partition((2, 2), 4) is not ragged.sub_partition((0, 0), 4)
        assert ragged.sub_partition((2, 2), 4).abstract.shape == (1, 1)

    def test_the_drained_order_is_kept_per_pattern(self, monkeypatch):
        from repro.dag import parser as parser_mod

        pattern = WavefrontPattern(4, 5)
        first = list(pattern.topological_order())
        monkeypatch.setattr(parser_mod, "DAGParser", None)  # a second drain would fail
        assert list(pattern.topological_order()) == first
