"""Unit tests for the DAG Data Driven Model and its Table I fields."""

import pytest

from repro.dag.library import RowColPrefixPattern, TriangularPattern, WavefrontPattern
from repro.dag.model import DAGDataDrivenModel
from repro.utils.errors import PartitionError


class TestModelInitialization:
    def test_basic_fields(self):
        m = DAGDataDrivenModel(RowColPrefixPattern(100, 100), 20, 5)
        assert m.dag_size == (100, 100)
        assert m.rect_size == (5, 5)
        assert m.dag_pos == (0, 0)
        assert m.process_partition_size == (20, 20)
        assert m.thread_partition_size == (5, 5)

    def test_triangular_dag_size(self):
        m = DAGDataDrivenModel(TriangularPattern(60), 20, 5)
        assert m.dag_size == (60, 60)
        assert m.rect_size == (3, 3)

    def test_thread_size_must_not_exceed_process_size(self):
        with pytest.raises(PartitionError, match="must not exceed"):
            DAGDataDrivenModel(WavefrontPattern(50, 50), 10, 20)

    def test_rectangular_partition_sizes(self):
        m = DAGDataDrivenModel(WavefrontPattern(60, 40), (30, 10), (10, 5))
        assert m.rect_size == (2, 4)


class TestLevels:
    def test_process_level_partition(self):
        m = DAGDataDrivenModel(WavefrontPattern(60, 60), 20, 5)
        assert m.process_level.n_blocks == 9
        assert m.process_level.abstract.shape == (3, 3)

    def test_thread_level_partition(self):
        m = DAGDataDrivenModel(WavefrontPattern(60, 60), 20, 5)
        sub = m.thread_level((1, 1))
        assert sub.abstract.shape == (4, 4)
        assert sub.total_cells() == 400

    def test_thread_level_of_triangular_diagonal(self):
        m = DAGDataDrivenModel(TriangularPattern(40), 20, 5)
        sub = m.thread_level((0, 0))
        assert sub.total_cells() == 20 * 21 // 2


class TestDataMapping:
    def test_default_mapping_is_block_ranges(self):
        """A sub-task owns its block's cell ranges; which of them it reads
        and writes is the problem's executed mapping
        (``tests/test_data_mapping.py``)."""
        m = DAGDataDrivenModel(WavefrontPattern(40, 40), 10, 5)
        assert m.process_level.block_ranges((1, 2)) == (range(10, 20), range(20, 30))
