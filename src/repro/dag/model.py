"""DAG Data Driven Model — pattern + two-level partition.

This object is what gets "initialized at the beginning of DP problem
parallelization" (Section IV-D): the programmer picks or defines a DAG
Pattern Model and sets ``dag_size`` and the two ``partition_size``
values; everything else (abstract DAGs, degrees, rect_size) is derived
automatically, matching Table I's promise that "other data members will
be set automatically during initialization". Table I's
``data_mapping_function`` is executed by the problem, not described
here: ``DPProblem.input_regions`` / ``output_regions``.
"""

from __future__ import annotations

from typing import Tuple

from repro.dag.partition import BlockShape, Partition, _as_pair, partition_pattern
from repro.dag.pattern import DAGPattern, VertexId
from repro.utils.errors import PartitionError


class DAGDataDrivenModel:
    """The master/slave DAG Data Driven Model of EasyHPS.

    One instance plays the *master* role when built with the
    process-level partition size; slave models for individual sub-tasks
    come out of :meth:`thread_level`, so the same class serves both halves
    of Fig 1.
    """

    def __init__(
        self,
        pattern: DAGPattern,
        process_partition_size: BlockShape,
        thread_partition_size: BlockShape,
    ) -> None:
        self.pattern = pattern
        self.process_partition_size: Tuple[int, int] = _as_pair(process_partition_size)
        self.thread_partition_size: Tuple[int, int] = _as_pair(thread_partition_size)
        pr, pc = self.process_partition_size
        tr, tc = self.thread_partition_size
        if tr > pr or tc > pc:
            raise PartitionError(
                "thread_partition_size must not exceed process_partition_size: "
                f"{self.thread_partition_size} > {self.process_partition_size}"
            )
        self._process_level = partition_pattern(pattern, self.process_partition_size)

    # -- Table I derived fields ------------------------------------------------

    @property
    def dag_size(self) -> Tuple[int, int]:
        """Size of the cell-level DAG (Table I ``dag_size``)."""
        shape = getattr(self.pattern, "shape", None)
        if shape is not None:
            return shape
        n = getattr(self.pattern, "n", None)
        if n is not None:
            return (n, n) if len(next(iter(self.pattern.vertices()))) == 2 else (n, 1)
        return (self.pattern.n_vertices(), 1)

    @property
    def rect_size(self) -> Tuple[int, int]:
        """Shape of the abstract DAG after task partition (Table I ``rect_size``)."""
        return (
            self._process_level.grid.n_block_rows,
            self._process_level.grid.n_block_cols,
        )

    @property
    def dag_pos(self) -> Tuple[int, int]:
        """Position of the upper-left corner of the DAG (Table I ``dag_pos``)."""
        return (0, 0)

    # -- levels ------------------------------------------------------------------

    @property
    def process_level(self) -> Partition:
        """The master-level partition: sub-tasks scheduled across nodes."""
        return self._process_level

    def thread_level(self, bid: VertexId) -> Partition:
        """The slave-level partition of sub-task ``bid``: sub-sub-tasks
        scheduled across threads within one node (paper step e/f)."""
        return self._process_level.sub_partition(bid, self.thread_partition_size)

    def __repr__(self) -> str:
        return (
            f"DAGDataDrivenModel(pattern={self.pattern!r}, "
            f"process={self.process_partition_size}, thread={self.thread_partition_size}, "
            f"rect={self.rect_size})"
        )
