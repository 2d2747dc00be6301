"""Task partition — turning a cell-level pattern into a schedulable block DAG.

This implements Fig 6 of the paper: the original (cell-level) DAG Pattern
Model is divided into groups of cells; each group becomes a sub-task, and
the groups form a higher-level *abstract* DAG Pattern Model of the same
dependency family. Partitioning happens twice in EasyHPS — once with
``process_partition_size`` (master level) and once more inside every
sub-task with ``thread_partition_size`` (slave level); both reuse
:func:`partition_pattern`, the slave level via :meth:`Partition.sub_partition`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, Tuple, Union

from repro.dag.library import (
    ChainPattern,
    Full2DPattern,
    IndependentGridPattern,
    RowColPrefixPattern,
    TriangularPattern,
    WavefrontPattern,
)
from repro.dag.pattern import DAGPattern, VertexId
from repro.utils.errors import PartitionError

BlockShape = Union[int, Tuple[int, int]]


def _as_pair(block_shape: BlockShape) -> Tuple[int, int]:
    if isinstance(block_shape, int):
        return (block_shape, block_shape)
    br, bc = block_shape
    return (int(br), int(bc))


@dataclass(frozen=True)
class BlockGrid:
    """Geometry of a rectangular block decomposition of an ``R x C`` cell grid.

    This is the concrete form of Table I's ``data_mapping_function`` for
    matrix-shaped DP problems: it maps an abstract DAG vertex (a block id
    ``(I, J)``) to the cell ranges it owns.
    """

    shape: Tuple[int, int]
    block_shape: Tuple[int, int]

    def __post_init__(self) -> None:
        rows, cols = self.shape
        br, bc = self.block_shape
        if rows <= 0 or cols <= 0:
            raise PartitionError(f"cell grid shape must be positive, got {self.shape}")
        if br <= 0 or bc <= 0:
            raise PartitionError(f"block shape must be positive, got {self.block_shape}")

    @cached_property
    def n_block_rows(self) -> int:
        return math.ceil(self.shape[0] / self.block_shape[0])

    @cached_property
    def n_block_cols(self) -> int:
        return math.ceil(self.shape[1] / self.block_shape[1])

    @property
    def n_blocks(self) -> int:
        return self.n_block_rows * self.n_block_cols

    def row_range(self, block_row: int) -> range:
        """Global cell-row range of block row ``block_row``."""
        if not 0 <= block_row < self.n_block_rows:
            raise PartitionError(f"block row {block_row} out of range")
        br = self.block_shape[0]
        return range(block_row * br, min((block_row + 1) * br, self.shape[0]))

    def col_range(self, block_col: int) -> range:
        """Global cell-column range of block column ``block_col``."""
        if not 0 <= block_col < self.n_block_cols:
            raise PartitionError(f"block col {block_col} out of range")
        bc = self.block_shape[1]
        return range(block_col * bc, min((block_col + 1) * bc, self.shape[1]))

    def block_of(self, i: int, j: int) -> Tuple[int, int]:
        """Block id owning cell ``(i, j)``."""
        rows, cols = self.shape
        if not (0 <= i < rows and 0 <= j < cols):
            raise PartitionError(f"cell ({i}, {j}) outside grid {self.shape}")
        return (i // self.block_shape[0], j // self.block_shape[1])


class Partition:
    """A partitioned DAG Pattern Model (paper Fig 6b/6c).

    Attributes:
        base: the original cell-level pattern;
        abstract: the higher-level pattern whose vertices are sub-tasks;
        grid: block geometry mapping abstract vertices to cell ranges.

    ``kind`` tags the dependency family so that :meth:`sub_partition` can
    build the correct intra-block pattern (the slave-level DAG of the
    two-level runtime).
    """

    def __init__(self, base: DAGPattern, abstract: DAGPattern, grid: BlockGrid, kind: str) -> None:
        self.base = base
        self.abstract = abstract
        self.grid = grid
        self.kind = kind
        self._inner: Dict[Tuple, "Partition"] = {}

    # -- geometry -----------------------------------------------------------

    def block_ids(self) -> Iterator[VertexId]:
        """All sub-task ids, i.e. the abstract pattern's vertices."""
        return self.abstract.vertices()

    @property
    def n_blocks(self) -> int:
        return self.abstract.n_vertices()

    def block_ranges(self, bid: VertexId) -> Tuple[range, range]:
        """Global ``(row_range, col_range)`` of block ``bid``.

        Chain partitions return the 1D range twice for interface uniformity.
        """
        if self.kind == "chain":
            (idx,) = bid
            r = self.grid.row_range(idx)
            return (r, r)
        block_row, block_col = bid
        return (self.grid.row_range(block_row), self.grid.col_range(block_col))

    def is_diagonal_block(self, bid: VertexId) -> bool:
        """Whether ``bid`` sits on the main diagonal of a triangular partition."""
        return self.kind == "triangular" and bid[0] == bid[1]

    def cell_count(self, bid: VertexId) -> int:
        """Number of DP cells inside block ``bid`` (triangle-aware)."""
        rows, cols = self.block_ranges(bid)
        if self.kind == "chain":
            return len(rows)
        if self.is_diagonal_block(bid):
            h = len(rows)
            return h * (h + 1) // 2
        return len(rows) * len(cols)

    def total_cells(self) -> int:
        return sum(self.cell_count(b) for b in self.block_ids())

    # -- two-level partition ---------------------------------------------------

    def block_pattern(self, bid: VertexId) -> DAGPattern:
        """The intra-block cell-level pattern of sub-task ``bid``.

        Expressed in block-local coordinates; used as input to the slave
        (thread-level) partition.
        """
        rows, cols = self.block_ranges(bid)
        h, w = len(rows), len(cols)
        if self.kind == "wavefront":
            assert isinstance(self.base, WavefrontPattern)
            return WavefrontPattern(
                h,
                w,
                row_reversed=self.base.row_reversed,
                diagonal_data_dep=self.base.diagonal_data_dep,
            )
        if self.kind == "rowcol":
            assert isinstance(self.base, RowColPrefixPattern)
            return RowColPrefixPattern(h, w, row_reversed=self.base.row_reversed)
        if self.kind == "full2d":
            return Full2DPattern(h, w)
        if self.kind == "independent":
            return IndependentGridPattern(h, w)
        if self.kind == "chain":
            return ChainPattern(h)
        if self.kind == "triangular":
            if self.is_diagonal_block(bid):
                return TriangularPattern(h)
            # Off-diagonal blocks are rectangles whose cells need the whole
            # row segment to the left and column segment *below*: a
            # reversed-row prefix pattern.
            return RowColPrefixPattern(h, w, row_reversed=True)
        raise PartitionError(f"unknown partition kind {self.kind!r}")

    def sub_partition(self, bid: VertexId, thread_block_shape: BlockShape) -> "Partition":
        """Partition one sub-task for the thread level (paper step e).

        Built once per :meth:`inner_shape_key` and thread block shape and
        shared by every block of that shape, so its pattern's
        :meth:`~repro.dag.pattern.DAGPattern.topological_order` is drained
        once too. Partitions are immutable, so sharing is safe; two
        threads that miss at once build equal copies, and either serves."""
        key = (self.inner_shape_key(bid), _as_pair(thread_block_shape))
        inner = self._inner.get(key)
        if inner is None:
            inner = self._inner[key] = self.build_sub_partition(bid, thread_block_shape)
        return inner

    def build_sub_partition(self, bid: VertexId, thread_block_shape: BlockShape) -> "Partition":
        """A fresh thread-level partition of ``bid``; :meth:`sub_partition`
        is the cached entry point every caller uses."""
        return partition_pattern(self.block_pattern(bid), thread_block_shape)

    def inner_shape_key(self, bid: VertexId) -> Tuple:
        """Hashable key under which two blocks have the same
        :meth:`block_pattern`, hence the same :meth:`sub_partition` at any
        thread block shape: :meth:`sub_partition` is cached per key, and
        the simulator compiles one thread-level DAG per key. A subclass
        that overrides :meth:`build_sub_partition` overrides this with
        it."""
        rows, cols = self.block_ranges(bid)
        return (len(rows), len(cols), self.is_diagonal_block(bid))

    def check(self, **kwargs):
        """Run the :mod:`repro.check` partition verifier over this partition.

        Returns a :class:`~repro.check.diagnostics.CheckReport` covering the
        abstract pattern's invariants, block sizing, and preservation of
        every cell-level dependency by the coarse DAG.
        """
        from repro.check.pattern_check import check_partition

        return check_partition(self, **kwargs)

    def __repr__(self) -> str:
        return (
            f"Partition(kind={self.kind!r}, base={self.base!r}, "
            f"abstract={self.abstract!r}, blocks={self.n_blocks})"
        )


def partition_pattern(pattern: DAGPattern, block_shape: BlockShape) -> Partition:
    """Partition a cell-level pattern into a block-level :class:`Partition`.

    The abstract DAG belongs to the same dependency family as the base
    pattern (a blocked wavefront is a wavefront of blocks, a blocked
    triangular problem is a triangle of blocks, ...), which is what makes
    the two-level EasyHPS recursion close under partitioning.
    """
    br, bc = _as_pair(block_shape)
    if isinstance(pattern, TriangularPattern):
        if br != bc:
            raise PartitionError(
                f"triangular patterns need square blocks, got {(br, bc)}"
            )
        n_blocks = math.ceil(pattern.n / br)
        grid = BlockGrid(shape=(pattern.n, pattern.n), block_shape=(br, bc))
        return Partition(pattern, TriangularPattern(n_blocks), grid, "triangular")
    if isinstance(pattern, RowColPrefixPattern):
        grid = BlockGrid(shape=pattern.shape, block_shape=(br, bc))
        abstract = RowColPrefixPattern(
            grid.n_block_rows, grid.n_block_cols, row_reversed=pattern.row_reversed
        )
        return Partition(pattern, abstract, grid, "rowcol")
    if isinstance(pattern, IndependentGridPattern):
        grid = BlockGrid(shape=pattern.shape, block_shape=(br, bc))
        abstract = IndependentGridPattern(grid.n_block_rows, grid.n_block_cols)
        return Partition(pattern, abstract, grid, "independent")
    if isinstance(pattern, WavefrontPattern):
        grid = BlockGrid(shape=pattern.shape, block_shape=(br, bc))
        abstract = WavefrontPattern(
            grid.n_block_rows,
            grid.n_block_cols,
            row_reversed=pattern.row_reversed,
            diagonal_data_dep=pattern.diagonal_data_dep,
        )
        return Partition(pattern, abstract, grid, "wavefront")
    if isinstance(pattern, Full2DPattern):
        grid = BlockGrid(shape=pattern.shape, block_shape=(br, bc))
        abstract = Full2DPattern(grid.n_block_rows, grid.n_block_cols)
        return Partition(pattern, abstract, grid, "full2d")
    if isinstance(pattern, ChainPattern):
        n_blocks = math.ceil(pattern.n / br)
        grid = BlockGrid(shape=(pattern.n, 1), block_shape=(br, 1))
        return Partition(pattern, ChainPattern(n_blocks), grid, "chain")
    raise PartitionError(
        f"no built-in partition rule for {type(pattern).__name__}; "
        "partition custom patterns by supplying a block-level CustomPattern directly"
    )
