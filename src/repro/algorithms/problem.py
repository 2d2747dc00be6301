"""The DPProblem interface — what an application must provide to EasyHPS.

This is the Python rendering of the paper's user API (Table I): a problem
binds a DAG Pattern Model, a data-mapping rule (which cells a DAG vertex
reads and writes: :meth:`DPProblem.input_regions` /
:meth:`DPProblem.output_regions`, from which the data movement and its
byte model are derived), and a ``process`` function (here
:meth:`DPProblem.evaluator` + :meth:`BlockEvaluator.run_subblock`). On top
of the paper's C API we also require an explicit *cost model*
(:meth:`DPProblem.block_flops`, ...) because the performance experiments
run on a simulated cluster — see DESIGN.md's substitution table.

Execution contract
------------------

The master owns the global problem state (the DP matrix). For each
sub-task ``bid`` it calls :meth:`extract_inputs` and ships the result to a
slave; the slave builds a :class:`BlockEvaluator` from it, runs the
sub-sub-tasks of the thread-level partition through
:meth:`BlockEvaluator.run_subblock` (in any order consistent with the
intra-block DAG; sub-blocks touching disjoint cells may run concurrently),
and ships :meth:`BlockEvaluator.outputs` back; the master merges it with
:meth:`apply_result`. :meth:`finalize` turns the completed state into the
user-facing answer (score, alignment, structure...).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dag.partition import BlockShape, Partition, _as_pair
from repro.dag.pattern import DAGPattern, VertexId

#: Bytes per DP matrix element shipped over the (simulated) wire.
ELEMENT_BYTES = 8

#: One rectangle of one state array, ``(key, r0, r1, c0, c1)``: the cells
#: ``state[key][r0:r1, c0:c1]``. ``r1`` (``c1``) ``None`` selects the single
#: row ``r0`` (column ``c0``) and drops that axis, so the array on the wire
#: is 1-D. Plain tuples: the simulator sizes the regions of every dispatch.
Region = Tuple[str, int, Optional[int], int, Optional[int]]
#: An input region also names its *holder*: the predecessor block whose
#: executor has all of these cells in memory once it ran (it was shipped
#: them or computed them), or ``None`` when no single block does.
InputRegion = Tuple[str, int, Optional[int], int, Optional[int], Optional[VertexId]]

#: Smallest region edge the default thread-level cut produces from a larger
#: block: the edge at which a region's kernel time first covers the pool
#: handoff it costs. Measured on a 2-core box (``repro calibrate``, edit
#: distance): a block cut 2 x 2 and drained by the slave worker pool costs
#: 0.06-0.2 ms a region more than the same regions run inline (threads
#: started, dispatch core, stack and finished-queue round trip), and one
#: region runs in 0.03-0.06 ms at 16 x 16, 0.07-0.2 ms at 32 x 32, 0.25-0.45
#: at 64 x 64. A dearer kernel covers it earlier (SWGG from 8 x 8); one
#: constant, set for the cheap kernels, costs those nothing the pool buys.
MIN_REGION_EDGE = 32


def region_index(r0: int, r1: Optional[int], c0: int, c1: Optional[int]) -> tuple:
    """The numpy index selecting a region's cells out of its state array."""
    return (r0 if r1 is None else slice(r0, r1), c0 if c1 is None else slice(c0, c1))


class BlockEvaluator(ABC):
    """Slave-side computation of one sub-task (one abstract-DAG vertex).

    The evaluator owns a private working buffer assembled from the shipped
    inputs. ``run_subblock`` must only read cells that the intra-block DAG
    guarantees are already computed, and must write only its own cells —
    that discipline is what lets the slave worker pool run sub-sub-tasks
    on concurrent threads against the shared buffer.
    """

    @abstractmethod
    def run_subblock(self, local_rows: range, local_cols: range) -> None:
        """Compute the cells of one sub-sub-task, in block-local coordinates."""

    @abstractmethod
    def outputs(self) -> Dict[str, np.ndarray]:
        """The computed block data to return to the master."""

    def run_serial(self, inner: Partition) -> Dict[str, np.ndarray]:
        """Execute the whole block by draining the inner DAG serially."""
        for sub_bid in inner.abstract.topological_order():
            rows, cols = inner.block_ranges(sub_bid)
            self.run_subblock(rows, cols)
        return self.outputs()


class DPProblem(ABC):
    """A dynamic-programming application runnable under EasyHPS.

    Subclasses are immutable descriptions of a concrete instance (the
    sequences to align, the chain dimensions, ...). All methods are pure
    with respect to the instance so one problem object can be shared
    across backends and repeated runs.
    """

    #: Human-readable algorithm name (used in reports and benchmarks).
    name: str = "dp-problem"
    #: Whether a committed block's inputs can be extracted from the state
    #: again for the rest of the run — what an audit recompute, and the
    #: taint recompute a conviction starts, read. A store that frees
    #: consumed blocks as it goes (``retain="boundary"``) says no.
    recomputable: bool = True

    @property
    def size(self) -> Optional[int]:
        """The ``size`` at which ``ALGORITHMS[name](size, seed)`` has this
        instance's DAG at every seed — what a trace's workload metadata
        records, so ``repro perf`` can rebuild the DAG; None when the DAG
        depends on the seed."""
        return getattr(self, "n", None)

    # -- structure ----------------------------------------------------------

    @abstractmethod
    def pattern(self) -> DAGPattern:
        """The cell-level DAG Pattern Model of this instance."""

    def build_partition(self, process_partition) -> Partition:
        """The process-level partition the runtime schedules.

        Default: block-partition the cell-level pattern with the built-in
        family rules. Problems whose schedulable DAG is not a blocked
        version of a cell grid (e.g. staged algorithms like blocked
        Floyd-Warshall) override this and return their own
        :class:`Partition`.
        """
        from repro.dag.partition import partition_pattern

        return partition_pattern(self.pattern(), process_partition)

    def default_partition_sizes(
        self, threads: int = 1, process_partition: Optional[BlockShape] = None
    ) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """(process, thread) sizes, as ``(rows, cols)`` pairs, of a run that
        names no thread size (``process_partition``: its process size when it
        names one). Per axis a block is cut into as many regions as its node
        has computing ``threads`` (Fig 11 step e) — the whole block for one,
        else the coarsest split whose widest anti-diagonal feeds them all:
        cost per cell only falls as regions grow (``repro calibrate``) — but
        never into regions under ``MIN_REGION_EDGE``, which could not pay for
        their own handoff: a block too small to share stays whole. An
        override decides the process-level default alone and passes it up."""
        if process_partition is None:
            shape = getattr(self.pattern(), "shape", None)
            n = shape[0] if shape else getattr(self.pattern(), "n")
            process_partition = max(1, n // 8)
        proc = _as_pair(process_partition)
        cuts = [max(1, min(threads, edge // MIN_REGION_EDGE)) for edge in proc]
        return proc, (proc[0] // cuts[0], proc[1] // cuts[1])

    # -- master-side state ----------------------------------------------------

    @abstractmethod
    def make_state(self) -> Dict[str, np.ndarray]:
        """Allocate the global DP state (matrices with boundary conditions)."""

    @abstractmethod
    def input_regions(self, partition: Partition, bid: VertexId) -> Dict[str, InputRegion]:
        """The cells block ``bid`` reads, by input name (Table I's
        ``data_mapping_function``, read side).

        Must be *sufficient* — cover every cell the evaluator touches
        outside its own block — and every cell must be boundary data or
        written by an ancestor of ``bid``; ``repro check`` verifies the
        latter against :meth:`output_regions` and the abstract DAG.
        """

    @abstractmethod
    def output_regions(self, partition: Partition, bid: VertexId) -> Dict[str, Region]:
        """The cells block ``bid`` writes, by :meth:`BlockEvaluator.outputs` name."""

    def extract_inputs(
        self, state: Dict[str, np.ndarray], partition: Partition, bid: VertexId
    ) -> Dict[str, np.ndarray]:
        """Slice out exactly the data block ``bid`` needs (data-comm level).

        The returned arrays are copies (a real master would serialize them
        onto the wire), so a slave can never scribble on master state.
        """
        return {
            name: state[key][region_index(r0, r1, c0, c1)].copy()
            for name, (key, r0, r1, c0, c1, _) in self.input_regions(partition, bid).items()
        }

    def apply_result(
        self,
        state: Dict[str, np.ndarray],
        partition: Partition,
        bid: VertexId,
        outputs: Dict[str, np.ndarray],
    ) -> None:
        """Merge a finished block back into the global state."""
        for name, (key, r0, r1, c0, c1) in self.output_regions(partition, bid).items():
            state[key][region_index(r0, r1, c0, c1)] = outputs[name]

    @abstractmethod
    def finalize(self, state: Dict[str, np.ndarray]) -> Any:
        """Produce the user-facing result from the completed state."""

    # -- slave-side computation ----------------------------------------------------

    @abstractmethod
    def evaluator(
        self, partition: Partition, bid: VertexId, inputs: Dict[str, np.ndarray]
    ) -> BlockEvaluator:
        """Build the slave-side evaluator for block ``bid``."""

    # -- reference ------------------------------------------------------------------

    @abstractmethod
    def reference(self) -> Any:
        """Straightforward serial implementation, used as ground truth in tests."""

    # -- cost model (simulated backend) ------------------------------------------------

    def region_flops(self, rows: range, cols: range, diagonal: bool = False) -> float:
        """Work units (≈ cell-update operations) of an arbitrary cell region.

        ``rows``/``cols`` are *global* cell ranges; ``diagonal`` marks a
        triangular region sitting on the problem's main diagonal. The
        default charges one unit per cell; algorithms with per-cell cost
        depending on position (SWGG, Nussinov) override this, and the
        simulator uses it for thread-level sub-blocks too.
        """
        if diagonal:
            h = len(rows)
            return h * (h + 1) / 2.0
        return float(len(rows) * len(cols))

    def block_flops(self, partition: Partition, bid: VertexId) -> float:
        """Work units of block ``bid`` (derived from :meth:`region_flops`)."""
        rows, cols = partition.block_ranges(bid)
        return self.region_flops(rows, cols, partition.is_diagonal_block(bid))

    def subblock_costs(
        self, partition: Partition, bid: VertexId, local_ranges: Sequence[Tuple[range, range]]
    ) -> List[float]:
        """Work units of thread-level sub-blocks of block ``bid``, one per
        ``(local_rows, local_cols)`` of ``local_ranges``, in that order.

        The default translates block-local ranges to global cell ranges
        and defers to :meth:`region_flops`; the block's own ranges are
        looked up once for the whole batch. Staged algorithms whose cost
        depends on the *stage* rather than cell position (Floyd-Warshall)
        override this directly.
        """
        rows, cols = partition.block_ranges(bid)
        r0, c0 = rows.start, cols.start
        # Inner sub-blocks sitting on the problem diagonal (only possible
        # inside a diagonal block of a triangular partition) are triangles.
        diagonal = partition.is_diagonal_block(bid)
        flops = self.region_flops
        costs = []
        for lr, lc in local_ranges:
            grows = range(r0 + lr.start, r0 + lr.stop)
            gcols = range(c0 + lc.start, c0 + lc.stop)
            costs.append(flops(grows, gcols, diagonal and grows == gcols))
        return costs

    def block_cost_class(self, partition: Partition, bid: VertexId) -> object:
        """Hashable key under which two blocks have identical inner cost
        structure (same shape and same per-cell cost profile).

        The simulator memoizes thread-level schedules per class, which
        collapses the thousands of cost-identical blocks of a regular DP
        grid. The default key is exact for position-independent cell
        costs; position-dependent problems (SWGG, triangular) refine it.
        """
        rows, cols = partition.block_ranges(bid)
        return (len(rows), len(cols), partition.is_diagonal_block(bid))

    def input_bytes(self, partition: Partition, bid: VertexId) -> int:
        """Bytes the master must ship to the slave for block ``bid``: the
        cells of its declared input regions."""
        return self.cached_input_bytes(partition, bid, ())

    def output_bytes(self, partition: Partition, bid: VertexId) -> int:
        """Bytes the slave returns: the block's computed cells.

        Charged per DP cell, not per declared output cell: a diagonal
        block of a triangular partition returns its whole square (zeros
        below the diagonal included) but is charged its triangle. Sizing
        it from :meth:`output_regions` would move the Fig 14/16/17
        makespans; ``tests/test_data_mapping.py`` pins the difference.
        """
        return ELEMENT_BYTES * partition.cell_count(bid)

    def cached_input_bytes(self, partition: Partition, bid: VertexId, node_history) -> int:
        """Bytes to ship when the target node already executed the blocks
        in ``node_history`` (affinity scheduling, simulated backend):
        every input region but those whose holder the node has run."""
        cells = 0
        for _, r0, r1, c0, c1, holder in self.input_regions(partition, bid).values():
            if holder not in node_history:
                cells += (1 if r1 is None else r1 - r0) * (1 if c1 is None else c1 - c0)
        return ELEMENT_BYTES * cells

    def total_flops(self, partition: Partition) -> float:
        """Total work of the instance under this partition."""
        return sum(self.block_flops(partition, b) for b in partition.block_ids())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
