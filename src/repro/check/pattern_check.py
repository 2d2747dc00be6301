"""Static verification of DAG Pattern Models and partitions.

The verifier answers two questions the runtime otherwise takes on faith:

1. *Is the pattern a legal DAG Data Driven Model?* Every declared
   dependency must point at a real vertex, the ``predecessors`` /
   ``successors`` views must describe the same edge set, the
   data-communication level must contain the topological level (paper
   Fig 7), and the graph must be acyclic.
2. *Does partitioning preserve the dependencies?* Every cell-level data
   edge that crosses a block boundary must be covered by ancestry in the
   coarse (abstract) DAG — otherwise the master could ship a block whose
   inputs were never computed (paper Fig 6).
3. *Does the problem's data mapping agree with that DAG?* Every cell a
   block declares it reads must be initial data or written by an ancestor,
   and every block must write its own cells only (Table I's
   ``data_mapping_function``, :func:`check_data_mapping`).

Small patterns are checked exhaustively; large ones by randomized probing
(vertex reservoir sampling plus bounded backward random walks for cycle
detection), so the verifier is usable on cell-level grids too.
"""

from __future__ import annotations

import random
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.check import diagnostics as D
from repro.check.diagnostics import CheckReport
from repro.dag.partition import Partition
from repro.dag.pattern import DAGPattern, VertexId

#: Patterns at or below this vertex count are verified exhaustively.
DEFAULT_MAX_EXHAUSTIVE = 20_000

#: Partition kinds whose vertices are cells of the partition's BlockGrid,
#: for which the cell-edge preservation probe applies.
_GRID_KINDS = frozenset({"wavefront", "rowcol", "full2d", "independent", "chain", "triangular"})


def _sample_vertices(pattern: DAGPattern, k: int, rng: random.Random) -> List[VertexId]:
    """Reservoir-sample ``k`` vertices in one pass over ``vertices()``."""
    reservoir: List[VertexId] = []
    for n, vid in enumerate(pattern.vertices()):
        if n < k:
            reservoir.append(vid)
        else:
            j = rng.randint(0, n)
            if j < k:
                reservoir[j] = vid
    return reservoir


def _check_vertex(pattern: DAGPattern, vid: VertexId, report: CheckReport) -> None:
    """Local neighborhood checks of one vertex (all but acyclicity)."""
    subject = repr(vid)
    if not pattern.contains(vid):
        report.add(D.VIEW_MISMATCH, "vertices() yielded an id contains() rejects", subject)
        return
    preds = pattern.predecessors(vid)
    data_preds = set(pattern.data_predecessors(vid))
    for p in preds:
        if not pattern.contains(p):
            report.add(
                D.DEP_OUT_OF_BOUNDS, f"predecessor {p!r} is not a vertex of the pattern", subject
            )
            continue
        if vid not in pattern.successors(p):
            report.add(
                D.VIEW_MISMATCH, f"edge {p!r}->{vid!r} missing from the successors view", subject
            )
        if p not in data_preds:
            report.add(
                D.DATA_SUPERSET_VIOLATION,
                f"topological predecessor {p!r} absent from data dependencies (Fig 7)",
                subject,
            )
    for d in data_preds:
        if not pattern.contains(d):
            report.add(
                D.DEP_OUT_OF_BOUNDS, f"data dependency {d!r} is not a vertex of the pattern", subject
            )
    for s in pattern.successors(vid):
        if not pattern.contains(s):
            report.add(
                D.DEP_OUT_OF_BOUNDS, f"successor {s!r} is not a vertex of the pattern", subject
            )
        elif vid not in pattern.predecessors(s):
            report.add(
                D.VIEW_MISMATCH, f"edge {vid!r}->{s!r} missing from the predecessors view", subject
            )


def _check_acyclic_exhaustive(pattern: DAGPattern, report: CheckReport) -> None:
    """Kahn's peel over the whole pattern; a stall proves a cycle.

    The package's other peel is :class:`~repro.dag.parser.DAGParser`, but
    this one stays tolerant on purpose: it must diagnose patterns whose
    edges point outside the pattern, and the compiled parser cannot index
    those (it skips them here; the per-vertex pass reports them).
    """
    indegree: Dict[VertexId, int] = {}
    for vid in pattern.vertices():
        indegree[vid] = len(pattern.predecessors(vid))
    frontier = [v for v, d in indegree.items() if d == 0]
    seen = 0
    while frontier:
        v = frontier.pop()
        seen += 1
        for s in pattern.successors(v):
            if s not in indegree:
                continue  # out-of-bounds successor, reported per-vertex
            indegree[s] -= 1
            if indegree[s] == 0:
                frontier.append(s)
    if seen != len(indegree):
        report.add(
            D.PATTERN_CYCLE,
            f"only {seen} of {len(indegree)} vertices are topologically sortable",
        )


def _probe_cycles(
    pattern: DAGPattern,
    starts: List[VertexId],
    walk_depth: int,
    rng: random.Random,
    report: CheckReport,
) -> None:
    """Randomized backward walks: revisiting a vertex on the walk path
    proves a cycle (every backward path of a finite DAG terminates)."""
    for start in starts:
        path = [start]
        on_path = {start}
        cursor = start
        for _ in range(walk_depth):
            preds = [p for p in pattern.predecessors(cursor) if pattern.contains(p)]
            if not preds:
                break
            cursor = preds[rng.randrange(len(preds))]
            if cursor in on_path:
                loop = path[path.index(cursor):] + [cursor]
                report.add(
                    D.PATTERN_CYCLE,
                    "backward walk revisited "
                    f"{cursor!r} (cycle witness: {' <- '.join(map(repr, loop))})",
                    repr(start),
                )
                return
            path.append(cursor)
            on_path.add(cursor)


def check_pattern(
    pattern: DAGPattern,
    *,
    max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
    samples: int = 512,
    walk_depth: int = 512,
    seed: int = 0,
) -> CheckReport:
    """Verify one DAG Pattern Model; returns a :class:`CheckReport`.

    Patterns with at most ``max_exhaustive`` vertices are checked
    exhaustively (every vertex neighborhood plus a full topological
    peel). Larger patterns are probed: ``samples`` reservoir-sampled
    vertices get the neighborhood checks, and cycle detection degrades to
    randomized backward walks of ``walk_depth`` steps.
    """
    report = CheckReport(title=f"pattern-check({pattern!r})")
    rng = random.Random(seed)
    n = pattern.n_vertices()
    if n <= max_exhaustive:
        for vid in pattern.vertices():
            _check_vertex(pattern, vid, report)
            report.checked += 1
        _check_acyclic_exhaustive(pattern, report)
    else:
        sampled = _sample_vertices(pattern, samples, rng)
        for vid in sampled:
            _check_vertex(pattern, vid, report)
            report.checked += 1
        _probe_cycles(pattern, sampled, walk_depth, rng, report)
    return report


def _cell_owner(partition: Partition, cell: VertexId) -> VertexId:
    """Block id owning ``cell`` under a grid-family partition."""
    if partition.kind == "chain":
        return (cell[0] // partition.grid.block_shape[0],)
    return partition.grid.block_of(*cell)


def _ancestors(
    pattern: DAGPattern, vid: VertexId, cache: Dict[VertexId, FrozenSet[VertexId]]
) -> FrozenSet[VertexId]:
    """All strict topological ancestors of ``vid`` (memoized DFS)."""
    cached = cache.get(vid)
    if cached is not None:
        return cached
    out: Set[VertexId] = set()
    stack = list(pattern.predecessors(vid))
    while stack:
        p = stack.pop()
        if p in out:
            continue
        out.add(p)
        hit = cache.get(p)
        if hit is not None:
            out.update(hit)
        else:
            stack.extend(pattern.predecessors(p))
    frozen = frozenset(out)
    cache[vid] = frozen
    return frozen


def check_partition(
    partition: Partition,
    *,
    max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
    samples: int = 512,
    seed: int = 0,
) -> CheckReport:
    """Verify a partitioned DAG Pattern Model.

    Checks, in order: the abstract (block-level) pattern itself; that
    every block's intra-block pattern covers exactly the block's cells;
    and — for grid-family partitions — that every cell-level *data* edge
    crossing a block boundary is covered by block ancestry in the
    abstract DAG, so the master never dispatches a block before its
    inputs exist. Cell edges are checked exhaustively for small base
    patterns and by reservoir sampling for large ones.
    """
    report = CheckReport(title=f"partition-check({partition.kind!r})")
    report.extend(check_pattern(partition.abstract, max_exhaustive=max_exhaustive, seed=seed))

    rng = random.Random(seed)
    blocks = list(partition.block_ids())
    block_sample = blocks if len(blocks) <= samples else rng.sample(blocks, samples)
    for bid in block_sample:
        inner = partition.block_pattern(bid)
        if inner.n_vertices() != partition.cell_count(bid):
            report.add(
                D.PARTITION_SIZE_MISMATCH,
                f"block pattern has {inner.n_vertices()} vertices but the block "
                f"owns {partition.cell_count(bid)} cells",
                repr(bid),
            )
        report.checked += 1

    if partition.kind not in _GRID_KINDS:
        return report

    base = partition.base
    abstract = partition.abstract
    anc_cache: Dict[VertexId, FrozenSet[VertexId]] = {}
    if base.n_vertices() <= max_exhaustive:
        cells: List[VertexId] = list(base.vertices())
    else:
        cells = _sample_vertices(base, samples, rng)
    for cell in cells:
        owner = _cell_owner(partition, cell)
        rows, cols = partition.block_ranges(owner)
        in_rows = cell[0] in rows
        in_cols = True if partition.kind == "chain" else cell[1] in cols
        if not (in_rows and in_cols):
            report.add(
                D.PARTITION_SIZE_MISMATCH,
                f"cell maps to block {owner!r} whose ranges do not contain it",
                repr(cell),
            )
            continue
        for dep in base.data_predecessors(cell):
            if not base.contains(dep):
                continue  # reported by check_pattern on the base, if run
            dep_owner = _cell_owner(partition, dep)
            if dep_owner == owner:
                continue
            if dep_owner not in _ancestors(abstract, owner, anc_cache):
                report.add(
                    D.PARTITION_EDGE_LOST,
                    f"cell edge {dep!r}->{cell!r} crosses blocks {dep_owner!r}->{owner!r} "
                    "but the coarse DAG has no such ancestry",
                    repr(cell),
                )
        report.checked += 1
    return report


def _span(lo: int, hi: Optional[int]) -> Tuple[int, int]:
    """Half-open extent of one region axis (``hi`` None: the single index ``lo``)."""
    return (lo, lo + 1 if hi is None else hi)


def check_data_mapping(
    problem: Any, partition: Partition, *, samples: int = 512, seed: int = 0
) -> CheckReport:
    """Verify ``problem``'s declared data mapping against the abstract DAG.

    Writes: every output region must sit at the same place relative to its
    block's cell ranges (the state array's one origin), i.e. cover the
    block's own cells and nothing else. Reads: every cell of every input
    region must be written by no block at all (boundary / initial data),
    by an ancestor of the reader — the only blocks the master guarantees
    are committed at dispatch — or by the reader itself (an in-place
    update). Writers are taken from every block; readers are sampled like
    :func:`check_partition` samples blocks. On a staged partition
    (``FWPartition``: one writer per cell *per round*) this proves some
    version of each cell is committed before it is read; *which* round's
    version is the pattern's anti-dependence edges' job, not the mapping's.
    """
    report = CheckReport(title=f"data-mapping-check({problem.name})")
    blocks = list(partition.block_ids())
    origin: Dict[str, Tuple[int, ...]] = {}
    writes: List[Tuple[VertexId, str, int, int, int, int]] = []
    for bid in blocks:
        rows, cols = partition.block_ranges(bid)
        for name, (key, r0, r1, c0, c1) in problem.output_regions(partition, bid).items():
            (r0, r1), (c0, c1) = _span(r0, r1), _span(c0, c1)
            writes.append((bid, key, r0, r1, c0, c1))
            at = (r0 - rows.start, r1 - rows.stop)
            if partition.kind != "chain":  # a chain block owns whole rows
                at += (c0 - cols.start, c1 - cols.stop)
            if at != origin.setdefault(name, at):
                report.add(
                    D.MAPPING_WRITES_OUTSIDE_BLOCK,
                    f"output {name!r} = {key}[{r0}:{r1}, {c0}:{c1}] is displaced {at} from "
                    f"the block's cells, other blocks' by {origin[name]}",
                    repr(bid),
                )
        report.checked += 1

    rng = random.Random(seed)
    anc_cache: Dict[VertexId, FrozenSet[VertexId]] = {}
    for bid in blocks if len(blocks) <= samples else rng.sample(blocks, samples):
        committed = _ancestors(partition.abstract, bid, anc_cache) | {bid}
        for name, (key, r0, r1, c0, c1, _) in problem.input_regions(partition, bid).items():
            (r0, r1), (c0, c1) = _span(r0, r1), _span(c0, c1)
            written = np.zeros((r1 - r0, c1 - c0), dtype=bool)
            safe = written.copy()
            for writer, wkey, wr0, wr1, wc0, wc1 in writes:
                if wkey == key and wr0 < r1 and r0 < wr1 and wc0 < c1 and c0 < wc1:
                    overlap = np.s_[max(wr0, r0) - r0 : min(wr1, r1) - r0,
                                    max(wc0, c0) - c0 : min(wc1, c1) - c0]
                    written[overlap] = True
                    if writer in committed:
                        safe[overlap] = True
            early = np.argwhere(written & ~safe)
            if len(early):
                report.add(
                    D.MAPPING_READS_NON_ANCESTOR,
                    f"input {name!r} reads {key}[{early[0][0] + r0}, {early[0][1] + c0}] "
                    f"(and {len(early) - 1} more cells) that no ancestor of the block writes",
                    repr(bid),
                )
            report.checked += 1
    return report
