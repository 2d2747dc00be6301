"""Batch verification of everything this package ships.

``run_builtin_checks`` sweeps the whole built-in surface — every library
pattern at several shapes (including the reversed-row and diagonal
variants the triangular partition relies on), every bundled algorithm's
cell-level pattern, its process-level partition, its data mapping, and
one thread-level sub-partition — through the static verifier. This is what
``repro check --all-builtin`` and the parametrized test suite run; a new
pattern or algorithm is covered automatically once registered.

``conformance_cases`` is what ``repro check --protocol`` runs: observed
runs of every backend replayed into a fresh dispatch core.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, List, Tuple

from repro.check.diagnostics import CheckReport, merge_reports
from repro.check.pattern_check import check_data_mapping, check_partition, check_pattern
from repro.dag.partition import Partition
from repro.dag.pattern import DAGPattern
from repro.utils.errors import ConfigError

#: The smallest conformance size whose process grid has a block (1, 1)
#: (block edge ``max(2, size // 4)``), which the faulted run duplicates.
MIN_CONFORMANCE_SIZE = 3

#: name -> zero-arg factory for every built-in pattern variant checked.
def builtin_pattern_cases() -> Dict[str, Callable[[], DAGPattern]]:
    from repro.algorithms.floyd_warshall import FloydWarshallPattern
    from repro.dag.library import (
        ChainPattern,
        Full2DPattern,
        IndependentGridPattern,
        RowColPrefixPattern,
        TriangularPattern,
        WavefrontPattern,
    )

    return {
        "wavefront-6x9": lambda: WavefrontPattern(6, 9),
        "wavefront-1x1": lambda: WavefrontPattern(1, 1),
        "wavefront-reversed-7x5": lambda: WavefrontPattern(7, 5, row_reversed=True),
        "wavefront-no-diag-5x5": lambda: WavefrontPattern(5, 5, diagonal_data_dep=False),
        "rowcol-prefix-6x8": lambda: RowColPrefixPattern(6, 8),
        "rowcol-prefix-reversed-8x6": lambda: RowColPrefixPattern(8, 6, row_reversed=True),
        "triangular-9": lambda: TriangularPattern(9),
        "triangular-1": lambda: TriangularPattern(1),
        "full-2d-5x7": lambda: Full2DPattern(5, 7),
        "independent-4x6": lambda: IndependentGridPattern(4, 6),
        "chain-12": lambda: ChainPattern(12),
        "floyd-warshall-4": lambda: FloydWarshallPattern(4),
        # Large enough to exercise the sampled (non-exhaustive) path.
        "wavefront-large-600x600": lambda: WavefrontPattern(600, 600),
    }


def check_algorithm(problem: Any, *, block: int = 7, thread_block: int = 3) -> CheckReport:
    """Verify one algorithm's pattern, partition, data mapping, and a sub-partition."""
    reports: List[CheckReport] = []
    pattern = problem.pattern()
    reports.append(check_pattern(pattern))
    partition: Partition = problem.build_partition(block)
    reports.append(check_partition(partition))
    reports.append(check_data_mapping(problem, partition))
    # One thread-level sub-partition: the first schedulable block.
    first = next(iter(partition.block_ids()))
    reports.append(check_partition(partition.sub_partition(first, thread_block)))
    merged = merge_reports(f"algorithm-check({problem.name})", reports)
    return merged


def run_builtin_checks(*, algo_size: int = 24, seed: int = 0) -> List[Tuple[str, CheckReport]]:
    """Verify every built-in pattern and algorithm; returns (name, report)."""
    from repro.algorithms import ALGORITHMS, make_problem
    from repro.check.ast_lint import (
        check_clock_discipline,
        check_config_fields,
        check_lock_discipline,
        check_message_dispatch,
    )

    results: List[Tuple[str, CheckReport]] = []
    for name, factory in builtin_pattern_cases().items():
        results.append((f"pattern:{name}", check_pattern(factory(), samples=128)))
    for name in sorted(ALGORITHMS):
        problem = make_problem(name, algo_size, seed)
        results.append((f"algorithm:{name}", check_algorithm(problem)))
    # Source-level discipline lints ride every --all-builtin sweep: they
    # are static (no run needed) and cheap next to the pattern checks above.
    results.append(("lint:lock-discipline", check_lock_discipline()))
    results.append(("lint:clock-discipline", check_clock_discipline()))
    results.append(("lint:config-fields", check_config_fields()))
    results.append(("lint:message-dispatch", check_message_dispatch()))
    return results


def conformance_configs(size: int = 24) -> List[Tuple[str, Any]]:
    """The observed runs ``repro check --protocol`` replays: one clean run
    per backend, and one threads run whose link duplicates a result (the
    copy lands while the first is accepted and awaiting commit, or just
    committed) and loses another (overtime check, redistribute, re-run)."""
    from repro.cluster.faults import Faults, MessageFaultPlan, MessageFaultRule
    from repro.runtime.config import RunConfig

    block = max(2, size // 4)
    if size <= block:
        raise ConfigError(
            f"conformance size {size} is a single block: the faulted run's "
            f"duplicate of block (1, 1) could never fire; use a size of at "
            f"least {MIN_CONFORMANCE_SIZE}"
        )
    base = RunConfig(nodes=3, threads_per_node=2, process_partition=block, observe=True)
    link = MessageFaultPlan(
        (
            MessageFaultRule("duplicate", "recv", "BatchResult", task_id=(1, 1)),
            # Each slave's second message: the first result of whoever
            # was handed block (0, 0).
            MessageFaultRule("drop", "recv", "BatchResult", index=1),
        )
    )
    return [
        *((b, replace(base, backend=b)) for b in ("simulated", "threads", "processes")),
        ("threads-faulted", replace(base, faults=Faults(message=link), task_timeout=0.5)),
    ]


def conformance_cases(size: int = 24, seed: int = 0) -> List[Tuple[str, CheckReport]]:
    """Run small observed instances and replay each recorded stream into
    a fresh dispatch core — every backend the same way, one wavefront
    instance sized for seconds. ``repro check --protocol`` runs these
    after the message-dispatch lint."""
    from repro import EasyHPS
    from repro.algorithms.edit_distance import EditDistance
    from repro.check.trace_check import check_trace

    configs = conformance_configs(size)
    problem = EditDistance.random(size, seed=seed)
    out: List[Tuple[str, CheckReport]] = []
    for name, config in configs:
        run = EasyHPS(config).run(problem)
        pattern = problem.build_partition(config.partitions_for(problem)[0]).abstract
        report = check_trace(run.report.events or (), pattern, title=f"conformance:{name}")
        out.append((f"protocol:conformance:{name}", report))
    return out
