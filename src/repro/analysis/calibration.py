"""Calibrating the simulated cluster against real measurements.

The simulator charges abstract work units through ``NodeSpec.flops_per_second``.
To make simulated makespans comparable to *this machine's* real compute
capability, :func:`calibrate_node` times actual block evaluations of a
problem and fits the rate; :func:`calibration_report` shows the per-block
fit quality so a bad cost model is visible instead of silently absorbed.

The communication side is calibrated from *traces* rather than re-runs:
instrumented channels stamp every ``msg-send`` with measured serialize +
transport durations, a trace's profile collects them
(``PerfProfile.link_samples``), and :func:`fit_link` least-squares those
latency-vs-size samples into the simulator's alpha+beta
:class:`~repro.cluster.network.LinkModel`. :func:`link_fit_report` diffs
the fit against a reference model so a simulated network that no longer
matches the measured one is visible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.algorithms.problem import DPProblem
from repro.cluster.machine import NodeSpec
from repro.cluster.network import LinkModel
from repro.dag.partition import BlockShape
from repro.dag.pattern import VertexId
from repro.obs.prof import LinkSample
from repro.utils.errors import ConfigError


@dataclass(frozen=True)
class CalibrationSample:
    """One timed block evaluation."""

    bid: VertexId
    flops: float
    seconds: float

    @property
    def rate(self) -> float:
        """Work units per second achieved on this block."""
        if self.seconds <= 0:
            raise ValueError("non-positive sample duration")
        return self.flops / self.seconds


def measure_blocks(
    problem: DPProblem,
    process_partition: BlockShape,
    thread_partition: BlockShape,
    block_ids: Optional[Sequence[VertexId]] = None,
    repeats: int = 1,
) -> List[CalibrationSample]:
    """Time real (serial) evaluations of selected blocks.

    Blocks default to a spread across the abstract DAG (first, middle,
    last in topological order) so position-dependent cost models get
    probed at both ends.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    partition = problem.build_partition(process_partition)
    order = list(partition.abstract.topological_order())
    if block_ids is None:
        picks = sorted({0, len(order) // 2, len(order) - 1})
        block_ids = [order[i] for i in picks]
    # Evaluate prerequisites once so each measured block has real inputs.
    state = problem.make_state()
    needed = set(block_ids)
    samples: List[CalibrationSample] = []
    for bid in order:
        if len(samples) == len(needed):
            break  # nothing measured depends on the rest
        inputs = problem.extract_inputs(state, partition, bid)
        inner = partition.sub_partition(bid, thread_partition)
        if bid in needed:
            best = float("inf")
            for _ in range(repeats):
                evaluator = problem.evaluator(partition, bid, inputs)
                started = time.perf_counter()
                outputs = evaluator.run_serial(inner)
                best = min(best, time.perf_counter() - started)
            samples.append(
                CalibrationSample(bid=bid, flops=problem.block_flops(partition, bid), seconds=best)
            )
        else:
            outputs = problem.evaluator(partition, bid, inputs).run_serial(inner)
        problem.apply_result(state, partition, bid, outputs)
    return samples


def ns_per_cell(
    problem: DPProblem, process_partition: BlockShape, thread_partition: BlockShape, repeats: int = 1
) -> float:
    """Kernel nanoseconds per block cell at one thread-level grain: the curve
    the default thread partition assumes falls as regions grow."""
    partition = problem.build_partition(process_partition)
    samples = measure_blocks(problem, process_partition, thread_partition, repeats=repeats)
    spans = [partition.block_ranges(s.bid) for s in samples]
    return 1e9 * sum(s.seconds for s in samples) / sum(len(r) * len(c) for r, c in spans)


def pool_handoff_seconds(
    problem: DPProblem, process_partition: BlockShape, repeats: int = 3
) -> Tuple[float, float]:
    """What the slave worker pool costs beyond the kernels it runs, on the
    first block of ``process_partition`` with two computing threads:
    ``(one, per_region)`` — seconds to build and drain the pool for a block
    left as one region, and the pool's seconds per region handed off when
    the block is cut 2 x 2 (each net of ``run_serial`` over the same
    regions, so whatever the two threads overlap is already credited). The
    floor under the default thread-level cut (``MIN_REGION_EDGE``) is the
    region edge whose kernel time covers ``per_region``.

    Measured through ``SlavePart._compute``, the pool's one call site: a
    thread-level fault plan naming no region of the block asks for Fig 12's
    path without ever firing.
    """
    import threading

    from repro.cluster.faults import FaultPlan, FaultRule, Faults
    from repro.comm.messages import TaskAssign
    from repro.comm.transport import channel_pair
    from repro.dag.partition import _as_pair
    from repro.runtime.assembly import RunAssembly
    from repro.runtime.config import RunConfig

    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    proc = _as_pair(process_partition)
    half = (max(1, proc[0] // 2), max(1, proc[1] // 2))
    partition = problem.build_partition(proc)
    bid = next(iter(partition.abstract.topological_order()))
    inputs = problem.extract_inputs(problem.make_state(), partition, bid)
    assign = TaskAssign(task_id=bid, epoch=0, inputs=inputs)
    never = Faults(thread=FaultPlan([FaultRule("crash", ("no-such-region",), 0)]))

    def seconds(thread_size, **knobs) -> float:
        config = RunConfig(process_partition=proc, thread_partition=thread_size, **knobs)
        part = RunAssembly(config, problem).slave(0, channel_pair()[0], threading.Event())
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            part._compute(assign)
            best = min(best, time.perf_counter() - started)
        return best

    pooled = dict(threads_per_node=2, faults=never)
    one = seconds(proc, **pooled) - seconds(proc, threads_per_node=1)
    cut = seconds(half, **pooled) - seconds(half, threads_per_node=1)
    return one, cut / partition.sub_partition(bid, half).n_blocks


def region_seconds(
    problem: DPProblem, process_partition: BlockShape, edges: Sequence[int], repeats: int = 3
) -> List[Tuple[int, float]]:
    """Kernel seconds of one ``edge x edge`` region, for each of ``edges``:
    the head region of the first block of ``process_partition`` (the one
    region of a block that needs nothing but the block's own inputs)."""
    partition = problem.build_partition(process_partition)
    bid = next(iter(partition.abstract.topological_order()))
    inputs = problem.extract_inputs(problem.make_state(), partition, bid)
    timed = []
    for edge in edges:
        inner = partition.sub_partition(bid, edge)
        rows, cols = inner.block_ranges(next(iter(inner.abstract.topological_order())))
        best = float("inf")
        for _ in range(repeats):
            evaluator = problem.evaluator(partition, bid, inputs)
            started = time.perf_counter()
            evaluator.run_subblock(rows, cols)
            best = min(best, time.perf_counter() - started)
        timed.append((edge, best))
    return timed


def fit_rate(samples: Sequence[CalibrationSample]) -> float:
    """Aggregate work-per-second over all samples (total flops / total s)."""
    if not samples:
        raise ConfigError("need at least one calibration sample")
    total_flops = sum(s.flops for s in samples)
    total_seconds = sum(s.seconds for s in samples)
    if total_seconds <= 0:
        raise ConfigError("calibration samples have zero total duration")
    return total_flops / total_seconds


def calibrate_node(
    problem: DPProblem,
    process_partition: BlockShape,
    thread_partition: BlockShape,
    base: Optional[NodeSpec] = None,
    repeats: int = 2,
) -> Tuple[NodeSpec, List[CalibrationSample]]:
    """A NodeSpec whose single-thread rate matches this host for ``problem``.

    Returns the spec plus the raw samples (for :func:`calibration_report`).
    Contention/overheads are kept from ``base`` — calibrating those needs
    real multicore hardware, which is exactly what this repo simulates.
    """
    samples = measure_blocks(problem, process_partition, thread_partition, repeats=repeats)
    rate = fit_rate(samples)
    spec = base or NodeSpec(threads=1)
    return replace(spec, flops_per_second=rate), samples


def fit_link(samples: Sequence[LinkSample]) -> LinkModel:
    """Least-squares alpha+beta fit: ``seconds = latency + nbytes / bandwidth``.

    The slope is clamped positive (a descending fit means the sizes do
    not explain the durations — the latency term then carries the mean)
    and the intercept is clamped non-negative.
    """
    if len(samples) < 2:
        raise ConfigError(f"link fit needs >= 2 samples, got {len(samples)}")
    n = float(len(samples))
    mean_x = sum(s.nbytes for s in samples) / n
    mean_y = sum(s.seconds for s in samples) / n
    sxx = sum((s.nbytes - mean_x) ** 2 for s in samples)
    if sxx <= 0:
        raise ConfigError(
            "link fit needs spread in message sizes (all samples are "
            f"{samples[0].nbytes} bytes)"
        )
    sxy = sum((s.nbytes - mean_x) * (s.seconds - mean_y) for s in samples)
    slope = max(sxy / sxx, 0.0)
    latency = max(mean_y - slope * mean_x, 0.0)
    bandwidth = 1.0 / slope if slope > 0 else 1e15
    return LinkModel(latency=latency, bandwidth=bandwidth)


def link_fit_report(
    samples: Sequence[LinkSample], reference: Optional[LinkModel] = None
) -> str:
    """The fitted link model, its residuals, and the diff vs a reference.

    ``reference`` is the simulated cluster's configured link; the
    per-sample mean absolute relative error against both models says
    whether the simulator's network still matches the measured one.
    """
    fitted = fit_link(samples)
    lines = [
        f"link fit over {len(samples)} messages "
        f"({min(s.nbytes for s in samples)}..{max(s.nbytes for s in samples)} bytes):",
        f"  fitted  : latency {fitted.latency:.4g} s, "
        f"bandwidth {fitted.bandwidth:.4g} B/s",
        f"  fit MARE: {_link_mare(samples, fitted):.1%} "
        "(mean |predicted - observed| / observed)",
    ]
    if reference is not None:
        lines.append(
            f"  reference: latency {reference.latency:.4g} s, "
            f"bandwidth {reference.bandwidth:.4g} B/s "
            f"(MARE {_link_mare(samples, reference):.1%})"
        )
        lat_x = fitted.latency / reference.latency if reference.latency > 0 else float("inf")
        bw_x = fitted.bandwidth / reference.bandwidth
        lines.append(
            f"  fitted vs reference: latency {lat_x:.3g}x, bandwidth {bw_x:.3g}x"
        )
    return "\n".join(lines)


def _link_mare(samples: Sequence[LinkSample], model: LinkModel) -> float:
    errs = [
        abs(model.transfer_time(s.nbytes) - s.seconds) / s.seconds
        for s in samples
        if s.seconds > 0
    ]
    return sum(errs) / len(errs) if errs else 0.0


def calibration_report(samples: Sequence[CalibrationSample]) -> str:
    """Per-block achieved rates and the dispersion of the fit."""
    from repro.analysis.tables import ascii_table

    rate = fit_rate(samples)
    rows = [
        [str(s.bid), f"{s.flops:.3g}", f"{s.seconds * 1e3:.2f}", f"{s.rate:.3g}",
         f"{s.rate / rate:.2f}x"]
        for s in samples
    ]
    spread = max(s.rate for s in samples) / min(s.rate for s in samples)
    table = ascii_table(["block", "flops", "ms", "rate (flops/s)", "vs fit"], rows)
    return (
        f"{table}\n"
        f"fitted rate: {rate:.4g} work units/s; per-block spread {spread:.2f}x\n"
        + ("WARNING: spread > 3x — the cost model misfits this problem\n" if spread > 3 else "")
    )
