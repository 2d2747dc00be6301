"""The EasyHPS facade — the one entry point users call.

>>> from repro import EasyHPS, RunConfig
>>> from repro.algorithms import Nussinov
>>> system = EasyHPS(RunConfig(nodes=3, threads_per_node=2, backend="threads"))
>>> run = system.run(Nussinov.random(120, seed=1))
>>> run.value.score, run.report.makespan  # doctest: +SKIP

The facade resolves partition sizes, picks the backend, runs the
master/slave machinery (or the simulator), and finalizes the problem
state into the user-facing answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.algorithms.problem import DPProblem
from repro.analysis.report import RunReport
from repro.runtime.config import RunConfig
from repro.utils.errors import ConfigError, InconsistentMatrix


@dataclass
class RunResult:
    """Outcome of one :meth:`EasyHPS.run` call.

    ``value`` is the algorithm's finalized answer (None for the simulated
    backend, which models time but does not compute cells); ``state``
    holds the completed DP matrices when available.
    """

    value: Any
    state: Optional[Dict[str, np.ndarray]]
    report: RunReport


def _finalize(problem: DPProblem, state, run_id: Optional[str]) -> Any:
    """The user-facing answer; a matrix that contradicts its recurrence
    raises naming the run it came from."""
    if state is None:
        return None
    try:
        return problem.finalize(state)
    except InconsistentMatrix as exc:
        exc.run_id = run_id
        raise


class EasyHPS:
    """Multilevel hybrid parallel runtime for dynamic programming."""

    def __init__(self, config: Optional[RunConfig] = None) -> None:
        self.config = config or RunConfig()

    def run(
        self,
        problem: DPProblem,
        config: Optional[RunConfig] = None,
        resume: Optional[Any] = None,
    ) -> RunResult:
        """Execute one DP problem; ``config`` overrides the instance default.

        ``resume`` (a :class:`~repro.durable.recovery.RecoveredRun`)
        continues a journaled run after a master crash instead of
        starting from scratch. A journal that already covers the whole
        DAG short-circuits: the recovered state is finalized directly.
        """
        cfg = config or self.config
        if not isinstance(problem, DPProblem):
            raise ConfigError(
                f"problem must be a DPProblem, got {type(problem).__name__}"
            )
        if resume is not None and resume.complete:
            state = resume.state
            report = RunReport(
                backend=cfg.backend,
                scheduler=cfg.scheduler,
                algorithm=problem.name,
                nodes=cfg.nodes,
                threads_per_node=cfg.threads_per_node,
                makespan=0.0,
                wall_time=0.0,
                n_tasks=resume.n_tasks,
            )
            value = _finalize(problem, state, cfg.run_id)
            return RunResult(value=value, state=state, report=report)
        if cfg.backend == "serial":
            from repro.backends.serial import run_serial

            state, report = run_serial(problem, cfg, resume=resume)
        elif cfg.backend == "threads":
            from repro.backends.threads import run_threads

            state, report = run_threads(problem, cfg, resume=resume)
        elif cfg.backend == "processes":
            from repro.backends.processes import run_processes

            state, report = run_processes(problem, cfg, resume=resume)
        elif cfg.backend == "simulated":
            from repro.backends.simulated import run_simulated

            state, report = run_simulated(problem, cfg, resume=resume)
        else:  # pragma: no cover - RunConfig already validates
            raise ConfigError(f"unknown backend {cfg.backend!r}")
        value = _finalize(problem, state, cfg.run_id)
        return RunResult(value=value, state=state, report=report)

    def __repr__(self) -> str:
        return f"EasyHPS({self.config!r})"
