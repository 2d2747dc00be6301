"""Threads backend: real master/slave runtime inside one process.

Slave parts run on threads and talk to the master over queue channels.
This exercises every protocol and worker-pool code path with true
concurrency; because of CPython's GIL it demonstrates *correctness* of the
thread level rather than speedup (see DESIGN.md) — timing experiments use
the simulated backend.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Tuple

import numpy as np

from repro.algorithms.problem import DPProblem
from repro.analysis.report import RunReport
from repro.runtime.assembly import RunAssembly
from repro.runtime.config import RunConfig


def run_threads(
    problem: DPProblem, config: RunConfig, resume=None
) -> Tuple[Dict[str, np.ndarray], RunReport]:
    """Execute ``problem`` with ``config.n_slaves`` slave threads.

    ``resume`` (a :class:`~repro.durable.recovery.RecoveredRun`) continues
    a journaled run: committed sub-tasks prime the dispatch core instead
    of being re-dispatched.
    """
    asm = RunAssembly(config, problem, resume)
    stop = threading.Event()
    master_channels, slaves = asm.inprocess_slaves(stop)
    # ``config.shm`` is meaningless in-process and ignored here.
    master = asm.master(master_channels)

    slave_threads = [
        threading.Thread(target=s.run, daemon=True, name=f"slave{s.slave_id}") for s in slaves
    ]
    started = time.perf_counter()
    for t in slave_threads:
        t.start()
    try:
        state = master.run()
    finally:
        stop.set()
        for t in slave_threads:
            t.join(timeout=10.0)
    elapsed = time.perf_counter() - started

    return state, asm.report("threads", master, elapsed, [s.stats for s in slaves])
