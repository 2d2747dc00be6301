"""Processes backend: slave parts as OS processes — the MPI stand-in.

Each slave is a ``multiprocessing.Process`` running
:func:`repro.runtime.slave.slave_process_main`; messages pickle across OS
pipes exactly where MPI messages would flow. Problems must therefore be
picklable (all bundled algorithms are). This backend achieves real
parallel speedup for compute-heavy instances but exists primarily to
prove the distributed protocol; timing figures come from the simulator.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import Dict, Tuple

import numpy as np

from repro.algorithms.problem import DPProblem
from repro.analysis.report import RunReport
from repro.cluster.faults import io_policy
from repro.comm.shm import BlockStore, drain_shm_errors, run_prefix, sweep_segments
from repro.comm.transport import PipeChannel
from repro.runtime.assembly import RunAssembly
from repro.runtime.config import RunConfig
from repro.runtime.slave import slave_process_main


def run_processes(
    problem: DPProblem, config: RunConfig, resume=None
) -> Tuple[Dict[str, np.ndarray], RunReport]:
    """Execute ``problem`` with ``config.n_slaves`` slave processes.

    ``resume`` (a :class:`~repro.durable.recovery.RecoveredRun`) continues
    a journaled run after a master crash — including a real ``kill -9``:
    orphaned slave processes of the dead master self-terminate on pipe
    EOF, and this call starts a fresh slave fleet.
    """
    # Telemetry lives master-side only: the recorder holds a lock and
    # cannot pickle into slave processes. Task-scope compute spans are
    # synthesized at the master from TaskResult.elapsed, so the lifecycle
    # stream matches the in-process backends anyway.
    asm = RunAssembly(config, problem, resume)

    # fork is faster and keeps the problem object shared copy-on-write;
    # fall back to spawn where fork is unavailable (macOS default, Windows).
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")

    # Zero-copy data plane (``config.shm``): one run-wide segment prefix,
    # one master-side block store (assign payloads), one store per slave
    # process (result payloads, built inside slave_process_main). The
    # master sweeps the prefix at teardown as the leak backstop.
    shm_prefix = run_prefix(config.run_id) if config.shm else None
    store = (
        BlockStore(shm_prefix, io_policy=io_policy(config.faults.io, "shm-master"))
        if shm_prefix is not None
        else None
    )

    master_channels = []
    procs = []
    for k in range(config.n_slaves):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        master_channels.append(asm.master_channel(PipeChannel(parent_conn), k, store))
        procs.append(
            ctx.Process(
                target=slave_process_main,
                args=(k, child_conn, problem, config, shm_prefix),
                daemon=True,
                name=f"slave{k}",
            )
        )

    master = asm.master(master_channels, block_store=store)

    started = time.perf_counter()
    for p in procs:
        p.start()
    try:
        state = master.run()
    finally:
        for p in procs:
            p.join(timeout=5.0)
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        for ch in master_channels:
            ch.close()
        if shm_prefix is not None:
            # Backstop after the fleet is gone: unlink any segment of this
            # run still in /dev/shm (undelivered assigns were already
            # released as their dispatches settled; this catches orphans
            # from slaves killed mid-park).
            sweep_segments(shm_prefix)
            # Surface every OSError the reclamation hooks swallowed for
            # this run — resource failures must never be invisible.
            drain_shm_errors(shm_prefix, metrics=asm.metrics, obs=asm.recorder)
    elapsed = time.perf_counter() - started

    return state, asm.report("processes", master, elapsed)
