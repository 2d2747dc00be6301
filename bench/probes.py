"""Outside-timed probes of single layers.

Each probe calls one layer's public functions directly and reports a
cost per unit of that layer's work. A probe runs in the traced pass of
the workload whose end-to-end time that layer is predicted to move (the
table is ``README.md``'s), once, and is a span in that trace; its result
is a per-layer metric and never an end-to-end one.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, Tuple

import numpy as np
from measure import Tracer, time_call

from repro import RunConfig
from repro.algorithms import EditDistance, SmithWatermanGG
from repro.algorithms.kernels import edit_distance_region, swgg_region
from repro.cluster.simcore import EventQueue
from repro.comm.messages import TaskResult
from repro.comm.serialization import content_digest
from repro.comm.shm import BlockStore, attach_copy, run_prefix
from repro.comm.transport import pipe_channel_pair
from repro.dag.parser import DAGParser
from repro.durable.journal import CommitJournal
from repro.serve.admission import AdmissionController
from repro.serve.job import JobRecord, JobSpec
from repro.serve.policy import make_ordering_policy
from repro.serve.wal import ServeJournal

Metrics = Dict[str, Tuple[float, str]]

#: The payload of the transport probes: a 250 x 250 float64 block, the
#: size ``ed-coarse`` sends back per sub-task (500 kB).
BLOCK_500K = (250, 250)


def _ed_ns_per_cell(r: int, n: int) -> float:
    D = np.zeros((r + 1, r + 1))
    D[0, :] = np.arange(r + 1)
    D[:, 0] = np.arange(r + 1)
    sub = np.random.default_rng(0).integers(0, 2, (r, r)).astype(np.float64)
    rows = cols = range(r)
    return time_call(lambda: edit_distance_region(D, sub, rows, cols), n) * 1e9 / (r * r)


def _swgg_ns_per_cell(r: int, n: int) -> float:
    """An ``r x r`` region of a mid-matrix 50 x 50 block of SWGG n=400:
    200-cell row and column prefixes, as ``swgg-shm`` sees on average."""
    block, origin = 50, 200
    rng = np.random.default_rng(0)
    Hloc = rng.random((block + 1, block + 1))
    Hrow = rng.random((block, origin))
    Hcol = rng.random((origin, block))
    sub = rng.random((block, block))
    gap = 2.0 + 0.5 * np.arange(origin + block + 2)
    rows = cols = range(r)
    return time_call(
        lambda: swgg_region(Hloc, Hrow, Hcol, sub, gap, origin, origin, rows, cols), n
    ) * 1e9 / (r * r)


def _pipe_roundtrip_s(n: int) -> float:
    """A 500 kB ``TaskResult`` there and back over the pickled pipe, the
    peer being a thread of this process (pipe I/O releases the GIL)."""
    a, b = pipe_channel_pair()
    stop = threading.Event()

    def echo() -> None:
        while not stop.is_set():
            try:
                b.send(b.recv(timeout=0.2))
            except Exception:  # noqa: BLE001 - timeout while idle, or closed
                continue

    peer = threading.Thread(target=echo, name="bench-echo", daemon=True)
    peer.start()
    msg = TaskResult((0, 0), 0, 0, {"block": np.zeros(BLOCK_500K)})

    def roundtrip() -> None:
        a.send(msg)
        a.recv(timeout=10.0)

    try:
        return time_call(roundtrip, n)
    finally:
        stop.set()
        peer.join()
        a.close()
        b.close()


def _shm_roundtrip_s(n: int) -> float:
    store = BlockStore(run_prefix(f"bench-probe-{os.getpid()}"))
    block = np.zeros(BLOCK_500K)

    def roundtrip() -> None:
        ref = store.park(block)
        attach_copy(ref)  # copies out and unlinks, as a receiver does
        store.release(ref.segment)

    try:
        return time_call(roundtrip, n)
    finally:
        store.sweep()


def _simcore_events_per_s(n_events: int) -> float:
    def drain() -> None:
        q = EventQueue()
        for i in range(n_events):
            q.at(i * 1e-6, _noop)
        q.run()

    return n_events / time_call(drain, 5, min_sample_s=0.0)


def _noop() -> None:
    pass


class Probes:
    """The probes of one traced pass; results gather in ``self.out``."""

    def __init__(self, tracer: Tracer, tmp: str, quick: bool) -> None:
        self.tracer = tracer
        self.tmp = tmp
        self.quick = quick
        #: Timed batches per probe.
        self.n = 3 if quick else 20
        self.out: Metrics = {}

    def probe(self, name: str, unit: str, fn: Callable[[], float]) -> None:
        with self.tracer.span(f"probe:{name}"):
            self.out[name] = (fn(), unit)

    # Cost per cell is set by region size, so the kernels are probed at the
    # region sizes the workload uses (its process and thread partitions).

    def ed_coarse(self) -> None:
        n = self.n
        for r in (62, 250):
            self.probe(f"algorithms.ed_ns_per_cell_r{r}", "ns", lambda r=r: _ed_ns_per_cell(r, n))
        # Its results are what is heavy on the wire: 500 kB blocks over
        # the pickled pipe, digested at each hop.
        payload = {"block": np.random.default_rng(0).random(BLOCK_500K)}
        mb = payload["block"].nbytes / 1e6
        self.probe("comm.digest_mb_per_s", "MB/s", lambda: mb / time_call(
            lambda: content_digest(payload), n))
        self.probe("comm.pipe_roundtrip_us_500k", "us", lambda: _pipe_roundtrip_s(n) * 1e6)
        # The per-task master work around each of its 64 blocks.
        ed = EditDistance.random(200 if self.quick else 2000, seed=1)
        size = 25 if self.quick else 250
        part = ed.build_partition(size)
        state = ed.make_state()
        bid = (2, 2)
        outputs = ed.evaluator(part, bid, ed.extract_inputs(state, part, bid)).run_serial(
            part.sub_partition(bid, size)
        )

        def extract_apply() -> None:
            ed.extract_inputs(state, part, bid)
            ed.apply_result(state, part, bid, outputs)

        self.probe("algorithms.make_state_ms", "ms", lambda: time_call(ed.make_state, n) * 1e3)
        self.probe("algorithms.extract_apply_us", "us",
                   lambda: time_call(extract_apply, n) * 1e6)

    def swgg_shm(self) -> None:
        n = self.n
        for r in (12, 50):
            self.probe(f"algorithms.swgg_ns_per_cell_r{r}", "ns",
                       lambda r=r: _swgg_ns_per_cell(r, n))
        self.probe("comm.shm_roundtrip_us_500k", "us", lambda: _shm_roundtrip_s(n) * 1e6)

    def serve_closed(self) -> None:
        """The WAL triple every job pays, one admit + pop, and one fsync'd
        commit to a job's own journal (``--job-journal-dir --fsync``)."""
        n = self.n
        ed = EditDistance.random(16, seed=1)
        journal = CommitJournal.create(os.path.join(self.tmp, "probe.jrnl"), fsync=True)
        try:
            journal.begin(ed, RunConfig())
            small = {"block": np.zeros((8, 8))}
            seq = iter(range(10**9))
            self.probe("durable.commit_us", "us", lambda: time_call(
                lambda: journal.commit((next(seq), 0), 0, small, "0" * 32), n,
                min_sample_s=0.0) * 1e6)
        finally:
            journal.close()
        wal = ServeJournal.create(os.path.join(self.tmp, "probe.srvj"), fsync=True)
        spec = JobSpec(tenant="t0", size=16)
        try:
            def wal_triple() -> None:
                wal.submit("job-1", spec)
                wal.start("job-1")
                wal.finish("job-1", "done")

            self.probe("serve.wal_append_us", "us", lambda: time_call(
                wal_triple, n, min_sample_s=0.0) * 1e6)
        finally:
            wal.close()
        admission = AdmissionController(64)
        fifo = make_ordering_policy("fifo")
        record = JobRecord("job-1", spec)

        def admit_pop() -> None:
            admission.admit(record)
            admission.pop_next(fifo, 0.0)

        self.probe("serve.admit_pop_us", "us", lambda: time_call(admit_pop, n) * 1e6)

    def sim_fig13(self) -> None:
        self.probe("sim.simcore_events_per_s", "1/s",
                   lambda: _simcore_events_per_s(2000 if self.quick else 20000))
        # The DAG every one of its configurations parses: 50 x 50 blocks.
        seq_len = 1000 if self.quick else 10000
        part = SmithWatermanGG.random(seq_len, seed=1).build_partition(200)
        self.probe("dag.parse_vertices_per_s", "1/s", lambda: part.n_blocks / time_call(
            lambda: DAGParser(part.abstract).run_all(), self.n))


def run_probes(workload: str, tracer: Tracer, tmp: str, quick: bool) -> Metrics:
    """The outside-timed per-layer metrics of ``workload``, by name."""
    probes = Probes(tracer, tmp, quick)
    getattr(probes, workload.replace("-", "_"))()
    return probes.out
