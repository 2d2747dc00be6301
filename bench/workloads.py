"""The four workloads.

Each drives the system only through public entry points (``EasyHPS.run``,
``run_simulated``, ``python -m repro serve`` plus ``repro.serve.ipc``) and
times them from outside. Why each exists is recorded next to its name in
``BENCHMARK.json`` and at length in ``README.md``.

A workload object goes through ``setup -> warmup -> measure | trace ->
teardown -> verify``; every section it times lands in ``self.samples``
(elapsed seconds per operation, as measured) between two reference blocks
in ``self.blocks``, everything it checks in ``self.attempted`` /
``self.failed``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from measure import (
    Sandbox,
    Stopwatch,
    Tracer,
    at_reference_speed,
    child_env,
    eprint,
    percentile,
    reference_block,
    short_path,
    time_call,
)

from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance, LongestCommonSubsequence, SmithWatermanGG
from repro.backends.simulated import paper_core_range, run_simulated
from repro.obs.prof import build_profile

#: Floor on timed repetitions (passes, blocks of jobs) in a run.
MIN_REPS = 3
#: A repetition that keeps failing is not retried for the whole budget.
MAX_FAILURES = 3

#: Every real-backend DP run: 2 single-threaded slave processes on the 2
#: cores. Two compute threads inside one interpreter are bimodal here
#: (GIL convoy), so that shape is a diagnostic, never an end-to-end metric.
REAL = dict(backend="processes", nodes=3, threads_per_node=1)


def state_digest(state: Dict[str, Any]) -> str:
    """Content hash of a DP state (verification only, never timed)."""
    h = hashlib.blake2b(digest_size=16)
    for key in sorted(state):
        h.update(key.encode())
        h.update(memoryview(state[key]).cast("B"))
    return h.hexdigest()


class Workload:
    """Shared bookkeeping: timed sections between reference blocks, op
    accounting, the repetition loop."""

    name = ""

    def __init__(self, box: Sandbox, tracer: Tracer, seed: int, quick: bool,
                 expected: Dict[str, Any]) -> None:
        self.box = box
        self.tracer = tracer
        self.seed = seed
        self.quick = quick
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.warmup_s = 0.0
        #: Per-layer metrics gathered by ``trace``: name -> (value, unit).
        self.layer: Dict[str, Tuple[float, str]] = {}
        self._last_wall = 0.0
        self.reset()

    def reset(self) -> None:
        """Forget what was timed so far (the warm-up)."""
        #: Elapsed seconds per operation of every timed section, as measured.
        self.samples: List[float] = []
        #: Which part of the operation section ``i`` timed: ``wall_s`` is
        #: the sum over parts of the part's mean (one part, 0, unless the
        #: operation is timed in pieces, as a ``sim-fig13`` pass is).
        self.parts: List[int] = []
        #: Reference blocks: section ``i`` ran between blocks ``i`` and ``i + 1``.
        self.blocks: List[List[float]] = []

    # -- the loop ----------------------------------------------------------------

    def _reference(self) -> None:
        """Look at how fast the machine is running right now. Only ever
        called with the program under test idle.

        First collects the garbage of the section before, which is the
        benchmark's and not a run's (the bench process is the master:
        left to the collector's own timing, peak RSS of a DP workload
        read 86 or 95 MiB from run to run)."""
        gc.collect()
        self.blocks.append(reference_block(self._last_wall))

    @contextlib.contextmanager
    def timed(self, part: int = 0) -> Iterator[Stopwatch]:
        """Time one section that starts and ends with the program idle,
        a reference block on either side of it. A section left by an
        exception is not a sample."""
        if len(self.blocks) == len(self.samples):
            self._reference()
        with Stopwatch() as sw:
            yield sw
        self._last_wall = sw.wall
        self.samples.append(sw.wall / sw.ops)
        self.parts.append(part)
        self._reference()

    def fail(self, why: str) -> None:
        self.failed += 1
        eprint(f"bench: {self.name}: FAILED op: {why}")

    def repeat(self, rep: Callable[[], None], seconds: float, deadline: float,
               min_reps: int = MIN_REPS) -> None:
        """Call ``rep`` (which times its sections with :meth:`timed`) while
        at least half of another call fits into ``seconds``, reference
        blocks included, and at least ``min_reps`` times (once with
        ``--quick``); never start one that would cross ``deadline``. An
        exception is a failed op, not a crash."""
        done = failures = 0
        cost = 0.0
        t0 = time.perf_counter()
        floor = 1 if self.quick else min_reps
        while done < floor or (
                not self.quick and time.perf_counter() - t0 + cost / 2 < seconds):
            if done and time.perf_counter() + cost > deadline:
                eprint(f"bench: {self.name}: stopping at {done} reps (deadline)")
                break
            self.attempted += 1
            began = time.perf_counter()
            try:
                with self.tracer.span("rep"):
                    rep()
                done += 1
            except Exception:  # noqa: BLE001 - a failed repetition is data
                self.fail(traceback.format_exc(limit=3))
                failures += 1
                if failures >= MAX_FAILURES:
                    break
            cost = time.perf_counter() - began

    # -- protocol ----------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, deadline: float) -> None:
        raise NotImplementedError

    def trace(self, seconds: float, deadline: float) -> None:
        """The traced pass: fills ``self.layer`` (``--trace 1`` only)."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def verify(self) -> None:
        """Compare recorded outputs with the oracle (after the clock stops)."""
        raise NotImplementedError

    def record(self) -> Dict[str, Any]:
        """This workload's ``expected.json`` entries for ``self.seed``."""
        raise NotImplementedError

    def _per_operation(self, sections: List[float]) -> float:
        by_part: Dict[int, List[float]] = {}
        for part, value in zip(self.parts, sections):
            by_part.setdefault(part, []).append(value)
        return sum(statistics.fmean(v) for v in by_part.values())

    def raw_wall_s(self) -> float:
        """Mean elapsed seconds of one operation, as measured."""
        return self._per_operation(self.samples)

    def wall_s(self) -> float:
        """The end-to-end time of one operation: the mean over the timed
        sections of each section's elapsed time at reference speed, i.e.
        divided by how much slower than reference the machine ran in the
        reference blocks right before and right after it."""
        return self._per_operation(at_reference_speed(self.samples, self.blocks))


# -- real-backend DP runs ----------------------------------------------------------


class DPWorkload(Workload):
    """Repeated ``EasyHPS.run`` of one instance on the processes backend."""

    #: Problem class, the attribute of its result that is "the answer",
    #: full size, quick size, config overrides.
    algo: Any = None
    answer = ""
    size = 0
    quick_size = 0
    overrides: Dict[str, Any] = {}

    def outputs_of(self, result: Any) -> Tuple[float, Optional[str], str]:
        """What a run is held to: the answer, the run digest, the state."""
        return (
            float(getattr(result.value, self.answer)),
            result.report.run_digest,
            state_digest(result.state),
        )

    def setup(self) -> None:
        self.n = self.quick_size if self.quick else self.size
        self.problem = self.algo.random(self.n, seed=self.seed)
        self.config = RunConfig(**REAL, **self.overrides)
        self.key = f"{self.name}/n={self.n}/seed={self.seed}"
        #: (value, run_digest, state_digest) of every run made, with the
        #: clock stopped; ``verify`` holds them against the oracle.
        self.outputs: List[Tuple[float, Optional[str], str]] = []
        self.reports: List[Any] = []

    def run_once(self, observe: bool = False) -> Tuple[float, Any]:
        cfg = replace(self.config, observe=observe)
        with self.timed() as sw:
            result = EasyHPS(cfg).run(self.problem)
        self.outputs.append(self.outputs_of(result))
        return sw.wall, result.report

    def _rep(self) -> None:
        self.reports.append(self.run_once()[1])

    def warmup(self) -> None:
        self.attempted += 1
        self.warmup_s = self.run_once()[0]

    def measure(self, seconds: float, deadline: float) -> None:
        self.repeat(self._rep, seconds, deadline)

    def serial_run(self) -> Tuple[Tuple[float, Optional[str], str], float]:
        """The serial backend on the same instance and partition: the
        oracle, and the plain single-process baseline."""
        cfg = RunConfig(
            backend="serial",
            process_partition=self.config.process_partition,
            thread_partition=self.config.thread_partition,
        )
        with self.tracer.span("serial-oracle"), Stopwatch() as sw:
            result = EasyHPS(cfg).run(self.problem)
        return self.outputs_of(result), sw.wall

    def record(self) -> Dict[str, Any]:
        self.setup()
        value, run_digest, state = self.serial_run()[0]
        return {self.key: {"value": value, "run_digest": run_digest, "state_digest": state}}

    def verify(self) -> None:
        rec = self.expected.get(self.key)
        if rec is not None:
            want = (rec["value"], rec["run_digest"], rec["state_digest"])
        else:
            want = self.serial_run()[0]
        for got in self.outputs:
            if got != want:
                self.fail(f"output {got} differs from the serial oracle {want}")

    # -- the traced pass ------------------------------------------------------------

    def trace(self, seconds: float, deadline: float) -> None:
        L = self.layer
        # Untraced repetitions first: the exact counters come from their
        # reports and the tracing overhead is relative to their mean.
        self.repeat(self._rep, seconds * 0.4, deadline)
        if not self.samples:
            return  # every repetition failed; the op counts already say so
        untraced = self.raw_wall_s()
        self.attempted += 1
        with self.tracer.span("traced-rep"):
            traced, report = self.run_once(observe=True)
        del self.samples[-1], self.parts[-1], self.blocks[-1]  # not an untraced sample
        process_size = self.config.partitions_for(self.problem)[0]
        with self.tracer.span("build-profile"):
            prof = build_profile(
                report.events, self.problem.build_partition(process_size).abstract
            )

        def med(attr: str) -> float:
            return statistics.median(getattr(r, attr) for r in self.reports)

        L["runtime.tasks"] = (med("n_tasks"), "count")
        L["runtime.subtasks"] = (med("n_subtasks"), "count")
        L["runtime.redispatches"] = (
            statistics.median(r.faults_recovered + r.speculative_redispatches
                              for r in self.reports), "count")
        L["runtime.startup_s"] = (
            statistics.median(wall - r.makespan
                              for wall, r in zip(self.samples, self.reports)), "s")
        L["comm.messages"] = (med("messages"), "count")
        L["comm.bytes_to_master"] = (med("bytes_to_master"), "B")
        L["comm.bytes_to_slaves"] = (med("bytes_to_slaves"), "B")
        L["integrity.digest_rejects"] = (med("digest_rejects"), "count")

        master = prof.attribution.get(-1, {})
        slaves = [prof.attribution[n] for n in prof.worker_nodes()]
        L["master.idle_s"] = (master.get("idle", 0.0), "s")
        L["master.busy_frac"] = (
            1.0 - master.get("idle", 0.0) / prof.extent if prof.extent else 0.0, "ratio")
        for lane in ("serialize", "wire", "digest"):
            L[f"master.{lane}_s"] = (master.get(lane, 0.0), "s")
        L["slave.compute_s"] = (sum(row["compute"] for row in slaves), "s")
        L["slave.idle_s"] = (sum(row["idle"] for row in slaves), "s")
        wait = prof.queue_wait.summary() if prof.queue_wait.count else {}
        L["runtime.queue_wait_p50_ms"] = (wait.get("p50", 0.0) * 1e3, "ms")
        L["runtime.queue_wait_p95_ms"] = (wait.get("p95", 0.0) * 1e3, "ms")
        L["runtime.critical_path_s"] = (prof.critical_path_seconds, "s")
        L["runtime.sched_efficiency"] = (prof.efficiency, "ratio")
        L["obs.events"] = (len(report.events), "count")
        L["obs.overhead_frac"] = (
            traced / untraced - 1.0 if untraced else 0.0, "ratio")

        # Timed here for the baseline; its outputs join the ones verified.
        serial_out, serial = self.serial_run()
        self.outputs.append(serial_out)
        L["baseline.serial_wall_s"] = (serial, "s")


class EdCoarse(DPWorkload):
    name = "ed-coarse"
    algo, answer, size, quick_size = EditDistance, "distance", 2000, 120

    def trace(self, seconds: float, deadline: float) -> None:
        super().trace(seconds, deadline)
        # The GIL-convoy shape, kept visible but ungated: two compute
        # threads per slave inside one interpreter.
        problem = EditDistance.random(100 if self.quick else 1000, seed=self.seed)
        cfg = RunConfig(backend="threads", nodes=3, threads_per_node=2)
        walls = []
        for _ in range(1 if self.quick else 3):
            with self.tracer.span("threads-n3t2"), Stopwatch() as sw:
                EasyHPS(cfg).run(problem)
            walls.append(sw.wall)
        self.layer["runtime.threads_n3t2_wall_s"] = (statistics.median(walls), "s")
        self.layer["runtime.threads_n3t2_wall_max_s"] = (max(walls), "s")


class SwggShm(DPWorkload):
    name = "swgg-shm"
    algo, answer, size, quick_size = SmithWatermanGG, "score", 400, 60
    overrides = dict(shm=True, batch_wave=True)


# -- the simulator ---------------------------------------------------------------


class SimFig13(Workload):
    """Fig 13 at paper scale through ``run_simulated``.

    One pass runs every configuration once; ``wall_s`` is the time of a
    pass: the sum over its parts of the part's mean across passes. The
    makespans do not depend on the sequences (the simulator computes no
    cells), so one recorded list is the oracle for every seed.
    """

    name = "sim-fig13"
    PARTITION = dict(process_partition=200, thread_partition=10)
    PART = 3  # configurations per timed section

    def setup(self) -> None:
        self.seq_len = 1000 if self.quick else 10000
        self.problem = SmithWatermanGG.random(self.seq_len, seed=self.seed)
        grid = [(x, y) for x in (2, 5) for y in paper_core_range(x)[::2]]
        self.grid = grid[::6] if self.quick else grid
        self.configs = [RunConfig.experiment(x, y, **self.PARTITION) for x, y in self.grid]
        self.key = f"{self.name}/len={self.seq_len}"
        #: config index -> reports across passes.
        self.reports: List[List[Any]] = [[] for _ in self.configs]

    def _one(self, i: int) -> None:
        self.reports[i].append(run_simulated(self.problem, self.configs[i])[1])

    def _pass(self) -> None:
        # A pass is timed in parts of three configurations (~1.2 s), a
        # look at machine speed between them: the simulator runs in this
        # process, so between two calls it is idle.
        for part, first in enumerate(range(0, len(self.configs), self.PART)):
            with self.timed(part):
                for i in range(first, min(first + self.PART, len(self.configs))):
                    self._one(i)

    def warmup(self) -> None:
        self.attempted += 1
        with self.timed() as sw:
            self._one(0)
        self.warmup_s = sw.wall
        self.reports[0].clear()

    def measure(self, seconds: float, deadline: float) -> None:
        self.repeat(self._pass, seconds, deadline)

    def _makespans(self) -> List[float]:
        return [run_simulated(self.problem, c)[1].makespan for c in self.configs]

    def record(self) -> Dict[str, Any]:
        self.setup()
        return {self.key: self._makespans()}

    def verify(self) -> None:
        want = self.expected.get(self.key)
        if want is None:
            # No record (quick sizes): the simulator must at least agree
            # with itself, bit for bit, on a run made after the clock stopped.
            want = self._makespans()
        for i, reports in enumerate(self.reports):
            for r in reports:
                if r.makespan != want[i]:
                    self.fail(f"config {self.grid[i]}: makespan {r.makespan!r} != {want[i]!r}")

    def trace(self, seconds: float, deadline: float) -> None:
        self.repeat(self._pass, seconds * 0.4, deadline, min_reps=2)
        last = [reports[-1] for reports in self.reports]
        events = sum(r.n_tasks + r.n_subtasks + r.messages for r in last)
        L = self.layer
        L["sim.events_per_s"] = (events / self.raw_wall_s(), "1/s")
        L["sim.makespan_sum_s"] = (sum(r.makespan for r in last), "s")
        L["sim.messages"] = (sum(r.messages for r in last), "count")
        L["runtime.tasks"] = (sum(r.n_tasks for r in last), "count")
        L["runtime.subtasks"] = (sum(r.n_subtasks for r in last), "count")


# -- the serve daemon ------------------------------------------------------------


#: Seeded job mix: tenants and algorithms alternate, three small jobs to
#: one larger. Eight distinct instances, so the oracle is eight serial runs.
SERVE_ALGOS = {"edit-distance": EditDistance, "lcs": LongestCommonSubsequence}
SERVE_SIZES = (16, 16, 16, 32)
TERMINAL = ("done", "aborted", "error", "cancelled")


class _Job:
    __slots__ = ("spec", "due", "sent", "acked", "ended", "status", "digest", "record")

    def __init__(self, spec: Dict[str, Any], due: float) -> None:
        self.spec = spec
        self.due = due
        self.sent = self.acked = self.ended = 0.0
        self.status = ""
        self.digest: Optional[str] = None
        self.record: Dict[str, Any] = {}


class ServeClosed(Workload):
    """Closed loop of one client against ``python -m repro serve``.

    One client, in this thread: a second one does not raise the rate
    (the daemon finishes ~4 of these jobs a second either way, its
    threads share one interpreter) and on 2 cores its threads and the
    daemon's only measure the scheduler. The client learns that a job
    ended the way ``repro jobs`` does, from the ``jobs`` op, every 10 ms.
    """

    name = "serve-closed"
    POLL_S = 0.010
    BLOCK_S = 2.0  # one timed section: jobs back to back for this long
    JOB_TIMEOUT_S = 60.0
    OPEN_RATE = 1.5  # jobs/s of the open-loop diagnostic

    def setup(self) -> None:
        from repro.serve import ipc

        self.ipc = ipc
        self.sock = short_path(os.path.join(self.box.tmp, "serve.sock"))
        argv = [
            sys.executable, "-m", "repro", "serve", "--socket", self.sock,
            "--workers", "4", "--queue-cap", "64",
            "--journal", os.path.join(self.box.tmp, "serve.srvj"), "--fsync",
            "--job-journal-dir", os.path.join(self.box.tmp, "jobs"),
        ]
        os.makedirs(os.path.join(self.box.tmp, "jobs"))
        t0 = time.perf_counter()
        self.daemon = self.box.spawn(
            argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        while True:
            try:
                ipc.request(self.sock, {"op": "ping"}, timeout=1.0)
                break
            except Exception:  # noqa: BLE001 - not listening yet
                if self.daemon.poll() is not None or time.perf_counter() - t0 > 30:
                    raise RuntimeError("serve daemon did not come up") from None
                time.sleep(0.005)
        self.boot_s = time.perf_counter() - t0
        self._counter = itertools.count()
        self._pending: Dict[str, _Job] = {}
        self.jobs: List[_Job] = []

    # -- generator ---------------------------------------------------------------

    def _spec(self, i: int) -> Dict[str, Any]:
        algo = ("edit-distance", "lcs")[i % 2]
        return {
            "tenant": f"t{i % 2}", "algo": algo, "size": SERVE_SIZES[i % 4],
            "seed": self.seed * 1000 + i % 8, "nodes": 3,
        }

    def _submit(self, due: float) -> _Job:
        """Submit the next job of the mix; returns once the daemon acked."""
        job = _Job(self._spec(next(self._counter)), due)
        self.jobs.append(job)
        job.sent = time.perf_counter()
        decision = self.ipc.submit_job(self.sock, job.spec)
        job.acked = time.perf_counter()
        if decision.get("accepted"):
            self._pending[decision["job_id"]] = job
        else:
            job.status, job.ended = "shed", job.acked
        return job

    def _poll(self) -> None:
        """One ``jobs`` op: mark what ended since the last one."""
        table = self.ipc.list_jobs(self.sock)
        now = time.perf_counter()
        for rec in table:
            job = self._pending.get(rec["job_id"])
            if job is not None and rec["status"] in TERMINAL:
                del self._pending[rec["job_id"]]
                job.ended, job.status = now, rec["status"]
                job.digest, job.record = rec.get("run_digest"), rec

    def _drain(self) -> None:
        """Poll until nothing is pending; what does not end in time is lost."""
        give_up = time.perf_counter() + self.JOB_TIMEOUT_S
        while self._pending:
            if time.perf_counter() > give_up:
                for job in self._pending.values():
                    job.status = "lost"
                self._pending.clear()
                break
            time.sleep(self.POLL_S)
            self._poll()

    def _block(self, duration: float) -> List[_Job]:
        """One timed section: submit a job, wait for it, again, for
        ``duration`` seconds; its sample is the seconds per finished job.
        Returns the jobs that finished."""
        first = len(self.jobs)
        with self.tracer.span("closed-block"), self.timed() as sw:
            while time.perf_counter() - sw.t0 < duration:
                try:
                    self._submit(time.perf_counter())
                    self._drain()
                except Exception:  # noqa: BLE001 - counted by verify as a failed op
                    self.jobs[-1].status = "exception: " + traceback.format_exc(limit=2)
                    self._pending.clear()
                    time.sleep(0.05)
            done = [j for j in self.jobs[first:] if j.status == "done"]
            sw.ops = max(1, len(done))
        for j in done:
            self.tracer.add("job", j.sent, j.ended)
        return done

    def warmup(self) -> None:
        self._block(1.0 if self.quick else 3.0)
        self.warmup_s = self._last_wall

    def measure(self, seconds: float, deadline: float) -> None:
        self.repeat(lambda: self._block(self.BLOCK_S), seconds, deadline)

    def teardown(self) -> None:
        if getattr(self, "daemon", None) is not None:
            code = self.box.stop(self.daemon)
            if code != 0:
                self.fail(f"daemon exited {code} on SIGTERM drain")

    @staticmethod
    def _oracle_key(spec: Dict[str, Any]) -> str:
        return f"serve/{spec['algo']}/{spec['size']}/{spec['seed']}"

    @staticmethod
    def _oracle_digest(spec: Dict[str, Any]) -> Optional[str]:
        """Run digest of the serial backend on the instance the daemon
        rebuilds from ``(algo, size, seed)``."""
        problem = SERVE_ALGOS[spec["algo"]].random(spec["size"], spec["size"], seed=spec["seed"])
        return EasyHPS(RunConfig(backend="serial")).run(problem).report.run_digest

    def record(self) -> Dict[str, Any]:
        specs = [self._spec(i) for i in range(8)]
        return {self._oracle_key(s): self._oracle_digest(s) for s in specs}

    def verify(self) -> None:
        oracle = dict(self.expected)
        for job in self.jobs:
            self.attempted += 1
            if job.status != "done":
                self.fail(f"job {job.spec} ended {job.status!r}")
                continue
            key = self._oracle_key(job.spec)
            if key not in oracle:
                oracle[key] = self._oracle_digest(job.spec)
            if job.digest != oracle[key]:
                self.fail(f"job {job.spec}: digest {job.digest} != oracle {oracle[key]}")

    # -- the traced pass ------------------------------------------------------------

    def trace(self, seconds: float, deadline: float) -> None:
        L = self.layer
        done: List[_Job] = []
        self.repeat(lambda: done.extend(self._block(self.BLOCK_S)), seconds * 0.4, deadline)
        if not done:
            return  # nothing finished; the op counts already say so
        lat = [(j.ended - j.sent) * 1e3 for j in done]
        L["serve.jobs_per_s"] = (1.0 / self.raw_wall_s(), "1/s")
        L["serve.job_lat_p50_ms"] = (percentile(lat, 50), "ms")
        L["serve.job_lat_p90_ms"] = (percentile(lat, 90), "ms")
        L["serve.submit_ack_p50_ms"] = (
            percentile([(j.acked - j.sent) * 1e3 for j in done], 50), "ms")
        L["serve.daemon_boot_s"] = (self.boot_s, "s")
        recs = [j.record for j in done]
        L["serve.wait_p50_ms"] = (
            percentile([(r["started_at"] - r["submitted_at"]) * 1e3 for r in recs], 50), "ms")
        L["serve.run_p50_ms"] = (
            percentile([(r["finished_at"] - r["started_at"]) * 1e3 for r in recs], 50), "ms")

        # Open loop, ungated: latency from the *due* time, so a stall
        # shows as queueing for every later job; how late the generator
        # itself ran is reported beside it.
        n_open = 3 if self.quick else int(seconds * 0.75 * self.OPEN_RATE)
        t0 = time.perf_counter() + 0.05
        opened: List[_Job] = []
        with self.tracer.span("open-loop"):
            while len(opened) < n_open:
                due = t0 + len(opened) / self.OPEN_RATE
                wait = due - time.perf_counter()
                if wait <= 0:
                    opened.append(self._submit(due))
                else:
                    time.sleep(min(wait, self.POLL_S))
                    if self._pending:
                        self._poll()
            self._drain()
        ended = [j for j in opened if j.status == "done"]
        open_lat = [(j.ended - j.due) * 1e3 for j in ended]
        L["serve.open_lat_p50_ms"] = (percentile(open_lat, 50), "ms")
        L["serve.open_lat_p90_ms"] = (percentile(open_lat, 90), "ms")
        L["serve.open_late_max_ms"] = (
            max(((j.sent - j.due) * 1e3 for j in opened), default=0.0), "ms")

        n = 3 if self.quick else 30
        with self.tracer.span("probe:ipc-ping"):
            L["serve.ipc_ping_us"] = (
                time_call(lambda: self.ipc.request(self.sock, {"op": "ping"}), n) * 1e6, "us")
        with self.tracer.span("probe:jobs-op"):
            table = len(self.ipc.list_jobs(self.sock))
            L["serve.jobs_op_us_per_job"] = (
                time_call(lambda: self.ipc.list_jobs(self.sock), n) * 1e6 / max(1, table), "us")
        stats = self.ipc.daemon_stats(self.sock)
        L["serve.shed"] = (sum(stats.get("shed_by_tenant", {}).values()), "count")
        L["serve.jobs_done"] = (
            sum(v for k, v in stats.get("counters", {}).items()
                if k.startswith("serve.jobs_done")), "count")


WORKLOADS = {cls.name: cls for cls in (EdCoarse, SwggShm, ServeClosed, SimFig13)}
