"""Clocks, spans and clean-up shared by the workloads.

Nothing here imports ``repro``: this module is the benchmark's own
instrument, so it cannot move when the program under test changes.

Every time is elapsed time on the monotonic clock. The shared box runs
the same code 20-50 % slower for seconds or minutes at a time, which no
statistic inside one run removes, so every timed section of the two gated
times (``wall_s``, ``setup_s``) is divided by how fast the machine ran
around it, measured with a frozen :func:`reference_loop` right before and
right after. Everything else, and both of them beside it, is reported as
measured.
"""

from __future__ import annotations

import contextlib
import heapq
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SHM_DIR = "/dev/shm"
#: Segment name prefix of ``repro.comm.shm`` (every run prefix starts so).
SHM_PREFIX = "repro-"


class Stopwatch:
    """``with Stopwatch() as sw: ...`` then ``sw.wall`` (elapsed seconds).
    A timed section that did several operations says so in ``sw.ops``."""

    ops = 1

    def __enter__(self) -> "Stopwatch":
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.wall = time.perf_counter() - self.t0


def time_call(fn: Callable[[], object], samples: int, min_sample_s: float = 0.005) -> float:
    """Median seconds per call of ``fn`` over ``samples`` timed batches,
    each batch long enough (``min_sample_s``) for the clock to resolve."""
    fn()  # warm caches and lazy imports
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    batch = max(1, int(min_sample_s / once))
    per_call = []
    for _ in range(samples):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        per_call.append((time.perf_counter() - t0) / batch)
    return statistics.median(per_call)


# -- machine speed ---------------------------------------------------------------

#: Elapsed seconds of one :func:`reference_loop` in a quiet spell of the
#: 2-core box this benchmark was first recorded on. It only fixes the unit
#: of a reported time ("seconds at reference speed"); two runs on one
#: machine compare the same whatever its value.
REFERENCE_S = 0.0270
#: A reference block lasts about this share of the timed section before
#: it. What makes the factor good is that the block sits right next to the
#: section it is held against (the machine's speed changes within a
#: second); on recorded traces 4 samples a block did as well as 24.
REFERENCE_SHARE = 0.1

_REF_V = np.zeros((251, 251))
_REF_S = np.random.default_rng(0).random((250, 250))
_REF_DIAGS = [(np.arange(d + 1), d - np.arange(d + 1)) for d in range(250)]


def reference_loop() -> float:
    """Elapsed seconds of a frozen piece of work owned by the benchmark:
    how fast the machine is right now, as the program's kind of code
    feels it.

    Half small-array numpy (fancy-indexed anti-diagonal sweeps, what the
    kernels do), half interpreter work on heaps and dicts (what the
    schedulers and the simulator do). Callers take it only while the
    program under test is idle (between repetitions, never inside a
    timed section), so the elapsed clock reads this thread's work plus
    whatever the host took from it, and nothing of the program.
    """
    t0 = time.perf_counter()
    V, S = _REF_V, _REF_S
    for _ in range(2):
        for a, b in _REF_DIAGS:
            V[a + 1, b + 1] = np.minimum(np.minimum(V[a, b + 1] + 1, V[a + 1, b] + 1),
                                         V[a, b] + S[a, b])
    heap: list = []
    counts: dict = {}
    for i in range(30000):
        heapq.heappush(heap, ((i * 7919) % 10007, i, None))
        counts[i % 512] = counts.get(i % 512, 0) + 1
        if i % 3 == 0:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def reference_block(seconds: float) -> List[float]:
    """Reference samples for about ``REFERENCE_SHARE`` of ``seconds`` (3 to
    40 of them), after one untimed pass: the program has just evicted the
    loop's data, and its cache footprint must not enter the factor."""
    reference_loop()
    n = min(40, max(3, round(seconds * REFERENCE_SHARE / REFERENCE_S)))
    return [reference_loop() for _ in range(n)]


def at_reference_speed(walls: Sequence[float], blocks: Sequence[Sequence[float]]) -> List[float]:
    """Each of ``walls`` as it would have read on the reference machine:
    divided by how much slower than reference the machine ran around it.
    ``walls[i]`` was timed between ``blocks[i]`` and ``blocks[i + 1]``, and
    the mean of those two blocks is the machine's speed for it."""
    return [w * REFERENCE_S / statistics.fmean(list(blocks[i]) + list(blocks[i + 1]))
            for i, w in enumerate(walls)]


def guest_cpu() -> tuple:
    """``(busy, steal)`` CPU-seconds of the whole guest since boot, from
    ``/proc/stat``. Steal is time a virtual CPU wanted to run and the
    hypervisor ran something else. A printed diagnostic, applied to nothing."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0, 0.0
    v = [int(x) for x in fields[1:9]]
    tick = os.sysconf("SC_CLK_TCK")
    busy = v[0] + v[1] + v[2] + v[5] + v[6]  # user nice system irq softirq
    return busy / tick, v[7] / tick


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mib() -> float:
    """Largest resident set of this process or any reaped descendant."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


# -- spans -----------------------------------------------------------------------


class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    Spans are recorded by the benchmark's own code only; the program is
    not instrumented. Disabled (the default for end-to-end runs) every
    ``span()`` is a no-op context manager.
    """

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        self._stack = threading.local()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None) -> Optional[int]:
        """Record a finished span; returns its id (None when disabled)."""
        if not self.enabled:
            return None
        with self._lock:
            sid = len(self.spans)
            self.spans.append({
                "id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "workload": self.workload,
            })
        return sid

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._stack.__dict__.setdefault("ids", [])
        sid = self.add(name, time.perf_counter(), 0.0, stack[-1] if stack else None)
        stack.append(sid)
        try:
            yield
        finally:
            stack.pop()
            self.spans[sid]["end"] = time.perf_counter()

    def write(self, path: str) -> None:
        """Dump the spans as a Chrome trace (``chrome://tracing``, Perfetto)."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [
            {
                "name": s["name"], "ph": "X", "pid": 1, "tid": 1,
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"id": s["id"], "parent": s["parent"], "workload": s["workload"]},
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# -- clean-up --------------------------------------------------------------------


def _shm_segments() -> set:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def raise_exit(signum: int, _frame: object) -> None:
    raise SystemExit(128 + signum)


class Sandbox:
    """Owns what a run could leave behind: the temp dir under
    ``bench/out/``, child processes, and ``/dev/shm`` segments.

    ``__exit__`` runs on every path out (normal, exception, Ctrl-C, and
    SIGTERM, which is turned into ``SystemExit`` here so ``finally``
    blocks run).
    """

    def __enter__(self) -> "Sandbox":
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
        self._children: List[subprocess.Popen] = []
        self._shm_before = _shm_segments()
        self._old_term = signal.signal(signal.SIGTERM, raise_exit)
        return self

    def spawn(self, argv: Sequence[str], **kwargs: object) -> subprocess.Popen:
        proc = subprocess.Popen(list(argv), **kwargs)
        self._children.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, grace: float = 15.0) -> int:
        """SIGTERM, wait, SIGKILL if needed; returns the exit code."""
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        return proc.returncode

    def sweep_shm(self) -> int:
        """Unlink segments that appeared since the run began; returns how
        many there were (a correct run leaves none)."""
        leaked = _shm_segments() - self._shm_before
        for name in leaked:
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(SHM_DIR, name))
        return len(leaked)

    def __exit__(self, *exc: object) -> None:
        for proc in self._children:
            self.stop(proc, grace=5.0)
        self.sweep_shm()
        shutil.rmtree(self.tmp, ignore_errors=True)
        signal.signal(signal.SIGTERM, self._old_term)


def adopt_orphans() -> None:
    """Make this process the reaper of its whole process tree (Linux
    ``PR_SET_CHILD_SUBREAPER``), so that a grandchild whose parent exits
    first is handed to :func:`reap_children` and not to init.

    Such grandchildren exist: ``multiprocessing.shared_memory`` starts one
    resource-tracker process per process that creates a segment, the
    forked slaves included, and a tracker only exits once it has seen its
    owner's pipe close, i.e. *after* the owner."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, own children are still reaped


def children() -> Dict[int, str]:
    """pid -> state letter of every process whose parent is this one."""
    me, out = os.getpid(), {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                    state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
            except (OSError, IndexError, ValueError):
                continue  # gone between listdir and open
            if int(ppid) == me:
                out[int(entry)] = state
    return out


def reap_children(grace: float = 3.0) -> int:
    """Stop and wait for every process this one still has: the last thing
    a bench process does, on every path out. Returns how many had to be
    signalled (a correct run needs none).

    First its own resource tracker, the way the interpreter would at exit
    but waited for: closing the pipe is what tells it to go. Then whatever
    is left is given ``grace`` seconds (trackers of exited slaves are on
    their way out), SIGTERM, ``grace`` more, SIGKILL."""
    with contextlib.suppress(Exception):
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    signalled = 0
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        for pid in children():
            if sig is not None:
                signalled += sig == signal.SIGTERM
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, sig)
        deadline = time.monotonic() + grace
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return signalled  # no child left, dead or alive
            if pid == 0:
                if time.monotonic() > deadline:
                    break
                time.sleep(0.01)
    return signalled


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: the pinned variables plus ``src`` on
    the import path."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def short_path(path: str) -> str:
    """The shorter of ``path`` and its cwd-relative form: AF_UNIX socket
    paths are capped near 100 bytes and a checkout can sit deep."""
    rel = os.path.relpath(path)
    return rel if len(rel) < len(path) else path


#: Reference samples before each set-up child and after the last (~0.2 s).
SETUP_BLOCK_S = 0.8


def measure_setup(argv: Sequence[str], repeats: int) -> tuple:
    """Seconds from spawning ``argv`` to its ``READY`` line, ``repeats``
    times in fresh processes; each child then tears itself down. Returns
    the times and the ``repeats + 1`` reference blocks taken around them."""
    out, blocks = [], [reference_block(SETUP_BLOCK_S)]
    for _ in range(repeats):
        ready = None
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), stdout=subprocess.PIPE, env=child_env(), text=True
        )
        try:
            assert proc.stdout is not None
            for line in proc.stdout:
                if line.strip() == "READY":
                    ready = time.perf_counter() - t0
                    break
            proc.stdout.read()
            code = proc.wait(timeout=60)
        except BaseException:
            # SIGTERM first: the child unwinds like this process does and
            # takes its own daemon and temp dir with it.
            proc.terminate()
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            raise
        if code != 0 or ready is None:
            raise RuntimeError(f"set-up child failed (exit {code}): {' '.join(argv)}")
        out.append(ready)
        blocks.append(reference_block(SETUP_BLOCK_S))
    return out, blocks


def eprint(*args: object) -> None:
    print(*args, file=sys.stderr, flush=True)
