"""Zero-copy block transport over ``multiprocessing.shared_memory``.

The processes backend's hot path used to pickle every DP block payload
through the master<->slave pipes. This module moves the blocks *by
reference* instead: the sender parks each large ndarray in a
shared-memory segment and ships a tiny :class:`~repro.comm.messages.BlockRef`
handle in its place; the receiver attaches the segment, copies the block
out (one memcpy — the only per-hop copy left), and unlinks it.

Design rules:

- **Transparency.** :class:`ShmChannel` is a
  :class:`~repro.comm.transport.DelegatingChannel`: it encodes payloads
  on ``_send`` and rehydrates them on ``_recv``, so the master, the
  slave, and the chaos layer all keep seeing plain ndarrays. Digests
  are stamped over arrays before encode and verified after decode, so
  the integrity tier (digest/audit/vote) is preserved bit-for-bit.
- **Receiver unlinks.** The receiving side unlinks each segment right
  after copying out of it, so the steady-state footprint is one wave of
  blocks, not the whole DP table. Undelivered segments (dropped
  messages, dead workers) are reclaimed by the sender-side
  :class:`BlockStore` release hooks and, as the backstop, by the
  master's end-of-run :func:`sweep_segments` over the run's name prefix.
- **Failure is a drop, not a crash.** A mid-run attach failure (the
  segment is gone — e.g. the worker was restarted by a resume, or a
  duplicate delivery raced the first copy's unlink) surfaces as a
  :class:`~repro.comm.transport.ChannelTimeout`, i.e. exactly a dropped
  message: the slave keeps polling, the master's overtime/lease scan
  cancels the dispatch and requeues it with the normal charged retry
  budget. Nothing raises out of the runtime.

Only arrays of at least ``REPRO_SHM_MIN_BYTES`` (default 512) go through
segments; smaller blocks ride the pipe inline, where the fixed segment
setup cost would exceed the pickle it avoids.
"""

from __future__ import annotations

import os
import time
import uuid
from collections import deque
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.comm.messages import BlockRef, Message
from repro.comm.transport import Channel, ChannelTimeout, DelegatingChannel

#: Arrays below this many bytes stay inline in the message (env override
#: ``REPRO_SHM_MIN_BYTES``). Low by default so small test instances still
#: exercise the segment path.
SHM_MIN_BYTES = int(os.environ.get("REPRO_SHM_MIN_BYTES", "512"))

#: Where POSIX shared memory appears as files (Linux); used by the
#: leak sweep. On platforms without it the sweep degrades to the names
#: the local store remembers.
_DEV_SHM = "/dev/shm"


def _untrack(name: str) -> None:
    """Undo the resource tracker's registration of one segment.

    Both creating and attaching a ``SharedMemory`` registers it with the
    per-process resource tracker (Python < 3.13 has no ``track=False``),
    which would double-unlink and spam warnings once segments legally
    outlive their creator. Reclamation here is deterministic — receiver
    unlink plus the master's prefix sweep — so tracking is noise.
    """
    try:
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        pass


@dataclass(frozen=True)
class ShmError:
    """One swallowed shm OSError, kept visible for telemetry."""

    op: str  # "unlink" | "attach-unlink" | "listdir"
    name: Optional[str]  # segment name, None for directory-level failures
    errno: Optional[int]
    message: str
    ts: float


class ShmErrorLog:
    """Thread-safe record of OSErrors the shm reclamation paths swallow.

    The unlink/sweep hooks are *intentionally* idempotent — a segment
    already gone is the normal receiver-unlinked case and stays silent —
    but any other OSError (EACCES on ``/dev/shm``, an EMFILE during the
    attach-before-unlink, a failing listdir) used to vanish in the same
    ``except``. Those are resource failures operators need to see: they
    land here, and the processes backend drains the log at teardown into
    the ``comm.shm.errors`` metric plus one ``shm-error`` obs event each.
    """

    def __init__(self, keep: int = 256) -> None:
        from repro.check.lock_lint import make_lock

        self._lock = make_lock("comm.shm.errors")
        self._entries: deque = deque(maxlen=keep)
        self.total = 0

    def note(self, op: str, name: Optional[str], exc: OSError) -> None:
        with self._lock:
            self.total += 1
            self._entries.append(
                ShmError(
                    op=op,
                    name=name,
                    errno=getattr(exc, "errno", None),
                    message=str(exc),
                    ts=time.time(),
                )
            )

    def drain(self, prefix: Optional[str] = None) -> Tuple[ShmError, ...]:
        """Remove and return entries for one run's segments.

        ``prefix`` filters by segment-name prefix (directory-level
        entries with no name always match — they affect every run);
        ``None`` drains everything. Draining keeps the daemon's
        per-job accounting disjoint.
        """
        with self._lock:
            if prefix is None:
                taken, kept = list(self._entries), []
            else:
                taken, kept = [], []
                for entry in self._entries:
                    if entry.name is None or entry.name.startswith(prefix):
                        taken.append(entry)
                    else:
                        kept.append(entry)
            self._entries.clear()
            self._entries.extend(kept)
            return tuple(taken)

    def snapshot(self) -> Tuple[ShmError, ...]:
        with self._lock:
            return tuple(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Process-wide log of swallowed shm errors (the reclamation hooks run on
#: teardown paths that have no channel or recorder in scope).
SHM_ERRORS = ShmErrorLog()


def drain_shm_errors(prefix: str, metrics: Any = None, obs: Any = None) -> int:
    """Teardown helper: move one run's swallowed shm errors into telemetry.

    Increments ``comm.shm.errors`` (labelled by op) on ``metrics`` and
    emits one ``shm-error`` event per entry on ``obs``; both optional.
    Returns the number of errors drained.
    """
    entries = SHM_ERRORS.drain(prefix)
    for entry in entries:
        if metrics is not None:
            metrics.counter("comm.shm.errors", op=entry.op).inc()
        if obs is not None and getattr(obs, "enabled", False):
            obs.emit(
                "shm-error",
                scope="run",
                op=entry.op,
                segment=entry.name,
                errno=entry.errno,
                error=entry.message,
            )
    return len(entries)


def run_prefix(run_id: Optional[str] = None) -> str:
    """The per-run segment name prefix (shared by master and slaves).

    With ``run_id`` (``RunConfig.run_id``) the prefix is a *pure function
    of the run identity*: a long-lived process hosting many sequential or
    concurrent runs (the ``repro serve`` daemon) gets one namespace per
    job, so each job's teardown sweep reclaims exactly its own segments —
    a pid-keyed prefix would make every sweep in that process race every
    other job's live segments. Without ``run_id`` (standalone
    ``repro run``) the prefix stays the historical fresh
    ``repro-<pid>-<nonce>`` draw.
    """
    if run_id is not None:
        safe = "".join(c if c.isalnum() or c in "-_." else "-" for c in run_id)
        return f"repro-{safe}"
    return f"repro-{os.getpid()}-{uuid.uuid4().hex[:8]}"


class BlockStore:
    """Sender-side registry of the shared-memory segments one endpoint made.

    Each park records the segment under the run prefix; :meth:`release`
    and :meth:`sweep` unlink whatever the receiver has not already
    reclaimed (unlink of a gone segment is a no-op). The master keeps
    one store and wires its release hooks into commit, requeue, and
    worker-leave paths; each slave process keeps its own for results.
    """

    def __init__(self, prefix: str, io_policy: Optional[Any] = None) -> None:
        self.prefix = prefix
        self._seq = 0
        #: segment name -> task_id that parked it (None for results the
        #: task routing does not track); used by the release hooks.
        self._live: Dict[str, Any] = {}
        #: Injected shm-allocation faults (an
        #: :class:`~repro.cluster.faults.IoPolicy` or None): consulted
        #: before each segment create, raising the injected ENOSPC/EMFILE
        #: exactly where a full ``/dev/shm`` would.
        self.io_policy = io_policy
        #: Parks that failed (real or injected) and fell back inline.
        self.park_failures = 0

    def park(self, array: np.ndarray, owner: Any = None) -> BlockRef:
        """Copy ``array`` into a fresh segment and return its handle.

        Raises :class:`OSError` when ``/dev/shm`` refuses the allocation
        (full, fd-exhausted, or an injected fault) — callers degrade to
        the inline pickle lane per message.
        """
        block = np.ascontiguousarray(array)
        self._seq += 1
        name = f"{self.prefix}-{os.getpid()}-{self._seq}"
        nbytes = max(1, int(block.nbytes))  # zero-size segments are illegal
        if self.io_policy is not None:
            try:
                self.io_policy.check("shm")
            except OSError:
                self.park_failures += 1
                raise
        try:
            seg = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        except OSError:
            self.park_failures += 1
            raise
        try:
            if block.nbytes:
                view = np.ndarray(block.shape, dtype=block.dtype, buffer=seg.buf)
                view[...] = block
                del view
        finally:
            seg.close()
        _untrack(name)
        self._live[name] = owner
        return BlockRef(
            segment=name,
            dtype=block.dtype.str,
            shape=tuple(block.shape),
            nbytes=int(block.nbytes),
        )

    def forget(self, name: str) -> None:
        """Stop tracking a segment the receiver is now responsible for."""
        self._live.pop(name, None)

    def release(self, name: str) -> None:
        """Unlink one segment if it still exists (idempotent)."""
        self._live.pop(name, None)
        _unlink_quiet(name)

    def release_owner(self, owner: Any) -> int:
        """Unlink every live segment parked for ``owner`` (a task id).

        The master calls this when a dispatch settles — commit, requeue
        after timeout/lease expiry, worker retirement — so segments for
        undelivered assigns never outlive the dispatch they served.
        """
        names = [n for n, o in self._live.items() if o == owner]
        for name in names:
            self.release(name)
        return len(names)

    def sweep(self) -> int:
        """Unlink every segment this store still tracks; returns the count."""
        names = list(self._live)
        for name in names:
            self.release(name)
        return len(names)

    def __len__(self) -> int:
        return len(self._live)


def _unlink_quiet(name: str) -> bool:
    """Unlink a segment by name; False when it was already gone.

    ``unlink`` also cancels the registration the attach just made, so the
    tracker books stay balanced; only when unlink loses a race is the
    registration dropped by hand.
    """
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False  # already reclaimed: the normal idempotent case
    except OSError as exc:
        SHM_ERRORS.note("unlink", name, exc)  # EMFILE/EACCES — not "gone"
        return False
    try:
        seg.close()
        seg.unlink()
    except FileNotFoundError:
        _untrack(name)
        return False
    except OSError as exc:
        SHM_ERRORS.note("unlink", name, exc)
        _untrack(name)
        return False
    return True


def leaked_segments(prefix: str) -> List[str]:
    """Names of run-prefixed segments still present on this host."""
    try:
        entries = os.listdir(_DEV_SHM)
    except FileNotFoundError:
        return []  # platform without /dev/shm: nothing to sweep
    except OSError as exc:
        SHM_ERRORS.note("listdir", None, exc)
        return []
    return sorted(e for e in entries if e.startswith(prefix))


def sweep_segments(prefix: str) -> int:
    """Force-unlink every remaining segment of one run (the teardown
    backstop: catches orphans from workers that died mid-park)."""
    count = 0
    for name in leaked_segments(prefix):
        if _unlink_quiet(name):
            count += 1
    return count


def attach_copy(ref: BlockRef) -> np.ndarray:
    """Rehydrate one block: attach, copy out, close, unlink.

    Raises ``FileNotFoundError``/``OSError`` when the segment is gone —
    callers translate that into dropped-message semantics.
    """
    dtype = np.dtype(ref.dtype)
    if not ref.nbytes:
        return np.empty(ref.shape, dtype=dtype)
    seg = shared_memory.SharedMemory(name=ref.segment)
    try:
        view = np.ndarray(ref.shape, dtype=dtype, buffer=seg.buf)
        block = np.array(view, copy=True)
        del view
    finally:
        seg.close()
    try:
        # Receiver unlinks: destroys the segment and cancels the attach's
        # tracker registration in one go (balanced books either way).
        seg.unlink()
    except FileNotFoundError:
        _untrack(ref.segment)
    except OSError as exc:
        SHM_ERRORS.note("attach-unlink", ref.segment, exc)
        _untrack(ref.segment)
    return block


# -- payload (en/de)coding ---------------------------------------------------------


def _encode_payload(
    store: BlockStore, payload: Dict[str, Any], owner: Any
) -> Tuple[Dict[str, Any], int]:
    """Park each large array; returns ``(encoded, parks_degraded)``.

    A park that fails — ``/dev/shm`` full, fd exhaustion, an injected
    fault — degrades *that array* to the inline pickle lane instead of
    failing the send: the message still flows (slower), and digests are
    unaffected because they are stamped over the arrays themselves,
    before this encoding runs.
    """
    out: Dict[str, Any] = {}
    degraded = 0
    for key, value in payload.items():
        if isinstance(value, np.ndarray) and value.nbytes >= SHM_MIN_BYTES:
            try:
                out[key] = store.park(value, owner=owner)
            except OSError:
                out[key] = value
                degraded += 1
        else:
            out[key] = value
    return out, degraded


def _decode_payload(payload: Dict[str, Any]) -> Tuple[Dict[str, Any], int]:
    """Rehydrate every ref; returns ``(decoded, bytes_attached)``."""
    out: Dict[str, Any] = {}
    attached = 0
    for key, value in payload.items():
        if isinstance(value, BlockRef):
            out[key] = attach_copy(value)
            attached += value.nbytes
        else:
            out[key] = value
    return out, attached


class ShmChannel(DelegatingChannel):
    """Channel wrapper that moves large block payloads through segments.

    Wrap the raw transport on *both* endpoints of a processes-backend
    connection (the chaos wrapper, when present, goes outside it on the
    master side, so faults mutate the decoded arrays the runtime sees,
    not the opaque refs). Assign payloads are parked by the master's
    store, result payloads by the slave's; each side decodes what the
    other parked.
    """

    def __init__(self, inner: Channel, store: BlockStore) -> None:
        super().__init__(inner)
        self.store = store
        #: Attach failures translated into drops (mirrors the chaos
        #: channel's ``faults_injected`` so reports can count them).
        self.attach_failures = 0
        #: Arrays that fell back to the inline lane because their segment
        #: allocation failed (graceful degradation, not an error).
        self.park_degrades = 0
        #: Bytes attached while decoding the current message (drives the
        #: per-message ``shm-attach`` span).
        self._attached = 0
        #: Parks degraded while encoding the current message.
        self._degraded = 0

    # -- encode (send side) --------------------------------------------------

    def _encode(self, msg: Message) -> Message:
        parts = []
        for part in msg.elements:
            payload, degraded = _encode_payload(self.store, part.payload, part.task_id)
            self._degraded += degraded
            parts.append(part.with_payload(payload))
        return msg.with_elements(parts)

    def _send(self, msg: Message) -> None:
        self._degraded = 0
        encoded = self._encode(msg)
        if self._degraded:
            self.park_degrades += self._degraded
            if self._obs.enabled:
                self._obs.emit(
                    "resource-degrade",
                    getattr(msg, "task_id", None),
                    epoch=getattr(msg, "epoch", -1),
                    node=getattr(self, "_obs_node", -1),
                    scope="message",
                    layer="shm",
                    action="inline-fallback",
                    n_arrays=self._degraded,
                )
        self.inner._send(encoded)

    # -- decode (recv side) --------------------------------------------------

    def _decode(self, msg: Message) -> Message:
        parts = []
        for part in msg.elements:
            payload, n = _decode_payload(part.payload)
            self._attached += n
            parts.append(part.with_payload(payload) if n else part)
        return msg.with_elements(parts) if self._attached else msg

    def _recv(self, timeout: Optional[float]) -> Message:
        msg = self.inner._recv(timeout)
        t0 = time.perf_counter()
        self._attached = 0
        try:
            decoded = self._decode(msg)
        except (FileNotFoundError, OSError) as exc:
            # The segment is gone (worker restarted by resume, duplicate
            # delivery racing the first unlink, sweep beat us to it).
            # Degrade to a dropped message: the sender's retry machinery
            # — slave re-announce, master overtime requeue with charged
            # budget — recovers exactly as for a chaos ``drop``.
            self.attach_failures += 1
            if self._obs.enabled:
                self._obs.emit(
                    "shm-attach",
                    getattr(msg, "task_id", None),
                    epoch=getattr(msg, "epoch", -1),
                    node=getattr(self, "_obs_node", -1),
                    scope="message",
                    ok=False,
                    error=str(exc),
                    t0=t0,
                    t1=time.perf_counter(),
                )
            raise ChannelTimeout(
                f"shm attach failed, message dropped: {exc}"
            ) from exc
        if self._attached and self._obs.enabled:
            self._obs.emit(
                "shm-attach",
                getattr(msg, "task_id", None),
                epoch=getattr(msg, "epoch", -1),
                node=getattr(self, "_obs_node", -1),
                scope="message",
                ok=True,
                nbytes=self._attached,
                t0=t0,
                t1=time.perf_counter(),
            )
        return decoded
