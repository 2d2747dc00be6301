"""Message-fault injection at the transport boundary.

:class:`ChaosChannel` wraps one :class:`~repro.comm.transport.Channel`
endpoint (by convention the *master-side* end of a master<->slave
connection) and applies a :class:`~repro.cluster.faults.MessageFaultPlan`
to the traffic flowing through it:

- ``drop``      — the message vanishes in transit;
- ``duplicate`` — the message is delivered twice;
- ``delay``     — delivery is held back ``rule.delay`` seconds
  (receive side only; the protocol's poll loops pick it up late);
- ``corrupt``   — one payload byte is flipped and the content digest left
  stale: the receiver's integrity check
  (:func:`repro.comm.serialization.content_digest`) detects the mismatch
  and discards the message, so observably it is a drop — but the verify
  code actually runs. When the run's integrity mode is ``off`` (no
  digest stamped) the mutation flows through undetected;
- ``bitflip``   — one payload byte is flipped *and the digest restamped*
  to match (corruption upstream of the checksum): never caught at
  receive, only by semantic defenses (audit recompute / voting).

Multiple explicit rules matching the same message compose in rule order —
a duplicate+delay message is delivered twice, late.

Faults never raise into the runtime — the protocol must survive them via
timeouts, epochs, redistribution, and the integrity layer, which is
exactly what the chaos campaign asserts. Every injected fault emits a
``msg-*`` event on the endpoint's instrumented recorder and counts toward
per-endpoint ``chaos.*`` metrics.

The wrapper is deliberately protocol-agnostic: it never inspects message
semantics beyond the class name and optional ``task_id`` used for rule
matching — for an assignment or result envelope (``BatchAssign`` /
``BatchResult``) that is its first element's, on every backend.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.faults import MessageFaultPlan
from repro.comm.messages import Message
from repro.comm.serialization import content_digest
from repro.comm.transport import Channel, ChannelTimeout, DelegatingChannel


def _flip_first_array(payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """``payload`` with the first byte of its first non-empty array
    flipped; None when it holds no array bytes."""
    flipped = False
    mutated = {}
    for key, value in payload.items():
        if not flipped and isinstance(value, np.ndarray) and value.size:
            raw = bytearray(np.ascontiguousarray(value).tobytes())
            raw[0] ^= 0xFF
            mutated[key] = (
                np.frombuffer(bytes(raw), dtype=value.dtype)
                .reshape(value.shape)
                .copy()
            )
            flipped = True
        else:
            mutated[key] = value
    return mutated if flipped else None


class ChaosChannel(DelegatingChannel):
    """A channel endpoint with seeded message-fault injection."""

    def __init__(
        self,
        inner: Channel,
        plan: MessageFaultPlan,
        *,
        endpoint_index: int = 0,
    ) -> None:
        super().__init__(inner)
        self.plan = plan
        self.endpoint_index = endpoint_index
        #: Injection counters, by fault kind.
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.corrupted = 0
        self.bitflipped = 0
        self._sent_index = 0
        self._recv_index = 0
        #: Messages already received but held back by a ``delay`` fault:
        #: (ready_at, tiebreak, message).
        self._held: List[Tuple[float, int, Message]] = []
        #: Extra copies queued by a ``duplicate`` fault on the recv side.
        self._dup_queue: Deque[Message] = deque()
        self._held_seq = 0

    # -- fault bookkeeping -----------------------------------------------------

    def _note(self, kind: str, msg: Message) -> None:
        counter = {
            "drop": "dropped",
            "duplicate": "duplicated",
            "delay": "delayed",
            "corrupt": "corrupted",
            "bitflip": "bitflipped",
        }[kind]
        setattr(self, counter, getattr(self, counter) + 1)
        if self._obs.enabled:
            self._obs.emit(
                f"msg-{kind}",
                getattr(msg, "task_id", None),
                epoch=getattr(msg, "epoch", -1),
                node=getattr(self, "_obs_node", -1),
                scope="message",
                type=type(msg).__name__,
                endpoint=self.endpoint,
            )

    def publish_metrics(self, registry) -> None:
        super().publish_metrics(registry)
        label = self.endpoint or "channel"
        registry.counter("chaos.messages_dropped", endpoint=label).inc(self.dropped)
        registry.counter("chaos.messages_duplicated", endpoint=label).inc(self.duplicated)
        registry.counter("chaos.messages_delayed", endpoint=label).inc(self.delayed)
        registry.counter("chaos.messages_corrupted", endpoint=label).inc(self.corrupted)
        registry.counter("chaos.messages_bitflipped", endpoint=label).inc(self.bitflipped)

    @property
    def faults_injected(self) -> int:
        return (
            self.dropped + self.duplicated + self.delayed
            + self.corrupted + self.bitflipped
        )

    # -- payload mutation ------------------------------------------------------

    def _mutate_payload(self, msg: Message, restamp: bool) -> Optional[Message]:
        """Flip one byte of the message's first array payload.

        An envelope corrupts like a wire frame would: one byte in one
        element — the first that carries array bytes; the other elements
        of the wave pass verification untouched. ``restamp`` (the
        ``bitflip`` kind) recomputes that element's content digest over
        the mutated payload so receive-side verification passes —
        corruption upstream of the checksum. Without it (``corrupt``) the
        stamped digest goes stale and the receiver detects the mismatch.
        Returns None when the message carries no array bytes to flip (a
        bare signal or an empty input set); the caller degrades the fault
        to a drop.
        """
        parts = msg.elements
        for i, part in enumerate(parts):
            mutated = _flip_first_array(part.payload)
            if mutated is None:
                continue
            fields = {}
            if restamp and part.digest is not None:
                fields["digest"] = content_digest(mutated)
            return msg.with_elements(
                parts[:i] + (part.with_payload(mutated, **fields),) + parts[i + 1:]
            )
        return None

    # -- transport hooks -------------------------------------------------------

    def _send(self, msg: Message) -> None:
        index = self._sent_index
        self._sent_index += 1
        rules = self.plan.decide_all(
            "send", type(msg).__name__, getattr(msg, "task_id", None), index,
            endpoint=self.endpoint_index,
        )
        if not rules:
            super()._send(msg)
            return
        copies = 1
        for rule in rules:
            self._note(rule.kind, msg)
            if rule.kind == "drop":
                return  # lost in transit
            if rule.kind in ("corrupt", "bitflip"):
                mutated = self._mutate_payload(msg, restamp=rule.kind == "bitflip")
                if mutated is None:
                    return  # no payload bytes to flip: degrade to a drop
                msg = mutated
            elif rule.kind == "duplicate":
                copies += 1
            else:
                # delay: hold the sender briefly, then deliver. Send-side
                # delay stalls only this endpoint's service thread, which
                # is precisely a slow link's observable behaviour.
                time.sleep(min(rule.delay, 1.0))
        for _ in range(copies):
            super()._send(msg)

    def _recv(self, timeout: Optional[float]) -> Message:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._dup_queue:
                return self._dup_queue.popleft()
            now = time.monotonic()
            if self._held and self._held[0][0] <= now:
                return heapq.heappop(self._held)[2]
            # Wait bounded by the deadline and the next held message.
            wait: Optional[float] = None
            if deadline is not None:
                wait = deadline - now
            if self._held:
                until_held = self._held[0][0] - now
                wait = until_held if wait is None else min(wait, until_held)
            if wait is not None and wait <= 0:
                if deadline is not None and now >= deadline:
                    raise ChannelTimeout(f"no message within {timeout}s")
                continue  # a held message just became ready
            try:
                msg = super()._recv(wait)
            except ChannelTimeout:
                if deadline is not None and time.monotonic() >= deadline:
                    raise
                continue
            index = self._recv_index
            self._recv_index += 1
            rules = self.plan.decide_all(
                "recv", type(msg).__name__, getattr(msg, "task_id", None), index,
                endpoint=self.endpoint_index,
            )
            if not rules:
                return msg
            copies = 1
            hold = 0.0
            lost = False
            for rule in rules:
                self._note(rule.kind, msg)
                if rule.kind == "drop":
                    lost = True  # vanished in transit
                    break
                if rule.kind in ("corrupt", "bitflip"):
                    mutated = self._mutate_payload(
                        msg, restamp=rule.kind == "bitflip"
                    )
                    if mutated is None:
                        lost = True  # no payload bytes to flip: degrade to drop
                        break
                    msg = mutated
                elif rule.kind == "duplicate":
                    copies += 1
                else:
                    hold += rule.delay
            if lost:
                continue  # keep waiting within the deadline
            if hold > 0.0:
                # delay: park every copy and keep serving other traffic.
                for _ in range(copies):
                    self._held_seq += 1
                    heapq.heappush(self._held, (now + hold, self._held_seq, msg))
                continue
            for _ in range(copies - 1):
                self._dup_queue.append(msg)
            return msg

    def __repr__(self) -> str:
        return (
            f"ChaosChannel({self.inner!r}, faults={self.faults_injected}, "
            f"plan={self.plan!r})"
        )
