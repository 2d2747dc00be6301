"""The real backends dispatch one way: a lone assignment is a wave of one
on the wire too (the real-shell twin of ``test_simulated_one_path.py``).

``batch_wave`` decides how many elements share an envelope and whether
``batch-assemble`` is recorded — nothing else. So a wave limited to one
element must reproduce the unbatched run, the envelope must carry its
first element's identity for fault rules and message telemetry on every
backend, and the ready stack must ask the policy the simulator's question.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance
from repro.cluster.faults import Faults, MessageFaultPlan, MessageFaultRule
from repro.comm.messages import BatchResult, TaskResult
from repro.comm.serialization import MESSAGE_ENVELOPE_BYTES, message_nbytes, payload_nbytes
from repro.comm.transport import pipe_channel_pair
from repro.runtime.assembly import RunAssembly
from repro.runtime.worker_pool import ComputableStack
from repro.utils.errors import FaultToleranceExhausted
from tests.test_dispatch_shells import PLANS, Once

SRC = Path(repro.__file__).parent
ENVELOPES = ("BatchAssign", "BatchResult")
#: Slave-lane announcements: which worker ran (and slowed, or lied about)
#: which block is the thread scheduler's, not the protocol's.
WHO_RAN_WHAT = ("worker-slow", "worker-liar")


def problem():
    return EditDistance.random(48, 48, seed=7)  # a 3x3 block wavefront


def outcome(backend, **kw):
    """Everything a run decides that does not depend on who ran what:
    digest, state, payload traffic, task counts, the census of its
    task-scope events — or how it aborted."""
    config = RunConfig(
        backend=backend, nodes=3, threads_per_node=1, process_partition=16,
        thread_partition=8, task_timeout=0.6, poll_interval=0.005, observe=True, **kw,
    )
    try:
        run = EasyHPS(config).run(problem())
    except FaultToleranceExhausted as exc:
        return type(exc).__name__, re.sub(r"worker \d+", "worker N", str(exc))
    report = run.report
    census = Counter(
        ev.kind for ev in report.events
        if ev.scope == "task" and ev.kind not in WHO_RAN_WHAT
    )
    del census["batch-assemble"]
    # Idle re-announcements and end signals ride the clock; the payload
    # envelopes do not.
    wire = Counter()
    for ev in report.events:
        if ev.kind in ("msg-send", "msg-recv") and ev.data["type"] in ENVELOPES:
            wire[ev.kind, ev.data["type"]] += ev.data["nbytes"]
    return dict(
        run_digest=report.run_digest,
        state={k: v.tobytes() for k, v in run.state.items()},
        wire=wire,
        report_bytes=(report.bytes_to_slaves, report.bytes_to_master),
        n_tasks=report.n_tasks,
        n_subtasks=report.n_subtasks,
        census=census,
    )


# -- (i) a wave of one is the unbatched run ------------------------------------------


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_wave_of_one_is_the_unbatched_run(backend):
    # Fault-free the report's own byte counters agree too: a run this
    # short re-announces nothing.
    assert outcome(backend, batch_wave=True, max_batch=1) == outcome(backend)


@pytest.mark.parametrize("name", PLANS)
@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_wave_of_one_is_the_unbatched_run_under_faults(backend, name):
    overrides, _ = PLANS[name]
    single = outcome(backend, **overrides())
    wave_of_one = outcome(backend, batch_wave=True, max_batch=1, **overrides())
    for run in (single, wave_of_one):
        if isinstance(run, dict):
            del run["report_bytes"]  # idle re-announcements while a timeout runs
    assert wave_of_one == single


# -- (ii) the envelope carries its first element's identity ---------------------------


def targeted_drop(backend, batch_wave):
    """Block (1, 1) of a 2x2 wavefront is alone when it becomes ready, so
    it heads its envelope however waves are sized."""
    plan = MessageFaultPlan([MessageFaultRule("drop", direction="send", task_id=(1, 1))])
    config = RunConfig(
        backend=backend, nodes=3, threads_per_node=1, process_partition=24,
        batch_wave=batch_wave, faults=Faults(message=plan), task_timeout=0.3,
        max_retries=1, poll_interval=0.005, observe=True,
    )
    try:
        EasyHPS(config).run(problem())
    except FaultToleranceExhausted as exc:
        return str(exc)
    pytest.fail("every assignment of (1, 1) was dropped, yet the run finished")


@pytest.mark.parametrize("batch_wave", [False, True])
@pytest.mark.parametrize("backend", ["simulated", "threads"])
def test_task_targeted_rule_hits_the_envelope_on_every_backend(backend, batch_wave):
    assert "sub-task (1, 1) failed" in targeted_drop(backend, batch_wave)


@pytest.mark.parametrize("shm", [False, True])
def test_every_payload_message_event_names_a_task(shm):
    first_result = dict(direction="recv", message_type="BatchResult")
    plan = MessageFaultPlan(
        [Once("duplicate", **first_result), Once("delay", delay=0.01, **first_result)]
    )
    config = RunConfig(
        backend="processes", nodes=3, threads_per_node=1, process_partition=16,
        batch_wave=True, shm=shm, faults=Faults(message=plan), observe=True,
    )
    events = EasyHPS(config).run(problem()).report.events
    payload = [
        ev for ev in events
        if ev.scope == "message"
        and (ev.kind == "shm-attach" or ev.data.get("type") in ENVELOPES)
    ]
    kinds = {ev.kind for ev in payload}
    assert {"msg-send", "msg-recv", "msg-duplicate", "msg-delay"} <= kinds
    assert ("shm-attach" in kinds) == shm
    assert all(ev.task_id is not None and ev.epoch >= 0 for ev in payload)


# -- (iii) a bare element still crosses a raw channel ---------------------------------


def test_bare_element_crosses_a_raw_pipe():
    a, b = pipe_channel_pair()
    try:
        payload = {"block": np.arange(12.0).reshape(3, 4)}
        bare = TaskResult((0, 0), 0, 0, payload)
        a.send(bare)
        got = b.recv(timeout=5.0)
    finally:
        a.close()
        b.close()
    assert got == bare and np.array_equal(got.outputs["block"], payload["block"])
    sized = MESSAGE_ENVELOPE_BYTES + payload_nbytes(payload)
    assert a.sent_bytes == b.received_bytes == message_nbytes(bare) == sized
    # ... which is what the wave of one holding it costs.
    assert message_nbytes(BatchResult(0, (bare,))) == sized


# -- (iv) the ready stack asks the policy ----------------------------------------------


def test_affinity_steers_the_real_masters_pops():
    config = RunConfig(
        backend="threads", nodes=3, process_partition=16, scheduler="dynamic-affinity"
    )
    policy = RunAssembly(config, problem()).policy(2)
    stack = ComputableStack()
    stack.push_many([(1, 0), (0, 1)])
    policy.completed(1, (0, 0))  # no neighbour of (2, 2)
    policy.completed(0, (0, 1))  # a predecessor of (0, 2) and (1, 1), not of (1, 0)
    stack.push_many([(2, 2)])
    assert stack.pop_eligible(1, policy, timeout=0) == (0, 1)  # (0, 0)'s successor
    stack.push_many([(0, 2), (2, 2)])
    assert stack.pop_eligible(0, policy, timeout=0) == (0, 2)
    run = EasyHPS(config).run(problem())
    assert run.value.distance == problem().reference()


# -- (v) no second path, structurally --------------------------------------------------


class TestStructure:
    def test_batch_wave_only_sizes_the_wave_on_the_real_master(self):
        """``batch_wave`` is read where the offering step the master runs
        sizes the wave and gates ``batch-assemble`` — once, when the step
        is built — and ``runtime/master.py`` / ``runtime/slave.py`` never
        read it."""
        reads = {}
        for rel in ("runtime/master.py", "runtime/slave.py", "runtime/offering.py"):
            tree = ast.parse((SRC / rel).read_text(), filename=rel)
            reads[rel] = [
                fn.name
                for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef)
                for n in ast.walk(fn)
                if isinstance(n, ast.Attribute) and n.attr == "batch_wave"
            ]
        assert reads == {
            "runtime/master.py": [],
            "runtime/slave.py": [],
            "runtime/offering.py": ["__init__"],
        }

    def test_no_module_dispatches_on_the_four_payload_types(self):
        """Outside ``comm/messages.py`` the only ``isinstance`` tests on
        ``TaskAssign`` / ``TaskResult`` / ``BatchAssign`` / ``BatchResult``
        are the one receive dispatch each of master and slave."""
        payload_types = {"TaskAssign", "TaskResult", "BatchAssign", "BatchResult"}
        found = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            if rel == "comm/messages.py":
                continue
            for n in ast.walk(ast.parse(path.read_text(), filename=rel)):
                if (
                    isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Name)
                    and n.func.id == "isinstance"
                    and {
                        t.id if isinstance(t, ast.Name) else getattr(t, "attr", None)
                        for t in ast.walk(n.args[1])
                    } & payload_types
                ):
                    found.append(rel)
        assert found == ["runtime/master.py", "runtime/slave.py"]
