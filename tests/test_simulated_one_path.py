"""The simulator dispatches one way: a lone assignment is a wave of one.

``batch_wave`` decides what it decides on the real wire — how many
elements share an envelope, the message-type name the fault plan sees,
and whether ``batch-assemble`` is recorded. So a wave limited to one
element must reproduce the unbatched run exactly, fault plans included.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro import RunConfig
from repro.algorithms import EditDistance, Nussinov
from repro.backends.simulated import _SimulatedRun
from repro.cluster.faults import (
    FaultPlan,
    Faults,
    MessageFaultPlan,
    MessageFaultRule,
    WorkerFaultPlan,
)
from repro.utils.errors import FaultToleranceExhausted

PROBLEMS = {
    "wavefront": lambda: EditDistance.random(96, 96, seed=3),
    "triangular": lambda: Nussinov.random(96, seed=3),
}
#: Host time and the raw streams; the streams are compared as a census.
NOT_COUNTERS = ("wall_time", "trace", "events", "metrics")


def outcome(problem, **kw):
    """Everything a run decides: its report's counters, the census of its
    event kinds, and how it ended."""
    config = RunConfig.experiment(
        4, 13, process_partition=16, thread_partition=4, observe=True, **kw
    )
    run = _SimulatedRun(problem, config)
    counters, error = None, None
    try:
        report = dataclasses.asdict(run.execute())
        counters = {k: v for k, v in report.items() if k not in NOT_COUNTERS}
    except FaultToleranceExhausted as exc:
        error = (type(exc).__name__, str(exc))
    census = Counter(ev.kind for ev in run.obs.events())
    del census["batch-assemble"]
    return counters, census, error


def assert_wave_of_one_is_the_single_path(problem, **kw):
    single = outcome(problem, **kw)
    wave_of_one = outcome(problem, batch_wave=True, max_batch=1, **kw)
    assert wave_of_one == single


@pytest.mark.parametrize("scheduler", ["dynamic", "bcw"])
@pytest.mark.parametrize("pattern", PROBLEMS)
def test_fault_free(pattern, scheduler):
    assert_wave_of_one_is_the_single_path(PROBLEMS[pattern](), scheduler=scheduler)


def seeded_plans(seed):
    return {
        "task": dict(
            faults=Faults(task=FaultPlan.random(0.15, seed=seed, kind=("crash", "hang")))
        ),
        "worker": dict(
            faults=Faults(worker=WorkerFaultPlan.random(p_die=0.3, p_slow=0.3, seed=seed))
        ),
        "message": dict(
            faults=Faults(message=MessageFaultPlan.random(0.15, seed=seed)), integrity="digest"
        ),
        "sdc": dict(
            faults=Faults(
                message=MessageFaultPlan.random(
                    0.1, seed=seed, kinds=("corrupt", "bitflip", "duplicate")
                ),
                worker=WorkerFaultPlan.random(p_lie=0.3, seed=seed),
            ),
            integrity="audit", audit_fraction=0.5, quarantine_threshold=2,
        ),
    }


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("tier", ["task", "worker", "message", "sdc"])
def test_under_seeded_faults(tier, seed):
    assert_wave_of_one_is_the_single_path(
        PROBLEMS["wavefront"](),
        task_timeout=5.0, max_retries=4, blacklist_threshold=3,
        heartbeat_interval=0.5 if seed % 2 else None,
        **seeded_plans(seed)[tier],
    )


@pytest.mark.parametrize("batch_wave", [False, True])
def test_obs_byte_spans_add_up_to_the_wire_counters(batch_wave):
    """The envelope's bytes ride on the first element's span, so the
    ``send`` / ``result`` spans of a fault-free run sum to exactly what
    the wire counters were charged, however many elements share one."""
    config = RunConfig.experiment(
        4, 13, process_partition=40, thread_partition=10, observe=True,
        batch_wave=batch_wave,
    )
    report = _SimulatedRun(EditDistance.random(400, 400, seed=1), config).execute()

    def span_bytes(kind):
        return sum(ev.data["nbytes"] for ev in report.events if ev.kind == kind)

    assert span_bytes("send") == report.bytes_to_slaves
    assert span_bytes("result") == report.bytes_to_master


@pytest.mark.parametrize("batch_wave", [False, True])
def test_duplicated_result_envelope_lands_twice(batch_wave):
    """The second copy lands behind the first, element by element, and
    every element finds its epoch settled — one ``stale-drop`` each, as
    ``MasterPart._handle_result`` records."""
    plan = MessageFaultPlan([MessageFaultRule("duplicate", direction="recv", index=0)])
    config = RunConfig.experiment(
        4, 13, process_partition=16, thread_partition=4, observe=True,
        batch_wave=batch_wave, faults=Faults(message=plan),
    )
    report = _SimulatedRun(PROBLEMS["wavefront"](), config).execute()

    def dispatches(kind):
        return [(ev.task_id, ev.epoch) for ev in report.events if ev.kind == kind]

    envelopes, stale = dispatches("msg-duplicate"), dispatches("stale-drop")
    assert len(envelopes) == 3  # each node's first result envelope
    assert set(envelopes) <= set(stale) <= set(dispatches("commit"))
    assert len(dispatches("commit")) == report.n_tasks
    # Unbatched, an envelope is one element; batched, some carry more.
    assert len(stale) > 3 if batch_wave else len(stale) == 3
