"""Direct tests of SlavePart: protocol behavior and the slave worker pool.

The master side is scripted over a raw channel, so slave-local behavior
(idle cadence, end handling, stop event, injected process-level faults,
thread-pool scheduling variants) is pinned without the real master's
timing in the way.
"""

import threading

import numpy as np
import pytest

from repro.algorithms import EditDistance
from repro.cluster.faults import FaultPlan, FaultRule, Faults
from repro.comm.messages import (
    BatchAssign,
    BatchResult,
    EndSignal,
    Heartbeat,
    IdleSignal,
    TaskAssign,
    TaskResult,
)
from repro.comm.transport import channel_pair
from repro.dag.partition import partition_pattern
from repro.runtime.config import RunConfig
from repro.runtime.slave import SlavePart
from repro.utils.errors import TransportError


@pytest.fixture
def setup():
    problem = EditDistance.random(24, 24, seed=1)
    partition = partition_pattern(problem.pattern(), 12)  # 2x2 blocks
    master_end, slave_end = channel_pair()
    return problem, partition, master_end, slave_end


def make_slave(problem, partition, channel, *, stop_event=None, **knobs):
    knobs.setdefault("threads_per_node", 2)
    config = RunConfig(thread_partition=6, poll_interval=0.005, **knobs)
    return SlavePart(0, channel, problem, partition, config, stop_event=stop_event)


def send_assign(master, task_id, epoch, inputs):
    """One sub-task the way the master ships it: a wave of one."""
    master.send(BatchAssign((TaskAssign(task_id, epoch, inputs),)))


def recv_result(master):
    """The one element of the result envelope answering a wave of one."""
    envelope = master.recv(timeout=5.0)
    assert isinstance(envelope, BatchResult)
    (result,) = envelope.results
    assert isinstance(result, TaskResult)
    return result


def run_slave_async(slave):
    thread = threading.Thread(target=slave.run, daemon=True)
    thread.start()
    return thread


class TestProtocolSide:
    def test_announces_idle_then_computes_then_idles_again(self, setup):
        problem, partition, master, slave_end = setup
        slave = make_slave(problem, partition, slave_end)
        thread = run_slave_async(slave)

        assert isinstance(master.recv(timeout=5.0), IdleSignal)
        state = problem.make_state()
        inputs = problem.extract_inputs(state, partition, (0, 0))
        send_assign(master, (0, 0), 0, inputs)
        result = recv_result(master)
        assert result.task_id == (0, 0)
        assert result.epoch == 0
        assert result.elapsed > 0
        assert isinstance(master.recv(timeout=5.0), IdleSignal)
        master.send(EndSignal())
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert slave.stats.tasks == 1

    def test_result_matches_serial_computation(self, setup):
        problem, partition, master, slave_end = setup
        slave = make_slave(problem, partition, slave_end)
        thread = run_slave_async(slave)

        master.recv(timeout=5.0)
        state = problem.make_state()
        inputs = problem.extract_inputs(state, partition, (0, 0))
        send_assign(master, (0, 0), 0, inputs)
        result = recv_result(master)
        expected = problem.evaluator(partition, (0, 0), inputs).run_serial(
            partition.sub_partition((0, 0), 6)
        )
        assert np.array_equal(result.outputs["block"], expected["block"])
        master.recv(timeout=5.0)
        master.send(EndSignal())
        thread.join(timeout=5.0)

    def test_stop_event_interrupts_quiet_wait(self, setup):
        problem, partition, master, slave_end = setup
        stop = threading.Event()
        slave = make_slave(problem, partition, slave_end, stop_event=stop)
        thread = run_slave_async(slave)
        master.recv(timeout=5.0)  # idle; now stay silent
        stop.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_parent_death_ends_a_slave_process(self, setup):
        # What ``slave_process_main`` arms: once the process is no longer
        # the child of the master that started it, the quiet wait ends —
        # no EndSignal and no EOF ever arrives from a SIGKILLed master.
        problem, partition, master, slave_end = setup
        slave = make_slave(problem, partition, slave_end)
        slave._parent_pid = -1  # "my parent is gone"
        thread = run_slave_async(slave)
        thread.join(timeout=5.0)
        assert not thread.is_alive() and slave.stop_event.is_set()

    def test_silence_past_the_resend_window_reannounces_idle(self, setup):
        # An idle signal (or its answer) lost in transit must not silence
        # the slave: with nothing heard for max(0.1 s, 10 polls) it
        # announces again.
        problem, partition, master, slave_end = setup
        slave = make_slave(problem, partition, slave_end)
        thread = run_slave_async(slave)
        assert isinstance(master.recv(timeout=5.0), IdleSignal)
        assert isinstance(master.recv(timeout=5.0), IdleSignal)
        master.send(EndSignal())
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert slave.stats.tasks == 0

    def test_a_message_that_is_no_assignment_nor_end_raises(self, setup):
        problem, partition, master, slave_end = setup
        slave = make_slave(problem, partition, slave_end)
        master.send(Heartbeat(0))  # a master-bound kind, sent the wrong way
        with pytest.raises(TransportError, match="unexpected message"):
            slave.run()
        assert isinstance(master.recv(timeout=5.0), IdleSignal)

    def test_crash_fault_drops_task_but_keeps_serving(self, setup):
        problem, partition, master, slave_end = setup
        plan = FaultPlan([FaultRule("crash", (0, 0), 0)])
        slave = make_slave(problem, partition, slave_end, faults=Faults(task=plan))
        thread = run_slave_async(slave)

        master.recv(timeout=5.0)
        state = problem.make_state()
        inputs = problem.extract_inputs(state, partition, (0, 0))
        send_assign(master, (0, 0), 0, inputs)
        # No result: the next message is the fresh idle signal.
        msg = master.recv(timeout=5.0)
        assert isinstance(msg, IdleSignal)
        # Re-dispatch (epoch 1) succeeds: the rule only matched attempt 0.
        send_assign(master, (0, 0), 1, inputs)
        result = recv_result(master)
        assert result.epoch == 1
        master.recv(timeout=5.0)
        master.send(EndSignal())
        thread.join(timeout=5.0)


class TestSlaveWorkerPool:
    def _compute_direct(self, problem, partition, bid, **kw):
        _, slave_end = channel_pair()
        slave = make_slave(problem, partition, slave_end, **kw)
        state = problem.make_state()
        inputs = problem.extract_inputs(state, partition, bid)
        outputs = slave._compute(TaskAssign(bid, 0, inputs))
        expected = problem.evaluator(partition, bid, inputs).run_serial(
            partition.sub_partition(bid, slave.thread_size)
        )
        assert np.array_equal(outputs["block"], expected["block"])
        return slave

    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_pool_sizes(self, setup, n_threads):
        problem, partition, _, _ = setup
        self._compute_direct(problem, partition, (0, 0), threads_per_node=n_threads)

    @pytest.mark.parametrize("thread_scheduler", ["dynamic", "bcw", "cw"])
    def test_pool_schedulers(self, setup, thread_scheduler):
        problem, partition, _, _ = setup
        slave = self._compute_direct(
            problem, partition, (0, 0), thread_scheduler=thread_scheduler
        )
        assert slave.stats.subtasks == 4  # 12x12 block over 6 -> 2x2

    def test_pool_thread_fault_restart(self, setup):
        problem, partition, _, _ = setup
        plan = FaultPlan([FaultRule("crash", (1, 1), 0)])
        slave = self._compute_direct(
            problem, partition, (0, 0),
            faults=Faults(thread=plan), subtask_timeout=0.2,
        )
        assert slave.stats.thread_restarts >= 1
