"""Protocol-level tests of MasterPart against a scripted slave.

These drive the master's per-slave worker thread directly over a raw
channel — no SlavePart — to pin the wire protocol: idle -> assign,
result -> (new) assign, stale-epoch rejection, end-signal delivery, a
duplicate idle swallowed while a dispatch is live, a retired worker
sent away.
"""

import threading
import time

import pytest

from repro.algorithms import EditDistance
from repro.comm.messages import (
    BatchAssign,
    BatchResult,
    EndSignal,
    IdleSignal,
    TaskAssign,
    TaskResult,
)
from repro.comm.transport import ChannelTimeout, channel_pair
from repro.dag.partition import partition_pattern
from repro.runtime.config import RunConfig
from repro.runtime.master import MasterPart
from repro.schedulers.policy import DynamicPolicy, make_policy
from repro.utils.errors import SchedulerError


@pytest.fixture
def problem():
    return EditDistance.random(20, 20, seed=1)


def start_master(problem, n_slaves=1, **kw):
    partition = partition_pattern(problem.pattern(), 10)  # 2x2 blocks
    masters, slaves = [], []
    for _ in range(n_slaves):
        m, s = channel_pair()
        masters.append(m)
        slaves.append(s)
    master = MasterPart(
        problem,
        partition,
        masters,
        make_policy("dynamic", n_slaves, partition.grid.n_block_cols),
        RunConfig(poll_interval=0.005, **kw),
    )
    state_box = {}

    def run():
        state_box["state"] = master.run()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return master, partition, slaves, thread, state_box


def lone_assign(envelope):
    """The one element of an unbatched assignment envelope."""
    assert isinstance(envelope, BatchAssign)
    (assign,) = envelope.assigns
    assert isinstance(assign, TaskAssign)
    return assign


def send_result(channel, task_id, epoch, slave_id, outputs):
    channel.send(BatchResult(slave_id, (TaskResult(task_id, epoch, slave_id, outputs),)))


def obedient_slave(problem, partition, channel, slave_id=0):
    """Play the protocol correctly until the end signal."""
    while True:
        channel.send(IdleSignal(slave_id))
        msg = channel.recv(timeout=5.0)
        if isinstance(msg, EndSignal):
            return
        msg = lone_assign(msg)
        ev = problem.evaluator(partition, msg.task_id, msg.inputs)
        outputs = ev.run_serial(partition.sub_partition(msg.task_id, 5))
        send_result(channel, msg.task_id, msg.epoch, slave_id, outputs)


class TestProtocol:
    def test_idle_gets_first_computable_task(self, problem):
        master, partition, (ch,), thread, _ = start_master(problem)
        ch.send(IdleSignal(0))
        msg = lone_assign(ch.recv(timeout=5.0))
        assert msg.task_id == (0, 0)  # the only source of the wavefront
        assert msg.epoch == 0
        assert set(msg.inputs) == {"top", "left"}
        # Finish the run so the thread exits cleanly.
        obedient_slave_from(msg, problem, partition, ch)
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_full_run_through_scripted_slave(self, problem):
        master, partition, (ch,), thread, box = start_master(problem)
        obedient_slave(problem, partition, ch)
        thread.join(timeout=10.0)
        assert problem.finalize(box["state"]).distance == problem.reference()
        assert master.stats.tasks_per_worker == {0: 4}

    def test_stale_epoch_result_rejected(self, problem):
        master, partition, (ch,), thread, _ = start_master(problem)
        ch.send(IdleSignal(0))
        assign = lone_assign(ch.recv(timeout=5.0))
        # Reply with a WRONG epoch: must be dropped, task stays live.
        fake = problem.evaluator(partition, assign.task_id, assign.inputs).run_serial(
            partition.sub_partition(assign.task_id, 5)
        )
        send_result(ch, assign.task_id, assign.epoch + 7, 0, fake)
        # The master never completes (0,0) from that; give it a moment.
        time.sleep(0.1)
        assert master.stats.stale_results == 1
        assert master.core.is_live(assign.task_id)
        # Now answer correctly and drain.
        send_result(ch, assign.task_id, assign.epoch, 0, fake)
        obedient_slave(problem, partition, ch)
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_two_slaves_share_the_wavefront(self, problem):
        master, partition, (ch0, ch1), thread, _ = start_master(problem, n_slaves=2)
        t0 = threading.Thread(target=obedient_slave, args=(problem, partition, ch0, 0))
        t1 = threading.Thread(target=obedient_slave, args=(problem, partition, ch1, 1))
        t0.start()
        t1.start()
        thread.join(timeout=10.0)
        t0.join(timeout=5.0)
        t1.join(timeout=5.0)
        done = sum(master.stats.tasks_per_worker.values())
        assert done == 4
        assert set(master.stats.tasks_per_worker) <= {0, 1}

    def test_timeout_redistributes_to_other_slave(self, problem):
        master, partition, (ch0, ch1), thread, box = start_master(
            problem, n_slaves=2, task_timeout=0.3
        )
        # Slave 0 grabs a task and goes silent forever.
        ch0.send(IdleSignal(0))
        _ = ch0.recv(timeout=5.0)
        # Slave 1 plays along and must end up doing all 4 blocks.
        obedient_slave(problem, partition, ch1, slave_id=1)
        thread.join(timeout=10.0)
        assert master.stats.faults_recovered >= 1
        assert master.stats.tasks_per_worker.get(1) == 4
        assert problem.finalize(box["state"]).distance == problem.reference()

    def test_duplicate_idle_gets_nothing_while_a_dispatch_is_live(self, problem):
        master, partition, (ch,), thread, _ = start_master(problem)
        ch.send(IdleSignal(0))
        assign = lone_assign(ch.recv(timeout=5.0))
        # A re-announcement (the slave's resend window passed) while the
        # worker still holds (0, 0): swallowed, no second assignment.
        ch.send(IdleSignal(0))
        with pytest.raises(ChannelTimeout):
            ch.recv(timeout=0.3)
        assert master.core.holds_live(0)
        # Once the result lands, the next announcement is admitted.
        outputs = problem.evaluator(partition, assign.task_id, assign.inputs).run_serial(
            partition.sub_partition(assign.task_id, 5)
        )
        send_result(ch, assign.task_id, assign.epoch, 0, outputs)
        ch.send(IdleSignal(0))
        obedient_slave_from(lone_assign(ch.recv(timeout=5.0)), problem, partition, ch)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert master.stats.tasks_per_worker == {0: 4}

    def test_retired_worker_idle_is_answered_with_end_signal(self, problem):
        master, partition, (ch0, ch1), thread, box = start_master(
            problem, n_slaves=2, task_timeout=0.3, blacklist_threshold=1
        )
        # Slave 0 takes (0, 0) and goes silent past its deadline: one
        # strike blacklists it (slave 1 stays, so the floor allows it).
        ch0.send(IdleSignal(0))
        lone_assign(ch0.recv(timeout=5.0))
        helper = threading.Thread(target=obedient_slave, args=(problem, partition, ch1, 1))
        helper.start()
        deadline = time.monotonic() + 5.0
        while not master.core.is_retired(0) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert master.core.is_retired(0)
        ch0.send(IdleSignal(0))
        assert isinstance(ch0.recv(timeout=5.0), EndSignal)
        helper.join(timeout=10.0)
        thread.join(timeout=10.0)
        assert master.stats.tasks_per_worker == {1: 4}
        assert problem.finalize(box["state"]).distance == problem.reference()

    def test_task_offered_before_a_taint_is_not_dispatched_after_it(self, problem):
        # The race a service thread can lose: it took (1, 0) off the
        # computable stack, then an audit conviction revoked (0, 0)
        # before the dispatch registered. The core refuses it; the shell
        # forgets it (a later commit releases it) and hands out other work.
        partition = partition_pattern(problem.pattern(), 10)
        master = MasterPart(
            problem, partition, [channel_pair()[0]],
            make_policy("dynamic", 1, partition.grid.n_block_cols),
            RunConfig(integrity="audit"),
        )
        master.state = problem.make_state()
        master.core.commit((0, 0), 0, 0, None)
        master.core.taint((0, 0))
        master._stack.push_many([(0, 0), (1, 0)])  # (1, 0) is LIFO-first
        ((task, _reg),) = master.offering.offer(0)
        assert task == (0, 0) and len(master._stack) == 0
        assert not master.core.is_live((1, 0)) and master.core.attempts((1, 0)) == 0

    def test_result_is_accepted_and_buffered_in_one_step(self, problem):
        # A taint purges the result buffer under the results lock; a
        # result accepted before it must already be in the buffer, so
        # accepting (the core deregisters the dispatch) and buffering
        # happen together under that lock.
        partition = partition_pattern(problem.pattern(), 10)
        master = MasterPart(
            problem, partition, [channel_pair()[0]],
            make_policy("dynamic", 1, partition.grid.n_block_cols),
            RunConfig(),
        )
        epoch = master.core.dispatch((0, 0), 0, 0.0).epoch
        msg = TaskResult((0, 0), epoch, 0, {"block": None}, digest=None)
        with master._results_lock:
            thread = threading.Thread(target=master._handle_result, args=(msg, 0))
            thread.start()
            thread.join(timeout=0.2)
            assert thread.is_alive() and master.core.is_live((0, 0), epoch)
        thread.join(timeout=5.0)
        assert not thread.is_alive() and not master.core.is_live((0, 0))
        assert master._result_buffer[(0, 0)][1] == epoch

    def test_policy_size_mismatch_rejected(self, problem):
        partition = partition_pattern(problem.pattern(), 10)
        m, _ = channel_pair()
        with pytest.raises(SchedulerError, match="sized for"):
            MasterPart(problem, partition, [m], DynamicPolicy(3), RunConfig())

    def test_no_channels_rejected(self, problem):
        partition = partition_pattern(problem.pattern(), 10)
        with pytest.raises(SchedulerError, match="at least one"):
            MasterPart(problem, partition, [], DynamicPolicy(1), RunConfig())


def obedient_slave_from(first_assign, problem, partition, channel, slave_id=0):
    """Continue the protocol after an already-received first assignment."""
    msg = first_assign
    while True:
        ev = problem.evaluator(partition, msg.task_id, msg.inputs)
        outputs = ev.run_serial(partition.sub_partition(msg.task_id, 5))
        send_result(channel, msg.task_id, msg.epoch, slave_id, outputs)
        channel.send(IdleSignal(slave_id))
        msg = channel.recv(timeout=5.0)
        if isinstance(msg, EndSignal):
            return
        msg = lone_assign(msg)


class TestBackendConsistency:
    def test_simulated_and_threads_agree_on_message_count(self, problem):
        """Same instance, same partition: both backends exchange idle +
        assign + result per executed task (plus final idle/end)."""
        from repro import EasyHPS, RunConfig
        from repro.backends.simulated import run_simulated

        threads_run = EasyHPS(
            RunConfig(nodes=3, threads_per_node=1, backend="threads",
                      process_partition=10, thread_partition=5)
        ).run(problem)
        _, sim_rep = run_simulated(
            problem,
            RunConfig.experiment(3, 9, process_partition=10, thread_partition=5),
        )
        # Sim counts exactly 3 per task; real adds the final idle+end pair
        # per slave (and nothing else without faults).
        assert sim_rep.messages == 3 * sim_rep.n_tasks
        expected_real = 3 * threads_run.report.n_tasks + 2 * 2  # 2 slaves
        assert threads_run.report.messages == expected_real
