"""Hierarchical fault tolerance in action (paper Figs 10 and 12).

Injects deterministic faults at both levels of a real threads-backend run
— a slave "process" that crashes, one that hangs past the timeout, and a
computing thread that dies mid-sub-sub-task — and shows the run still
producing the exact serial answer, with every recovery visible in the
report.

Run:  python examples/fault_tolerance_demo.py
"""

from repro import EasyHPS, RunConfig
from repro.algorithms import LongestCommonSubsequence
from repro.cluster.faults import FaultPlan, FaultRule, Faults


def main() -> None:
    problem = LongestCommonSubsequence.random(120, 120, seed=3)
    expected = problem.reference()
    print(f"reference LCS length: {expected}\n")

    # Process level: sub-task (0,0) crashes on its first dispatch; (1,1)
    # hangs past the deadline for 1.2 s and answers late (the stale-epoch
    # path).
    plan = FaultPlan([
        FaultRule("crash", task_id=(0, 0), attempt=0),
        FaultRule("hang", task_id=(1, 1), attempt=0, duration=1.2),
    ])
    # Thread level: the computing thread running inner sub-sub-task (0,0)
    # dies. Note the rule matches by *inner* id, so it fires once inside
    # every sub-task's thread-level DAG — each one restarts a thread
    # (Fig 12), which is why the restart counter below exceeds one.
    thread_plan = FaultPlan([FaultRule("crash", task_id=(0, 0), attempt=0)])

    config = RunConfig(
        nodes=3,
        threads_per_node=2,
        backend="threads",
        process_partition=30,
        thread_partition=10,
        task_timeout=0.5,       # seconds before redistribution
        subtask_timeout=0.3,    # seconds before a thread restart
        faults=Faults(task=plan, thread=thread_plan),
    )
    run = EasyHPS(config).run(problem)

    print(run.report.summary())
    print()
    assert run.value.length == expected, "recovered run must match the reference"
    print(f"recovered result: LCS length {run.value.length} == reference ✓")
    print(f"process-level redistributions: {run.report.faults_recovered}")
    print(f"thread restarts:               {run.report.thread_restarts}")
    print(f"stale results dropped:         {run.report.stale_results}")


if __name__ == "__main__":
    main()
