"""Visualizing simulated schedules: Gantt charts of dynamic vs static pools.

Records a per-sub-task trace of an SWGG run on the simulated cluster and
renders one ASCII Gantt per scheduler. Under the dynamic pool the node
rows are solid; under CW the ownership bands leave visible idle holes —
the paper's 'fatal situation' drawn directly.

Run:  python examples/schedule_visualization.py
"""

from repro import EasyHPS, RunConfig
from repro.algorithms import SmithWatermanGG
from repro.analysis.gantt import critical_tail, render_gantt
from repro.obs.prof import build_profile


def main() -> None:
    problem = SmithWatermanGG.random(3000, seed=1)
    runner = EasyHPS()

    for scheduler in ("dynamic", "bcw", "cw"):
        cfg = RunConfig.experiment(
            4, 19, scheduler=scheduler, thread_scheduler=scheduler if scheduler != "cw" else "dynamic",
            process_partition=300, thread_partition=30, observe=True,
        )
        report = runner.run(problem, cfg).report
        print(f"\n=== {scheduler}: makespan {report.makespan:.2f}s, "
              f"idle-while-ready {report.idle_while_ready:.2f}s")
        prof = build_profile(report.events)  # one fold of the observed events
        print(render_gantt(prof.gantt_rows(), width=72, makespan=report.makespan))
        fractions = prof.busy_fraction(report.makespan)
        print("busy fractions:", {k: f"{v:.0%}" for k, v in fractions.items()})

    cfg = RunConfig.experiment(4, 19, process_partition=300, thread_partition=30, observe=True)
    report = runner.run(problem, cfg).report
    print("\nLast finishers under the dynamic pool (end-game tail):")
    for e in critical_tail(report.trace, k=4):
        print(f"  block {e.task_id} on node {e.node}: "
              f"compute {e.compute_start:.2f}..{e.compute_end:.2f}s")


if __name__ == "__main__":
    main()
