"""Smoke test of the benchmark itself: ``python -m pytest bench -q``.

Outside tier-1's ``testpaths`` on purpose — it boots a daemon and forks
slaves. Every workload runs in ``--quick`` mode (tiny sizes, one
repetition, one 2 s serve block), once untraced and once traced, and must
print exactly the metrics ``BENCHMARK.json`` declares, count a wrong
oracle as failed ops, and leave nothing behind.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import measure

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Per-layer metrics some traced run measured, gathered as the runs go.
MEASURED: set = set()

# A process the bench leaves behind is handed to this one, not to init,
# so ``leftovers`` sees it even if it is only a zombie by then.
measure.adopt_orphans()


def leftovers() -> set:
    """Processes, temp dirs and shm segments a run could leave behind."""
    found = {f"pid/{pid}" for pid in measure.children()}
    out = os.path.join(BENCH_DIR, "out")
    if os.path.isdir(out):
        found |= {f"out/{n}" for n in os.listdir(out) if n.startswith("tmp-")}
    if os.path.isdir("/dev/shm"):
        found |= {f"shm/{n}" for n in os.listdir("/dev/shm") if n.startswith("repro-")}
    ps = subprocess.run(["ps", "-eo", "pid,args"], stdout=subprocess.PIPE, text=True).stdout
    found |= {line.strip() for line in ps.splitlines()
              if "-m repro serve" in line and BENCH_DIR in line}
    return found


def run_quick(workload: str, trace: int, *extra: str) -> tuple:
    before = leftovers()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--quick", "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout
    assert leftovers() <= before, "the run left processes, temp files or shm segments"
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def test_spec_names_are_well_formed():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed(workload, trace):
    result, lines = run_quick(workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        # ... and by name with its unit in the human-readable part too.
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines), m["name"]
    if trace:
        # '-' marks a layer this workload does not exercise.
        MEASURED.update(line.split()[0] for line in lines
                        if len(line.split()) == 3 and line.split()[1] != "-")
    else:
        for m in declared:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_every_layer_metric_is_measured_by_some_workload():
    if not MEASURED:
        pytest.skip("needs the traced runs of the test above")
    assert {m["name"] for m in SPEC["per_layer"]} <= MEASURED


def test_wrong_expected_digest_counts_as_failed_ops(tmp_path):
    doctored = tmp_path / "expected.json"
    doctored.write_text(json.dumps({
        "ed-coarse/n=120/seed=1": {
            "value": 0.0, "run_digest": "0" * 16, "state_digest": "0" * 32,
        }
    }))
    result, _ = run_quick("ed-coarse", 0, "--expected", str(doctored))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and bench/ has nothing to
    measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--quick"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
