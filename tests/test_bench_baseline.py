"""The committed performance baseline (BENCH_BASELINE.json)."""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_BASELINE.json"


@pytest.fixture(autouse=True)
def _repo_on_path():
    sys.path.insert(0, str(REPO_ROOT))
    yield
    sys.path.remove(str(REPO_ROOT))


def test_baseline_file_is_committed_and_well_formed():
    from repro.analysis.trajectory import check_bench

    doc = json.loads(BASELINE.read_text())
    assert doc["schema"] == "repro-bench-baseline-1"
    assert doc["entries"], "baseline must have at least one recorded entry"
    for entry in doc["entries"]:
        assert entry["label"]
        for backend in ("serial", "threads", "processes", "simulated"):
            m = entry["backends"][backend]
            assert m["wall_time_s"] > 0
            assert m["makespan_s"] > 0
            assert m["messages"] >= 0
            assert m["bytes_to_slaves"] >= 0
            assert m["bytes_to_master"] >= 0
        if "bench" in entry:
            check_bench(entry["bench"])  # raises on a malformed claim record


def test_serial_backend_sends_nothing():
    doc = json.loads(BASELINE.read_text())
    serial = doc["entries"][-1]["backends"]["serial"]
    assert serial["messages"] == 0
    assert serial["bytes_to_slaves"] == 0
    assert serial["bytes_to_master"] == 0


def test_simulated_wire_counters_reproduce():
    """The simulator is deterministic: the committed wire counters and
    the simulated makespan must reproduce exactly (tolerance 0 — the
    refactor oracle), or the protocol's on-wire behaviour or the cost
    model changed and the baseline needs a new entry."""
    from benchmarks.bench_baseline import measure_backend

    doc = json.loads(BASELINE.read_text())
    recorded = doc["entries"][-1]["backends"]["simulated"]
    current = measure_backend("simulated")
    for key in ("messages", "bytes_to_slaves", "bytes_to_master", "makespan_s"):
        assert current[key] == recorded[key], (
            f"simulated {key} drifted from the committed baseline: "
            f"{recorded[key]} -> {current[key]}; if intentional, record a "
            "new entry with benchmarks/bench_baseline.py --write"
        )


def _entry(**simulated):
    quiet = {"messages": 0, "bytes_to_slaves": 0, "bytes_to_master": 0, "makespan_s": 1.0}
    sim = {"messages": 108, "bytes_to_slaves": 25632, "bytes_to_master": 463104,
           "makespan_s": 0.00564}
    return {"serial": dict(quiet), "simulated": {**sim, **simulated}}


def test_exact_check_passes_on_an_identical_measurement():
    from repro.analysis.trajectory import exact_drift

    # Serial wall time is not part of the oracle; only sim-time is.
    current = _entry()
    current["serial"]["makespan_s"] = 3.0
    assert exact_drift(_entry(), current) == []


@pytest.mark.parametrize(
    "changed",
    [{"bytes_to_slaves": 25633}, {"messages": 107}, {"makespan_s": 0.005641}],
    ids=["bytes", "messages", "makespan"],
)
def test_exact_check_names_every_drifted_value(changed):
    """Tolerance 0, both directions: one more byte, one fewer message or
    a microsecond of simulated makespan is a drift."""
    from repro.analysis.trajectory import exact_drift

    (line,) = exact_drift(_entry(), _entry(**changed))
    (key,) = changed
    assert line.startswith(f"simulated.{key}: baseline ")


def test_check_without_entries_is_a_setup_error(tmp_path):
    from repro.analysis.trajectory import latest_entry
    from repro.utils.errors import ConfigError

    with pytest.raises(ConfigError, match="no baseline entries"):
        latest_entry(str(tmp_path / "missing.json"))


def test_write_appends_an_entry_and_check_reads_the_newest(tmp_path):
    from repro.analysis.trajectory import append_entry, latest_entry

    path = tmp_path / "BENCH_BASELINE.json"
    append_entry(str(path), label="base", measured=_entry())
    append_entry(str(path), label="next", measured=_entry(messages=1))
    assert [e["label"] for e in json.loads(path.read_text())["entries"]] == ["base", "next"]
    assert latest_entry(str(path))["backends"]["simulated"]["messages"] == 1


CLAIM = {"median": 0.35, "runs": 10, "bound": 0.25, "parent_median": 1.37}


def test_a_claimed_gain_is_recorded_as_the_entrys_bench_object(tmp_path):
    """CONTRIBUTING, performance claims: per workload and claimed metric,
    the change's median, the run count, the bound and the parent's median."""
    from repro.analysis.trajectory import append_entry

    path = tmp_path / "BENCH_BASELINE.json"
    append_entry(str(path), label="base", measured=_entry())
    append_entry(str(path), label="gain", measured=_entry(), bench={"ed-coarse": {"wall_s": CLAIM}})
    base, gain = json.loads(path.read_text())["entries"]
    assert "bench" not in base
    assert gain["bench"] == {"ed-coarse": {"wall_s": CLAIM}}


def test_a_claim_may_list_every_run_pair(tmp_path):
    from repro.analysis.trajectory import append_entry

    path = tmp_path / "BENCH_BASELINE.json"
    claim = {**CLAIM, "pairs": [[0.5, 0.4]] * CLAIM["runs"]}
    append_entry(str(path), label="gain", measured=_entry(), bench={"ed-coarse": {"wall_s": claim}})
    (entry,) = json.loads(path.read_text())["entries"]
    assert entry["bench"]["ed-coarse"]["wall_s"]["pairs"] == claim["pairs"]


@pytest.mark.parametrize(
    "bench",
    [
        {},
        {"ed-coarse": {}},
        {"ed-coarse": {"wall_s": {k: v for k, v in CLAIM.items() if k != "parent_median"}}},
        {"ed-coarse": {"wall_s": {**CLAIM, "speedup": 3.9}}},
        {"ed-coarse": {"wall_s": {**CLAIM, "runs": 9.5}}},
        {"ed-coarse": {"wall_s": {**CLAIM, "median": "0.35"}}},
        {"ed-coarse": {"wall_s": {**CLAIM, "bound": 0}}},
        {"ed-coarse": {"wall_s": {**CLAIM, "pairs": [[0.5, 0.4]]}}},
        {"ed-coarse": {"wall_s": {**CLAIM, "pairs": [[0.5]] * CLAIM["runs"]}}},
    ],
    ids=[
        "empty", "no-metric", "missing-key", "extra-key", "fractional-runs", "string",
        "zero", "pairs-not-one-per-run", "pairs-not-pairs",
    ],
)
def test_a_malformed_bench_object_is_refused_before_anything_is_written(tmp_path, bench):
    from repro.analysis.trajectory import append_entry
    from repro.utils.errors import ConfigError

    path = tmp_path / "BENCH_BASELINE.json"
    with pytest.raises(ConfigError, match="bench"):
        append_entry(str(path), label="gain", measured=_entry(), bench=bench)
    assert not path.exists()


def test_workload_is_pinned():
    from benchmarks.bench_baseline import STANDARD

    doc = json.loads(BASELINE.read_text())
    assert doc["workload"] == STANDARD
