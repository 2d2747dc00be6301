"""One run-assembly path (repro.runtime.assembly) and one framed log:
the daemon's jobs are wired exactly like a threads-backend run, and the
structure that guarantees it cannot quietly fork again."""

import ast
from pathlib import Path

import repro
from repro.backends.threads import run_threads
from repro.runtime.master import MasterPart
from repro.serve import JobSpec, ServeDaemon, build_problem

SRC = Path(repro.__file__).parent


def knobs(master):
    """Every plain-valued setting a MasterPart carries, plus how its
    policy and journal were chosen."""
    plain = (bool, int, float, str, type(None))
    out = {
        name: value
        for name, value in vars(master).items()
        if isinstance(value, plain) and not name.startswith("_")
    }
    out["policy"] = (type(master.policy).__name__, master.policy.n_workers)
    out["journal"] = type(master.journal).__name__
    return out


class TestDaemonParity:
    def test_job_master_is_exactly_what_run_threads_builds(self, monkeypatch):
        """``repro serve`` used to drop batch_wave/max_batch (and the
        speculation knobs) between RunConfig and MasterPart, so
        REPRO_BATCH_WAVE / REPRO_MAX_BATCH were silently ignored."""
        monkeypatch.setenv("REPRO_BATCH_WAVE", "1")
        monkeypatch.setenv("REPRO_MAX_BATCH", "3")
        built = []
        real_run = MasterPart.run

        def spy(self):
            built.append(self)
            return real_run(self)

        monkeypatch.setattr(MasterPart, "run", spy)
        spec = JobSpec(algo="lcs", size=24, nodes=3, scheduler="bcw")
        daemon = ServeDaemon(workers=2, task_timeout=5.0)
        daemon.start()
        try:
            decision = daemon.submit(spec)
            assert decision.accepted
            assert daemon.wait_idle(60.0)
            record = daemon.get(decision.job_id)
            assert record.status == "done", record.detail
        finally:
            assert daemon.drain(20.0)
        config = daemon._job_config(record, len(record.workers))
        run_threads(build_problem(spec), config)

        served, direct = built
        assert served.batch_wave is True and served.max_batch == 3
        assert knobs(served) == knobs(direct)


def call_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id, node.lineno
            elif isinstance(func, ast.Attribute):
                yield func.attr, node.lineno


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


class TestStructure:
    def test_parts_are_instantiated_only_by_the_assembly(self):
        allowed = {"runtime/assembly.py", "runtime/slave.py", "runtime/easypdp.py"}
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            if rel in allowed:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            offenders += [
                f"{rel}:{line} {name}(...)"
                for name, line in call_names(tree)
                if name in ("MasterPart", "SlavePart")
            ]
        assert not offenders, (
            "build masters/slaves through repro.runtime.assembly: " + ", ".join(offenders)
        )

    def test_open_journal_lives_in_the_assembly(self):
        import repro.backends.threads as threads_mod
        from repro.runtime.assembly import RunAssembly

        assert callable(RunAssembly.open_journal)
        assert not hasattr(threads_mod, "open_journal")

    def test_log_layers_do_no_framing_or_file_io_of_their_own(self):
        """The frame header, CRC, fsync, truncate-repair and the atomic
        rewrite exist once, in durable/framed.py."""
        headers = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            headers += [
                path.relative_to(SRC).as_posix()
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value == "<II"
            ]
        assert headers == ["durable/framed.py"]
        for rel in ("durable/journal.py", "serve/wal.py"):
            tree = ast.parse((SRC / rel).read_text(), filename=rel)
            low_level = {"os", "io", "zlib", "struct", "pickle"}
            assert not low_level & set(imported_modules(tree)), rel
            banned = {"replace", "fsync", "truncate", "crc32", "open"}
            assert not [c for c in call_names(tree) if c[0] in banned], rel

    def test_protocol_decisions_exist_only_in_the_dispatch_core(self):
        """The retry-budget comparison, the backoff formula and the
        taint-closure walk are written once, in runtime/dispatch.py; the
        shells and the explorer hold no copy of the ledger they decide on."""
        core = "runtime/dispatch.py"
        shells = {
            "runtime/master.py", "runtime/slave.py", "backends/simulated.py",
            "check/explore.py",
        }

        def mentions(node, name):
            return any(
                (isinstance(n, ast.Attribute) and n.attr == name)
                or (isinstance(n, ast.Name) and n.id == name)
                for n in ast.walk(node)
            )

        budget, backoff, walks, tables = [], [], [], []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                    if mentions(node.left, "max_retries") and isinstance(node.right, ast.Constant):
                        budget.append(rel)
                if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Pow)):
                    if mentions(node, "retry_backoff"):
                        backoff.append(rel)
                if isinstance(node, ast.ClassDef) and node.name in (
                    "RegisterTable", "LeaseTable", "OvertimeQueue"
                ):
                    tables.append(rel)
            if rel in shells | {core}:
                walks += [rel for name, _ in call_names(tree) if name == "successors"]
        assert set(budget) == {core} and set(backoff) == {core}
        assert walks == [core] and not tables

        tree = ast.parse((SRC / core).read_text(), filename=core)
        banned = ("threading", "time", "repro.comm.transport", "repro.durable", "numpy")
        assert not [
            m for m in imported_modules(tree)
            if any(m == b or m.startswith(b + ".") for b in banned)
        ]

        ledger = {"registered", "attempts", "dispatched_to", "node_failures",
                  "divergence", "committed", "blacklisted", "quarantined"}
        for rel, owner in (("backends/simulated.py", "self"), ("check/explore.py", "run")):
            tree = ast.parse((SRC / rel).read_text(), filename=rel)
            copies = [
                f"{rel}:{n.lineno} {owner}.{n.attr}"
                for n in ast.walk(tree)
                if isinstance(n, ast.Attribute)
                and n.attr in ledger
                and isinstance(n.value, ast.Name)
                and n.value.id == owner
            ]
            assert not copies, copies
