"""One run-assembly path (repro.runtime.assembly) and one framed log:
the daemon's jobs are wired exactly like a threads-backend run, and the
structure that guarantees it cannot quietly fork again."""

import ast
import dataclasses
import threading
from pathlib import Path

import repro
from repro.algorithms import EditDistance
from repro.backends.threads import run_threads
from repro.cluster.faults import FaultPlan, FaultRule, Faults
from repro.comm.messages import TaskAssign
from repro.runtime.assembly import RunAssembly
from repro.runtime.config import RunConfig
from repro.runtime.master import MasterPart
from repro.serve import JobSpec, ServeDaemon, build_problem

SRC = Path(repro.__file__).parent
KNOBS = {f.name for f in dataclasses.fields(RunConfig)}


def knobs(master):
    """Every plain-valued knob of the config a MasterPart reads, plus
    how its policy and journal were chosen."""
    plain = (bool, int, float, str, type(None))
    out = {
        name: value
        for name, value in vars(master.config).items()
        if isinstance(value, plain)
    }
    out["policy"] = (type(master.policy).__name__, master.policy.n_workers)
    out["journal"] = type(master.journal).__name__
    return out


class TestDaemonParity:
    def test_job_master_is_exactly_what_run_threads_builds(self, monkeypatch):
        """``repro serve`` used to drop knobs such as batch_wave /
        max_batch between RunConfig and MasterPart, so an override like
        REPRO_BATCH_WAVE was silently ignored."""
        monkeypatch.setenv("REPRO_BATCH_WAVE", "1")
        monkeypatch.setenv("REPRO_SHM", "1")
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
        assert served.config.batch_wave is True and served.config.shm is True
        assert knobs(served) == knobs(direct)

    def test_parts_observe_exactly_the_configured_values(self):
        """One declaration per knob: what ``RunConfig`` says is what the
        master, every slave and the dispatch core run with — no layer in
        between to forget one (hand-assembled parts used to fall back to
        their constructors' own defaults)."""
        config = RunConfig(
            backend="threads", nodes=3, process_partition=12, thread_partition=6,
            max_retries=7, subtask_timeout=0.05, task_timeout=4.0,
            retry_backoff=0.1, retry_backoff_max=0.7, blacklist_threshold=4,
            heartbeat_interval=0.2, lease_factor=5.0,
            integrity="audit", audit_fraction=0.5, quarantine_threshold=3,
            # One computing thread dies on each of its first seven tries.
            faults=Faults(thread=FaultPlan([FaultRule("crash", (1, 1), e) for e in range(7)])),
        )
        problem = EditDistance.random(24, 24, seed=1)
        asm = RunAssembly(config, problem)
        channels, slaves = asm.inprocess_slaves(threading.Event())
        master = asm.master(channels)
        assert master.config is config and all(s.config is config for s in slaves)
        core = master.core
        assert (
            core.task_timeout, core.max_retries, core.retry_backoff,
            core.retry_backoff_max, core.blacklist_threshold, core.lease_duration,
        ) == (4.0, 7, 0.1, 0.7, 4, 1.0)
        assert core.integrity == config.integrity_policy == master.integrity
        assert (core.integrity.audit_fraction, core.integrity.quarantine_threshold) == (0.5, 3)
        # The slave's thread-level core got the same budget: seven
        # restarts are absorbed (the constructor default was three).
        bid = next(iter(asm.partition.block_ids()))
        inputs = problem.extract_inputs(problem.make_state(), asm.partition, bid)
        slaves[0]._compute(TaskAssign(bid, 0, inputs))
        assert slaves[0].stats.thread_restarts == 7


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

    def test_parts_take_the_config_and_redeclare_no_knob(self):
        for rel, cls in (("runtime/master.py", "MasterPart"), ("runtime/slave.py", "SlavePart")):
            tree = ast.parse((SRC / rel).read_text(), filename=rel)
            (init,) = [
                fn
                for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == cls
                for fn in node.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
            ]
            params = {a.arg for a in init.args.args + init.args.kwonlyargs}
            assert "config" in params and init.args.kwarg is None, cls
            assert not params & KNOBS, (cls, sorted(params & KNOBS))

    def test_derived_rules_are_written_once(self):
        """The stall rule (``2 * task_timeout + 1``) lives only in
        ``RunConfig.effective_stall_timeout``, and nobody outside
        ``integrity.py`` builds an ``IntegrityPolicy`` from loose keywords
        (``config.integrity_policy`` resolves it)."""
        stall, loose = [], []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            tree = ast.parse(path.read_text(), filename=rel)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Add)
                    and isinstance(node.right, ast.Constant)
                    and isinstance(node.left, ast.BinOp)
                    and isinstance(node.left.op, ast.Mult)
                    and "task_timeout" in ast.unparse(node.left)
                ):
                    stall.append(rel)
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", "") == "IntegrityPolicy"
                    and node.keywords
                ):
                    loose.append(rel)
        assert stall == ["runtime/config.py"] and not loose

    def test_the_data_mapping_is_derived_in_one_place(self):
        """A problem family declares ``input_regions`` / ``output_regions``;
        the byte model is written in ``problem.py`` only, data movement
        there and in ``grid_base.py`` (the boundary *store*) only — a
        closed form beside the derived one is how the copies drifted."""
        homes = {
            "input_bytes": {"problem.py"},
            "cached_input_bytes": {"problem.py"},
            "extract_inputs": {"problem.py", "grid_base.py"},
            "apply_result": {"problem.py", "grid_base.py"},
        }
        found = {name: set() for name in homes}
        for path in sorted((SRC / "algorithms").glob("*.py")):
            tree = ast.parse(path.read_text(), filename=path.name)
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef) and fn.name in homes:
                    found[fn.name].add(path.name)
                    assert "make_state" not in {n for n, _ in call_names(fn)}, (path.name, fn.name)
        assert found == homes

    def test_no_constructor_carries_its_own_default_for_a_knob(self):
        """A numeric default for a ``RunConfig`` field name in any
        ``__init__`` under runtime/ or backends/ is a second declaration."""
        copies = []
        for sub in ("runtime", "backends"):
            for path in sorted((SRC / sub).glob("*.py")):
                rel = path.relative_to(SRC).as_posix()
                if rel == "runtime/config.py":
                    continue
                tree = ast.parse(path.read_text(), filename=rel)
                for fn in ast.walk(tree):
                    if not (isinstance(fn, ast.FunctionDef) and fn.name == "__init__"):
                        continue
                    a = fn.args
                    positional = a.posonlyargs + a.args
                    pairs = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
                    pairs += [(k, d) for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                    copies += [
                        f"{rel}:{fn.lineno} {arg.arg}={default.value!r}"
                        for arg, default in pairs
                        if arg.arg in KNOBS
                        and isinstance(default, ast.Constant)
                        and type(default.value) in (int, float)
                    ]
        assert not copies, copies

    def test_the_core_is_built_from_a_config_in_exactly_one_function(self):
        """``DispatchCore.from_config`` is the one RunConfig -> core
        mapping (master shell and simulator both call it); the only other
        constructions are the slave pool's thread-level core, which takes
        ``subtask_timeout`` and ``max_retries`` and nothing else, and the
        trace replay's neutral core, which reads no knob at all."""
        built, users = [], []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            tree = ast.parse(path.read_text(), filename=rel)
            for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                # ``lease_duration`` is a keyword only the core takes.
                if name == "DispatchCore" or "lease_duration" in {kw.arg for kw in call.keywords}:
                    read = {
                        kw.value.attr
                        for kw in call.keywords
                        if isinstance(kw.value, ast.Attribute) and kw.value.attr in KNOBS
                    }
                    built.append((rel, name, read))
                owner = getattr(func, "value", None)
                if name == "from_config" and "DispatchCore" in (
                    getattr(owner, "id", ""), getattr(owner, "attr", "")
                ):
                    users.append(rel)
        assert built == [
            ("check/trace_check.py", "DispatchCore", set()),
            ("runtime/dispatch.py", "cls", {
                "task_timeout", "max_retries", "retry_backoff", "retry_backoff_max",
                "blacklist_threshold",
            }),
            ("runtime/slave.py", "DispatchCore", {"subtask_timeout", "max_retries"}),
        ]
        assert users == ["backends/simulated.py", "runtime/master.py"]

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
        """The retry-budget comparison, the backoff formula, the
        taint-closure walk and the successors a commit releases are written
        once, in runtime/dispatch.py; the shells and the explorer hold no
        copy of the ledger they decide on, and walk no DAG of their own."""
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
        assert set(walks) == {core} and not tables

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

    def test_the_simulator_dispatches_one_way(self):
        """``_SimulatedRun`` has no method reachable only with
        ``batch_wave`` off, and the wave rule is the offering step's:
        ``batch_wave`` and ``max_batch`` are read in ``runtime/offering.py``
        only. Neither shell reads them or picks a task itself
        (``select_index``), and each asks the step for work from one
        place."""
        rel = "backends/simulated.py"
        tree = ast.parse((SRC / rel).read_text(), filename=rel)
        (run,) = [
            n for n in ast.walk(tree)
            if isinstance(n, ast.ClassDef) and n.name == "_SimulatedRun"
        ]
        methods = {fn.name for fn in run.body if isinstance(fn, ast.FunctionDef)}
        single_only = {"_dispatch", "_begin_compute", "_compute_done", "_result", "_digest_reject"}
        assert not single_only & methods

        knobs = {"batch_wave", "max_batch"}
        for rel in ("runtime/offering.py", "runtime/master.py", "backends/simulated.py"):
            tree = ast.parse((SRC / rel).read_text(), filename=rel)
            read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)} & knobs
            calls = [
                n.func.attr for n in ast.walk(tree)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            ]
            if rel == "runtime/offering.py":
                assert read == knobs
            else:
                assert not read, rel
                assert "select_index" not in calls, rel
                assert calls.count("offer") == 1, rel
