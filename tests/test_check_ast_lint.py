"""The lock-, clock-discipline, sans-I/O, dead-knob and message-dispatch
source lints."""

import ast
import os

import pytest

from repro.check import diagnostics as D
from repro.check.ast_lint import (
    MESSAGE_DISPATCH_LOOPS,
    SANS_IO_MODULES,
    check_clock_discipline,
    check_config_fields,
    check_lock_discipline,
    check_message_dispatch,
    lint_clock_discipline,
    lint_config_fields,
    lint_lock_discipline,
    lint_message_dispatch,
    lint_sans_io,
    source_root,
    wire_message_kinds,
)


class TestLockLint:
    def test_direct_construction_flagged(self):
        src = "import threading\nlock = threading.Lock()\n"
        hits = lint_lock_discipline(src, "<t>")
        assert [line for line, _ in hits] == [2]

    def test_condition_flagged(self):
        src = "import threading\ncond = threading.Condition()\n"
        assert lint_lock_discipline(src, "<t>")

    def test_module_alias_resolved(self):
        src = "import threading as _t\nlock = _t.Lock()\n"
        assert lint_lock_discipline(src, "<t>")

    def test_symbol_import_resolved(self):
        src = "from threading import Lock as L\nlock = L()\n"
        assert lint_lock_discipline(src, "<t>")

    def test_make_lock_is_clean(self):
        src = (
            "from repro.check.lock_lint import make_lock\n"
            "lock = make_lock('worker-pool')\n"
        )
        assert not lint_lock_discipline(src, "<t>")

    def test_other_threading_api_is_clean(self):
        src = "import threading\nt = threading.Thread(target=print)\nev = threading.Event()\n"
        assert not lint_lock_discipline(src, "<t>")

    def test_syntax_error_reported_not_raised(self):
        hits = lint_lock_discipline("def broken(:\n", "<t>")
        assert hits and "syntax" in hits[0][1].lower()


class TestClockLint:
    def test_time_time_flagged(self):
        src = "import time\nnow = time.time()\n"
        assert lint_clock_discipline(src, "<t>")

    def test_monotonic_flagged(self):
        src = "import time as _t\ndeadline = _t.monotonic() + 5\n"
        assert lint_clock_discipline(src, "<t>")

    def test_from_import_flagged(self):
        src = "from time import monotonic\nx = monotonic()\n"
        assert lint_clock_discipline(src, "<t>")

    def test_perf_counter_allowed(self):
        # Wall-time *measurement* is fine; scheduling decisions are not.
        src = "import time\nt0 = time.perf_counter()\n"
        assert not lint_clock_discipline(src, "<t>")

    def test_sleep_allowed(self):
        src = "import time\ntime.sleep(0.1)\n"
        assert not lint_clock_discipline(src, "<t>")


class TestSansIoLint:
    @pytest.mark.parametrize(
        "src",
        [
            "import threading\n",
            "import time as _t\n",
            "from os import path\n",
            "import socket\n",
            "import numpy as np\n",
            "from repro.durable.journal import CommitJournal\n",
            "from repro.comm.transport import Channel\n",
            "from repro.check.lock_lint import make_lock\n",
        ],
    )
    def test_io_capable_import_flagged(self, src):
        assert lint_sans_io(src, "<t>")

    def test_pure_imports_are_clean(self):
        src = (
            "from dataclasses import dataclass\n"
            "from repro.comm.messages import TaskId\n"  # not .transport
            "from repro.integrity import fold_commit\n"
            "import timeit_like_name\n"  # prefix match is per dotted component
        )
        assert not lint_sans_io(src, "<t>")

    def test_core_module_is_held_to_it(self, tmp_path):
        # A copy of each of the package tree's sans-I/O modules (the
        # dispatch core and the offering and landing steps beside it) with
        # a clock read spliced in must fail the tree-wide check.
        assert sorted(os.path.basename(rel) for rel in SANS_IO_MODULES) == [
            "dispatch.py", "landing.py", "offering.py",
        ]
        for i, rel in enumerate(SANS_IO_MODULES):
            with open(f"{source_root()}/{rel}", encoding="utf-8") as fh:
                source = fh.read()
            assert not lint_sans_io(source, rel)
            bad = tmp_path / str(i) / rel
            bad.parent.mkdir(parents=True)
            bad.write_text("import time\n" + source, encoding="utf-8")
            report = check_clock_discipline(root=str(tmp_path / str(i)), subdirs=("runtime",))
            assert report.has(D.SANS_IO_VIOLATION)


class TestConfigFieldLint:
    CONFIG = (
        "class RunConfig:\n"
        "    a: int = 1\n"
        "    b: int = 2\n"
        "    c: int = 3\n"
        "    def __post_init__(self):\n"
        "        assert self.c > 0\n"
        "    @property\n"
        "    def derived(self):\n"
        "        return self.b * 2\n"
    )

    def test_direct_and_derived_reads_count_validation_does_not(self):
        readers = ["def f(config):\n    return config.a + config.derived\n"]
        assert lint_config_fields(self.CONFIG, readers) == [(4, "c")]

    def test_a_derived_member_nobody_reads_keeps_nothing_alive(self):
        readers = ["def f(config):\n    return config.a\n"]
        assert [name for _, name in lint_config_fields(self.CONFIG, readers)] == ["b", "c"]

    def test_the_package_has_no_dead_knob_and_a_spliced_one_is_caught(self, tmp_path):
        report = check_config_fields()
        assert report.ok, [d.message for d in report.diagnostics]
        config = tmp_path / "runtime" / "config.py"
        config.parent.mkdir()
        with open(f"{source_root()}/runtime/config.py", encoding="utf-8") as fh:
            source = fh.read()
        marker = "    #: Total nodes including the master"
        assert source.count(marker) == 1
        config.write_text(source.replace(marker, "    linger: float = 0.5\n" + marker))
        (tmp_path / "reader.py").write_text("def f(c):\n    return c.nodes\n")
        report = check_config_fields(root=str(tmp_path))
        assert report.has(D.CONFIG_FIELD_UNREAD)
        assert any("RunConfig.linger" in d.message for d in report.diagnostics)


def real_loop_sources():
    sources = {}
    for path, _cls, _method in MESSAGE_DISPATCH_LOOPS:
        with open(f"{source_root()}/{path}", encoding="utf-8") as fh:
            sources[path] = fh.read()
    return sources


def drop_branch(source, kind):
    """``source`` without the ``if`` whose test names ``kind`` (its
    ``elif`` / ``else`` tail is kept)."""

    class Drop(ast.NodeTransformer):
        def visit_If(self, node):
            self.generic_visit(node)
            if any(isinstance(n, ast.Name) and n.id == kind for n in ast.walk(node.test)):
                return node.orelse or ast.Pass()
            return node

    return ast.unparse(Drop().visit(ast.parse(source)))


class TestMessageDispatchLint:
    MASTER = (
        "class MasterPart:\n"
        "    def _serve_slave(self, worker_id):\n"
        "        msg = self.recv()\n"
        "        if isinstance(msg, (IdleSignal, Heartbeat)):\n"
        "            pass\n"
        "        elif isinstance(msg, BatchResult):\n"
        "            pass\n"
        "        elif isinstance(msg, WorkerLeave):\n"
        "            pass\n"
    )
    SLAVE = (
        "class SlavePart:\n"
        "    def run(self):\n"
        "        msg = self.recv()\n"
        "        if isinstance(msg, EndSignal):\n"
        "            return\n"
        "        if not isinstance(msg, BatchAssign):\n"
        "            raise TypeError(msg)\n"
    )

    def lint(self, master=MASTER, slave=SLAVE):
        (master_path, _, _), (slave_path, _, _) = MESSAGE_DISPATCH_LOOPS
        return lint_message_dispatch(
            {master_path: master, slave_path: slave}, wire_message_kinds()
        )

    def test_wire_kinds_are_the_signals_and_the_envelopes(self):
        assert wire_message_kinds() == (
            "BatchAssign", "BatchResult", "EndSignal", "Heartbeat", "IdleSignal", "WorkerLeave",
        )

    def test_tuples_and_negations_count_as_branches(self):
        assert self.lint() == []

    def test_the_real_loops_split_the_kinds_between_them(self):
        report = check_message_dispatch()
        assert report.ok, [d.message for d in report.diagnostics]
        assert report.checked == len(wire_message_kinds()) + 2

    @pytest.mark.parametrize(
        "kind",
        ["IdleSignal", "BatchResult", "Heartbeat", "WorkerLeave", "BatchAssign", "EndSignal"],
    )
    def test_each_real_branch_removed_is_named(self, kind):
        sources = real_loop_sources()
        (path,) = [p for p, text in sources.items() if f"isinstance(msg, {kind})" in text]
        sources[path] = drop_branch(sources[path], kind)
        assert f"isinstance(msg, {kind})" not in sources[path]
        hits = lint_message_dispatch(sources, wire_message_kinds())
        assert [subject for subject, _ in hits] == [kind]
        assert "no isinstance branch" in hits[0][1]

    def test_a_renamed_loop_is_a_finding_not_a_silent_pass(self, tmp_path):
        sources = real_loop_sources()
        (master_path, _, _), (slave_path, _, _) = MESSAGE_DISPATCH_LOOPS
        renamed = sources[master_path].replace("def _serve_slave(", "def _serve_peer(")
        assert renamed != sources[master_path]
        for path, text in ((master_path, renamed), (slave_path, sources[slave_path])):
            (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / path).write_text(text, encoding="utf-8")
        report = check_message_dispatch(root=str(tmp_path))
        assert set(report.codes()) == {D.PROTOCOL_UNHANDLED_MESSAGE}
        assert f"{master_path}:MasterPart._serve_slave" in [d.subject for d in report.diagnostics]
        (tmp_path / slave_path).unlink()  # a missing file is not found either
        subjects = [d.subject for d in check_message_dispatch(root=str(tmp_path)).diagnostics]
        assert f"{slave_path}:SlavePart.run" in subjects

    def test_a_kind_named_in_both_loops_is_a_finding(self):
        slave = self.SLAVE + "        if isinstance(msg, Heartbeat):\n            pass\n"
        hits = self.lint(slave=slave)
        assert [subject for subject, _ in hits] == ["Heartbeat"]
        assert "both MasterPart._serve_slave and SlavePart.run" in hits[0][1]


class TestTreeWideChecks:
    def test_runtime_tree_has_lock_discipline(self):
        report = check_lock_discipline()
        assert report.ok, [d.message for d in report.diagnostics]
        assert report.checked > 50  # whole package scanned

    def test_scheduling_tree_has_clock_discipline(self):
        report = check_clock_discipline()
        assert report.ok, [d.message for d in report.diagnostics]
        assert report.checked >= 10  # runtime/ + backends/

    def test_lints_scoped_to_real_source_root(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import threading\nlock = threading.Lock()\n")
        report = check_lock_discipline(root=str(tmp_path))
        assert not report.ok
        assert any("bad.py" in d.subject for d in report.diagnostics)
