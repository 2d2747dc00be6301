"""The lock-, clock-discipline, sans-I/O and dead-knob source lints."""

import os

import pytest

from repro.check import diagnostics as D
from repro.check.ast_lint import (
    SANS_IO_MODULES,
    check_clock_discipline,
    check_config_fields,
    check_lock_discipline,
    lint_clock_discipline,
    lint_config_fields,
    lint_lock_discipline,
    lint_sans_io,
    source_root,
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
        # dispatch core and the landing step beside it) with a clock read
        # spliced in must fail the tree-wide check.
        assert sorted(os.path.basename(rel) for rel in SANS_IO_MODULES) == [
            "dispatch.py", "landing.py",
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
