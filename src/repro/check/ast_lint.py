"""AST lints enforcing the repo's concurrency, clock, config and protocol
discipline.

Five project rules exist that no type checker sees:

- **Lock discipline** — locks and condition variables must come from
  :func:`repro.check.lock_lint.make_lock` / ``make_condition`` so the
  lock-order lint can observe them; a raw ``threading.Lock()`` is
  invisible to deadlock detection. Only ``lock_lint`` itself may
  construct raw primitives (it *is* the factory).
- **Clock discipline** — scheduling code under ``repro/runtime`` and
  ``repro/backends`` must read time through the injected clock
  (:mod:`repro.obs.clock`), never ``time.time()``/``time.monotonic()``
  directly: a direct read breaks the simulated backend's sim-time and
  makes timeout logic untestable. ``time.perf_counter()`` stays legal —
  it only measures wall-clock cost for reports, it never drives logic.
- **Sans-I/O core** — the dispatch core (``runtime/dispatch.py``) takes
  ``now`` as an argument and returns actions, and the offering and
  landing steps beside it (``runtime/offering.py``,
  ``runtime/landing.py``) reach the world only through their shell's
  hooks; they may import no thread, clock, socket, OS,
  transport, journal or array module and build no lock, or the
  simulator and explorer stop running the master's real decisions
  (``docs/fault_tolerance.md`` §Dispatch core).
- **No dead knob** — a ``RunConfig`` field is the one declaration of a
  knob (``docs/configuration.md``), so a field nothing in the package
  reads is an option that does nothing: it becomes a constant or goes.
- **Every wire message has a handler** — the two loops that receive
  messages (``MESSAGE_DISPATCH_LOOPS``: the master's per-slave service
  loop and the slave's protocol loop) between them test every wire kind
  of :mod:`repro.comm.messages` with ``isinstance(msg, ...)``, and no
  kind in both: a kind travels one way. There is no second, hand-written
  description of the protocol to check instead (``docs/protocol.md``
  §The two loops says in prose what the loops do).

All lints are source-level (``ast``), so they catch violations in
code paths tests never execute. Wired into ``repro check
--all-builtin``; the seeded fixtures in :mod:`repro.check.fixtures`
prove each rule actually fires.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.check import diagnostics as D
from repro.check.diagnostics import CheckReport

__all__ = [
    "lint_lock_discipline",
    "lint_clock_discipline",
    "lint_sans_io",
    "lint_config_fields",
    "lint_message_dispatch",
    "check_lock_discipline",
    "check_clock_discipline",
    "check_config_fields",
    "check_message_dispatch",
    "source_root",
    "wire_message_kinds",
]

_BANNED_LOCK_ATTRS = ("Lock", "Condition")
_BANNED_CLOCK_ATTRS = ("time", "monotonic")
#: Modules (and their submodules) a sans-I/O module may not import, and
#: the lock factories it may not name.
_SANS_IO_BANNED_IMPORTS = (
    "threading", "time", "socket", "os", "numpy", "repro.comm.transport", "repro.durable",
)
_SANS_IO_BANNED_NAMES = ("make_lock", "make_condition")
#: Package-relative paths held to the sans-I/O rule.
SANS_IO_MODULES = (
    os.path.join("runtime", "dispatch.py"),
    os.path.join("runtime", "landing.py"),
    os.path.join("runtime", "offering.py"),
)
#: The loops that receive wire messages, as (package-relative path,
#: class, method): the master's per-slave service loop and the slave's
#: protocol loop. Between them they must handle every wire kind.
MESSAGE_DISPATCH_LOOPS = (
    (os.path.join("runtime", "master.py"), "MasterPart", "_serve_slave"),
    (os.path.join("runtime", "slave.py"), "SlavePart", "run"),
)


class _ImportTracker(ast.NodeVisitor):
    """Resolves which local names alias a watched module or symbol."""

    def __init__(self, module: str, symbols: Tuple[str, ...]) -> None:
        self.module = module
        self.symbols = symbols
        #: Local aliases of the module itself (``import time as _time``).
        self.module_aliases: Set[str] = set()
        #: Local alias -> watched symbol (``from time import monotonic as mono``).
        self.symbol_aliases: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for a in node.names:
            if a.name == self.module:
                self.module_aliases.add(a.asname or a.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == self.module:
            for a in node.names:
                if a.name in self.symbols:
                    self.symbol_aliases[a.asname or a.name] = a.name
        self.generic_visit(node)

    def banned_call(self, node: ast.Call) -> Optional[str]:
        """The watched symbol this call resolves to, or None."""
        f = node.func
        if (
            isinstance(f, ast.Attribute)
            and f.attr in self.symbols
            and isinstance(f.value, ast.Name)
            and f.value.id in self.module_aliases
        ):
            return f.attr
        if isinstance(f, ast.Name) and f.id in self.symbol_aliases:
            return self.symbol_aliases[f.id]
        return None


def _lint(
    source: str,
    path: str,
    module: str,
    symbols: Tuple[str, ...],
) -> List[Tuple[int, str]]:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:  # unparseable file is its own finding
        return [(exc.lineno or 0, f"cannot parse: {exc.msg}")]
    tracker = _ImportTracker(module, symbols)
    tracker.visit(tree)
    out: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            hit = tracker.banned_call(node)
            if hit is not None:
                out.append((node.lineno, f"{module}.{hit}()"))
    return out


def lint_lock_discipline(source: str, path: str = "<string>") -> List[Tuple[int, str]]:
    """(line, what) for every raw ``threading.Lock/Condition`` construction."""
    return _lint(source, path, "threading", _BANNED_LOCK_ATTRS)


def lint_clock_discipline(source: str, path: str = "<string>") -> List[Tuple[int, str]]:
    """(line, what) for every direct ``time.time/monotonic`` read."""
    return _lint(source, path, "time", _BANNED_CLOCK_ATTRS)


def lint_sans_io(source: str, path: str = "<string>") -> List[Tuple[int, str]]:
    """(line, what) for every I/O-capable import or lock factory use."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [(exc.lineno or 0, f"cannot parse: {exc.msg}")]
    out: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            out.extend(
                (node.lineno, f"{a.name}()")
                for a in node.names
                if a.name in _SANS_IO_BANNED_NAMES
            )
        else:
            continue
        out.extend(
            (node.lineno, f"import {m}")
            for m in modules
            if any(m == b or m.startswith(b + ".") for b in _SANS_IO_BANNED_IMPORTS)
        )
    return out


def lint_config_fields(
    config_source: str, reader_sources: Iterable[str], cls: str = "RunConfig"
) -> List[Tuple[int, str]]:
    """(line, field) for every field of ``cls`` that is read nowhere.

    A field is read when some reader source loads it as an attribute, or
    when a derived member of ``cls`` (any method or property but
    ``__post_init__``, which only validates) reads it through ``self``
    and that member's name is itself loaded by a reader.
    """
    loaded: Set[str] = set()
    for source in reader_sources:
        loaded.update(
            n.attr for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Attribute)
        )
    fields: Dict[str, int] = {}
    for node in ast.walk(ast.parse(config_source)):
        if not (isinstance(node, ast.ClassDef) and node.name == cls):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                fields[item.target.id] = item.lineno
            elif (
                isinstance(item, ast.FunctionDef)
                and item.name != "__post_init__"
                and item.name in loaded
            ):
                loaded.update(
                    n.attr
                    for n in ast.walk(item)
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.value, ast.Name)
                    and n.value.id == "self"
                )
    return [(line, name) for name, line in fields.items() if name not in loaded]


def wire_message_kinds() -> Tuple[str, ...]:
    """The real wire vocabulary: every concrete ``Message`` subclass the
    master and slave loops exchange — signals and envelopes. An
    envelope's elements (``TaskAssign`` / ``TaskResult``) are payload,
    not vocabulary: no loop receives a bare one."""
    from repro.comm import messages as M

    found: List[str] = []
    stack = list(M.Message.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls is not M.Envelope and not issubclass(cls, M.Element):
            found.append(cls.__name__)
    return tuple(sorted(found))


def _isinstance_kinds(func: ast.AST) -> Set[str]:
    """Class names ``func`` tests ``msg`` against with ``isinstance``."""
    kinds: Set[str] = set()
    for node in ast.walk(func):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "msg"
        ):
            continue
        spec = node.args[1]
        for cls in spec.elts if isinstance(spec, ast.Tuple) else [spec]:
            if isinstance(cls, ast.Name):
                kinds.add(cls.id)
    return kinds


def _find_method(source: str, path: str, cls: str, method: str) -> Optional[ast.AST]:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return None
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == method:
                    return item
    return None


def lint_message_dispatch(sources: Dict[str, str], kinds: Iterable[str]) -> List[Tuple[str, str]]:
    """(subject, what) for every receive loop of ``MESSAGE_DISPATCH_LOOPS``
    that cannot be found, every wire kind no loop tests ``msg`` against,
    and every kind both loops test. ``sources`` maps each loop's path to
    the text of that file."""
    out: List[Tuple[str, str]] = []
    named: Dict[str, List[str]] = {}
    for path, cls, method in MESSAGE_DISPATCH_LOOPS:
        loop = f"{cls}.{method}"
        func = _find_method(sources.get(path, ""), path, cls, method)
        if func is None:
            out.append((f"{path}:{loop}", f"receive loop {loop} not found in {path}"))
            continue
        for kind in _isinstance_kinds(func):
            named.setdefault(kind, []).append(loop)
    all_loops = " or ".join(f"{cls}.{method}" for _path, cls, method in MESSAGE_DISPATCH_LOOPS)
    for kind in sorted(kinds):
        where = named.get(kind, [])
        if not where:
            out.append((kind, f"wire message {kind} has no isinstance branch in {all_loops}"))
        elif len(where) > 1:
            out.append(
                (kind, f"wire message {kind} is handled by both {' and '.join(where)} "
                       f"— a kind travels one way")
            )
    return out


def source_root() -> str:
    """The installed ``repro`` package directory this lint scans."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _py_files(root: str, subdirs: Optional[Iterable[str]] = None) -> List[str]:
    roots = [root] if subdirs is None else [os.path.join(root, d) for d in subdirs]
    out: List[str] = []
    for r in roots:
        for dirpath, _dirs, files in os.walk(r):
            out.extend(
                os.path.join(dirpath, f) for f in files if f.endswith(".py")
            )
    return sorted(out)


def check_lock_discipline(
    root: Optional[str] = None, title: str = "lint:lock-discipline"
) -> CheckReport:
    """Scan the whole package for raw lock construction.

    ``repro/check/lock_lint.py`` is exempt: it is the factory the rule
    funnels everyone through.
    """
    root = root or source_root()
    exempt = os.path.join("check", "lock_lint.py")
    report = CheckReport(title=title)
    for path in _py_files(root):
        if path.endswith(exempt):
            continue
        report.checked += 1
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        rel = os.path.relpath(path, root)
        for line, what in lint_lock_discipline(source, path):
            report.add(
                D.RAW_LOCK_CONSTRUCTION,
                f"raw {what} at {rel}:{line} — use "
                f"repro.check.lock_lint.make_lock/make_condition so the "
                f"lock-order lint can see it",
                f"{rel}:{line}",
            )
    return report


def check_clock_discipline(
    root: Optional[str] = None,
    subdirs: Tuple[str, ...] = ("runtime", "backends", "serve"),
    title: str = "lint:clock-discipline",
) -> CheckReport:
    """Scan scheduling code for direct wall-clock reads, and the
    sans-I/O modules for anything that could perform I/O at all."""
    root = root or source_root()
    report = CheckReport(title=title)
    for path in _py_files(root, subdirs):
        report.checked += 1
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        rel = os.path.relpath(path, root)
        if rel in SANS_IO_MODULES:
            for line, what in lint_sans_io(source, path):
                report.add(
                    D.SANS_IO_VIOLATION,
                    f"{what} at {rel}:{line} — the dispatch core and its offering and landing "
                    f"steps are sans-I/O: time comes in as `now`, effects go out as actions",
                    f"{rel}:{line}",
                )
        for line, what in lint_clock_discipline(source, path):
            report.add(
                D.UNINJECTED_CLOCK,
                f"direct {what} at {rel}:{line} — scheduling code must read "
                f"the injected clock (repro.obs.clock) so simulated time and "
                f"tests stay deterministic",
                f"{rel}:{line}",
            )
    return report


def check_config_fields(
    root: Optional[str] = None, title: str = "lint:config-fields"
) -> CheckReport:
    """Every ``RunConfig`` field must be read somewhere in the package
    outside ``runtime/config.py``."""
    root = root or source_root()
    config_path = os.path.join(root, "runtime", "config.py")
    report = CheckReport(title=title)
    readers = []
    for path in _py_files(root):
        report.checked += 1
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        if path == config_path:
            config_source = source
        else:
            readers.append(source)
    for line, name in lint_config_fields(config_source, readers):
        report.add(
            D.CONFIG_FIELD_UNREAD,
            f"RunConfig.{name} (runtime/config.py:{line}) is read nowhere in "
            f"the package — a knob nothing reads is a constant or dead",
            f"runtime/config.py:{line}",
        )
    return report


def check_message_dispatch(
    root: Optional[str] = None, title: str = "lint:message-dispatch"
) -> CheckReport:
    """Every wire message kind is handled by exactly one receive loop."""
    root = root or source_root()
    report = CheckReport(title=title)
    sources: Dict[str, str] = {}
    for path, _cls, _method in MESSAGE_DISPATCH_LOOPS:
        full = os.path.join(root, path)
        if os.path.exists(full):
            with open(full, encoding="utf-8") as fh:
                sources[path] = fh.read()
    kinds = wire_message_kinds()
    report.checked += len(kinds) + len(MESSAGE_DISPATCH_LOOPS)
    for subject, what in lint_message_dispatch(sources, kinds):
        report.add(D.PROTOCOL_UNHANDLED_MESSAGE, what, subject)
    return report
