"""``REPRO_TSAN`` lock-coverage sanitizer for the serving layer.

The static side of the concurrency contract is replint's REP007 pass:
attributes declared ``# replint: guarded-by(<lock>)`` on their
``__init__`` assignment may only be touched with the lock held, proven
over the intra-class call graph.  This module is the *runtime*
cross-check: during threaded stress tests it records which locks are
actually held at each guarded-attribute access and reports every access
the static map did not justify.

Design mirrors :mod:`repro.serving.faults` (``REPRO_FAULTS``): the gate
is read **once at import time** from the ``REPRO_TSAN`` environment
variable, and when it is off (the default) the module is structurally
free — :func:`tsan_lock` returns its argument unchanged, no trace
function is installed, and the serving hot path runs exactly the code
it would run without this module existing.

When ``REPRO_TSAN=1``:

* :func:`tsan_lock` wraps each serving lock in a :class:`_TsanLock`
  that tracks per-thread hold depth (re-entrant, so ``RLock`` semantics
  survive) while delegating acquire/release to the real lock;
* the serving modules are parsed for their ``guarded-by`` declarations
  (the same pragma language replint checks) into a per-file map of
  *line -> (attribute, lock)*;
* a ``sys.settrace``/``threading.settrace`` hook (Python 3.11 — no
  ``sys.monitoring`` yet) checks, at every executed line that the map
  marks, that the declared lock is held by the current thread, and
  records a violation otherwise.  Violations are collected, never
  raised mid-trace; tests assert :func:`violations` is empty.

Lines inside ``__init__`` are exempt (object confinement), as are lines
carrying a ``# replint: allow(REP007)`` pragma — the exemptions match
the static pass, so the two layers justify exactly the same accesses.
"""

from __future__ import annotations

import ast
import os
import re
import threading
from typing import Any, Iterator, TypeVar

_TRUTHY = frozenset({"1", "true", "yes", "on"})
_ENV_TSAN = os.environ.get("REPRO_TSAN", "").strip().lower()
_ENABLED = _ENV_TSAN in _TRUTHY

_GUARDED_BY = re.compile(
    r"#\s*replint:\s*guarded-by\(\s*(?P<lock>[A-Za-z_]\w*)\s*\)"
)
_ALLOW_REP007 = re.compile(r"#\s*replint:\s*allow\(\s*REP007\s*\)")

_LockT = TypeVar("_LockT")

#: abs path -> {lineno: ((attr, lock), ...)} for watched files.
_WATCHED: dict[str, dict[int, tuple[tuple[str, str], ...]]] = {}
#: co_filename -> resolved line map (or None), lazily aliased so the
#: per-call trace dispatch is a single dict hit.
_RESOLVED: dict[str, "dict[int, tuple[tuple[str, str], ...]] | None"] = {}

_REPORT_LOCK = threading.Lock()  # raw on purpose: never wrapped/traced
_VIOLATIONS: list[tuple[str, int, str, str]] = []
_SEEN: set[tuple[str, int, str]] = set()


def enabled() -> bool:
    """True when ``REPRO_TSAN`` enabled the sanitizer at import time."""
    return _ENABLED


class _TsanLock:
    """A lock wrapper that knows which threads currently hold it.

    Delegates to the wrapped ``threading.Lock``/``RLock``; the
    per-thread depth counter gives re-entrant accounting either way.
    Each counter key is only written by its own thread, so the dict
    needs no extra synchronisation under the GIL.
    """

    __slots__ = ("_lock", "name", "_depth")

    def __init__(self, lock: Any, name: str) -> None:
        self._lock = lock
        self.name = name
        self._depth: dict[int, int] = {}

    def held_by_current_thread(self) -> bool:
        return self._depth.get(threading.get_ident(), 0) > 0

    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        acquired = self._lock.acquire(*args, **kwargs)
        if acquired:
            ident = threading.get_ident()
            self._depth[ident] = self._depth.get(ident, 0) + 1
        return bool(acquired)

    def release(self) -> None:
        ident = threading.get_ident()
        depth = self._depth.get(ident, 0)
        if depth <= 1:
            self._depth.pop(ident, None)
        else:
            self._depth[ident] = depth - 1
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()


def tsan_lock(lock: _LockT, name: str) -> _LockT:
    """Route a lock through the sanitizer.

    Identity when ``REPRO_TSAN`` is off — the serving modules create
    their locks as ``tsan_lock(threading.Lock(), "_lock")`` and pay
    nothing in production.  When on, returns a :class:`_TsanLock`
    tracking per-thread holds under ``name``.
    """
    if not _ENABLED:
        return lock
    return _TsanLock(lock, name)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Static map extraction (mirrors replint's REP007 declaration language)


def scan_guarded_lines(source: str) -> dict[int, tuple[tuple[str, str], ...]]:
    """Map each source line to the guarded ``self.<attr>`` accesses on it.

    Pure function of the source text (unit-testable with the sanitizer
    disabled).  Accesses inside ``__init__`` and on lines carrying an
    ``allow(REP007)`` pragma are excluded, matching the static pass.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return {}
    lines = source.splitlines()
    pragma_lines = {
        lineno
        for lineno, text in enumerate(lines, start=1)
        if "replint" in text and _GUARDED_BY.search(text)
    }
    allow_lines = {
        lineno
        for lineno, text in enumerate(lines, start=1)
        if "replint" in text and _ALLOW_REP007.search(text)
    }

    def guarded_decls(init: ast.AST) -> dict[str, str]:
        assigns: list[tuple[str, int]] = []
        for stmt in ast.walk(init):
            if isinstance(stmt, ast.Assign):
                targets: list[ast.expr] = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    assigns.append((target.attr, stmt.lineno))
        # Binding matches replint's REP007 pass: an inline pragma binds
        # to its own line's assignment; a comment-only pragma line binds
        # to the next line's assignment.
        assign_lines = {lineno for _, lineno in assigns}
        binding: dict[int, str] = {}
        for pragma_line in pragma_lines:
            match = _GUARDED_BY.search(lines[pragma_line - 1])
            if match is None:
                continue
            if pragma_line in assign_lines:
                binding[pragma_line] = match.group("lock")
            elif pragma_line + 1 in assign_lines:
                binding[pragma_line + 1] = match.group("lock")
        decls: dict[str, str] = {}
        for attr, lineno in assigns:
            lock = binding.get(lineno)
            if lock is not None:
                decls.setdefault(attr, lock)
        return decls

    out: dict[int, list[tuple[str, str]]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        init = next(
            (
                item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "__init__"
            ),
            None,
        )
        if init is None:
            continue
        decls = guarded_decls(init)
        if not decls:
            continue
        init_lines = set(range(init.lineno, (init.end_lineno or init.lineno) + 1))
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue
            for sub in ast.walk(method):
                if not (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                    and sub.attr in decls
                ):
                    continue
                lineno = sub.lineno
                if lineno in init_lines or lineno in allow_lines:
                    continue
                entry = (sub.attr, decls[sub.attr])
                bucket = out.setdefault(lineno, [])
                if entry not in bucket:
                    bucket.append(entry)
    return {lineno: tuple(entries) for lineno, entries in sorted(out.items())}


def watch(path: str) -> int:
    """Add ``path`` to the watched set; returns the guarded-line count.

    No-op (returns 0) when the sanitizer is disabled.  Used at import
    for the serving modules and by tests for synthetic fixtures.
    """
    if not _ENABLED:
        return 0
    abs_path = os.path.abspath(path)
    with open(abs_path, "r", encoding="utf-8") as handle:
        source = handle.read()
    linemap = scan_guarded_lines(source)
    with _REPORT_LOCK:
        _WATCHED[abs_path] = linemap
        _RESOLVED.clear()
    return len(linemap)


# ---------------------------------------------------------------------------
# Trace hook and report


def _record(filename: str, lineno: int, attr: str, lock: str) -> None:
    key = (filename, lineno, attr)
    with _REPORT_LOCK:
        if key not in _SEEN:
            _SEEN.add(key)
            _VIOLATIONS.append((filename, lineno, attr, lock))


def _resolve(filename: str) -> "dict[int, tuple[tuple[str, str], ...]] | None":
    try:
        return _RESOLVED[filename]
    except KeyError:
        pass
    linemap = _WATCHED.get(filename)
    if linemap is None and filename.endswith(".py"):
        linemap = _WATCHED.get(os.path.abspath(filename))
    with _REPORT_LOCK:
        _RESOLVED[filename] = linemap
    return linemap


def _trace(frame: Any, event: str, arg: Any) -> Any:
    if event != "call":
        return None
    linemap = _resolve(frame.f_code.co_filename)
    if not linemap:
        return None

    def local(fr: Any, ev: str, _a: Any) -> Any:
        if ev == "line":
            entries = linemap.get(fr.f_lineno)
            if entries:
                instance = fr.f_locals.get("self")
                if instance is not None:
                    for attr, lock_name in entries:
                        lock = getattr(instance, lock_name, None)
                        if isinstance(
                            lock, _TsanLock
                        ) and not lock.held_by_current_thread():
                            _record(
                                fr.f_code.co_filename,
                                fr.f_lineno,
                                attr,
                                lock_name,
                            )
        return local

    return local


def violations() -> list[tuple[str, int, str, str]]:
    """Unjustified accesses seen so far: (file, line, attr, lock)."""
    with _REPORT_LOCK:
        return list(_VIOLATIONS)


def report() -> str:
    """Human-readable summary of recorded violations (empty if clean)."""
    entries = violations()
    return "".join(
        f"{filename}:{lineno}: '{attr}' accessed without holding "
        f"'{lock}' (REPRO_TSAN)\n"
        for filename, lineno, attr, lock in entries
    )


def reset() -> None:
    """Clear recorded violations (between test phases)."""
    with _REPORT_LOCK:
        _VIOLATIONS.clear()
        _SEEN.clear()


def _serving_files() -> Iterator[str]:
    # The serving stack and the observability layer share the lock
    # annotations this sanitizer checks (tracer/flight-recorder state is
    # mutated by the same serving workers), so both are watched.
    for subdir in ("serving", "obs"):
        watch_dir = os.path.join(os.path.dirname(__file__), subdir)
        if os.path.isdir(watch_dir):
            for name in sorted(os.listdir(watch_dir)):
                if name.endswith(".py"):
                    yield os.path.join(watch_dir, name)


def _install() -> None:
    import atexit
    import sys

    for path in _serving_files():
        watch(path)
    threading.settrace(_trace)
    sys.settrace(_trace)
    atexit.register(_uninstall)


def _uninstall() -> None:
    """Remove both hooks (at exit, before this module's globals are torn
    down: a call traced after that — a logging handler's weakref callback,
    say — would find ``_resolve`` already ``None``)."""
    import sys

    threading.settrace(None)  # type: ignore[arg-type]
    sys.settrace(None)


if _ENABLED:
    _install()
