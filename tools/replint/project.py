"""Project-aware passes: lock discipline, lock ordering, store lifecycle
and outcome exhaustiveness (REP007-REP010).

Unlike the per-file rules in :mod:`replint.rules`, these passes see the
whole set of linted modules at once.  :class:`Project` is the shared
index: parsed trees, per-class symbol tables (locks created in
``__init__``, attributes declared ``# replint: guarded-by(<lock>)``),
an intra-class call graph, and the declared serving vocabulary (the
degradation-ladder rungs and shed reasons extracted from
``repro/serving/lifecycle.py`` when it is part of the lint run).

The lock-hold analysis is deliberately conservative and *auditable*:

* a ``with self.<lock>:`` scope holds ``<lock>`` for its body;
* a private method (``_name``) is *transitively proven* to hold a lock
  iff **every** internal call site holds it (the intersection over call
  sites of "locks held at the call, plus locks the caller is proven to
  hold", computed to a fixpoint);
* public methods, dunders and private methods with no internal callers
  are entry points: nothing is assumed held on entry;
* ``__init__`` is exempt (object confinement: no other thread can hold
  a reference yet) and its calls do not count as proof for helpers;
* code inside nested ``def``/``lambda`` runs at an unknown later time,
  so it starts from an empty held set.

The same declaration language feeds the runtime cross-check in
``src/repro/sanitizer.py``: replint proves the static map, the
``REPRO_TSAN`` sanitizer observes the locks actually held at each
guarded access during threaded tests.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from replint.config import LintConfig
from replint.diagnostics import Suppressions, Violation

#: ``# replint: guarded-by(<lock>)`` on (or directly above) a
#: ``self.<attr> = ...`` assignment in ``__init__``.
GUARDED_BY = re.compile(r"#\s*replint:\s*guarded-by\(\s*(?P<lock>[A-Za-z_]\w*)\s*\)")

#: Call chains whose final attribute creates a lock object.  Seen
#: through the ``tsan_lock(threading.Lock(), "...")`` wrapper as well,
#: since the wrapper call *contains* the ``threading.Lock()`` call.
_LOCK_FACTORIES = frozenset({"Lock", "RLock"})

_FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)


def _attr_chain(node: ast.AST) -> list[str] | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _self_attr(node: ast.AST) -> str | None:
    """``self.<name>`` -> ``name`` (one level only)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def scan_guarded_pragmas(source: str) -> dict[int, str]:
    """Line number -> lock name for every ``guarded-by`` pragma."""
    out: dict[int, str] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "replint" not in text:
            continue
        match = GUARDED_BY.search(text)
        if match is not None:
            out[lineno] = match.group("lock")
    return out


# ---------------------------------------------------------------------------
# Per-method concurrency facts


@dataclass(frozen=True)
class _Access:
    """A read or write of a guarded ``self.<attr>``."""

    attr: str
    line: int
    col: int
    held: frozenset[str]


@dataclass(frozen=True)
class _Acquire:
    """A direct ``with self.<lock>:`` acquisition."""

    lock: str
    line: int
    col: int
    held: frozenset[str]


@dataclass(frozen=True)
class _SelfCall:
    """A ``self.<method>()`` call site."""

    name: str
    line: int
    col: int
    held: frozenset[str]
    in_nested: bool


@dataclass
class _MethodFacts:
    accesses: list[_Access] = field(default_factory=list)
    acquires: list[_Acquire] = field(default_factory=list)
    calls: list[_SelfCall] = field(default_factory=list)


def _analyse_method(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    locks: frozenset[str],
    guarded: dict[str, str],
) -> _MethodFacts:
    """Walk one method, tracking the ``with self.<lock>:`` held set."""
    facts = _MethodFacts()

    def visit(node: ast.AST, held: frozenset[str], nested: bool) -> None:
        if isinstance(node, (*_FuncDef, ast.Lambda)):
            # Defaults/decorators evaluate now, the body runs later on an
            # unknown thread with an unknown held set.
            for default in getattr(node.args, "defaults", []):
                visit(default, held, nested)
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                visit(child, frozenset(), True)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                # The context expression itself evaluates *before* the
                # lock is acquired.
                visit(item.context_expr, inner, nested)
                if item.optional_vars is not None:
                    visit(item.optional_vars, inner, nested)
                lock = _self_attr(item.context_expr)
                if lock is not None and lock in locks:
                    facts.acquires.append(
                        _Acquire(
                            lock=lock,
                            line=item.context_expr.lineno,
                            col=item.context_expr.col_offset,
                            held=inner,
                        )
                    )
                    inner = inner | {lock}
            for child in node.body:
                visit(child, inner, nested)
            return
        if isinstance(node, ast.Call):
            method = _self_attr(node.func)
            if method is not None:
                facts.calls.append(
                    _SelfCall(
                        name=method,
                        line=node.lineno,
                        col=node.col_offset,
                        held=held,
                        in_nested=nested,
                    )
                )
        elif isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is not None and attr in guarded:
                facts.accesses.append(
                    _Access(
                        attr=attr,
                        line=node.lineno,
                        col=node.col_offset,
                        held=held,
                    )
                )
        for child in ast.iter_child_nodes(node):
            visit(child, held, nested)

    for stmt in func.body:
        visit(stmt, frozenset(), False)
    return facts


# ---------------------------------------------------------------------------
# Symbol tables


@dataclass
class ClassInfo:
    """Concurrency-relevant symbol table for one class."""

    name: str
    path: str
    node: ast.ClassDef
    #: lock attribute name -> line of its ``__init__`` assignment.
    locks: dict[str, int] = field(default_factory=dict)
    #: guarded attribute -> (lock name, declaration line).
    guarded: dict[str, tuple[str, int]] = field(default_factory=dict)
    #: method name -> def node (direct class-body members only).
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )
    #: guarded-by pragmas naming something that is not a lock.
    bad_declarations: list[tuple[int, str]] = field(default_factory=list)
    #: per-method facts, ``__init__`` excluded.
    facts: dict[str, _MethodFacts] = field(default_factory=dict)
    #: proven held-on-entry sets from the call-site fixpoint.
    holds: dict[str, frozenset[str]] = field(default_factory=dict)

    def analyse(self) -> None:
        lock_set = frozenset(self.locks)
        guard_map = {attr: lock for attr, (lock, _) in self.guarded.items()}
        for name, func in self.methods.items():
            if name == "__init__":
                continue
            self.facts[name] = _analyse_method(func, lock_set, guard_map)
        self.holds = self._fixpoint_holds(lock_set)

    def _fixpoint_holds(self, lock_set: frozenset[str]) -> dict[str, frozenset[str]]:
        """Intersection-over-call-sites transitive lock-hold proof."""
        called_internally = {
            call.name for facts in self.facts.values() for call in facts.calls
        }
        holds: dict[str, frozenset[str]] = {}
        provable: set[str] = set()
        for name in self.facts:
            private = name.startswith("_") and not name.startswith("__")
            if private and name in called_internally:
                holds[name] = lock_set  # optimistic start; shrinks below
                provable.add(name)
            else:
                holds[name] = frozenset()
        changed = True
        while changed:
            changed = False
            for name in sorted(provable):
                merged: frozenset[str] | None = None
                for caller, facts in self.facts.items():
                    for call in facts.calls:
                        if call.name != name:
                            continue
                        at_site = call.held
                        if not call.in_nested:
                            at_site = at_site | holds.get(caller, frozenset())
                        merged = at_site if merged is None else merged & at_site
                new = merged if merged is not None else lock_set
                if new != holds[name]:
                    holds[name] = new
                    changed = True
        return holds

    def transitive_acquires(self) -> dict[str, frozenset[str]]:
        """Locks each method may acquire, directly or via self-calls."""
        memo: dict[str, frozenset[str]] = {}

        def solve(name: str, stack: frozenset[str]) -> frozenset[str]:
            if name in memo:
                return memo[name]
            if name in stack or name not in self.facts:
                return frozenset()
            facts = self.facts[name]
            acquired = frozenset(a.lock for a in facts.acquires)
            for call in facts.calls:
                acquired |= solve(call.name, stack | {name})
            memo[name] = acquired
            return acquired

        for name in sorted(self.facts):
            solve(name, frozenset())
        return memo


@dataclass
class ModuleInfo:
    path: str
    source: str
    tree: ast.Module
    suppressions: Suppressions
    classes: list[ClassInfo] = field(default_factory=list)
    functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )


def _build_class_info(
    node: ast.ClassDef, path: str, pragmas: dict[int, str]
) -> ClassInfo:
    info = ClassInfo(name=node.name, path=path, node=node)
    for item in node.body:
        if isinstance(item, _FuncDef):
            info.methods[item.name] = item
    init = info.methods.get("__init__")
    if init is not None:
        assigns: list[tuple[str, int, ast.AST | None]] = []
        for stmt in ast.walk(init):
            targets: list[ast.expr] = []
            value: ast.AST | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            for target in targets:
                attr = _self_attr(target)
                if attr is not None:
                    assigns.append((attr, stmt.lineno, value))
        for attr, lineno, value in assigns:
            if value is None:
                continue
            for sub in ast.walk(value):
                if isinstance(sub, ast.Call):
                    chain = _attr_chain(sub.func)
                    if chain and chain[-1] in _LOCK_FACTORIES:
                        info.locks.setdefault(attr, lineno)
        # A pragma binds to the assignment on its own line when there is
        # one (inline form); a pragma on a comment-only line binds to
        # the assignment on the next line.  Never both — otherwise an
        # inline pragma would leak onto the following attribute.
        assign_lines = {lineno for _, lineno, _ in assigns}
        binding: dict[int, str] = {}
        for pragma_line, lock in pragmas.items():
            if pragma_line in assign_lines:
                binding[pragma_line] = lock
            elif pragma_line + 1 in assign_lines:
                binding[pragma_line + 1] = lock
        for attr, lineno, _ in assigns:
            lock = binding.get(lineno)
            if lock is None or attr in info.guarded:
                continue
            if lock in info.locks:
                info.guarded[attr] = (lock, lineno)
            else:
                info.bad_declarations.append((lineno, lock))
    info.analyse()
    return info


class Project:
    """Parsed, indexed view of every non-test module in a lint run."""

    def __init__(self, modules: Sequence[ModuleInfo], config: LintConfig):
        self.modules = sorted(modules, key=lambda m: m.path)
        self.config = config
        self.declared_rungs = tuple(config.declared_rungs)
        self.declared_shed_reasons = frozenset(config.declared_shed_reasons)
        self._extract_serving_vocabulary()
        self.outcome_returners = self._collect_outcome_returners()

    # -- declared serving vocabulary ------------------------------------
    def _extract_serving_vocabulary(self) -> None:
        """Read RUNGS / SHED_* from lifecycle.py when it is in the run."""
        for module in self.modules:
            if not module.path.replace("\\", "/").endswith(
                "repro/serving/lifecycle.py"
            ):
                continue
            sheds: set[str] = set()
            for stmt in module.tree.body:
                if not isinstance(stmt, ast.Assign):
                    continue
                names = [
                    t.id for t in stmt.targets if isinstance(t, ast.Name)
                ]
                if "RUNGS" in names and isinstance(stmt.value, ast.Tuple):
                    rungs = [
                        e.value
                        for e in stmt.value.elts
                        if isinstance(e, ast.Constant) and isinstance(e.value, str)
                    ]
                    if rungs:
                        self.declared_rungs = tuple(rungs)
                for name in names:
                    if name.startswith("SHED_") and isinstance(
                        stmt.value, ast.Constant
                    ) and isinstance(stmt.value.value, str):
                        sheds.add(stmt.value.value)
            if sheds:
                self.declared_shed_reasons = frozenset(sheds)

    def _collect_outcome_returners(self) -> frozenset[str]:
        """Names of every def (any nesting) annotated ``-> RequestOutcome``."""
        names: set[str] = set()
        for module in self.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, _FuncDef) and _returns_outcome(node):
                    names.add(node.name)
        return frozenset(names)

    # -- queries --------------------------------------------------------
    def iter_classes(self) -> Iterator[tuple[ModuleInfo, ClassInfo]]:
        for module in self.modules:
            for cls in module.classes:
                yield module, cls

    def function_summaries(self) -> dict[str, "_StoreSummary"]:
        """Module-level helper summaries for the REP009 interprocedural
        step (does a helper write to / launder views of a store param?)."""
        summaries: dict[str, _StoreSummary] = {}
        for module in self.modules:
            for name, func in module.functions.items():
                summaries.setdefault(name, _summarise_store_helper(func))
        # One fixpoint round: helpers calling helpers.
        changed = True
        while changed:
            changed = False
            for module in self.modules:
                for name, func in module.functions.items():
                    summary = summaries[name]
                    for sub in ast.walk(func):
                        if not isinstance(sub, ast.Call):
                            continue
                        if not isinstance(sub.func, ast.Name):
                            continue
                        callee = summaries.get(sub.func.id)
                        if callee is None:
                            continue
                        params = _param_names(func)
                        feeds_param = any(
                            isinstance(a, ast.Name) and a.id in params
                            for a in sub.args
                        )
                        if feeds_param and callee.writes and not summary.writes:
                            summary.writes = True
                            changed = True
        return summaries


def build_module(
    path: str, source: str, tree: ast.Module, suppressions: Suppressions
) -> ModuleInfo:
    """Index one parsed module for the project passes."""
    pragmas = scan_guarded_pragmas(source)
    module = ModuleInfo(
        path=path, source=source, tree=tree, suppressions=suppressions
    )
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            module.classes.append(_build_class_info(node, path, pragmas))
    module.classes.sort(key=lambda c: c.node.lineno)
    for stmt in tree.body:
        if isinstance(stmt, _FuncDef):
            module.functions[stmt.name] = stmt
    return module


def _returns_outcome(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    ann = func.returns
    if isinstance(ann, ast.Name):
        return ann.id == "RequestOutcome"
    if isinstance(ann, ast.Attribute):
        return ann.attr == "RequestOutcome"
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ann.value.strip().strip('"') == "RequestOutcome"
    return False


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> frozenset[str]:
    args = func.args
    every = (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    )
    return frozenset(a.arg for a in every)


# ---------------------------------------------------------------------------
# REP007 — lock discipline


class LockDiscipline:
    """REP007: guarded attributes are only touched with their lock held."""

    code = "REP007"
    summary = (
        "attributes declared '# replint: guarded-by(<lock>)' may only be "
        "accessed inside 'with self.<lock>:' or from methods transitively "
        "proven to hold it"
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Violation]:
        for module, cls in project.iter_classes():
            for lineno, lock in cls.bad_declarations:
                yield Violation(
                    path=module.path,
                    line=lineno,
                    col=0,
                    code=self.code,
                    message=(
                        f"guarded-by({lock}) on {cls.name} does not name a "
                        "lock created in __init__ (expected a threading.Lock/"
                        "RLock attribute)"
                    ),
                )
            if not cls.guarded:
                continue
            for name in sorted(cls.facts):
                facts = cls.facts[name]
                entry = cls.holds.get(name, frozenset())
                for access in facts.accesses:
                    lock, decl_line = cls.guarded[access.attr]
                    if lock in access.held | entry:
                        continue
                    yield Violation(
                        path=module.path,
                        line=access.line,
                        col=access.col,
                        code=self.code,
                        message=(
                            f"'{cls.name}.{access.attr}' is guarded by "
                            f"'{lock}' (declared line {decl_line}) but "
                            f"'{name}' accesses it without holding the lock "
                            f"(wrap in 'with self.{lock}:' or prove every "
                            "caller holds it)"
                        ),
                    )


# ---------------------------------------------------------------------------
# REP008 — lock ordering


class LockOrdering:
    """REP008: the intra-class lock acquisition graph must be acyclic."""

    code = "REP008"
    summary = (
        "lock acquisition order must be globally consistent: acquiring "
        "lock B while holding A in one path and A while holding B in "
        "another is a latent deadlock"
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Violation]:
        for module, cls in project.iter_classes():
            if len(cls.locks) < 2:
                continue
            acquires = cls.transitive_acquires()
            # edge (held -> acquired) -> first (line, col, via-method)
            edges: dict[tuple[str, str], tuple[int, int, str]] = {}

            def note(held: str, acquired: str, line: int, col: int, m: str) -> None:
                key = (held, acquired)
                if key not in edges or (line, col) < edges[key][:2]:
                    edges[key] = (line, col, m)

            for name in sorted(cls.facts):
                facts = cls.facts[name]
                entry = cls.holds.get(name, frozenset())
                for acq in facts.acquires:
                    for held in sorted(acq.held | entry):
                        if held != acq.lock:
                            note(held, acq.lock, acq.line, acq.col, name)
                for call in facts.calls:
                    effective = call.held
                    if not call.in_nested:
                        effective = effective | entry
                    for lock in sorted(acquires.get(call.name, frozenset())):
                        for held in sorted(effective):
                            if lock != held and lock not in effective:
                                note(held, lock, call.line, call.col, name)

            graph: dict[str, set[str]] = {}
            for held, acquired in edges:
                graph.setdefault(held, set()).add(acquired)

            def reaches(src: str, dst: str) -> bool:
                seen: set[str] = set()
                stack = [src]
                while stack:
                    node = stack.pop()
                    if node == dst:
                        return True
                    if node in seen:
                        continue
                    seen.add(node)
                    stack.extend(sorted(graph.get(node, ())))
                return False

            for (held, acquired) in sorted(edges):
                line, col, method = edges[(held, acquired)]
                if reaches(acquired, held):
                    yield Violation(
                        path=module.path,
                        line=line,
                        col=col,
                        code=self.code,
                        message=(
                            f"lock-order cycle in {cls.name}: '{method}' "
                            f"acquires '{acquired}' while holding '{held}', "
                            f"but another path acquires '{held}' while "
                            f"holding '{acquired}' — pick one global order"
                        ),
                    )


# ---------------------------------------------------------------------------
# REP009 — store lifecycle


_STATE_WRITE = "write"
_STATE_FROZEN = "frozen"


@dataclass
class _StoreSummary:
    writes: bool = False
    launders: bool = False


def _summarise_store_helper(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> _StoreSummary:
    params = _param_names(func)
    summary = _StoreSummary()
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            base = node.func.value
            if (
                isinstance(base, ast.Name)
                and base.id in params
                and node.func.attr in ("fill_random", "load_from")
            ):
                summary.writes = True
        if isinstance(node, ast.Return) and node.value is not None:
            for sub in ast.walk(node.value):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "embeddings"
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id in params
                ):
                    summary.launders = True
    return summary


def _store_ctor_state(node: ast.AST) -> str | None:
    """State produced by a ``MemmapStore.<ctor>(...)`` call, else None."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        chain = _attr_chain(sub.func)
        if not chain or len(chain) < 2 or chain[-2] != "MemmapStore":
            continue
        ctor = chain[-1]
        if ctor in ("create", "from_embeddings"):
            return _STATE_WRITE
        if ctor == "open":
            for kw in sub.keywords:
                if (
                    kw.arg == "writable"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                ):
                    return _STATE_WRITE
            return _STATE_FROZEN
    return None


class StoreLifecycle:
    """REP009: writable MemmapStore access only from write-state contexts;
    freeze() must dominate every serve-side use of its views."""

    code = "REP009"
    summary = (
        "MemmapStore lifecycle: write operations require write state, and "
        "views of a still-writable store must not reach a serving engine "
        "(freeze() first) — including through helper functions"
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Violation]:
        summaries = project.function_summaries()
        write_ops = frozenset(config.store_write_ops)
        sinks = frozenset(config.serving_sinks)
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, _FuncDef):
                    yield from self._check_function(
                        module, node, summaries, write_ops, sinks
                    )

    def _check_function(
        self,
        module: ModuleInfo,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        summaries: dict[str, _StoreSummary],
        write_ops: frozenset[str],
        sinks: frozenset[str],
    ) -> Iterator[Violation]:
        state: dict[str, str] = {}
        views: dict[str, str] = {}

        def stores_in(expr: ast.AST) -> set[str]:
            """Store variables whose data flows through ``expr``."""
            found: set[str] = set()
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Name):
                    if sub.id in views:
                        found.add(views[sub.id])
                    elif sub.id in state:
                        found.add(sub.id)
            return found

        def handle_call(call: ast.Call) -> Iterator[Violation]:
            # v.fill_random(...) / v.load_from(...) on a frozen store
            if isinstance(call.func, ast.Attribute):
                base = call.func.value
                if (
                    isinstance(base, ast.Name)
                    and call.func.attr in write_ops
                    and state.get(base.id) == _STATE_FROZEN
                ):
                    yield Violation(
                        path=module.path,
                        line=call.lineno,
                        col=call.col_offset,
                        code=self.code,
                        message=(
                            f"write-state operation '{call.func.attr}' on "
                            f"'{base.id}', which was opened frozen/read-only "
                            "— re-open with writable=True (and re-freeze) "
                            "instead"
                        ),
                    )
            # helper(store) where the helper writes to its store param
            if isinstance(call.func, ast.Name):
                summary = summaries.get(call.func.id)
                if summary is not None and summary.writes:
                    for arg in call.args:
                        if (
                            isinstance(arg, ast.Name)
                            and state.get(arg.id) == _STATE_FROZEN
                        ):
                            yield Violation(
                                path=module.path,
                                line=call.lineno,
                                col=call.col_offset,
                                code=self.code,
                                message=(
                                    f"'{call.func.id}' writes to its store "
                                    f"argument, but '{arg.id}' is frozen/"
                                    "read-only here"
                                ),
                            )
            # serving-engine construction over writable views
            sink_name = None
            if isinstance(call.func, ast.Name) and call.func.id in sinks:
                sink_name = call.func.id
            else:
                chain = _attr_chain(call.func)
                if chain and chain[-1] in sinks:
                    sink_name = chain[-1]
            if sink_name is not None:
                tainted = set()
                for arg in list(call.args) + [kw.value for kw in call.keywords]:
                    tainted |= {
                        v for v in stores_in(arg) if state.get(v) == _STATE_WRITE
                    }
                for store_var in sorted(tainted):
                    yield Violation(
                        path=module.path,
                        line=call.lineno,
                        col=call.col_offset,
                        code=self.code,
                        message=(
                            f"{sink_name} built over views of '{store_var}' "
                            "while the store is still writable — call "
                            f"'{store_var}.freeze()' before serving from it"
                        ),
                    )

        def handle_stmt(stmt: ast.stmt) -> Iterator[Violation]:
            # State transitions first (so the sink check sees them),
            # then violations, in statement order.
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                value = stmt.value
                if value is not None and len(targets) == 1 and isinstance(
                    targets[0], ast.Name
                ):
                    name = targets[0].id
                    ctor_state = _store_ctor_state(value)
                    if ctor_state is not None:
                        state[name] = ctor_state
                        views.pop(name, None)
                    else:
                        src = stores_in(value)
                        launder = (
                            isinstance(value, ast.Call)
                            and isinstance(value.func, ast.Name)
                            and summaries.get(
                                value.func.id, _StoreSummary()
                            ).launders
                        )
                        has_view_call = any(
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr == "embeddings"
                            for sub in ast.walk(value)
                        )
                        if src and (launder or has_view_call):
                            views[name] = sorted(src)[0]
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                call = stmt.value
                if (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr == "freeze"
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id in state
                ):
                    state[call.func.value.id] = _STATE_FROZEN
            yield from _calls_in(stmt)

        # Simple statements go through handle_stmt (state transitions +
        # violations); compound statements recurse so transitions apply
        # in program order.  Nested defs are analysed as their own
        # functions by the caller, with their own (empty) state.
        def walk(body: Sequence[ast.stmt]) -> Iterator[Violation]:
            for stmt in body:
                if isinstance(stmt, (*_FuncDef, ast.ClassDef)):
                    continue
                if isinstance(
                    stmt,
                    (
                        ast.If,
                        ast.For,
                        ast.AsyncFor,
                        ast.While,
                        ast.With,
                        ast.AsyncWith,
                        ast.Try,
                    ),
                ):
                    if isinstance(stmt, (ast.With, ast.AsyncWith)):
                        for item in stmt.items:
                            yield from _calls_in(item.context_expr)
                    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                        yield from _calls_in(stmt.iter)
                    elif isinstance(stmt, (ast.If, ast.While)):
                        yield from _calls_in(stmt.test)
                    yield from walk(stmt.body)
                    if getattr(stmt, "orelse", None):
                        yield from walk(stmt.orelse)
                    for handler in getattr(stmt, "handlers", []) or []:
                        yield from walk(handler.body)
                    if getattr(stmt, "finalbody", None):
                        yield from walk(stmt.finalbody)
                else:
                    yield from handle_stmt(stmt)

        def _calls_in(node: ast.AST) -> Iterator[Violation]:
            stack: list[ast.AST] = [node]
            while stack:
                sub = stack.pop()
                if isinstance(sub, (*_FuncDef, ast.Lambda, ast.ClassDef)):
                    continue
                if isinstance(sub, ast.Call):
                    yield from handle_call(sub)
                stack.extend(ast.iter_child_nodes(sub))

        yield from walk(func.body)


# ---------------------------------------------------------------------------
# REP010 — outcome exhaustiveness


def _definitely_exits(body: Sequence[ast.stmt]) -> bool:
    return any(_stmt_exits(s) for s in body)


def _stmt_exits(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Return, ast.Raise)):
        return True
    if isinstance(stmt, ast.If):
        return bool(stmt.orelse) and _definitely_exits(
            stmt.body
        ) and _definitely_exits(stmt.orelse)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return _definitely_exits(stmt.body)
    if isinstance(stmt, ast.Try):
        if stmt.finalbody and _definitely_exits(stmt.finalbody):
            return True
        body_exits = _definitely_exits(stmt.body)
        handlers_exit = all(
            _definitely_exits(h.body) for h in stmt.handlers
        )
        return body_exits and handlers_exit
    if isinstance(stmt, ast.While):
        infinite = (
            isinstance(stmt.test, ast.Constant) and bool(stmt.test.value)
        )
        has_break = any(
            isinstance(sub, ast.Break) for sub in ast.walk(stmt)
        )
        return infinite and not has_break
    return False


def _own_statements(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Every node in ``func`` excluding nested function/class scopes."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (*_FuncDef, ast.Lambda, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _call_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


class OutcomeExhaustiveness:
    """REP010: every exit of a ``-> RequestOutcome`` path is accounted."""

    code = "REP010"
    summary = (
        "every exit path of the engine's ladder walk must produce a "
        "RequestOutcome with a declared rung or shed reason — no silent "
        "drops, no ad-hoc labels"
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Violation]:
        for module in project.modules:
            if not config.is_serving(module.path):
                continue
            yield from self._check_module(module, project)

    # -- module-wide vocabulary checks ----------------------------------
    def _check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Violation]:
        rungs = set(project.declared_rungs)
        sheds = project.declared_shed_reasons
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(node, module, rungs, sheds)
            elif isinstance(node, _FuncDef) and _returns_outcome(node):
                yield from self._check_outcome_function(node, module, project)

    def _check_call(
        self,
        call: ast.Call,
        module: ModuleInfo,
        rungs: set[str],
        sheds: frozenset[str],
    ) -> Iterator[Violation]:
        name = _call_name(call)
        kwargs = {kw.arg: kw.value for kw in call.keywords if kw.arg}
        if name == "RequestOutcome":
            answered = kwargs.get("answered")
            if isinstance(answered, ast.Constant):
                if answered.value is True and "stats" not in kwargs:
                    yield self._violation(
                        module, call,
                        "answered RequestOutcome without stats= — the rung "
                        "accounting (telemetry) would silently lose this "
                        "request",
                    )
                if answered.value is False and "shed_reason" not in kwargs:
                    yield self._violation(
                        module, call,
                        "shed RequestOutcome without shed_reason= — every "
                        "drop must carry a declared reason",
                    )
            reason = kwargs.get("shed_reason")
            if (
                isinstance(reason, ast.Constant)
                and isinstance(reason.value, str)
                and reason.value not in sheds
            ):
                yield self._violation(
                    module, call,
                    f"shed reason '{reason.value}' is not in the declared "
                    f"set {sorted(sheds)} (see serving/lifecycle.py)",
                )
        elif name == "QueryStats":
            rung = kwargs.get("rung")
            if (
                isinstance(rung, ast.Constant)
                and isinstance(rung.value, str)
                and rung.value not in rungs
            ):
                yield self._violation(
                    module, call,
                    f"rung '{rung.value}' is not in the declared ladder "
                    f"{sorted(rungs)} (see serving/lifecycle.py RUNGS)",
                )
        elif name == "record_shed":
            for arg in call.args[:1]:
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value not in sheds
                ):
                    yield self._violation(
                        module, call,
                        f"shed reason '{arg.value}' is not in the declared "
                        f"set {sorted(sheds)} (see serving/lifecycle.py)",
                    )

    # -- per-function exit-path checks ----------------------------------
    def _check_outcome_function(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        module: ModuleInfo,
        project: Project,
    ) -> Iterator[Violation]:
        conforming_names: set[str] = set()
        returns: list[ast.Return] = []
        for node in _own_statements(func):
            if isinstance(node, ast.Return):
                returns.append(node)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and self._conforms(
                    node.value, project, set()
                ):
                    conforming_names.add(target.id)
        for ret in sorted(returns, key=lambda r: (r.lineno, r.col_offset)):
            if ret.value is None:
                yield self._violation(
                    module, ret,
                    f"'{func.name}' returns without a RequestOutcome — a "
                    "bare return is a silent drop",
                )
            elif not self._conforms(ret.value, project, conforming_names):
                yield self._violation(
                    module, ret,
                    f"'{func.name}' exit path returns a value not proven "
                    "to be a RequestOutcome (construct one, or delegate to "
                    "a '-> RequestOutcome' method)",
                )
        if not _definitely_exits(func.body):
            yield Violation(
                path=module.path,
                line=func.lineno,
                col=func.col_offset,
                code=self.code,
                message=(
                    f"'{func.name}' can fall off the end (implicit None) — "
                    "every exit path must produce a RequestOutcome"
                ),
            )

    def _conforms(
        self, expr: ast.AST | None, project: Project, names: set[str]
    ) -> bool:
        if expr is None:
            return False
        if isinstance(expr, ast.IfExp):
            return self._conforms(expr.body, project, names) and self._conforms(
                expr.orelse, project, names
            )
        if isinstance(expr, ast.Name):
            return expr.id in names
        if isinstance(expr, ast.Call):
            name = _call_name(expr)
            if name == "RequestOutcome":
                return True
            return name in project.outcome_returners
        return False

    def _violation(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


PROJECT_RULES = (
    LockDiscipline(),
    LockOrdering(),
    StoreLifecycle(),
    OutcomeExhaustiveness(),
)

PROJECT_RULE_CODES = tuple(rule.code for rule in PROJECT_RULES)
