"""The per-file rules (REP001-REP006), implemented over the stdlib AST.

Each rule is a stateless object with a ``code``, a one-line ``summary``,
an ``applies(path, config)`` scope predicate, and a
``check(tree, path, config)`` generator of :class:`Violation` records.
Suppression pragmas are applied by the runner, not the rules.  The
project-aware passes (REP007-REP010) live in :mod:`replint.project`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from replint.config import LintConfig
from replint.diagnostics import Violation
from replint.project import PROJECT_RULE_CODES

# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def _attr_chain(node: ast.expr) -> list[str] | None:
    """``np.random.default_rng`` -> ["np", "random", "default_rng"]."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def _is_numpy_root(name: str) -> bool:
    return name in ("np", "numpy")


def _violation(
    path: str, node: ast.AST, code: str, message: str
) -> Violation:
    return Violation(
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        code=code,
        message=message,
    )


def _public_functions(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, bool]]:
    """Yield (function, in_class) for every *public* module- or
    class-level function.  Nested functions and anything under a private
    (``_``-prefixed) class are skipped."""

    def is_public(name: str) -> bool:
        if name.startswith("__") and name.endswith("__"):
            return True
        return not name.startswith("_")

    def walk(body: list[ast.stmt], in_class: bool) -> Iterator[
        tuple[ast.FunctionDef | ast.AsyncFunctionDef, bool]
    ]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if is_public(node.name):
                    yield node, in_class
            elif isinstance(node, ast.ClassDef):
                if is_public(node.name):
                    yield from walk(node.body, True)

    yield from walk(tree.body, False)


def _is_overload(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for deco in func.decorator_list:
        chain = _attr_chain(deco) if not isinstance(deco, ast.Call) else None
        if chain and chain[-1] == "overload":
            return True
    return False


# ----------------------------------------------------------------------
# REP001 — all randomness flows through an explicit Generator
# ----------------------------------------------------------------------


class GlobalRandomState:
    code = "REP001"
    summary = (
        "no global np.random.* calls / unseeded default_rng() outside "
        "test fixtures; randomness must accept a np.random.Generator"
    )

    def applies(self, path: str, config: LintConfig) -> bool:
        return not config.is_test_file(path)

    def check(
        self, tree: ast.Module, path: str, config: LintConfig
    ) -> Iterator[Violation]:
        # Names imported directly out of numpy.random, e.g.
        # ``from numpy.random import default_rng, rand``.
        from_random: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "numpy.random",
                "numpy.random.mtrand",
            ):
                from_random.update(alias.asname or alias.name for alias in node.names)

        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            name: str | None = None
            if (
                chain is not None
                and len(chain) == 3
                and _is_numpy_root(chain[0])
                and chain[1] == "random"
            ):
                name = chain[2]
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in from_random
            ):
                name = node.func.id
            if name is None:
                continue
            if name == "default_rng":
                if not node.args and not node.keywords:
                    yield _violation(
                        path,
                        node,
                        self.code,
                        "unseeded default_rng(): pass a seed or thread an "
                        "existing Generator (see repro.utils.rng.ensure_rng)",
                    )
            elif name not in config.rng_constructors:
                yield _violation(
                    path,
                    node,
                    self.code,
                    f"call into the global numpy random state "
                    f"(np.random.{name}); accept a np.random.Generator "
                    "parameter instead",
                )


# ----------------------------------------------------------------------
# REP002 — hot paths stay vectorised
# ----------------------------------------------------------------------


class HotPathLoop:
    code = "REP002"
    summary = (
        "no Python for/while loops in hot-path modules (repro/online, "
        "repro/serving, repro/core/adaptive, repro/core/fold_in) without "
        "'# replint: allow-loop(<reason>)'"
    )

    def applies(self, path: str, config: LintConfig) -> bool:
        return config.is_hot_path(path) and not config.is_test_file(path)

    def check(
        self, tree: ast.Module, path: str, config: LintConfig
    ) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                kind = "while" if isinstance(node, ast.While) else "for"
                yield _violation(
                    path,
                    node,
                    self.code,
                    f"Python-level '{kind}' loop in a hot-path module; "
                    "vectorise it or annotate the line with "
                    "'# replint: allow-loop(<reason>)'",
                )


# ----------------------------------------------------------------------
# REP003 — complete annotations on the public API surface
# ----------------------------------------------------------------------


class IncompleteAnnotations:
    code = "REP003"
    summary = (
        "public functions in repro/core, repro/online, repro/serving "
        "must carry complete type annotations"
    )

    def applies(self, path: str, config: LintConfig) -> bool:
        return config.is_typed_api(path)

    def check(
        self, tree: ast.Module, path: str, config: LintConfig
    ) -> Iterator[Violation]:
        for func, in_class in _public_functions(tree):
            if _is_overload(func):
                continue
            missing: list[str] = []
            positional = func.args.posonlyargs + func.args.args
            for index, arg in enumerate(positional):
                if index == 0 and in_class and arg.arg in ("self", "cls"):
                    continue
                if arg.annotation is None:
                    missing.append(arg.arg)
            missing.extend(
                arg.arg
                for arg in func.args.kwonlyargs
                if arg.annotation is None
            )
            for star, prefix in (
                (func.args.vararg, "*"),
                (func.args.kwarg, "**"),
            ):
                if star is not None and star.annotation is None:
                    missing.append(prefix + star.arg)
            if func.returns is None:
                missing.append("return")
            if missing:
                yield _violation(
                    path,
                    func,
                    self.code,
                    f"public function '{func.name}' is missing annotations "
                    f"for: {', '.join(missing)}",
                )


# ----------------------------------------------------------------------
# REP004 — dtypes pinned where arrays cross the public API boundary
# ----------------------------------------------------------------------


class UnpinnedDtype:
    code = "REP004"
    summary = (
        "np.asarray/np.array inside public API functions must pin an "
        "explicit dtype (strict files: every function, plus "
        "np.empty/zeros/ones/full)"
    )

    #: Converter/allocator name -> positional arg count at which the
    #: dtype has been supplied positionally (np.array(x, dtype),
    #: np.full(shape, fill, dtype), ...).
    _constructors = {
        "array": 2,
        "asarray": 2,
        "ascontiguousarray": 2,
        "asfortranarray": 2,
    }
    #: Allocators additionally checked in strict-dtype files — their
    #: outputs default to float64, so an unpinned np.empty silently
    #: changes the index dtype contract at the sampler boundary.
    _allocators = {"empty": 2, "zeros": 2, "ones": 2, "full": 3}

    def applies(self, path: str, config: LintConfig) -> bool:
        return config.is_typed_api(path) or config.is_strict_dtype(path)

    def _check_calls(
        self,
        root: ast.AST,
        path: str,
        where: str,
        checked: "dict[str, int]",
    ) -> Iterator[Violation]:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if (
                chain is None
                or len(chain) != 2
                or not _is_numpy_root(chain[0])
                or chain[1] not in checked
            ):
                continue
            has_dtype = len(node.args) >= checked[chain[1]] or any(
                kw.arg == "dtype" for kw in node.keywords
            )
            if not has_dtype:
                yield _violation(
                    path,
                    node,
                    self.code,
                    f"np.{chain[1]} {where} must pin an explicit dtype",
                )

    def check(
        self, tree: ast.Module, path: str, config: LintConfig
    ) -> Iterator[Violation]:
        if config.is_strict_dtype(path):
            # Strict mode: the whole module — private helpers and
            # module-level code included — and allocators too.
            checked = {**self._constructors, **self._allocators}
            yield from self._check_calls(
                tree, path, "in a strict-dtype module", checked
            )
            return
        for func, _ in _public_functions(tree):
            yield from self._check_calls(
                func,
                path,
                f"at the public API boundary (in '{func.name}')",
                self._constructors,
            )


# ----------------------------------------------------------------------
# REP005 — embedding matrices are written only by the trainer / fold-in
# ----------------------------------------------------------------------


class EmbeddingMutation:
    code = "REP005"
    summary = (
        "embedding matrices may only be mutated inside core/trainer.py "
        "and core/fold_in.py (non-negative projection / Hogwild "
        "write discipline)"
    )

    #: ndarray methods that mutate in place.
    _mutating_methods = frozenset(
        {"fill", "sort", "partition", "put", "setfield", "resize"}
    )

    def applies(self, path: str, config: LintConfig) -> bool:
        return not config.may_mutate_embeddings(path)

    # ------------------------------------------------------------------
    def _touches_embeddings(self, node: ast.expr, config: LintConfig) -> bool:
        """Whether an expression reaches an EmbeddingSet matrix: a name
        or attribute in the configured accessor set, or an ``.of(...)``
        call (the canonical matrix accessor)."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in config.embedding_names:
                return True
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr in config.embedding_names
            ):
                return True
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "of"
            ):
                return True
        return False

    def _message(self, how: str) -> str:
        return (
            f"embedding matrix mutated via {how}; in-place writes are "
            "reserved to core/trainer.py and core/fold_in.py"
        )

    def check(
        self, tree: ast.Module, path: str, config: LintConfig
    ) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and (
                        self._touches_embeddings(target.value, config)
                    ):
                        yield _violation(
                            path, node, self.code, self._message("item assignment")
                        )
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Subscript) and (
                    self._touches_embeddings(node.target.value, config)
                ):
                    yield _violation(
                        path,
                        node,
                        self.code,
                        self._message("augmented item assignment"),
                    )
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "out" and self._touches_embeddings(
                        kw.value, config
                    ):
                        yield _violation(
                            path, node, self.code, self._message("out= argument")
                        )
                chain = _attr_chain(node.func)
                if (
                    chain is not None
                    and chain[-1] == "at"
                    and len(chain) >= 2
                    and node.args
                    and isinstance(node.args[0], ast.expr)
                    and self._touches_embeddings(node.args[0], config)
                ):
                    yield _violation(
                        path,
                        node,
                        self.code,
                        self._message(f"ufunc .at ({'.'.join(chain)})"),
                    )
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._mutating_methods
                    and self._touches_embeddings(node.func.value, config)
                ):
                    yield _violation(
                        path,
                        node,
                        self.code,
                        self._message(f".{node.func.attr}() call"),
                    )


# ----------------------------------------------------------------------
# REP006 — the public serving API documents itself
# ----------------------------------------------------------------------


class MissingDocstring:
    code = "REP006"
    summary = (
        "public symbols in repro/serving (module, classes, functions) "
        "must carry docstrings stating thread-safety and deadline "
        "behaviour"
    )

    def applies(self, path: str, config: LintConfig) -> bool:
        return config.requires_docstrings(path)

    @staticmethod
    def _is_public(name: str) -> bool:
        # Dunders are exempt: their contract is documented on the class.
        return not name.startswith("_")

    def check(
        self, tree: ast.Module, path: str, config: LintConfig
    ) -> Iterator[Violation]:
        if ast.get_docstring(tree) is None:
            yield _violation(
                path, tree, self.code, "module is missing a docstring"
            )
        yield from self._walk(tree.body, path, parent=None)

    def _walk(
        self, body: list[ast.stmt], path: str, parent: str | None
    ) -> Iterator[Violation]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                if not self._is_public(node.name):
                    continue
                if ast.get_docstring(node) is None:
                    yield _violation(
                        path,
                        node,
                        self.code,
                        f"public class '{node.name}' is missing a docstring",
                    )
                yield from self._walk(node.body, path, parent=node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not self._is_public(node.name):
                    continue
                if ast.get_docstring(node) is None:
                    where = f"{parent}.{node.name}" if parent else node.name
                    kind = "method" if parent else "function"
                    yield _violation(
                        path,
                        node,
                        self.code,
                        f"public {kind} '{where}' is missing a docstring",
                    )


# ----------------------------------------------------------------------
# REP011 — span/phase scopes close via the `with` that opened them
# ----------------------------------------------------------------------


class SpanContextDiscipline:
    """Span/timer factories must be used as ``with``-item expressions.

    A bare ``tracer.start(...)`` / ``span.child(...)`` / ``.span(...)``
    / ``profiler.phase(...)`` call whose result is not immediately the
    context expression of a ``with`` statement produces a scope nobody
    is guaranteed to close — an unclosed span corrupts every flight-
    recorder dump its tree lands in, and an unclosed phase corrupts the
    profiler's totals.  The sanctioned cross-thread escape hatch is
    :meth:`Tracer.request` + :meth:`Span.finish` (request roots open at
    submission, close on the serving worker), which this rule leaves
    alone so every explicit-finish site stays greppable.

    ``child``/``span``/``phase`` are flagged on any receiver;
    ``start`` only when the receiver chain mentions a tracer (so
    ``thread.start()`` / ``exporter.start()`` stay clean).
    """

    code = "REP011"
    summary = (
        "span/phase scopes must be closed by the with statement that "
        "opened them (no bare tracer.start()/.child()/.span()/.phase() "
        "calls; cross-thread roots use Tracer.request() + Span.finish())"
    )

    _SCOPE_METHODS = frozenset({"span", "child", "phase"})

    def applies(self, path: str, config: LintConfig) -> bool:
        return config.is_span_scoped(path)

    @staticmethod
    def _is_tracerish(chain: list[str]) -> bool:
        # The receiver chain, excluding the method name itself.
        return any("tracer" in part.lower() for part in chain[:-1])

    def check(
        self, tree: ast.Module, path: str, config: LintConfig
    ) -> Iterator[Violation]:
        with_items: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_items.add(id(item.context_expr))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in with_items:
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            name = func.attr
            if name in self._SCOPE_METHODS:
                yield _violation(
                    path,
                    node,
                    self.code,
                    f"'.{name}(...)' opens a scope: use it as a 'with' "
                    "context expression so the scope is closed on every "
                    "path",
                )
                continue
            if name == "start":
                chain = _attr_chain(func)
                if chain is not None and self._is_tracerish(chain):
                    yield _violation(
                        path,
                        node,
                        self.code,
                        "bare 'tracer.start(...)' leaks an open span: "
                        "use 'with tracer.start(...) as s:' (or "
                        "Tracer.request() + finish() for cross-thread "
                        "roots)",
                    )


ALL_RULES = (
    GlobalRandomState(),
    HotPathLoop(),
    IncompleteAnnotations(),
    UnpinnedDtype(),
    EmbeddingMutation(),
    MissingDocstring(),
    SpanContextDiscipline(),
)

FILE_RULE_CODES = tuple(rule.code for rule in ALL_RULES)

# The full documented set: per-file rules above plus the project-aware
# passes (REP007-REP010) from replint.project.
RULE_CODES = FILE_RULE_CODES + PROJECT_RULE_CODES
