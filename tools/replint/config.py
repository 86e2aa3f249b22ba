"""Path classification and rule scoping for replint.

All matching is done on POSIX-style path suffixes so the linter behaves
identically whether it is invoked from the repository root (the normal
``python -m replint src tests benchmarks``) or handed absolute paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import PurePosixPath


def _posix(path: str) -> str:
    return str(PurePosixPath(path.replace("\\", "/")))


@dataclass(frozen=True)
class LintConfig:
    """Which files each rule applies to.

    The defaults encode this repository's layout; tests construct custom
    configs to exercise the rules on synthetic trees.
    """

    #: Modules whose query/update paths are benchmarked (Table VI, Fig 7)
    #: and must stay vectorised: REP002 forbids ``for``/``while`` here.
    hot_path_prefixes: tuple[str, ...] = (
        "repro/online/",
        "repro/serving/",
        "repro/core/adaptive.py",
        "repro/core/fold_in.py",
    )

    #: Packages whose public functions form the typed API surface:
    #: REP003 (complete annotations) and REP004 (pinned dtypes) apply.
    typed_api_prefixes: tuple[str, ...] = (
        "repro/core/",
        "repro/online/",
        "repro/obs/",
        "repro/serving/",
        "repro/contracts.py",
    )

    #: Files whose indices are computed, not just passed on — the
    #: sampler/alias boundary feeding the gradient kernels, the fold-in
    #: optimiser's draws and step buffers, and the pair space's position
    #: arithmetic with the scans over it: REP004 runs in
    #: *strict* mode here — every function (public or private) must pin
    #: dtypes, and the allocator constructors (np.empty/zeros/ones/full)
    #: are checked in addition to the array converters.
    strict_dtype_prefixes: tuple[str, ...] = (
        "repro/core/alias.py",
        "repro/core/fold_in.py",
        "repro/core/samplers.py",
        "repro/online/transform.py",
        "repro/online/bruteforce.py",
    )

    #: Packages whose public symbols form a documented operational
    #: surface: REP006 requires docstrings (module, classes, functions)
    #: so every serving symbol states its thread-safety and deadline
    #: behaviour.
    docstring_prefixes: tuple[str, ...] = ("repro/obs/", "repro/serving/")

    #: Files allowed to mutate embedding matrices in place (REP005):
    #: the trainer (SGD + ReLU projection), the fold-in optimiser, and
    #: the memmap store (whole-matrix copies during the write phase of
    #: its lifecycle — never element-level updates).
    embedding_mutators: tuple[str, ...] = (
        "repro/core/trainer.py",
        "repro/core/fold_in.py",
        "repro/core/store.py",
    )

    #: Identifiers that reach an :class:`~repro.core.embeddings.EmbeddingSet`
    #: matrix; subscript writes through these names are what REP005 flags.
    embedding_names: frozenset[str] = field(
        default_factory=lambda: frozenset(
            {"embeddings", "matrices", "user_vectors", "event_vectors"}
        )
    )

    #: Serving modules proper (REP010 scans these for outcome/rung/shed
    #: discipline; the guarded-by annotation language is expected here).
    serving_prefixes: tuple[str, ...] = ("repro/obs/", "repro/serving/")

    #: Packages where span/timer scopes must be closed by the ``with``
    #: statement that opened them: REP011 flags bare ``tracer.start()`` /
    #: ``.child()`` / ``.span()`` / ``.phase()`` calls whose result is
    #: not a ``with``-item context expression.  Scoped to all first-party
    #: ``repro/`` code (tests are exempt — they probe span internals).
    span_scoped_prefixes: tuple[str, ...] = ("repro/",)

    #: Fallback degradation-ladder rungs and shed reasons for REP010.
    #: When ``repro/serving/lifecycle.py`` is part of the lint run, the
    #: declared ``RUNGS`` tuple and ``SHED_*`` constants extracted from
    #: it override these (they are kept in sync as a convenience for
    #: fixture-only runs and unit tests).
    declared_rungs: tuple[str, ...] = (
        "full",
        "pruned",
        "ivf",
        "truncated",
        "stale_cache",
    )
    declared_shed_reasons: tuple[str, ...] = (
        "queue_full",
        "deadline_expired",
        "rungs_exhausted",
    )

    #: MemmapStore methods that require write state (REP009).
    store_write_ops: tuple[str, ...] = ("fill_random", "load_from")

    #: Constructors that mark the serve side of the store lifecycle:
    #: feeding them views of a still-writable store is REP009 (the two
    #: engine constructors and the index layer they build).
    serving_sinks: tuple[str, ...] = (
        "ServingEngine",
        "ShardedServingEngine",
        "CandidateIndex",
        "ShardedIndex",
    )

    #: ``np.random`` attributes that are legitimate *constructors* of
    #: generator machinery rather than draws from the global state.
    rng_constructors: frozenset[str] = field(
        default_factory=lambda: frozenset(
            {
                "Generator",
                "SeedSequence",
                "BitGenerator",
                "PCG64",
                "PCG64DXSM",
                "Philox",
                "SFC64",
                "MT19937",
            }
        )
    )

    # ------------------------------------------------------------------
    def _suffix_match(self, path: str, prefixes: tuple[str, ...]) -> bool:
        p = _posix(path)
        for prefix in prefixes:
            if prefix.endswith("/"):
                if f"/{prefix}" in f"/{p}":
                    return True
            elif p.endswith(prefix):
                return True
        return False

    def is_test_file(self, path: str) -> bool:
        """Test fixtures: anything under ``tests/`` or ``benchmarks/``."""
        p = _posix(path)
        parts = PurePosixPath(p).parts
        if "tests" in parts or "benchmarks" in parts:
            return True
        name = PurePosixPath(p).name
        return name.startswith("test_") or name == "conftest.py"

    def is_hot_path(self, path: str) -> bool:
        return self._suffix_match(path, self.hot_path_prefixes)

    def is_typed_api(self, path: str) -> bool:
        return not self.is_test_file(path) and self._suffix_match(
            path, self.typed_api_prefixes
        )

    def is_strict_dtype(self, path: str) -> bool:
        """REP004 strict mode: all functions + allocators checked."""
        return not self.is_test_file(path) and self._suffix_match(
            path, self.strict_dtype_prefixes
        )

    def requires_docstrings(self, path: str) -> bool:
        return not self.is_test_file(path) and self._suffix_match(
            path, self.docstring_prefixes
        )

    def is_serving(self, path: str) -> bool:
        """REP010 scope: the serving modules (and serving fixtures)."""
        return not self.is_test_file(path) and self._suffix_match(
            path, self.serving_prefixes
        )

    def is_span_scoped(self, path: str) -> bool:
        """REP011 scope: span/timer context-manager discipline."""
        return not self.is_test_file(path) and self._suffix_match(
            path, self.span_scoped_prefixes
        )

    def may_mutate_embeddings(self, path: str) -> bool:
        return self.is_test_file(path) or self._suffix_match(
            path, self.embedding_mutators
        )
