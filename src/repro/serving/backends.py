"""Pluggable retrieval backends for the serving engine.

The paper's Section IV offers two ways to answer a top-n query over the
transformed 2K+1 pair space — a brute-force scan (GEM-BF; here the
factored scan of :mod:`repro.online.transform`) and the
TA-based exact retrieval (GEM-TA) — and the codebase previously exposed
them as two parallel index classes with ad-hoc call sites.  Here they
become implementations of one :class:`RetrievalBackend` contract,
registered by name, so the :class:`~repro.serving.engine.ServingEngine`
(and any future backend: sharded, approximate, GPU) is selected by
configuration instead of by divergent code paths.

A backend's lifecycle::

    backend = create_backend("ta")
    backend.build(space)                      # offline
    result = backend.query(q, n, exclude=u)   # online, q = (u, u, 1)

``"ta-pruned"`` / ``"bruteforce-pruned"`` are the same retrieval
algorithms but request the engine's per-partner top-k event pruning by
default (Fig 7's operating point) when the caller did not choose a k.

**Thread-safety:** ``build``/``extend`` are single-writer operations the
engine serialises under its build lock; ``query`` only
*reads* the built index (NumPy arrays that are never mutated after
build), so any number of serving workers may query one backend
concurrently — this is what ``ServingEngine.recommend_many`` relies on.

**Deadline behaviour:** backends advertising ``supports_budget`` accept
a ``budget_s`` keyword on ``query`` and return their best-so-far answer
with ``exact=False`` when the budget expires mid-scan (TA does; brute
force is one pass with no useful interruption point).
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.online.bruteforce import BruteForceIndex, scan_top_n_batch
from repro.online.ivf import IVFIndex
from repro.online.ta import RetrievalResult, ThresholdAlgorithmIndex
from repro.online.transform import PairSpace


@runtime_checkable
class RetrievalBackend(Protocol):
    """The contract every serving backend implements.

    ``query`` takes the *extended* query vector :math:`\\vec q_u =
    (\\vec u, \\vec u, 1)` — the engine owns the transformation — and
    returns a :class:`~repro.online.ta.RetrievalResult` carrying the
    access statistics the telemetry layer records.  Queries on a built
    backend are read-only and thread-safe; ``build`` is not, and must
    not run concurrently with queries (the engine's build lock enforces
    this).
    """

    name: str
    #: Whether the engine should apply per-partner top-k pruning when the
    #: caller did not specify a pruning level.
    prunes_by_default: bool
    #: Whether ``query`` accepts a ``budget_s`` keyword for in-scan
    #: deadline early exit (returning best-so-far with ``exact=False``).
    supports_budget: bool

    def build(self, space: PairSpace) -> None:
        """Construct the index over a transformed pair space (offline)."""
        ...

    def query(
        self, q: np.ndarray, n: int, exclude: int | None = None
    ) -> RetrievalResult:
        """Exact top-n for one extended query (online, thread-safe)."""
        ...

    def memory_bytes(self) -> int:
        """Resident bytes of the built index (0 if not built)."""
        ...


_REGISTRY: dict[str, Callable[[], "RetrievalBackend"]] = {}


def register_backend(name: str) -> Callable[[type], type]:
    """Class decorator: make ``name`` constructible via :func:`create_backend`."""

    def wrap(cls: type) -> type:
        if name in _REGISTRY:
            raise ValueError(f"backend {name!r} is already registered")
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return wrap


def available_backends() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def create_backend(name: str) -> "RetrievalBackend":
    """Instantiate a registered backend by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown retrieval backend {name!r}; "
            f"available: {available_backends()}"
        ) from None
    return factory()


class _IndexBackend:
    """Shared plumbing: wrap one of the ``repro.online`` index classes."""

    prunes_by_default = False
    supports_budget = False
    _not_built = "backend not built; call build(space) first"

    def __init__(self) -> None:
        self.index: (
            BruteForceIndex | ThresholdAlgorithmIndex | IVFIndex | None
        ) = None

    @property
    def space(self) -> PairSpace:
        """The indexed pair space (raises if not built)."""
        if self.index is None:
            raise RuntimeError(self._not_built)
        return self.index.space

    @property
    def n_candidates(self) -> int:
        """Number of indexed candidate pairs (0 before build)."""
        return 0 if self.index is None else self.index.n_candidates

    def memory_bytes(self) -> int:
        """Resident bytes of the built index (0 before build)."""
        return 0 if self.index is None else self.index.memory_bytes()

    def extend(self, space: PairSpace, n_old: int) -> None:
        """Incrementally absorb pairs ``[n_old:]`` of ``space``.

        Single-writer: must not run concurrently with queries (the
        engine holds its build lock around this).
        """
        if self.index is None:
            raise RuntimeError(self._not_built)
        self.index.extend(space, n_old)

    def query(
        self, q: np.ndarray, n: int, exclude: int | None = None
    ) -> RetrievalResult:
        """Exact top-n for one extended query (read-only, thread-safe)."""
        if self.index is None:
            raise RuntimeError(self._not_built)
        return self.index.query_extended(q, n, exclude_partner=exclude)


@register_backend("bruteforce")
class BruteForceBackend(_IndexBackend):
    """Full-scan retrieval (GEM-BF), factored; a batch shares one pass."""

    def build(self, space: PairSpace) -> None:
        """Index ``space`` for full scans (no derived state to build)."""
        self.index = BruteForceIndex(space)

    def query_batch(
        self, queries: np.ndarray, n: int, excludes: np.ndarray
    ) -> list[RetrievalResult]:
        """Answer a whole query batch with one shared pass over the pairs."""
        return scan_top_n_batch(self.space, queries, n, excludes.tolist())


@register_backend("ta")
class ThresholdAlgorithmBackend(_IndexBackend):
    """Fagin's TA over per-dimension sorted lists (GEM-TA).

    Advertises ``supports_budget``: a ``budget_s``-capped query checks
    the deadline once per scan round and returns best-so-far with
    ``exact=False`` on expiry (see
    :meth:`repro.online.ta.ThresholdAlgorithmIndex.query_extended`).
    """

    supports_budget = True

    def __init__(self, chunk: int = 64) -> None:
        super().__init__()
        self.chunk = chunk

    def build(self, space: PairSpace) -> None:
        """Build the per-dimension sorted access lists over ``space``."""
        self.index = ThresholdAlgorithmIndex(space)

    def query(
        self,
        q: np.ndarray,
        n: int,
        exclude: int | None = None,
        budget_s: float | None = None,
    ) -> RetrievalResult:
        """Top-n via TA; exact unless ``budget_s`` expires mid-scan."""
        if self.index is None:
            raise RuntimeError(self._not_built)
        return self.index.query_extended(
            q,
            n,
            exclude_partner=exclude,
            chunk=self.chunk,
            budget_s=budget_s,
        )


@register_backend("ivf")
class IVFBackend(_IndexBackend):
    """Clustered inverted-file retrieval (sublinear, recall-bounded).

    The first registered backend whose answers are *approximate by
    configuration*: queries scan only the ``nprobe`` nearest coarse
    clusters, so ``RetrievalResult.exact`` is ``False`` unless the probe
    covered the whole space (``nprobe == n_clusters`` reproduces brute
    force bit-for-bit — see :mod:`repro.online.ivf`).  ``build`` /
    ``extend`` follow the single-writer contract; queries are read-only
    and thread-safe.  Construction knobs (cluster count, probe width,
    k-means seed) are fixed per instance; the engine surfaces them as
    ``ivf_clusters`` / ``ivf_nprobe``.
    """

    def __init__(
        self,
        n_clusters: int | None = None,
        nprobe: int | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.n_clusters = n_clusters
        self.nprobe = nprobe
        self.seed = seed

    def build(self, space: PairSpace) -> None:
        """Train the coarse quantizer and lay out the cluster blocks."""
        self.index = IVFIndex(
            space,
            n_clusters=self.n_clusters,
            nprobe=self.nprobe,
            seed=self.seed,
        )


@register_backend("bruteforce-pruned")
class PrunedBruteForceBackend(BruteForceBackend):
    """Brute force over a pruned space (engine picks a default k)."""

    prunes_by_default = True


@register_backend("ta-pruned")
class PrunedThresholdAlgorithmBackend(ThresholdAlgorithmBackend):
    """TA over a pruned space (engine picks a default k)."""

    prunes_by_default = True
