"""Memory-mapped embedding storage shared across processes.

Everything built so far holds the five embedding matrices as private
in-process NumPy arrays, which puts two walls in front of the ROADMAP's
million-user target: Hogwild training had to copy the matrices into
``multiprocessing.shared_memory`` blocks, and every serving shard would
need its own full copy of the user matrix.  This module replaces both
with **one on-disk copy** behind ``np.memmap``: writers (the trainer,
Hogwild workers) and readers (serving shards) map the same files, the OS
page cache deduplicates the resident pages, and no process ever holds a
private materialised copy of the full matrices.

:class:`MemmapStore` is the explicit **writer/reader lifecycle** over a
directory of memmap files (each mapped by a :class:`MemmapBackend`) plus
a versioned JSON manifest::

    create -> train-write -> freeze -> serve

``create`` opens the store writable (state ``"write"``); training
processes attach with ``open(dir, writable=True)`` and mutate the
matrices in place (the REP005 write-confinement rule still holds: the
only code that *writes embedding values* through these views is the
trainer and the fold-in optimiser — this module only allocates, copies
whole matrices in under :meth:`MemmapStore.load_from`, and hands out
views).  ``freeze`` flushes dirty pages, stamps the embedding version,
and flips the manifest to ``"frozen"``; from then on only read-only
opens succeed, which is what serving shards use.  Opening a non-frozen
store read-only, a frozen store writable, a manifest with an unknown
format version, or a store whose data files do not match the manifest's
shapes all fail loudly (``tests/test_store.py`` has the rejection
matrix).

The directory is the repository's one on-disk format for trained state:
:meth:`repro.core.gem.GEM.save` writes a frozen store, and
:func:`repro.online.persistence.save_engine` adds the serving artefact
(``engine.json``) beside the matrices.  Publishing is crash-consistent:
``create`` writes its write-state manifest before it allocates any
``.dat``, and ``freeze`` fsyncs the data before the frozen manifest is
swapped in, so after a crash a serving open finds the previous frozen
generation, the new one, or a store it refuses; ``create`` replaces each
``.dat`` rather than truncating it, so a process still mapping the
previous generation keeps reading it whole.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core.embeddings import EmbeddingSet
from repro.ebsn.graphs import EntityType
from repro.utils.files import fsync_path, write_text_atomic

#: On-disk manifest format; bump on incompatible layout changes.
STORE_FORMAT_VERSION = 1

#: Manifest file name inside a store directory.
MANIFEST_NAME = "manifest.json"

#: Lifecycle states recorded in the manifest.
STATE_WRITE = "write"
STATE_FROZEN = "frozen"

#: Rows per chunk when filling a backed matrix (bounds transient memory
#: during random initialisation of million-row matrices).
_FILL_CHUNK_ROWS = 65_536


class MemmapBackend:
    """Allocates each matrix as ``<directory>/<name>.dat`` via ``np.memmap``.

    ``mode`` follows ``np.memmap``: ``"w+"`` creates/overwrites files,
    ``"r+"`` maps existing files writable, ``"r"`` maps them read-only.
    All maps handed out are tracked so :meth:`flush` can sync them.
    """

    def __init__(self, directory: "str | Path", *, mode: str = "w+") -> None:
        if mode not in ("w+", "r+", "r"):
            raise ValueError(f"mode must be one of w+/r+/r, got {mode!r}")
        self.directory = Path(directory)
        self.mode = mode
        self._maps: list[np.memmap] = []
        if mode == "w+":
            self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, name: str) -> Path:
        """The backing file for matrix ``name``."""
        return self.directory / f"{name}.dat"

    def allocate(
        self, name: str, shape: tuple[int, int], dtype: str
    ) -> np.ndarray:
        """Map ``<name>.dat`` with this backend's mode and shape.

        ``np.memmap`` refuses zero-length maps, so zero-row matrices are
        returned as ordinary empty arrays (nothing to share).
        """
        if shape[0] == 0 or shape[1] == 0:
            return np.zeros(shape, dtype=np.dtype(dtype))
        path = self.path_for(name)
        if self.mode == "w+":  # a new file: old maps keep their pages
            path.unlink(missing_ok=True)
        elif not path.exists():
            raise FileNotFoundError(f"store file missing: {path}")
        array = np.memmap(path, dtype=np.dtype(dtype), mode=self.mode, shape=shape)
        self._maps.append(array)
        return array

    def flush(self) -> None:
        """Sync every map handed out so far to disk."""
        # replint: allow-loop(one flush per entity matrix, <= 5 iterations)
        for m in self._maps:
            m.flush()


@dataclass(slots=True)
class StoreManifest:
    """The JSON sidecar describing a store directory.

    ``counts`` maps :class:`EntityType` values to row counts; ``state``
    is the lifecycle phase (:data:`STATE_WRITE` / :data:`STATE_FROZEN`);
    ``embedding_version`` is stamped at :meth:`MemmapStore.freeze` so
    serving replicas can match the store against derived indices;
    ``generation`` is the previous manifest's + 1 at every
    :meth:`MemmapStore.create` in the directory (0 when unrecorded), so
    an artefact can tell its matrices from a later store's.
    """

    format_version: int
    state: str
    dim: int
    dtype: str
    counts: dict[str, int]
    embedding_version: int = 0
    generation: int = 0

    def save(self, directory: Path) -> None:
        """Write the manifest into ``directory`` (one rename: a reader or a
        failed write sees the previous manifest, never half of this one)."""
        payload = json.dumps(asdict(self), indent=2, sort_keys=True)
        write_text_atomic(directory / MANIFEST_NAME, payload + "\n")

    @classmethod
    def load(cls, directory: Path) -> "StoreManifest":
        """Read and validate the manifest of ``directory``."""
        path = directory / MANIFEST_NAME
        if not path.exists():
            raise ValueError(f"{directory} is not an embedding store "
                             f"(missing {MANIFEST_NAME})")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupted store manifest {path}: {exc}") from exc
        required = {"format_version", "state", "dim", "dtype", "counts"}
        if not isinstance(raw, dict) or not required <= set(raw):
            raise ValueError(f"corrupted store manifest {path}: "
                             f"missing {sorted(required - set(raw))}")
        if raw["format_version"] != STORE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported store format {raw['format_version']} "
                f"(expected {STORE_FORMAT_VERSION})"
            )
        if raw["state"] not in (STATE_WRITE, STATE_FROZEN):
            raise ValueError(f"unknown store state {raw['state']!r}")
        return cls(
            format_version=int(raw["format_version"]),
            state=str(raw["state"]),
            dim=int(raw["dim"]),
            dtype=str(raw["dtype"]),
            counts={str(k): int(v) for k, v in raw["counts"].items()},
            embedding_version=int(raw.get("embedding_version", 0)),
            generation=int(raw.get("generation", 0)),
        )


class MemmapStore:
    """One on-disk embedding copy with an explicit writer/reader lifecycle.

    Construction goes through :meth:`create` (a fresh writable store),
    :meth:`from_embeddings` (create + copy an existing
    :class:`EmbeddingSet` in), or :meth:`open` (attach to an existing
    directory).  Lifecycle::

        store = MemmapStore.create(dir, counts, dim)   # state: write
        train(store.embeddings())                      # in-place updates
        store.freeze(embedding_version=1)              # flush + seal
        served = MemmapStore.open(dir).embeddings()    # read-only views

    **Sharing:** any number of processes may ``open(dir, writable=True)``
    while the store is in the write state (Hogwild's data-race-tolerant
    regime — all writers map the same pages); once frozen, any number of
    reader processes share the one copy through the page cache.

    **Write confinement (REP005):** this class allocates and copies
    whole matrices; element-level writes remain the exclusive business
    of ``core/trainer.py`` and ``core/fold_in.py``, which operate on the
    views :meth:`embeddings` returns.
    """

    def __init__(
        self,
        directory: "str | Path",
        manifest: StoreManifest,
        *,
        writable: bool,
        create: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.manifest = manifest
        self.writable = bool(writable)
        mode = "w+" if create else ("r+" if writable else "r")
        self._backend = MemmapBackend(self.directory, mode=mode)
        self._matrices: dict[EntityType, np.ndarray] = {}
        if create:
            # The write-state manifest lands before "w+" truncates any
            # .dat: a crash mid-rewrite leaves a store every serving open
            # refuses, never a "frozen" manifest over torn data.
            self.manifest.save(self.directory)
        # replint: allow-loop(one map per entity type, <= 5 iterations)
        for name, count in sorted(self.manifest.counts.items()):
            etype = EntityType(name)
            self._matrices[etype] = self._backend.allocate(
                name, (count, self.manifest.dim), self.manifest.dtype
            )

    # ------------------------------------------------------------------
    # constructors
    @classmethod
    def create(
        cls,
        directory: "str | Path",
        entity_counts: dict[EntityType, int],
        dim: int,
        *,
        dtype: str = "float32",
    ) -> "MemmapStore":
        """A fresh zero-filled store in the write state."""
        if dim <= 0:
            raise ValueError(f"dim must be > 0, got {dim}")
        if np.dtype(dtype) != np.float32:
            raise ValueError(
                f"embedding stores are float32 (got {dtype!r}); see "
                "EmbeddingSet's dtype contract"
            )
        counts = {etype.value: int(n) for etype, n in entity_counts.items()}
        if any(n < 0 for n in counts.values()):
            raise ValueError(f"negative entity count in {counts}")
        try:
            previous = StoreManifest.load(Path(directory)).generation
        except ValueError:  # no store here yet, or an unreadable one
            previous = 0
        manifest = StoreManifest(
            format_version=STORE_FORMAT_VERSION,
            state=STATE_WRITE,
            dim=int(dim),
            dtype=str(np.dtype(dtype)),
            counts=counts,
            generation=previous + 1,
        )
        Path(directory).mkdir(parents=True, exist_ok=True)
        return cls(directory, manifest, writable=True, create=True)

    @classmethod
    def from_embeddings(
        cls, directory: "str | Path", embeddings: EmbeddingSet
    ) -> "MemmapStore":
        """Create a writable store holding a copy of ``embeddings``."""
        counts = {e: int(m.shape[0]) for e, m in embeddings.matrices.items()}
        store = cls.create(directory, counts, embeddings.dim)
        store.load_from(embeddings)
        return store

    @classmethod
    def open(
        cls, directory: "str | Path", *, writable: bool = False
    ) -> "MemmapStore":
        """Attach to an existing store directory.

        ``writable=True`` requires the store to still be in the write
        state (training attachment); the default read-only open requires
        it to be frozen (serving attachment) — mixing the two is exactly
        the torn-read hazard the lifecycle exists to prevent.  Data
        files whose sizes do not match the manifest fail here too.
        """
        directory = Path(directory)
        manifest = StoreManifest.load(directory)
        if writable and manifest.state != STATE_WRITE:
            raise ValueError(
                f"store {directory} is {manifest.state}; writable opens "
                "require the write state (create a new store to retrain)"
            )
        if not writable and manifest.state != STATE_FROZEN:
            raise ValueError(
                f"store {directory} is {manifest.state}; serving opens "
                "require a frozen store (call freeze() after training)"
            )
        itemsize = np.dtype(manifest.dtype).itemsize
        # replint: allow-loop(one size check per entity type, <= 5 iterations)
        for name, count in sorted(manifest.counts.items()):
            if count == 0 or manifest.dim == 0:
                continue
            path = directory / f"{name}.dat"
            expected = count * manifest.dim * itemsize
            actual = path.stat().st_size if path.exists() else -1
            if actual != expected:
                raise ValueError(
                    f"corrupted store: {path} is {actual} bytes, manifest "
                    f"says {expected} ({count} x {manifest.dim} {manifest.dtype})"
                )
        return cls(directory, manifest, writable=writable)

    # ------------------------------------------------------------------
    # lifecycle
    @property
    def state(self) -> str:
        """Current lifecycle state (``"write"`` or ``"frozen"``)."""
        return self.manifest.state

    @property
    def embedding_version(self) -> int:
        """The embedding version stamped at :meth:`freeze` (0 before)."""
        return self.manifest.embedding_version

    @property
    def generation(self) -> int:
        """Which :meth:`create` in this directory wrote the matrices."""
        return self.manifest.generation

    @property
    def dim(self) -> int:
        """Embedding dimensionality K."""
        return self.manifest.dim

    def entity_counts(self) -> dict[EntityType, int]:
        """Rows per entity type."""
        return {EntityType(k): v for k, v in self.manifest.counts.items()}

    def embeddings(self) -> EmbeddingSet:
        """The stored matrices as an :class:`EmbeddingSet` of live views.

        Writable views in the write state (writes land in the shared
        file), read-only views after :meth:`freeze` / read-only opens.
        """
        return EmbeddingSet(matrices=dict(self._matrices), dim=self.manifest.dim)

    def load_from(self, embeddings: EmbeddingSet) -> None:
        """Copy ``embeddings`` wholesale into the store (write state only)."""
        self._require_writable()
        if embeddings.dim != self.manifest.dim:
            raise ValueError(
                f"dim mismatch: store has {self.manifest.dim}, "
                f"embeddings have {embeddings.dim}"
            )
        if {e.value for e in embeddings.matrices} != set(self.manifest.counts):
            raise ValueError(
                "entity types differ from the store manifest; create a "
                "new store for a different entity layout"
            )
        # replint: allow-loop(one copy per entity type, <= 5 iterations)
        for etype, source in embeddings.matrices.items():
            target = self._matrices[etype]
            if target.shape != source.shape:
                raise ValueError(
                    f"{etype}: store shape {target.shape} != "
                    f"embedding shape {source.shape}"
                )
            np.copyto(target, source)

    def fill_random(
        self,
        *,
        scale: float = 0.01,
        nonnegative: bool = True,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        """Gaussian-initialise the store in place, chunked by rows.

        Equivalent to :meth:`EmbeddingSet.random` called with the entity
        types in canonical (sorted-by-name) order, but never
        materialises more than :data:`_FILL_CHUNK_ROWS` rows of draws at
        a time — the path the million-user presets initialise through
        (chunked ``Generator.normal`` calls continue one stream, so the
        values are bit-identical to a whole-matrix draw).
        """
        self._require_writable()
        from repro.utils.rng import ensure_rng

        generator = ensure_rng(rng)
        if scale <= 0:
            raise ValueError(f"scale must be > 0, got {scale}")
        # replint: allow-loop(chunked fill; bounds transient float64 memory)
        for _etype, target in sorted(
            self._matrices.items(), key=lambda kv: kv[0].value
        ):
            n = target.shape[0]
            for lo in range(0, n, _FILL_CHUNK_ROWS):
                hi = min(lo + _FILL_CHUNK_ROWS, n)
                chunk = generator.normal(
                    0.0, scale, size=(hi - lo, self.manifest.dim)
                ).astype(np.float32)
                if nonnegative:
                    np.abs(chunk, out=chunk)
                np.copyto(target[lo:hi], chunk)

    def flush(self) -> None:
        """Sync dirty pages of every matrix to disk."""
        self._backend.flush()

    def freeze(self, *, embedding_version: int = 1) -> None:
        """Flush, stamp ``embedding_version``, and seal the store.

        Durable in order: every ``.dat`` is flushed and fsynced, then the
        directory, and only then is the frozen manifest swapped in, so a
        crash leaves the write-state store or the sealed one, whole.
        After this only read-only :meth:`open` succeeds; the in-process
        views of *this* instance are remapped read-only too, so a stray
        post-freeze write raises immediately instead of corrupting the
        served copy.
        """
        self._require_writable()
        if embedding_version < 0:
            raise ValueError(
                f"embedding_version must be >= 0, got {embedding_version}"
            )
        self.flush()
        # replint: allow-loop(one fsync per entity matrix, <= 5 iterations)
        for name, count in self.manifest.counts.items():
            if count and self.manifest.dim:
                fsync_path(self._backend.path_for(name))
        fsync_path(self.directory)
        self.manifest.state = STATE_FROZEN
        self.manifest.embedding_version = int(embedding_version)
        self.manifest.save(self.directory)
        self.writable = False
        reader = MemmapBackend(self.directory, mode="r")
        # replint: allow-loop(one remap per entity type, <= 5 iterations)
        for name, count in sorted(self.manifest.counts.items()):
            etype = EntityType(name)
            self._matrices[etype] = reader.allocate(
                name, (count, self.manifest.dim), self.manifest.dtype
            )
        self._backend = reader

    def nbytes(self) -> int:
        """Total on-disk bytes of the stored matrices."""
        itemsize = np.dtype(self.manifest.dtype).itemsize
        return sum(
            count * self.manifest.dim * itemsize
            for count in self.manifest.counts.values()
        )

    def _require_writable(self) -> None:
        if not self.writable or self.manifest.state != STATE_WRITE:
            raise ValueError(
                f"store {self.directory} is not writable "
                f"(state={self.manifest.state})"
            )
