"""Persistence for the offline-built online recommendation index.

The Section IV pipeline is offline/online: the space transformation,
pruning and per-dimension sorted lists are computed ahead of time, the
query path only reads them.  A deployed service therefore wants to build
the index once (e.g. nightly, after folding in the day's new events) and
ship it to serving replicas; these helpers round-trip a
:class:`PairSpace` — and the serving engine built on it — through a
single ``.npz`` file.

Every artefact carries the **embedding version** it was materialised
from (see :attr:`repro.online.transform.PairSpace.version`), so replicas
can match a shipped index against the embeddings that produced it and
refuse to mix versions.

Store-backed engines (the million-user path) persist differently:
:func:`save_store_engine` writes only the candidate sets and config —
the embedding matrices stay in the frozen
:class:`~repro.core.store.MemmapStore` the engine maps, referenced by
directory.  :func:`load_store_engine` re-opens that store read-only and
**refuses** both corrupted stores (bad manifest, truncated ``.dat``
files — the store's own open-time validation) and stale artefacts whose
recorded embedding version no longer matches the store's.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.store import MemmapStore
from repro.online.transform import PairSpace

if TYPE_CHECKING:
    # repro.serving builds on repro.online; the engine classes are
    # imported where they are constructed so this package imports first.
    from repro.serving.engine import ServingEngine

_FORMAT_KEY = "__pair_space_format__"
#: 2 = the factored arrays; version-1 files (dense points) are refused.
_PAIR_SPACE_FORMAT = 2
#: What a pair-space file holds: every array field of the dataclass.
_PAIR_SPACE_ARRAYS = tuple(
    f.name for f in dataclasses.fields(PairSpace) if f.name != "version"
)
_FORMAT_VERSION = 1
_ENGINE_FORMAT_KEY = "__serving_engine_format__"
_STORE_ENGINE_FORMAT_KEY = "__store_engine_format__"


def save_pair_space(space: PairSpace, path: "str | Path") -> Path:
    """Serialise a pair space (its factored arrays + version)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        embedding_version=np.array([space.version], dtype=np.int64),
        **{name: getattr(space, name) for name in _PAIR_SPACE_ARRAYS},
        **{_FORMAT_KEY: np.array([_PAIR_SPACE_FORMAT], dtype=np.int64)},
    )
    return path


def load_pair_space(path: "str | Path") -> PairSpace:
    """Load a pair space written by :func:`save_pair_space`."""
    with np.load(Path(path)) as data:
        if _FORMAT_KEY not in data.files:
            raise ValueError(f"{path} is not a pair-space file")
        version = int(data[_FORMAT_KEY][0])
        if version != _PAIR_SPACE_FORMAT:
            raise ValueError(
                f"unsupported pair-space format {version} "
                f"(expected {_PAIR_SPACE_FORMAT})"
            )
        return PairSpace(
            **{name: data[name] for name in _PAIR_SPACE_ARRAYS},
            version=int(data["embedding_version"][0]),
        )


def _load_npz_config(data, required: set[str], path) -> dict:
    if not required <= set(data.files):
        raise ValueError(f"{path} is not a recognised index file")
    config = json.loads(bytes(data["config"].tobytes()).decode("utf-8"))
    version = config.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported index format {version} "
            f"(expected {_FORMAT_VERSION})"
        )
    return config


def save_engine(engine: "ServingEngine", path: "str | Path") -> Path:
    """Serialise a :class:`ServingEngine` (vectors + candidates + config).

    The index itself is derived data and is rebuilt lazily on load; the
    embedding version tag survives the round trip so replicas serve the
    same version the builder produced.
    """
    config = {
        "backend": engine.backend_name,
        "top_k_events": engine.top_k_events,
        "cache_size": engine.cache_size,
        "format_version": _FORMAT_VERSION,
        "embedding_version": engine.version,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        user_vectors=engine.user_vectors,
        event_vectors=engine.event_vectors,
        candidate_events=engine.candidate_events,
        candidate_partners=engine.candidate_partners,
        config=np.frombuffer(json.dumps(config).encode("utf-8"), dtype=np.uint8),
        **{_ENGINE_FORMAT_KEY: np.array([_FORMAT_VERSION], dtype=np.int64)},
    )
    return path


def load_engine(path: "str | Path") -> "ServingEngine":
    """Rebuild a serving engine written by :func:`save_engine`.

    The returned engine is *cold* (lazy): the first query rebuilds the
    index, under the persisted embedding version.
    """
    from repro.serving.engine import ServingEngine

    with np.load(Path(path)) as data:
        required = {
            "user_vectors",
            "event_vectors",
            "candidate_events",
            "candidate_partners",
            "config",
            _ENGINE_FORMAT_KEY,
        }
        config = _load_npz_config(data, required, path)
        engine = ServingEngine(
            data["user_vectors"].copy(),
            data["event_vectors"].copy(),
            data["candidate_events"].copy(),
            candidate_partners=data["candidate_partners"].copy(),
            top_k_events=config["top_k_events"],
            backend=config["backend"],
            cache_size=config["cache_size"],
        )
        _restore_version(engine, config.get("embedding_version", 1))
        return engine


def _restore_version(engine: "ServingEngine", version: int) -> None:
    """Stamp a freshly constructed (still cold) engine with ``version``."""
    engine._version = int(version)


def save_store_engine(
    engine: "ServingEngine",
    store: MemmapStore,
    path: "str | Path",
) -> Path:
    """Persist a store-backed engine *by reference* to its memmap store.

    Unlike :func:`save_engine`, the embedding matrices are **not**
    copied into the artefact — at a million users they already live in
    ``store``'s frozen mapped files, and every serving replica maps that
    one on-disk copy.  The artefact records the candidate sets, the
    engine config (including shard count for a
    :class:`~repro.serving.sharded.ShardedServingEngine`), the store
    directory, and the store's stamped embedding version, which
    :func:`load_store_engine` enforces.

    The store must be frozen (serving state); a still-writable store has
    no stable embedding version to pin the artefact to.
    """
    if store.state != "frozen":
        raise ValueError(
            f"store at {store.directory} is in state {store.state!r}; "
            "freeze() it before persisting a serving artefact"
        )
    from repro.serving.sharded import ShardedServingEngine

    sharded = isinstance(engine, ShardedServingEngine)
    config = {
        "backend": engine.backend_name,
        "top_k_events": engine.top_k_events,
        "cache_size": engine.cache_size,
        "n_shards": engine.n_shards if sharded else None,
        "store_directory": str(store.directory),
        "format_version": _FORMAT_VERSION,
        "embedding_version": store.embedding_version,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        candidate_events=np.asarray(engine.candidate_events, dtype=np.int64),
        candidate_partners=np.asarray(
            engine.candidate_partners, dtype=np.int64
        ),
        config=np.frombuffer(
            json.dumps(config).encode("utf-8"), dtype=np.uint8
        ),
        **{
            _STORE_ENGINE_FORMAT_KEY: np.array(
                [_FORMAT_VERSION], dtype=np.int64
            )
        },
    )
    return path


def load_store_engine(
    path: "str | Path",
    *,
    store_dir: "str | Path | None" = None,
    n_shards: int | None = None,
) -> "ServingEngine":
    """Rebuild a store-backed engine written by :func:`save_store_engine`.

    Re-opens the referenced :class:`MemmapStore` read-only (pass
    ``store_dir`` when the replica mounts the store somewhere else) and
    rebuilds a *cold* engine over zero-copy views of it.  Two classes of
    artefact are rejected with :class:`ValueError`:

    * **corrupted stores** — a bad manifest or truncated ``.dat`` file
      fails the store's own open-time validation;
    * **stale artefacts** — the store's stamped embedding version no
      longer matches the one the artefact was built against (e.g. the
      store was re-frozen after a retrain), so the candidate sets and
      any cached results would mix embedding versions.

    ``n_shards`` overrides the persisted shard count (``None`` keeps
    it), letting one artefact drive differently-sharded replicas.
    """
    from repro.serving.engine import ServingEngine
    from repro.serving.sharded import ShardedServingEngine

    with np.load(Path(path)) as data:
        required = {
            "candidate_events",
            "candidate_partners",
            "config",
            _STORE_ENGINE_FORMAT_KEY,
        }
        config = _load_npz_config(data, required, path)
        candidate_events = data["candidate_events"].copy()
        candidate_partners = data["candidate_partners"].copy()

    directory = Path(
        store_dir if store_dir is not None else config["store_directory"]
    )
    store = MemmapStore.open(directory)
    persisted = int(config["embedding_version"])
    if store.embedding_version != persisted:
        raise ValueError(
            f"stale serving artefact: built against embedding version "
            f"{persisted}, but the store at {directory} now serves "
            f"version {store.embedding_version} — rebuild the index"
        )
    embeddings = store.embeddings()
    shards = n_shards if n_shards is not None else config.get("n_shards")
    if shards is not None:
        engine: ServingEngine = ShardedServingEngine(
            embeddings.users,
            embeddings.events,
            candidate_events,
            n_shards=int(shards),
            candidate_partners=candidate_partners,
            top_k_events=config["top_k_events"],
            backend=config["backend"],
            cache_size=config["cache_size"],
        )
    else:
        engine = ServingEngine(
            embeddings.users,
            embeddings.events,
            candidate_events,
            candidate_partners=candidate_partners,
            top_k_events=config["top_k_events"],
            backend=config["backend"],
            cache_size=config["cache_size"],
        )
    _restore_version(engine, persisted)
    return engine
