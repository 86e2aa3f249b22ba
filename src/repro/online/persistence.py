"""Persistence for the offline-built online recommendation index.

The Section IV pipeline is offline/online: the space transformation,
pruning and per-dimension sorted lists are computed ahead of time, the
query path only reads them.  A deployed service therefore wants to build
the index once (e.g. nightly, after folding in the day's new events) and
ship it to serving replicas.  What ships is one directory: a frozen
:class:`~repro.core.store.MemmapStore` holding the embedding matrices,
and beside them ``engine.json``, the candidate sets and every
constructor value that shapes the index or the ladder.  The pair space
is derived data: a loaded engine rebuilds it lazily, on first use.

The artefact records the store's stamped **embedding version** (see
:attr:`repro.online.transform.PairSpace.version`) and its
**generation** (which ``create`` in the directory wrote the matrices).
:func:`load_engine` re-opens the store read-only and **refuses** both
corrupted stores (bad manifest, truncated ``.dat`` files — the store's
own open-time validation) and stale artefacts whose recorded version or
generation no longer matches the store's.  The artefact names no path,
so a copied or remounted directory serves as it is.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.store import MemmapStore
from repro.utils.files import write_text_atomic

if TYPE_CHECKING:
    # repro.serving builds on repro.online; the engine classes are
    # imported where they are constructed so this package imports first.
    from repro.serving.engine import ServingEngine

#: The artefact's file name inside the store directory.
ENGINE_NAME = "engine.json"
#: 3 = ``engine.json`` inside the store; the NumPy-archive layouts
#: before it (1 and 2) are refused.
_ENGINE_FORMAT = 3
#: The constructor values an artefact carries besides the candidates.
_ENGINE_OPTIONS = (
    "top_k_events",
    "ivf_clusters",
    "ivf_nprobe",
    "cache_size",
    "stale_cache_size",
)
_ENGINE_KEYS = frozenset(_ENGINE_OPTIONS) | {
    "backend",
    "n_shards",
    "embedding_version",
    "format_version",
    "candidate_events",
    "candidate_partners",
}


def save_engine(engine: "ServingEngine", store: MemmapStore) -> Path:
    """Write ``engine``'s artefact into the frozen ``store`` it serves.

    The index is derived data and is rebuilt lazily on load; what is
    written is what the constructor needs to rebuild the same index and
    the same ladder (backend, pruning level, ivf knobs, cache sizes, the
    shard count of a :class:`~repro.serving.sharded.ShardedServingEngine`)
    and the store's embedding version, so replicas serve the version the
    builder produced.  A still-writable store has no stable version to
    pin the artefact to and is refused.  Returns the store directory,
    which is what :func:`load_engine` reads.
    """
    if store.state != "frozen":
        raise ValueError(
            f"store at {store.directory} is in state {store.state!r}; "
            "freeze() it before persisting a serving artefact"
        )
    config = {name: getattr(engine, name) for name in _ENGINE_OPTIONS}
    config.update(
        backend=engine.backend_name,
        n_shards=getattr(engine, "n_shards", None),
        embedding_version=store.embedding_version,
        generation=store.generation,
        format_version=_ENGINE_FORMAT,
        candidate_events=np.asarray(engine.candidate_events, dtype=np.int64).tolist(),
        candidate_partners=np.asarray(
            engine.candidate_partners, dtype=np.int64
        ).tolist(),
    )
    write_text_atomic(store.directory / ENGINE_NAME, json.dumps(config))
    return store.directory


def load_engine(
    directory: "str | Path", *, n_shards: int | None = None
) -> "ServingEngine":
    """Rebuild the serving engine :func:`save_engine` wrote into ``directory``.

    The returned engine is *cold* (lazy): the first query rebuilds the
    index, under the persisted embedding version, over zero-copy views of
    the store.  ``n_shards`` overrides the persisted shard count
    (``None`` keeps it), letting one artefact drive differently-sharded
    replicas.  Raises :class:`ValueError` for a corrupted store, a
    missing, foreign or other-format artefact, and a stale one: the
    store's stamped embedding version or generation (0 when unrecorded)
    differs from the artefact's (e.g. the store was re-created after a
    retrain), so the candidate sets and any cached results would mix
    embedding versions.
    """
    from repro.serving.engine import ServingEngine
    from repro.serving.sharded import ShardedServingEngine

    directory = Path(directory)
    store = MemmapStore.open(directory)
    path = directory / ENGINE_NAME
    try:
        config = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path} is not a recognised index file: {exc}") from exc
    found = config.get("format_version") if isinstance(config, dict) else None
    if found != _ENGINE_FORMAT:
        raise ValueError(
            f"unsupported index format {found} (expected {_ENGINE_FORMAT})"
        )
    if not _ENGINE_KEYS <= set(config):
        raise ValueError(f"{path} is not a recognised index file")
    version = int(config["embedding_version"])
    if store.embedding_version != version:
        raise ValueError(
            f"stale serving artefact: built against embedding version "
            f"{version}, but the store at {directory} now serves "
            f"version {store.embedding_version} — rebuild the index"
        )
    if store.generation != config.get("generation", 0):
        raise ValueError(
            f"stale serving artefact: built over another store generation "
            f"than the one at {directory} — rebuild the index"
        )

    embeddings = store.embeddings()
    options = {name: config[name] for name in _ENGINE_OPTIONS}
    options["backend"] = config["backend"]
    options["candidate_partners"] = np.asarray(
        config["candidate_partners"], dtype=np.int64
    )
    candidates = np.asarray(config["candidate_events"], dtype=np.int64)
    shards = n_shards if n_shards is not None else config["n_shards"]
    engine = (
        ServingEngine(embeddings.users, embeddings.events, candidates, **options)
        if shards is None
        else ShardedServingEngine(
            embeddings.users,
            embeddings.events,
            candidates,
            n_shards=int(shards),
            **options,
        )
    )
    # Stamp the still-cold engine: its first build materialises the
    # persisted version, not a fresh engine's 1.
    engine.index.restamp(version)
    return engine
