"""Persistence for the offline-built online recommendation index.

The Section IV pipeline is offline/online: the space transformation,
pruning and per-dimension sorted lists are computed ahead of time, the
query path only reads them.  A deployed service therefore wants to build
the index once (e.g. nightly, after folding in the day's new events) and
ship it to serving replicas; these helpers round-trip the serving
engine through a single ``.npz`` file.  The pair space is derived data:
a loaded engine rebuilds it lazily, on first use.

Every artefact carries the **embedding version** it was materialised
from (see :attr:`repro.online.transform.PairSpace.version`), so replicas
can match a shipped index against the embeddings that produced it and
refuse to mix versions.

There is one engine artefact.  :func:`save_engine` records the candidate
sets and every constructor value that shapes the index or the ladder;
the embedding matrices are embedded in the file, or — ``store=``, the
million-user path — stay in the frozen
:class:`~repro.core.store.MemmapStore` the engine maps and are referenced
by directory.  :func:`load_engine` then re-opens that store read-only and
**refuses** both corrupted stores (bad manifest, truncated ``.dat``
files — the store's own open-time validation) and stale artefacts whose
recorded embedding version no longer matches the store's.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.store import MemmapStore
from repro.utils.files import open_atomic

if TYPE_CHECKING:
    # repro.serving builds on repro.online; the engine classes are
    # imported where they are constructed so this package imports first.
    from repro.serving.engine import ServingEngine

_ENGINE_FORMAT_KEY = "__serving_engine_format__"
#: 2 = one artefact for embedded and store-backed engines, carrying the
#: ladder knobs; version-1 files of either earlier kind are refused.
_ENGINE_FORMAT = 2
#: The constructor values an artefact carries besides the candidates.
_ENGINE_OPTIONS = (
    "top_k_events",
    "ivf_clusters",
    "ivf_nprobe",
    "cache_size",
    "stale_cache_size",
)


def _save_npz(path: "str | Path", arrays: dict[str, np.ndarray]) -> Path:
    """Write ``arrays`` as one compressed ``.npz``, swapped in by a rename.

    A reader — or a write that fails half-way — finds the previous
    artefact or the new one, never a truncated archive.  NumPy appends
    ``.npz`` to a *path* without it but not to an open file, so that rule
    is applied here; the path returned is the one given.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    named = path.name if path.name.endswith(".npz") else path.name + ".npz"
    with open_atomic(path.with_name(named)) as handle:
        np.savez_compressed(handle, **arrays)
    return path


def save_engine(
    engine: "ServingEngine",
    path: "str | Path",
    *,
    store: MemmapStore | None = None,
) -> Path:
    """Serialise a :class:`ServingEngine` (candidates + config [+ vectors]).

    The index is derived data and is rebuilt lazily on load; what is
    written is what the constructor needs to rebuild the same index and
    the same ladder (backend, pruning level, ivf knobs, cache sizes, the
    shard count of a :class:`~repro.serving.sharded.ShardedServingEngine`)
    and the embedding version, so replicas serve the version the builder
    produced.

    Without ``store`` the embedding matrices are copied into the
    artefact.  With ``store`` — the frozen store the engine maps — they
    are **not**: at a million users they already live in its mapped
    files, and every replica maps that one on-disk copy; the artefact
    records the store directory and the store's stamped embedding
    version, which :func:`load_engine` enforces.  A still-writable store
    has no stable version to pin the artefact to and is refused.
    """
    if store is not None and store.state != "frozen":
        raise ValueError(
            f"store at {store.directory} is in state {store.state!r}; "
            "freeze() it before persisting a serving artefact"
        )
    config = {name: getattr(engine, name) for name in _ENGINE_OPTIONS}
    config["backend"] = engine.backend_name
    config["n_shards"] = getattr(engine, "n_shards", None)
    config["format_version"] = _ENGINE_FORMAT
    arrays = {
        "candidate_events": np.asarray(engine.candidate_events, dtype=np.int64),
        "candidate_partners": np.asarray(engine.candidate_partners, dtype=np.int64),
    }
    if store is None:
        config["embedding_version"] = engine.version
        arrays["user_vectors"] = engine.user_vectors
        arrays["event_vectors"] = engine.event_vectors
    else:
        config["embedding_version"] = store.embedding_version
        config["store_directory"] = str(store.directory)
    arrays["config"] = np.frombuffer(
        json.dumps(config).encode("utf-8"), dtype=np.uint8
    )
    arrays[_ENGINE_FORMAT_KEY] = np.array([_ENGINE_FORMAT], dtype=np.int64)
    return _save_npz(path, arrays)


def load_engine(
    path: "str | Path",
    *,
    store_dir: "str | Path | None" = None,
    n_shards: int | None = None,
) -> "ServingEngine":
    """Rebuild a serving engine written by :func:`save_engine`.

    The returned engine is *cold* (lazy): the first query rebuilds the
    index, under the persisted embedding version.  ``n_shards``
    overrides the persisted shard count (``None`` keeps it), letting one
    artefact drive differently-sharded replicas.

    A store-backed artefact re-opens its :class:`MemmapStore` read-only
    (pass ``store_dir`` when the replica mounts the store somewhere
    else) and serves zero-copy views of it.  Two classes of artefact are
    then rejected with :class:`ValueError`:

    * **corrupted stores** — a bad manifest or truncated ``.dat`` file
      fails the store's own open-time validation;
    * **stale artefacts** — the store's stamped embedding version no
      longer matches the one the artefact was built against (e.g. the
      store was re-frozen after a retrain), so the candidate sets and
      any cached results would mix embedding versions.
    """
    from repro.serving.engine import ServingEngine
    from repro.serving.sharded import ShardedServingEngine

    with np.load(Path(path)) as data:
        if "config" not in data.files:
            raise ValueError(f"{path} is not a recognised index file")
        config = json.loads(bytes(data["config"].tobytes()).decode("utf-8"))
        if config.get("format_version") != _ENGINE_FORMAT:
            raise ValueError(
                f"unsupported index format {config.get('format_version')} "
                f"(expected {_ENGINE_FORMAT})"
            )
        embedded = "store_directory" not in config
        required = {"candidate_events", "candidate_partners", _ENGINE_FORMAT_KEY}
        if embedded:
            required |= {"user_vectors", "event_vectors"}
        if not required <= set(data.files):
            raise ValueError(f"{path} is not a recognised index file")
        arrays = {name: data[name].copy() for name in required}

    version = int(config["embedding_version"])
    if embedded:
        users, events = arrays["user_vectors"], arrays["event_vectors"]
    else:
        directory = Path(
            store_dir if store_dir is not None else config["store_directory"]
        )
        store = MemmapStore.open(directory)
        if store.embedding_version != version:
            raise ValueError(
                f"stale serving artefact: built against embedding version "
                f"{version}, but the store at {directory} now serves "
                f"version {store.embedding_version} — rebuild the index"
            )
        embeddings = store.embeddings()
        users, events = embeddings.users, embeddings.events

    options = {name: config[name] for name in _ENGINE_OPTIONS}
    options["backend"] = config["backend"]
    options["candidate_partners"] = arrays["candidate_partners"]
    shards = n_shards if n_shards is not None else config["n_shards"]
    engine = (
        ServingEngine(users, events, arrays["candidate_events"], **options)
        if shards is None
        else ShardedServingEngine(
            users, events, arrays["candidate_events"], n_shards=int(shards), **options
        )
    )
    # Stamp the still-cold engine: its first build materialises the
    # persisted version, not a fresh engine's 1.
    engine.index.restamp(version)
    return engine
