"""repro — reproduction of "Joint Event-Partner Recommendation in
Event-based Social Networks" (Yin, Zou, Nguyen, Huang, Zhou; ICDE 2018).

The package provides:

* :mod:`repro.ebsn`       — the EBSN substrate (entities, DBSCAN regions,
  33 time slots, TF-IDF text, the five bipartite graphs of Defs 2-6);
* :mod:`repro.data`       — a synthetic Douban-Event-like dataset
  generator with city presets, chronological splits and persistence;
* :mod:`repro.core`       — the GEM embedding model (Section III):
  bidirectional negative sampling, the adaptive adversarial noise sampler
  (Algorithm 1), joint multi-graph training (Algorithm 2), Hogwild
  parallel training, and Eqn 8 triple scoring;
* :mod:`repro.baselines`  — PCMF, CBPF, PER, PTE, CFAPR-E reimplemented;
* :mod:`repro.online`     — the 2K+1 space transformation, top-k pruning
  and TA-based exact top-n retrieval (Section IV);
* :mod:`repro.serving`    — the unified serving engine: pluggable
  retrieval backends, versioned indices, incremental refresh,
  concurrent deadline-scoped queries, caching and query telemetry;
* :mod:`repro.evaluation` — the paper's Accuracy@n protocols (Section V-B);
* :mod:`repro.experiments`— one runner per table/figure of Section V.

Quickstart::

    from repro.data import make_dataset, chronological_split
    from repro.core import GEM
    from repro.serving import ServingEngine
    import numpy as np

    ebsn, _ = make_dataset("beijing-small")
    split = chronological_split(ebsn)
    model = GEM.gem_a(dim=32, n_samples=2_000_000).fit(split.training_bundle())
    engine = ServingEngine(
        model.user_vectors, model.event_vectors,
        candidate_events=np.array(sorted(split.test_events)),
        top_k_events=20,
    )
    print(engine.recommend(user=0, n=10))
"""

__version__ = "1.0.0"

from repro.core import GEM
from repro.data import chronological_split, make_dataset
from repro.serving import ServingEngine

__all__ = [
    "GEM",
    "ServingEngine",
    "chronological_split",
    "make_dataset",
    "__version__",
]
