"""Fast online event-partner recommendation (Section IV).

Space transformation into the 2K+1 inner-product space, top-k per-partner
pruning, and the TA-based exact top-n retrieval (plus the brute-force
baseline used in Table VI and as a correctness oracle).
"""

from repro.online.bruteforce import BruteForceIndex
from repro.online.pruning import build_pruned_pair_space, top_k_events_per_partner
from repro.online.persistence import load_engine, save_engine
from repro.online.ta import RetrievalResult, ThresholdAlgorithmIndex
from repro.online.tasks import (
    recommend_events,
    recommend_participants,
    recommend_partners,
)
from repro.online.transform import (
    PairSpace,
    query_vector,
    transform_all_pairs,
    transform_pairs,
)

__all__ = [
    "BruteForceIndex",
    "PairSpace",
    "RetrievalResult",
    "ThresholdAlgorithmIndex",
    "build_pruned_pair_space",
    "load_engine",
    "save_engine",
    "query_vector",
    "recommend_events",
    "recommend_participants",
    "recommend_partners",
    "top_k_events_per_partner",
    "transform_all_pairs",
    "transform_pairs",
]
