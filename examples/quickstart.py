"""Quickstart: train GEM and produce joint event-partner recommendations.

Walks the full pipeline of the paper in ~30 seconds:

1. generate a Douban-Event-like synthetic city (``beijing-small``);
2. split events chronologically 7:3 (held-out events are cold-start);
3. build the five bipartite graphs of Definitions 2-6;
4. train GEM-A (bidirectional adaptive negative sampling, Algorithm 2);
5. serve top-n event-partner pairs through the TA-based online engine.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import GEM
from repro.data import chronological_split, make_dataset
from repro.serving import ServingEngine


def main() -> None:
    print("1) generating the beijing-small synthetic EBSN ...")
    ebsn, _truth = make_dataset("beijing-small", seed=7)
    for label, value in ebsn.statistics().as_rows():
        print(f"     {label:<30} {value:>8,}")

    print("2) chronological 7:3 split (held-out events are cold-start) ...")
    split = chronological_split(ebsn)
    print(
        f"     train/val/test events: {len(split.train_events)}/"
        f"{len(split.val_events)}/{len(split.test_events)}"
    )

    print("3) building the five bipartite graphs ...")
    bundle = split.training_bundle()
    for name, count in bundle.edge_counts().items():
        print(f"     {name:<16} {count:>7,} edges")

    print("4) training GEM-A (this is the slow step) ...")
    model = GEM.gem_a(dim=32, n_samples=1_500_000, seed=7).fit(bundle)

    print("5) online joint event-partner recommendation (TA index) ...")
    candidate_events = np.array(sorted(split.test_events), dtype=np.int64)
    engine = ServingEngine(
        model.user_vectors,
        model.event_vectors,
        candidate_events,
        top_k_events=max(5, len(candidate_events) // 20),
        backend="ta",
    )
    user = 42
    print(f"   top-5 (event, partner) pairs for user {ebsn.users[user].user_id}:")
    for rec in engine.recommend(user, n=5):
        event = ebsn.events[rec.event]
        partner = ebsn.users[rec.partner]
        print(
            f"     event {event.event_id} ({event.title or 'untitled'}) "
            f"with {partner.user_id}   score={rec.score:.3f}"
        )


if __name__ == "__main__":
    main()
