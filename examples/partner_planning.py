"""Event-partner planning: "what should I attend, and with whom?"

The paper's motivating scenario (Fig 1): recommending an event *alone* is
often refused because the user has nobody to go with.  This example runs
the joint recommendation — scoring (event, partner) pairs by Eqn 8 — and
shows why the TA index matters for serving it online: the candidate space
is |users| x |new events| pairs, and TA answers exact top-n queries while
examining a small fraction of them.

It also contrasts scenario 1 (partners are existing friends) with the
potential-friends scenario 2, where the model must *predict* a future
friendship rather than read it off the social graph.

Run:  python examples/partner_planning.py
"""

import time

import numpy as np

from repro.core import GEM
from repro.data import chronological_split, make_dataset
from repro.evaluation import evaluate_event_partner
from repro.serving import ServingEngine


def main() -> None:
    ebsn, _ = make_dataset("beijing-small", seed=7)
    split = chronological_split(ebsn)
    triples = split.partner_triples()
    print(f"{len(triples)} ground-truth (user, partner, event) triples")

    print("training GEM-A on scenario 1 (full social graph) ...")
    model1 = GEM.gem_a(dim=32, n_samples=1_500_000, seed=7).fit(
        split.training_bundle()
    )
    print("training GEM-A on scenario 2 (test pairs' links removed) ...")
    excluded = split.scenario2_excluded_pairs(triples)
    model2 = GEM.gem_a(dim=32, n_samples=1_500_000, seed=7).fit(
        split.training_bundle(excluded_friend_pairs=excluded)
    )

    for label, model in (("friends", model1), ("potential friends", model2)):
        result = evaluate_event_partner(
            model, split, triples, max_cases=300, model_name=label, seed=3
        )
        accs = " ".join(
            f"Ac@{n}={result.accuracy[n]:.3f}" for n in (5, 10, 20)
        )
        print(f"  scenario [{label:<18}] {accs}")
    print("(the potential-friends scenario is harder, as in the paper's Fig 5)\n")

    # --- online serving: TA versus brute force -------------------------
    candidate_events = np.array(sorted(split.test_events), dtype=np.int64)
    k = max(5, len(candidate_events) // 10)
    print(
        f"online index over {len(candidate_events)} new events x "
        f"{ebsn.n_users} partners, pruned to top-{k} events per partner"
    )
    # Built up front and uncached, so the loops below time retrieval only.
    ta, bf = (
        ServingEngine(
            model1.user_vectors,
            model1.event_vectors,
            candidate_events,
            top_k_events=k,
            backend=backend,
            cache_size=0,
        ).warm()
        for backend in ("ta", "bruteforce")
    )

    users = np.random.default_rng(0).choice(ebsn.n_users, size=10, replace=False)
    t0 = time.perf_counter()
    fractions = [ta.query(int(u), 10).fraction_examined for u in users]
    ta_ms = (time.perf_counter() - t0) / len(users) * 1000
    t0 = time.perf_counter()
    for u in users:
        bf.query(int(u), 10)
    bf_ms = (time.perf_counter() - t0) / len(users) * 1000
    print(
        f"  GEM-TA: {ta_ms:.2f} ms/query, examining "
        f"{np.mean(fractions):.1%} of {ta.n_candidate_pairs:,} pairs"
    )
    print(f"  GEM-BF: {bf_ms:.2f} ms/query (scans everything)")

    user = int(users[0])
    print(f"\nplan for user {ebsn.users[user].user_id}:")
    for rec in ta.recommend(user, n=5):
        event = ebsn.events[rec.event]
        print(
            f"  attend {event.event_id} ({event.title}) with "
            f"{ebsn.users[rec.partner].user_id}  [score {rec.score:.3f}]"
        )


if __name__ == "__main__":
    main()
