"""End-to-end integration tests: generate → split → train → evaluate → serve.

These exercise the full pipeline the paper describes, at tiny scale, and
assert the *semantic* outcomes: GEM learns cold-start structure beyond
chance, the online recommender agrees with direct Eqn 8 scoring, and the
two evaluation scenarios behave as the paper reports.
"""

import numpy as np
import pytest

from repro.core import GEM
from repro.data import chronological_split, make_dataset
from repro.evaluation import (
    evaluate_event_partner,
    evaluate_event_recommendation,
)
from repro.serving import ServingEngine


@pytest.fixture(scope="module")
def pipeline():
    ebsn, truth = make_dataset("tiny", seed=11)
    split = chronological_split(ebsn)
    bundle = split.training_bundle()
    model = GEM.gem_a(dim=16, n_samples=150_000, seed=5).fit(bundle)
    return ebsn, truth, split, model


class TestColdStartLearning:
    def test_beats_chance_on_cold_events(self, pipeline):
        _ebsn, _truth, split, model = pipeline
        result = evaluate_event_recommendation(
            model, split, n_negatives=1000, seed=1
        )
        # Tiny has few test events; compare Accuracy@1 to the 1/pool chance.
        chance_at_1 = 1 / len(split.test_events)
        assert result.accuracy[1] > 2 * chance_at_1

    def test_cold_event_vectors_nonzero(self, pipeline):
        _ebsn, _truth, split, model = pipeline
        cold = sorted(split.test_events)
        norms = np.linalg.norm(model.event_vectors[cold], axis=1)
        assert np.all(norms > 0)

    def test_same_topic_cold_events_more_similar(self, pipeline):
        _ebsn, truth, split, model = pipeline
        cold = np.array(sorted(split.test_events))
        vecs = model.event_vectors[cold].astype(np.float64)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        vecs = vecs / np.maximum(norms, 1e-12)
        sims = vecs @ vecs.T
        topics = truth.event_topics[cold]
        same = topics[:, None] == topics[None, :]
        iu = np.triu_indices(len(cold), 1)
        assert sims[iu][same[iu]].mean() > sims[iu][~same[iu]].mean()


class TestPartnerTask:
    def test_beats_chance_on_partner_triples(self, pipeline):
        ebsn, _truth, split, model = pipeline
        triples = split.partner_triples()
        result = evaluate_event_partner(model, split, triples, seed=1)
        # Negative pools are capped by the tiny dataset: ~7 event
        # negatives + ~55 partner negatives per case.
        pool = (len(split.test_events) - 1) + (ebsn.n_users - 2)
        chance_at_5 = 5 / (pool + 1)
        assert result.accuracy[5] > 2 * chance_at_5

    def test_friends_score_above_strangers(self, pipeline):
        ebsn, _truth, _split, model = pipeline
        friend_scores, stranger_scores = [], []
        for u in range(ebsn.n_users):
            friends = ebsn.friends_of(u)
            if not friends:
                continue
            others = np.array(
                [v for v in range(ebsn.n_users) if v != u], dtype=np.int64
            )
            scores = model.score_user_user(u, others)
            for v, s in zip(others, scores):
                (friend_scores if v in friends else stranger_scores).append(s)
        assert np.mean(friend_scores) > np.mean(stranger_scores)


class TestScenario2:
    def test_scenario2_is_harder(self, pipeline):
        _ebsn, _truth, split, model1 = pipeline
        triples = split.partner_triples()
        excluded = split.scenario2_excluded_pairs(triples)
        bundle2 = split.training_bundle(excluded_friend_pairs=excluded)
        model2 = GEM.gem_a(dim=16, n_samples=150_000, seed=5).fit(bundle2)
        acc1 = evaluate_event_partner(model1, split, triples, seed=1).accuracy[20]
        acc2 = evaluate_event_partner(model2, split, triples, seed=1).accuracy[20]
        # The paper: "recommendation accuracies of all models are lower" in
        # the potential-friends scenario.  Allow slack for tiny-scale noise.
        assert acc2 <= acc1 + 0.1


class TestOnlineServing:
    def test_recommender_agrees_with_direct_scoring(self, pipeline):
        _ebsn, _truth, split, model = pipeline
        candidates = np.array(sorted(split.test_events), dtype=np.int64)
        reco = ServingEngine(
            model.user_vectors,
            model.event_vectors,
            candidates,
            backend="ta",
        )
        user = 0
        recs = reco.recommend(user, n=5)
        assert len(recs) == 5
        for rec in recs:
            direct = model.score_triples(
                user, np.array([rec.partner]), np.array([rec.event])
            )[0]
            assert rec.score == pytest.approx(direct, rel=1e-5)

    def test_ta_and_bf_identical_top_sets(self, pipeline):
        _ebsn, _truth, split, model = pipeline
        candidates = np.array(sorted(split.test_events), dtype=np.int64)
        common = dict(
            user_vectors=model.user_vectors,
            event_vectors=model.event_vectors,
            candidate_events=candidates,
            top_k_events=min(10, candidates.size),
        )
        ta = ServingEngine(**common, backend="ta")
        bf = ServingEngine(**common, backend="bruteforce")
        for user in (0, 7, 23):
            sa = [r.score for r in ta.recommend(user, n=8)]
            sb = [r.score for r in bf.recommend(user, n=8)]
            assert sa == pytest.approx(sb, rel=1e-6)


class TestModelOrderingSignals:
    def test_gem_a_trains_all_entity_types(self, pipeline):
        _ebsn, _truth, _split, model = pipeline
        for etype, matrix in model.embeddings.matrices.items():
            assert np.linalg.norm(matrix) > 0, f"{etype} never trained"

    def test_saving_and_serving_round_trip(self, pipeline, tmp_path):
        _ebsn, _truth, split, model = pipeline
        restored = GEM.load(model.save(tmp_path / "model"))
        candidates = np.array(sorted(split.test_events), dtype=np.int64)
        reco = ServingEngine(
            restored.user_vectors,
            restored.event_vectors,
            candidates,
        )
        assert len(reco.recommend(1, n=3)) == 3
