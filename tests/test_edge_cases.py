"""Degenerate-input and failure-injection tests across the stack.

Production data is messy: events with empty descriptions, users with no
friends, graphs with a single node, datasets where a whole relation is
missing.  These tests pin that every component either handles the
degenerate case or fails with a clear error — never silently corrupts.
"""

import numpy as np
import pytest

from repro.core import GEM, JointTrainer, TrainerConfig
from repro.core.embeddings import EmbeddingSet
from repro.data import chronological_split
from repro.ebsn import (
    EBSN,
    Attendance,
    Event,
    Friendship,
    User,
    Venue,
)
from repro.ebsn.graphs import (
    USER_USER,
    EntityType,
    GraphBundle,
    build_graph_bundle,
)
from repro.evaluation import evaluate_event_recommendation
from repro.online import transform_all_pairs
from repro.serving import ServingEngine


def build_minimal_ebsn(
    *, with_friends: bool = True, with_text: bool = True
) -> EBSN:
    users = [User(f"u{i}") for i in range(6)]
    venues = [Venue("v0", 39.9, 116.4), Venue("v1", 39.95, 116.45)]
    words = "alpha beta gamma delta" if with_text else ""
    events = [
        Event(f"x{i}", "v0" if i % 2 == 0 else "v1", 1e9 + i * 86400, description=words)
        for i in range(6)
    ]
    attendances = [
        Attendance(f"u{i}", f"x{j}") for i in range(6) for j in range(6) if (i + j) % 2 == 0
    ]
    friendships = (
        [Friendship("u0", "u1"), Friendship("u2", "u3")] if with_friends else []
    )
    return EBSN(users, events, venues, attendances, friendships)


class TestNoFriendships:
    def test_bundle_builds_with_empty_social_graph(self):
        ebsn = build_minimal_ebsn(with_friends=False)
        bundle = build_graph_bundle(ebsn, region_min_samples=1, min_doc_freq=1)
        assert bundle[USER_USER].n_edges == 0

    def test_trainer_skips_empty_graphs(self):
        ebsn = build_minimal_ebsn(with_friends=False)
        bundle = build_graph_bundle(ebsn, region_min_samples=1, min_doc_freq=1)
        trainer = JointTrainer(bundle, TrainerConfig(dim=4, seed=1))
        trainer.train(2000)  # must not crash or divide by zero
        assert trainer.steps_done == 2000
        assert USER_USER not in trainer._graph_names


class TestNoText:
    def test_empty_descriptions_yield_empty_word_graph(self):
        ebsn = build_minimal_ebsn(with_text=False)
        bundle = build_graph_bundle(ebsn, region_min_samples=1, min_doc_freq=1)
        assert bundle["event_word"].n_edges == 0
        assert bundle.entity_counts[EntityType.WORD] == 0

    def test_training_still_works_without_text(self):
        ebsn = build_minimal_ebsn(with_text=False)
        bundle = build_graph_bundle(ebsn, region_min_samples=1, min_doc_freq=1)
        model = GEM.gem_a(dim=4, n_samples=2000, seed=1).fit(bundle)
        assert np.isfinite(model.event_vectors).all()


class TestEmptyBundle:
    def test_all_graphs_empty_is_rejected(self):
        counts = {EntityType.USER: 2, EntityType.EVENT: 2}
        from repro.ebsn.graphs import BipartiteGraph

        empty = BipartiteGraph(
            name="user_event",
            left_type=EntityType.USER,
            right_type=EntityType.EVENT,
            n_left=2,
            n_right=2,
            left=np.array([], dtype=np.int64),
            right=np.array([], dtype=np.int64),
            weights=np.array([], dtype=np.float64),
        )
        bundle = GraphBundle(graphs={"user_event": empty}, entity_counts=counts)
        with pytest.raises(ValueError, match="no edges"):
            JointTrainer(bundle, TrainerConfig(dim=4))


class TestSingleNodeSides:
    def test_single_event_graph_trains(self):
        users = [User("u0"), User("u1")]
        venues = [Venue("v0", 39.9, 116.4)]
        events = [Event("x0", "v0", 1e9, description="alpha beta")]
        attendances = [Attendance("u0", "x0"), Attendance("u1", "x0")]
        ebsn = EBSN(users, events, venues, attendances, [])
        bundle = build_graph_bundle(ebsn, region_min_samples=1, min_doc_freq=1)
        trainer = JointTrainer(bundle, TrainerConfig(dim=4, seed=1))
        trainer.train(500)
        assert np.isfinite(trainer.embeddings.events).all()


class TestEvaluationDegeneracies:
    def test_no_test_negatives_skips_cases(self):
        # A split with a single test event leaves no negative pool.
        ebsn = build_minimal_ebsn()
        split = chronological_split(
            ebsn, train_fraction=0.8, validation_fraction_of_holdout=0.0
        )
        if len(split.test_events) != 1:
            pytest.skip("construction did not yield a single test event")
        model = GEM.gem_a(dim=4, n_samples=1000, seed=1).fit(
            split.training_bundle(region_min_samples=1, min_doc_freq=1)
        )
        result = evaluate_event_recommendation(model, split, seed=1)
        assert result.n_cases == 0
        assert all(v == 0.0 for v in result.accuracy.values())


class TestOnlineDegeneracies:
    def test_single_pair_space(self):
        E = np.array([[0.5, 0.1]])
        U = np.array([[0.3, 0.4]])
        space = transform_all_pairs(E, U)
        assert space.n_pairs == 1
        reco = ServingEngine(U, E, np.array([0]), backend="ta")
        # The only partner is the querying user: nothing to recommend.
        assert reco.recommend(0, n=3) == []

    def test_zero_vectors_everywhere(self):
        E = np.zeros((3, 4))
        U = np.zeros((5, 4))
        reco = ServingEngine(U, E, np.arange(3), backend="ta")
        recs = reco.recommend(0, n=4)
        assert len(recs) == 4  # all-tie scores still produce a valid top-n
        assert all(r.score == 0.0 for r in recs)

    def test_nonfinite_user_vector_rejected_by_scoring(self):
        E = np.abs(np.random.default_rng(0).normal(size=(3, 4)))
        U = np.abs(np.random.default_rng(1).normal(size=(4, 4)))
        reco = ServingEngine(U, E, np.arange(3), backend="bruteforce")
        result = reco.query(2, 2)
        assert np.isfinite(result.scores).all()


class TestRatingWeightPropagation:
    def test_rated_attendance_changes_edge_weights_not_counts(self):
        users = [User("u0")]
        venues = [Venue("v0", 39.9, 116.4)]
        events = [Event("x0", "v0", 1e9, description="alpha")]
        rated = EBSN(
            users, events, venues, [Attendance("u0", "x0", rating=5.0)], []
        )
        unrated = EBSN(users, events, venues, [Attendance("u0", "x0")], [])
        b_rated = build_graph_bundle(rated, region_min_samples=1, min_doc_freq=1)
        b_unrated = build_graph_bundle(unrated, region_min_samples=1, min_doc_freq=1)
        assert b_rated["user_event"].n_edges == b_unrated["user_event"].n_edges
        assert b_rated["user_event"].weights[0] == 5.0
        assert b_unrated["user_event"].weights[0] == 1.0
