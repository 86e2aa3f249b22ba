"""Tests for the five comparison methods (Section V-C)."""

import numpy as np
import pytest

from repro.baselines import CBPF, CFAPRE, PCMF, PER, PTE
from repro.baselines.cbpf import CBPFConfig
from repro.baselines.cfapr import CFAPRConfig
from repro.baselines.pcmf import PCMFConfig
from repro.baselines.per import META_PATHS, PERConfig
from repro.core.gem import GEM
from repro.evaluation import evaluate_event_recommendation


@pytest.fixture(scope="module")
def base_gem(tiny_bundle):
    return GEM.gem_a(dim=8, n_samples=30_000, seed=5).fit(tiny_bundle)


class TestPCMF:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PCMFConfig(dim=0).validate()
        with pytest.raises(ValueError):
            PCMFConfig(learning_rate=0).validate()
        with pytest.raises(ValueError):
            PCMFConfig(regularization=-1).validate()

    def test_fit_produces_factors_for_all_types(self, tiny_bundle):
        model = PCMF(PCMFConfig(dim=8, n_samples=20_000)).fit(tiny_bundle)
        assert model.user_factors.shape[1] == 8
        assert model.event_factors.shape[1] == 8

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            PCMF().score_user_event(0, np.array([0]))

    def test_learns_better_than_chance_on_train_edges(self, tiny_bundle):
        model = PCMF(PCMFConfig(dim=16, n_samples=60_000)).fit(tiny_bundle)
        ue = tiny_bundle["user_event"]
        pos = model.score_user_event_aligned(ue.left, ue.right).mean()
        rng = np.random.default_rng(0)
        rand_events = rng.integers(0, ue.n_right, size=ue.n_edges)
        neg = model.score_user_event_aligned(ue.left, rand_events).mean()
        assert pos > neg

    def test_triple_scores_use_pairwise_decomposition(self, tiny_bundle):
        model = PCMF(PCMFConfig(dim=8, n_samples=5_000)).fit(tiny_bundle)
        partners = np.array([1, 2])
        events = np.array([0, 1])
        triple = model.score_triples(0, partners, events)
        manual = (
            model.score_user_event(0, events)
            + model.score_user_event_aligned(partners, events)
            + model.score_user_user(0, partners)
        )
        np.testing.assert_allclose(triple, manual)


class TestCBPF:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CBPFConfig(dim=0).validate()
        with pytest.raises(ValueError):
            CBPFConfig(zeros_per_positive=0).validate()

    def test_event_vectors_are_attribute_averages(self, tiny_bundle):
        model = CBPF(CBPFConfig(dim=8, n_epochs=2)).fit(tiny_bundle)
        recomposed = np.asarray(model.composition @ model.attribute_factors)
        np.testing.assert_allclose(model.event_factors, recomposed)

    def test_factors_nonnegative(self, tiny_bundle):
        model = CBPF(CBPFConfig(dim=8, n_epochs=3)).fit(tiny_bundle)
        assert model.user_factors.min() >= 0.0
        assert model.attribute_factors.min() >= 0.0

    def test_composition_rows_sum_to_one(self, tiny_bundle):
        model = CBPF(CBPFConfig(dim=8, n_epochs=1)).fit(tiny_bundle)
        sums = np.asarray(model.composition.sum(axis=1)).ravel()
        covered = sums > 0
        np.testing.assert_allclose(sums[covered], 1.0)

    def test_cold_events_receive_vectors(self, tiny_split, tiny_bundle):
        model = CBPF(CBPFConfig(dim=8, n_epochs=3)).fit(tiny_bundle)
        cold = sorted(tiny_split.test_events)
        norms = np.linalg.norm(model.event_factors[cold], axis=1)
        assert np.all(norms > 0)

    def test_social_score_from_vectors(self, tiny_bundle):
        model = CBPF(CBPFConfig(dim=8, n_epochs=2)).fit(tiny_bundle)
        scores = model.score_user_user(0, np.array([1, 2]))
        expected = model.user_factors[[1, 2]] @ model.user_factors[0]
        np.testing.assert_allclose(scores, expected)


class TestScatterMatchesAddAt:
    """PCMF and CBPF accumulate through ``core.updates.scatter_add_rows``;
    swapping the 2-D ``np.add.at`` it replaced back in must not move a bit."""

    @pytest.mark.parametrize(
        "module, fit",
        [
            ("pcmf", lambda: PCMF(PCMFConfig(dim=8, n_samples=20_000))),
            ("cbpf", lambda: CBPF(CBPFConfig(dim=8, n_epochs=3))),
        ],
        ids=["pcmf", "cbpf"],
    )
    def test_fitted_factors_bit_identical(self, tiny_bundle, monkeypatch, module, fit):
        flat = fit().fit(tiny_bundle)
        monkeypatch.setattr(f"repro.baselines.{module}.scatter_add_rows", np.add.at)
        two_d = fit().fit(tiny_bundle)
        assert flat.user_factors.tobytes() == two_d.user_factors.tobytes()
        assert flat.event_factors.tobytes() == two_d.event_factors.tobytes()


class TestPER:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PERConfig(learning_rate=0).validate()
        with pytest.raises(ValueError):
            PERConfig(factorization_rank=-1).validate()

    def test_path_weights_form_distribution(self, tiny_bundle):
        model = PER(PERConfig(n_bpr_samples=5_000)).fit(tiny_bundle)
        assert model.path_weights.shape == (len(META_PATHS),)
        assert model.path_weights.min() >= 0.0
        assert model.path_weights.sum() == pytest.approx(1.0)

    def test_attendance_paths_zero_for_cold_events(self, tiny_split, tiny_bundle):
        model = PER(PERConfig(n_bpr_samples=1_000, factorization_rank=0)).fit(
            tiny_bundle
        )
        cold = sorted(tiny_split.test_events)
        for path in ("UXUX", "UUX"):
            M = model.path_features[path]
            cold_mass = np.asarray(np.abs(M[:, cold]).sum())
            assert cold_mass == 0.0

    def test_factorized_latents_built(self, tiny_bundle):
        model = PER(PERConfig(n_bpr_samples=1_000, factorization_rank=4)).fit(
            tiny_bundle
        )
        for name in META_PATHS:
            ul, vl = model.path_latent[name]
            assert ul.shape[1] == vl.shape[1] <= 4

    def test_rank_zero_uses_exact_paths(self, tiny_bundle):
        model = PER(PERConfig(n_bpr_samples=1_000, factorization_rank=0)).fit(
            tiny_bundle
        )
        assert model.path_latent == {}
        scores = model.score_user_event(0, np.arange(5))
        assert scores.shape == (5,)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            PER().score_user_event(0, np.array([0]))

    def test_social_from_factorised_friendship(self, tiny_bundle, tiny_ebsn):
        model = PER(PERConfig(n_bpr_samples=1_000)).fit(tiny_bundle)
        friends = list(tiny_ebsn.friends_of(0))
        if not friends:
            pytest.skip("user 0 has no friends in tiny dataset")
        others = np.arange(tiny_ebsn.n_users)
        scores = model.score_user_user(0, others)
        non_friends = [
            u for u in range(tiny_ebsn.n_users) if u not in friends and u != 0
        ]
        assert np.mean(scores[friends]) > np.mean(scores[non_friends])


class TestPTE:
    def test_pte_class_preconfigured(self):
        model = PTE(n_samples=100)
        assert model.variant == "PTE"
        assert model.config.sampler == "degree"
        assert not model.config.bidirectional
        assert model.config.graph_sampling == "uniform"

    def test_fits_and_scores(self, tiny_bundle):
        model = PTE(n_samples=10_000, dim=8, seed=5).fit(tiny_bundle)
        assert model.score_user_event(0, np.arange(4)).shape == (4,)


class TestCFAPRE:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CFAPRConfig(partner_weight=-1).validate()
        with pytest.raises(ValueError):
            CFAPRConfig(max_partners=0).validate()

    def test_requires_event_vectors(self, tiny_bundle):
        class NoVectors:
            pass

        with pytest.raises(TypeError):
            CFAPRE(NoVectors()).fit(tiny_bundle)

    def test_partner_score_zero_without_history(self, base_gem, tiny_bundle, tiny_ebsn):
        model = CFAPRE(base_gem).fit(tiny_bundle)
        # Find a pair with no co-attended training event.
        for u in range(tiny_ebsn.n_users):
            history = model._history[u]
            stranger = next(
                (
                    v
                    for v in range(tiny_ebsn.n_users)
                    if v != u and v not in history
                ),
                None,
            )
            if stranger is not None:
                assert model.partner_score(u, stranger, 0) == 0.0
                break

    def test_partner_score_positive_for_historical_partner(
        self, base_gem, tiny_bundle
    ):
        model = CFAPRE(base_gem).fit(tiny_bundle)
        for u, history in enumerate(model._history):
            if history:
                partner, events = next(iter(history.items()))
                score = model.score_user_user(u, np.array([partner]))[0]
                assert score >= 1.0
                break
        else:
            pytest.fail("tiny dataset should contain co-attendance history")

    def test_event_scores_delegate_to_base_model(self, base_gem, tiny_bundle):
        model = CFAPRE(base_gem).fit(tiny_bundle)
        events = np.arange(6)
        np.testing.assert_allclose(
            model.score_user_event(2, events),
            base_gem.score_user_event(2, events),
        )

    def test_max_partners_prunes_history(self, base_gem, tiny_bundle):
        model = CFAPRE(base_gem, CFAPRConfig(max_partners=1)).fit(tiny_bundle)
        assert all(len(h) <= 1 for h in model._history)

    def test_triples_combine_event_and_partner_scores(
        self, base_gem, tiny_bundle
    ):
        model = CFAPRE(base_gem).fit(tiny_bundle)
        partners = np.array([1, 2])
        events = np.array([0, 1])
        triple = model.score_triples(0, partners, events)
        expected = base_gem.score_user_event(0, events) + np.array(
            [
                model.partner_score(0, 1, 0),
                model.partner_score(0, 2, 1),
            ]
        )
        np.testing.assert_allclose(triple, expected)


class TestBaselinesLearnSignal:
    """Every baseline must beat chance on the tiny cold-start task."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: PCMF(PCMFConfig(dim=16, n_samples=60_000)),
            lambda: CBPF(CBPFConfig(dim=16, n_epochs=15)),
            lambda: PER(PERConfig(n_bpr_samples=20_000)),
        ],
        ids=["pcmf", "cbpf", "per"],
    )
    def test_beats_random_ranking(self, tiny_split, tiny_bundle, factory):
        model = factory().fit(tiny_bundle)
        result = evaluate_event_recommendation(
            model, tiny_split, n_negatives=1000, seed=1
        )
        pool = len(tiny_split.test_events)
        chance_at_5 = 5 / pool
        assert result.accuracy[5] > chance_at_5
