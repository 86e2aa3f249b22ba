"""Tests for the synthetic Douban-like EBSN generator."""

import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.data.presets import get_preset, make_dataset, preset_names
from repro.data.synthetic import (
    ArrivalTraceConfig,
    SyntheticConfig,
    SyntheticGroundTruth,
    generate_arrival_trace,
    generate_ebsn,
)


def small_config(**overrides):
    base = SyntheticConfig(
        name="t",
        n_users=50,
        n_events=30,
        n_venues=12,
        n_topics=4,
        n_geo_centers=3,
        target_attendances=300,
        target_friendships=100,
        words_per_event=10,
        words_per_topic=20,
        n_common_words=30,
        horizon_days=120,
        seed=5,
    )
    return replace(base, **overrides)


class TestCategoricalDraw:
    """``_categorical`` over ``_cdf(p)`` is ``Generator.choice(k, p=p)``.

    The generator's datasets stay bit-identical only while this holds; a
    numpy release that changes how ``choice`` draws would fail here first.
    """

    @staticmethod
    def _weights(seed):
        rng = np.random.default_rng([seed, 17])
        k = int(rng.integers(1, 60))
        w = rng.random(k) ** 3
        w[rng.random(k) < 0.3] = 0.0  # zero-weight entries
        w[rng.integers(0, k)] += 0.5  # at least one positive
        p = w / w.sum()  # sums to 1 only up to rounding
        if seed % 2:
            p = p * (1.0 + 1e-10)  # within choice's tolerance, not 1
        return p

    @pytest.mark.parametrize("seed", range(40))
    def test_scalar_and_block_draws_match_choice(self, seed):
        from repro.data.synthetic import _categorical, _cdf

        p = self._weights(seed)
        cdf = _cdf(p)
        ours = np.random.default_rng(seed)
        numpy = np.random.default_rng(seed)
        for size in (None, 1, 7, 0, None, 250):
            got = _categorical(ours, cdf, size)
            want = numpy.choice(len(p), size=size, p=p)
            np.testing.assert_array_equal(got, want)
            assert ours.bit_generator.state == numpy.bit_generator.state


class TestConfigValidation:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            small_config(n_users=0).validate()

    def test_rejects_bad_ratios(self):
        with pytest.raises(ValueError):
            small_config(topic_word_ratio=1.5).validate()
        with pytest.raises(ValueError):
            small_config(topic_word_ratio=0.8, offtopic_word_ratio=0.3).validate()

    def test_rejects_insufficient_attendance_budget(self):
        with pytest.raises(ValueError):
            small_config(target_attendances=10, min_attendees_per_event=2).validate()

    def test_rejects_negative_trait_params(self):
        with pytest.raises(ValueError):
            small_config(hidden_trait_dim=-1).validate()
        with pytest.raises(ValueError):
            small_config(user_activity_sigma=-0.1).validate()


class TestGeneration:
    def test_entity_counts_match_config(self):
        cfg = small_config()
        ebsn, truth = generate_ebsn(cfg)
        assert ebsn.n_users == cfg.n_users
        assert ebsn.n_events == cfg.n_events
        assert ebsn.n_venues == cfg.n_venues
        assert truth.user_interests.shape == (cfg.n_users, cfg.n_topics)
        assert truth.event_topics.shape == (cfg.n_events,)

    def test_deterministic_for_same_seed(self):
        a, _ = generate_ebsn(small_config())
        b, _ = generate_ebsn(small_config())
        assert [e.start_time for e in a.events] == [e.start_time for e in b.events]
        assert len(a.attendances) == len(b.attendances)
        assert a.friendships == b.friendships

    def test_different_seeds_differ(self):
        a, _ = generate_ebsn(small_config(seed=1))
        b, _ = generate_ebsn(small_config(seed=2))
        assert [e.venue_id for e in a.events] != [e.venue_id for e in b.events]

    def test_attendance_volume_near_target(self):
        cfg = small_config()
        ebsn, _ = generate_ebsn(cfg)
        # Social amplification adds some; allow a broad band.
        assert 0.7 * cfg.target_attendances <= len(ebsn.attendances)
        assert len(ebsn.attendances) <= 2.0 * cfg.target_attendances

    def test_friendship_volume_near_target(self):
        cfg = small_config()
        ebsn, _ = generate_ebsn(cfg)
        assert len(ebsn.friendships) == pytest.approx(
            cfg.target_friendships, rel=0.25
        )

    def test_every_event_has_minimum_attendance(self):
        cfg = small_config()
        ebsn, _ = generate_ebsn(cfg)
        for x in range(ebsn.n_events):
            assert len(ebsn.users_of_event(x)) >= cfg.min_attendees_per_event

    def test_event_times_within_horizon(self):
        cfg = small_config()
        ebsn, _ = generate_ebsn(cfg)
        for event in ebsn.events:
            assert cfg.epoch <= event.start_time
            assert event.start_time <= cfg.epoch + cfg.horizon_days * 86400.0

    def test_descriptions_have_configured_length(self):
        cfg = small_config()
        ebsn, _ = generate_ebsn(cfg)
        for event in ebsn.events:
            assert len(event.description.split()) == cfg.words_per_event


class TestGenerativeSignals:
    def test_topic_words_dominate_descriptions(self):
        cfg = small_config(topic_word_ratio=0.7)
        ebsn, truth = generate_ebsn(cfg)
        hits = 0
        for xi, event in enumerate(ebsn.events):
            prefix = f"t{truth.event_topics[xi]}w"
            words = event.description.split()
            hits += sum(w.startswith(prefix) for w in words) / len(words)
        assert hits / ebsn.n_events == pytest.approx(0.7, abs=0.05)

    def test_interest_alignment_of_attendance(self):
        # Attendees' interest in the event topic beats the population mean.
        cfg = small_config()
        ebsn, truth = generate_ebsn(cfg)
        attendee_interest, base_interest = [], []
        for xi in range(ebsn.n_events):
            topic = truth.event_topics[xi]
            base_interest.append(truth.user_interests[:, topic].mean())
            for u in ebsn.users_of_event(xi):
                attendee_interest.append(truth.user_interests[u, topic])
        assert np.mean(attendee_interest) > 1.5 * np.mean(base_interest)

    def test_friend_homophily(self):
        cfg = small_config(intra_community_ratio=0.9)
        ebsn, truth = generate_ebsn(cfg)
        same = 0
        for fr in ebsn.friendships:
            a = ebsn.user_index[fr.user_a]
            b = ebsn.user_index[fr.user_b]
            same += truth.communities[a] == truth.communities[b]
        # Far above the chance rate for >= 12 communities.
        assert same / len(ebsn.friendships) > 0.5

    def test_ratings_generated_when_enabled(self):
        cfg = small_config(with_ratings=True)
        ebsn, _ = generate_ebsn(cfg)
        rated = [a for a in ebsn.attendances if a.rating is not None]
        assert len(rated) > 0.8 * len(ebsn.attendances)
        assert all(1.0 <= a.rating <= 5.0 for a in rated)

    def test_hidden_traits_shape(self):
        cfg = small_config(hidden_trait_dim=4)
        _, truth = generate_ebsn(cfg)
        assert truth.user_traits.shape == (cfg.n_users, 4)
        assert truth.event_traits.shape == (cfg.n_events, 4)

    def test_activity_tail_spreads_user_event_counts(self):
        flat, _ = generate_ebsn(small_config(user_activity_sigma=0.0, seed=3))
        tail, _ = generate_ebsn(small_config(user_activity_sigma=1.5, seed=3))
        def spread(ebsn):
            counts = np.array(
                [len(ebsn.events_of_user(u)) for u in range(ebsn.n_users)]
            )
            return counts.std() / max(counts.mean(), 1e-9)
        assert spread(tail) > spread(flat)


class TestPresets:
    def test_preset_names_include_cities(self):
        names = preset_names()
        for expected in (
            "tiny",
            "beijing-small",
            "shanghai-small",
            "beijing-full",
            "shanghai-full",
        ):
            assert expected in names

    def test_get_preset_returns_copy(self):
        a = get_preset("tiny")
        a.n_users = 1
        assert get_preset("tiny").n_users != 1

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            get_preset("atlantis")

    def test_make_dataset_seed_override(self):
        a, _ = make_dataset("tiny", seed=1)
        b, _ = make_dataset("tiny", seed=2)
        assert [e.venue_id for e in a.events] != [e.venue_id for e in b.events]

    def test_full_presets_mirror_table1_ratios(self):
        bj = get_preset("beijing-full")
        sh = get_preset("shanghai-full")
        assert bj.n_users == 64113 and sh.n_users == 36440
        assert bj.n_events == 12955 and sh.n_events == 6753
        assert bj.target_attendances == 1114097
        assert sh.target_friendships == 298105


def _dataset_digest(ebsn, truth):
    """SHA-256 over every generated record and every ground-truth array."""
    h = hashlib.sha256()
    for v in ebsn.venues:
        h.update(repr((v.venue_id, v.lat, v.lon)).encode())
    for e in ebsn.events:
        h.update(repr((e.event_id, e.venue_id, e.start_time, e.description,
                       e.title)).encode())
    for a in ebsn.attendances:
        h.update(repr((a.user_id, a.event_id, a.rating)).encode())
    for f in ebsn.friendships:
        h.update(repr((f.user_a, f.user_b)).encode())
    for f in fields(SyntheticGroundTruth):
        array = getattr(truth, f.name)
        h.update(f.name.encode())
        if array is not None:
            h.update(repr((array.dtype.str, array.shape)).encode())
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _trace_digest(arrivals):
    h = hashlib.sha256()
    for a in arrivals:
        e = a.event
        h.update(repr((a.offset_s, e.description, e.venue_lat, e.venue_lon,
                       e.start_time)).encode())
    return h.hexdigest()


#: Taken from the generator before its draws were moved onto precomputed
#: CDFs; every later generator must reproduce them.
GOLDEN = {
    ("tiny", 1): "6c1331eb65aa5315660c6a9d13629f948b1ddd1f131fdf6d1971d3cd5fa6ece5",
    ("tiny", 2): "6450b49de4b10f3fdda1b985e75458eaf43b19927b21a4c4e8ececf3a9b3ca82",
    ("tiny", 11): "08dfd0ca0fdee2c210ee7aab53a6cd3ba638912e46674bcecd4e8beb367e385f",
    ("beijing-small", 13): (
        "d591b040fd9a6329114e5ba5eb7c63c74bb2153a298d3f626917f8bf02c6c211"
    ),
    "knobs": "5d780b7ca951cf774a5d2bb3b711eb780dcd39038bc4240721c1a53ed320a07f",
    "trace": "117cf2b9c6525ecb2e65d22ed2f2f2f626a0a8abf1772132ebfb7cf20191360e",
    "flash": "5ab7c7962c6a6994e6462e88cc0bfcfa0fab1291cf6005e2ff70107c15aaf6df",
}


class TestGoldenDigests:
    """The generator's output, pinned bit for bit.

    A change to how the generator draws (not what it draws) must leave
    every digest here unchanged; a change that moves a dataset on
    purpose re-pins them and says so.
    """

    @pytest.mark.parametrize(
        ("preset", "seed"),
        [("tiny", 1), ("tiny", 2), ("tiny", 11), ("beijing-small", 13)],
    )
    def test_preset_dataset(self, preset, seed):
        digest = _dataset_digest(*make_dataset(preset, seed=seed))
        assert digest == GOLDEN[preset, seed]

    def test_every_generator_knob(self):
        # Activity tail, off-topic words, hidden traits and ratings at once.
        cfg = small_config(
            user_activity_sigma=1.2,
            offtopic_word_ratio=0.2,
            hidden_trait_dim=3,
            with_ratings=True,
            seed=9,
        )
        assert _dataset_digest(*generate_ebsn(cfg)) == GOLDEN["knobs"]

    @pytest.mark.parametrize(
        ("trace", "case"),
        [
            # As the streaming benchmark's fold-in world draws it.
            (ArrivalTraceConfig(n_arrivals=96, seed=15), "trace"),
            (ArrivalTraceConfig(n_arrivals=200, flash_crowds=3, seed=4), "flash"),
        ],
    )
    def test_arrival_trace(self, trace, case):
        syn = SyntheticConfig(n_topics=6, words_per_topic=30, n_common_words=40)
        assert _trace_digest(generate_arrival_trace(syn, trace)) == GOLDEN[case]
