"""The pair space's layout: listed pairs store their rows, cross pairs are
their position.

Only a pruned build (``top_k_events=``) lists pairs; every other pair —
an unpruned build's, every appended event's, each partner slice's — is
pair ``L + r·P + p`` of the trailing ``(R, P)`` cross region, and only its
interaction is stored.  Every way a space is made must decode, gather
and score bit for bit as the explicit per-pair index columns
(``tests/reference_kernels.py::explicit_pair_indices``) do, on ranges
that straddle the listed / cross boundary too.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.online.transform import cross_pairs, factored_scores
from repro.serving import ServingEngine, ShardedServingEngine
from tests.reference_kernels import explicit_pair_indices


def _spaces(seed, pruned, n_appends, n_shards):
    """The primary spaces (one per partner slice) of an engine built over
    random vectors, pruned or not, then grown by ``n_appends`` refreshes."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    n_users, n_events = int(rng.integers(3, 12)), int(rng.integers(2, 9))
    fresh = rng.integers(1, 4, size=n_appends)
    users = rng.integers(0, 3, size=(n_users, dim)) * 0.5
    events = np.abs(rng.normal(size=(n_events + int(fresh.sum()), dim)))
    options = dict(
        top_k_events=int(rng.integers(1, n_events + 1)) if pruned else None,
        cache_size=0,
    )
    candidates = np.arange(n_events, dtype=np.int64)
    if n_shards == 1:
        engine = ServingEngine(users, events, candidates, **options)
    else:
        engine = ShardedServingEngine(
            users, events, candidates, n_shards=n_shards, **options
        )
    with engine:
        engine.warm()
        first = n_events
        for m in fresh.tolist():
            engine.refresh(np.arange(first, first + m, dtype=np.int64))
            first += m
        snap = engine.index.snapshot()
    legs = snap.legs if n_shards > 1 else (snap,)
    return [leg.primary.space for leg in legs], rng


def _ranges(rng, n_pairs, listed):
    """Random ``(start, stop)`` ranges, then ones straddling pair ``listed``."""
    ends = rng.integers(0, n_pairs + 1, size=(6, 2))
    ranges = [tuple(sorted(pair)) for pair in ends.tolist()]
    ranges += [
        (int(rng.integers(0, listed + 1)), int(rng.integers(listed, n_pairs + 1)))
        for _ in range(4)
    ]
    return ranges + [(0, n_pairs), (listed, n_pairs), (0, listed)]


class TestPairLayout:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        pruned=st.booleans(),
        n_appends=st.integers(min_value=0, max_value=3),
        n_shards=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_position_arithmetic_is_the_explicit_indices(
        self, seed, pruned, n_appends, n_shards
    ):
        spaces, rng = _spaces(seed, pruned, n_appends, n_shards)
        for space in spaces:
            n_pairs, p = space.n_pairs, space.candidate_partners.size
            listed = n_pairs - space.cross_events * p
            # Indices are stored for the listed pairs only: none unpruned.
            assert space.event_index.size == space.partner_index.size == listed
            assert pruned or listed == 0
            events, partners = explicit_pair_indices(space)

            pairs = np.r_[rng.integers(0, n_pairs, size=20), listed - 1, listed]
            pairs = np.unique(pairs.clip(0, n_pairs - 1))
            rows = space.pair_rows(pairs)
            assert rows[0].dtype == rows[1].dtype == np.int64
            np.testing.assert_array_equal(rows[0], events[pairs])
            np.testing.assert_array_equal(rows[1], partners[pairs])
            decoded = space.decode(pairs)
            np.testing.assert_array_equal(
                decoded[0], space.candidate_events[events[pairs]]
            )
            np.testing.assert_array_equal(
                decoded[1], space.candidate_partners[partners[pairs]]
            )

            dim = space.embedding_dim
            q = rng.normal(size=2 * dim + 1)
            q[-1] = rng.choice([1.0, -0.5, q[-1]])
            exclude = rng.choice([None, *space.candidate_partners.tolist()])
            a, b, w = space.query_terms(q, exclude)
            for start, stop in _ranges(rng, n_pairs, listed):
                want = np.concatenate(
                    [
                        space.event_factors[events[start:stop]],
                        space.partner_factors[partners[start:stop]],
                        space.interaction[start:stop, None],
                    ],
                    axis=1,
                )
                assert space.dense_rows(start, stop).tobytes() == want.tobytes()
                out = np.full(want.shape, np.nan)
                assert space.dense_rows(start, stop, out=out) is out
                assert out.tobytes() == want.tobytes()
                scores = factored_scores(
                    a,
                    b,
                    w,
                    events[start:stop],
                    partners[start:stop],
                    space.interaction[start:stop],
                )
                got = space.scores(q, exclude_partner=exclude, start=start, stop=stop)
                assert got.dtype == np.float64
                assert got.tobytes() == scores.tobytes()

    def test_cross_pairs_returns_no_index_columns(self):
        rng = np.random.default_rng(0)
        E, U = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        interaction, row_max = cross_pairs(E, U)
        assert interaction.shape == (20,) and row_max.shape == (4,)
        assert interaction.tobytes() == np.einsum("ek,pk->ep", E, U).tobytes()
