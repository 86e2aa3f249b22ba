"""Tests for utility helpers."""

import numpy as np
import pytest

from repro.utils import ensure_rng, spawn_rngs


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = ensure_rng(5).random(3)
        b = ensure_rng(5).random(3)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_numpy_integer_accepted(self):
        assert isinstance(ensure_rng(np.int64(3)), np.random.Generator)

    def test_invalid_type_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")


class TestSpawnRngs:
    def test_count_and_independence(self):
        children = spawn_rngs(np.random.default_rng(0), 3)
        assert len(children) == 3
        draws = [c.random() for c in children]
        assert len(set(draws)) == 3

    def test_deterministic_from_parent(self):
        a = [g.random() for g in spawn_rngs(np.random.default_rng(1), 2)]
        b = [g.random() for g in spawn_rngs(np.random.default_rng(1), 2)]
        assert a == b

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(np.random.default_rng(0), -1)

    def test_zero_children(self):
        assert spawn_rngs(np.random.default_rng(0), 0) == []

