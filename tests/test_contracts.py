"""Unit tests for the runtime shape/dtype contracts (repro.contracts)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.contracts import (
    ContractError,
    check_shapes,
    contracts_enabled,
    parse_spec,
)


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
class TestSpecParsing:
    def test_args_and_return_split(self):
        args, rets = parse_spec("(n,K),(K,)->(n,)")
        assert len(args) == 2 and len(rets) == 1

    def test_skip_marker(self):
        args, _ = parse_spec("-,(n,)")
        assert args[0].skip and not args[1].skip

    def test_no_return_spec(self):
        _, rets = parse_spec("(n,K)")
        assert rets == []

    def test_linear_expression_renders(self):
        args, _ = parse_spec("(2K+1,)")
        assert args[0].dims[0].render() == "2K+1"

    def test_invalid_dim_token_raises(self):
        with pytest.raises(ValueError, match="invalid dimension"):
            parse_spec("(K*,)")

    def test_unbalanced_parens_raise(self):
        with pytest.raises(ValueError, match="unbalanced"):
            parse_spec("((n,)")

    def test_non_paren_spec_raises(self):
        with pytest.raises(ValueError, match="argument spec"):
            parse_spec("nK")


# ----------------------------------------------------------------------
# Shape checking
# ----------------------------------------------------------------------
class TestShapeChecking:
    def test_matching_shapes_pass_through(self):
        @check_shapes("(n,K),(K,)->(n,)", enabled=True)
        def matvec(m, v):
            return m @ v

        out = matvec(np.ones((3, 4)), np.ones(4))
        assert out.shape == (3,)

    def test_symbol_mismatch_raises(self):
        @check_shapes("(n,K),(K,)->(n,)", enabled=True)
        def matvec(m, v):
            return m @ v

        with pytest.raises(ContractError, match="axis 0"):
            matvec(np.ones((3, 4)), np.ones(5))

    def test_contract_error_is_value_error(self):
        assert issubclass(ContractError, ValueError)

    def test_rank_mismatch_raises(self):
        @check_shapes("(n,K)", enabled=True)
        def f(m):
            return m

        with pytest.raises(ContractError, match="2-D"):
            f(np.ones(3))

    def test_return_shape_checked(self):
        @check_shapes("(K,)->(2K+1,)", enabled=True)
        def broken(u):
            return np.concatenate([u, [1.0]])

        with pytest.raises(ContractError, match="2K\\+1"):
            broken(np.ones(3))

    def test_linear_expression_binds_and_checks(self):
        @check_shapes("(K,)->(2K+1,)", enabled=True)
        def qv(u):
            return np.concatenate([u, u, [1.0]])

        assert qv(np.ones(3)).shape == (7,)

    def test_literal_dim(self):
        @check_shapes("(3,)", enabled=True)
        def f(v):
            return v

        f(np.ones(3))
        with pytest.raises(ContractError, match="expected 3"):
            f(np.ones(4))

    def test_wildcard_dim_accepts_anything(self):
        @check_shapes("(n,_)", enabled=True)
        def f(m):
            return m

        f(np.ones((2, 5)))
        f(np.ones((2, 9)))

    def test_skipped_and_none_args(self):
        @check_shapes("-,(n,)", enabled=True)
        def f(label, xs=None):
            return label

        assert f("hi") == "hi"  # None value skipped
        assert f("hi", np.ones(3)) == "hi"

    def test_list_inputs_are_coerced_for_shape(self):
        @check_shapes("(n,)", enabled=True)
        def f(xs):
            return xs

        f([1.0, 2.0, 3.0])
        with pytest.raises(ContractError):
            f([[1.0], [2.0]])

    def test_methods_skip_self(self):
        class Scorer:
            @check_shapes("(K,),(n,K)->(n,)", enabled=True)
            def score(self, u, m):
                return m @ u

        assert Scorer().score(np.ones(4), np.ones((2, 4))).shape == (2,)

    def test_keyword_call_is_checked(self):
        @check_shapes("(n,),(n,)", enabled=True)
        def f(a, b):
            return a + b

        with pytest.raises(ContractError):
            f(b=np.ones(3), a=np.ones(2))


# ----------------------------------------------------------------------
# dtype and non-negativity
# ----------------------------------------------------------------------
class TestDtypeAndNonneg:
    def test_dtype_mismatch_raises(self):
        @check_shapes("(n,K)", dtype="float32", enabled=True)
        def f(m):
            return m

        with pytest.raises(ContractError, match="float64"):
            f(np.ones((2, 3), dtype=np.float64))

    def test_dtype_match_passes(self):
        @check_shapes("(n,K)", dtype="float32", enabled=True)
        def f(m):
            return m

        f(np.ones((2, 3), dtype=np.float32))

    def test_multiple_allowed_dtypes(self):
        @check_shapes("(n,)", dtype=("float32", "float64"), enabled=True)
        def f(v):
            return v

        f(np.ones(2, dtype=np.float32))
        f(np.ones(2, dtype=np.float64))
        with pytest.raises(ContractError, match="int64"):
            f(np.ones(2, dtype=np.int64))

    def test_negative_embedding_rejected(self):
        @check_shapes("(n,K)", nonneg=True, enabled=True)
        def f(m):
            return m

        with pytest.raises(ContractError, match="non-negativity"):
            f(np.array([[0.5, -0.1]]))

    def test_nonneg_by_name(self):
        @check_shapes("(n,),(n,)", nonneg=["a"], enabled=True)
        def f(a, b):
            return a + b

        # Only `a` carries the invariant; a negative `b` is fine.
        f(np.ones(2), np.array([-1.0, -2.0]))
        with pytest.raises(ContractError, match="'a'"):
            f(np.array([-1.0, 1.0]), np.ones(2))


# ----------------------------------------------------------------------
# Enable / disable gating
# ----------------------------------------------------------------------
class TestGating:
    def test_enabled_in_test_suite(self):
        # tests/conftest.py sets REPRO_CONTRACTS=1 before importing repro.
        assert contracts_enabled()

    def test_disabled_decorator_is_identity(self):
        def raw(x):
            return x

        wrapped = check_shapes("(n,)", enabled=False)(raw)
        assert wrapped is raw

    def test_disabled_passthrough_accepts_bad_shapes(self):
        @check_shapes("(n,K)", enabled=False)
        def f(m):
            return m

        # No validation at all when disabled.
        assert f("not an array") == "not an array"

    def test_env_gating(self, monkeypatch):
        monkeypatch.delenv("REPRO_CONTRACTS")
        assert not contracts_enabled()  # off unless asked for
        monkeypatch.setenv("REPRO_CONTRACTS", "0")
        assert not contracts_enabled()

        def raw(x):
            return x

        assert check_shapes("(n,)")(raw) is raw
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        assert contracts_enabled()
        assert check_shapes("(n,)")(raw) is not raw

    def test_enabled_wrapper_carries_marker(self):
        @check_shapes("(n,)", enabled=True)
        def f(x):
            return x

        assert f.__repro_contract__ == "(n,)"

    def test_contract_over_declared_args_raises_at_decoration(self):
        with pytest.raises(ValueError, match="lists 2"):

            @check_shapes("(n,),(n,)", enabled=True)
            def f(x):
                return x


# ----------------------------------------------------------------------
# Contracts wired into the library
# ----------------------------------------------------------------------
class TestLibraryIntegration:
    def test_hot_path_callables_carry_contracts(self):
        # The gate is read at decoration (import) time and the suite
        # imports repro with it on: every serving hot-path entry point
        # must be the checking wrapper, not the bare function.
        from repro.core.fold_in import EventFoldIn
        from repro.core.scoring import triple_scores
        from repro.online import BruteForceIndex, ThresholdAlgorithmIndex
        from repro.online.transform import query_vector, transform_pairs

        hot_path = (query_vector, transform_pairs, triple_scores, EventFoldIn.fold_in)
        for fn in (*hot_path, BruteForceIndex.query, ThresholdAlgorithmIndex.query):
            assert hasattr(fn, "__repro_contract__"), fn.__qualname__

    def test_triple_scores_shape_contract(self):
        from repro.core.scoring import triple_scores

        with pytest.raises(ValueError):
            triple_scores(np.ones(4), np.ones((3, 4)), np.ones((3, 5)))

    def test_query_vector_contract(self):
        from repro.online.transform import query_vector

        q = query_vector(np.ones(3))
        assert q.shape == (7,)
        with pytest.raises(ValueError):
            query_vector(np.ones((2, 3)))

    def test_ta_rejects_negative_query_weights(self):
        from repro.online.ta import ThresholdAlgorithmIndex
        from repro.online.transform import transform_all_pairs

        space = transform_all_pairs(
            np.abs(np.random.default_rng(0).normal(size=(4, 3))),
            np.abs(np.random.default_rng(1).normal(size=(5, 3))),
        )
        index = ThresholdAlgorithmIndex(space)
        bad_q = -np.ones(space.dim)
        with pytest.raises(ContractError, match="non-negativity"):
            index.query(bad_q, 2)
