"""Unit tests for the project invariant linter (tools/replint).

Each rule gets a positive (violating) snippet, a negative (clean)
snippet, and a suppression-pragma case; the CLI is exercised end to end
against the seeded violation fixture the CI pipeline uses.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
TOOLS = REPO_ROOT / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from replint import LintConfig, RULE_CODES, lint_paths, lint_source  # noqa: E402
from replint.runner import main  # noqa: E402

HOT_PATH = "src/repro/online/fake.py"
CORE_PATH = "src/repro/core/fake.py"
SERVING_PATH = "src/repro/serving/fake.py"
OTHER_PATH = "src/repro/experiments/fake.py"
TEST_PATH = "tests/test_fake.py"


def codes(source: str, path: str, select: list[str] | None = None) -> list[str]:
    return [v.code for v in lint_source(source, path, select=select)]


# ----------------------------------------------------------------------
# REP001 — global random state
# ----------------------------------------------------------------------
class TestRep001:
    def test_flags_global_np_random_call(self):
        src = "import numpy as np\nx = np.random.rand(5)\n"
        assert codes(src, OTHER_PATH, ["REP001"]) == ["REP001"]

    def test_flags_unseeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert codes(src, OTHER_PATH, ["REP001"]) == ["REP001"]

    def test_seeded_default_rng_is_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert codes(src, OTHER_PATH, ["REP001"]) == []

    def test_generator_constructors_are_clean(self):
        src = (
            "import numpy as np\n"
            "g = np.random.Generator(np.random.PCG64(3))\n"
            "s = np.random.SeedSequence(1)\n"
        )
        assert codes(src, OTHER_PATH, ["REP001"]) == []

    def test_flags_from_import_of_numpy_random(self):
        src = "from numpy.random import rand\nx = rand(5)\n"
        assert codes(src, OTHER_PATH, ["REP001"]) == ["REP001"]

    def test_exempt_in_test_files(self):
        src = "import numpy as np\nx = np.random.rand(5)\n"
        assert codes(src, TEST_PATH, ["REP001"]) == []

    def test_allow_pragma_suppresses(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # replint: allow(REP001)\n"
        )
        assert codes(src, OTHER_PATH, ["REP001"]) == []


# ----------------------------------------------------------------------
# REP002 — hot-path loops
# ----------------------------------------------------------------------
class TestRep002:
    LOOP = "def f(xs):\n    for x in xs:\n        print(x)\n"

    def test_flags_loop_in_hot_path(self):
        assert "REP002" in codes(self.LOOP, HOT_PATH, ["REP002"])

    def test_flags_while_in_hot_path(self):
        src = "def f():\n    while True:\n        break\n"
        assert "REP002" in codes(src, HOT_PATH, ["REP002"])

    def test_loop_allowed_outside_hot_paths(self):
        assert codes(self.LOOP, OTHER_PATH, ["REP002"]) == []

    def test_comprehension_is_not_a_loop(self):
        src = "def f(xs):\n    return [x + 1 for x in xs]\n"
        assert codes(src, HOT_PATH, ["REP002"]) == []

    def test_allow_loop_pragma_with_reason(self):
        src = (
            "def f(xs):\n"
            "    for x in xs:  # replint: allow-loop(bounded by batch)\n"
            "        print(x)\n"
        )
        assert codes(src, HOT_PATH, ["REP002"]) == []

    def test_allow_loop_pragma_on_preceding_line(self):
        src = (
            "def f(xs):\n"
            "    # replint: allow-loop(bounded by batch)\n"
            "    for x in xs:\n"
            "        print(x)\n"
        )
        assert codes(src, HOT_PATH, ["REP002"]) == []

    def test_allow_loop_without_reason_is_malformed(self):
        src = (
            "def f(xs):\n"
            "    for x in xs:  # replint: allow-loop()\n"
            "        print(x)\n"
        )
        result = codes(src, HOT_PATH, ["REP002"])
        # The loop is NOT suppressed and the empty pragma is reported.
        assert result.count("REP002") == 2

    def test_malformed_pragma_not_reported_in_test_files(self):
        src = (
            "def f(xs):\n"
            "    for x in xs:  # replint: allow-loop()\n"
            "        print(x)\n"
        )
        assert codes(src, TEST_PATH, ["REP002"]) == []

    def test_core_adaptive_is_hot(self):
        assert "REP002" in codes(
            self.LOOP, "src/repro/core/adaptive.py", ["REP002"]
        )

    def test_core_fold_in_is_hot(self):
        assert "REP002" in codes(
            self.LOOP, "src/repro/core/fold_in.py", ["REP002"]
        )


# ----------------------------------------------------------------------
# REP003 — complete annotations
# ----------------------------------------------------------------------
class TestRep003:
    def test_flags_missing_annotations(self):
        src = "def f(a, b=1):\n    return a\n"
        out = lint_source(src, CORE_PATH, select=["REP003"])
        assert [v.code for v in out] == ["REP003"]
        assert "a" in out[0].message and "return" in out[0].message

    def test_fully_annotated_is_clean(self):
        src = "def f(a: int, b: int = 1) -> int:\n    return a + b\n"
        assert codes(src, CORE_PATH, ["REP003"]) == []

    def test_self_and_cls_are_exempt(self):
        src = (
            "class C:\n"
            "    def m(self, x: int) -> int:\n"
            "        return x\n"
            "    @classmethod\n"
            "    def c(cls) -> None:\n"
            "        pass\n"
        )
        assert codes(src, CORE_PATH, ["REP003"]) == []

    def test_private_functions_are_exempt(self):
        src = "def _helper(a):\n    return a\n"
        assert codes(src, CORE_PATH, ["REP003"]) == []

    def test_star_args_need_annotations(self):
        src = "def f(*args, **kwargs) -> None:\n    pass\n"
        out = lint_source(src, CORE_PATH, select=["REP003"])
        assert "*args" in out[0].message and "**kwargs" in out[0].message

    def test_not_applied_outside_typed_api(self):
        src = "def f(a):\n    return a\n"
        assert codes(src, OTHER_PATH, ["REP003"]) == []


# ----------------------------------------------------------------------
# REP004 — pinned dtypes at the API boundary
# ----------------------------------------------------------------------
class TestRep004:
    def test_flags_unpinned_asarray(self):
        src = (
            "import numpy as np\n"
            "def f(x: object) -> object:\n"
            "    return np.asarray(x)\n"
        )
        assert codes(src, CORE_PATH, ["REP004"]) == ["REP004"]

    def test_dtype_keyword_is_clean(self):
        src = (
            "import numpy as np\n"
            "def f(x: object) -> object:\n"
            "    return np.asarray(x, dtype=np.float64)\n"
        )
        assert codes(src, CORE_PATH, ["REP004"]) == []

    def test_positional_dtype_is_clean(self):
        src = (
            "import numpy as np\n"
            "def f(x: object) -> object:\n"
            "    return np.array(x, np.float64)\n"
        )
        assert codes(src, CORE_PATH, ["REP004"]) == []

    def test_private_functions_are_exempt(self):
        src = (
            "import numpy as np\n"
            "def _f(x):\n"
            "    return np.asarray(x)\n"
        )
        assert codes(src, CORE_PATH, ["REP004"]) == []

    def test_allow_pragma_suppresses(self):
        src = (
            "import numpy as np\n"
            "def f(x: object) -> object:\n"
            "    return np.asarray(x)  # replint: allow(REP004)\n"
        )
        assert codes(src, CORE_PATH, ["REP004"]) == []


class TestRep004Strict:
    """Strict-dtype mode for the sampler/alias boundary files."""

    ALIAS_PATH = "src/repro/core/alias.py"
    SAMPLERS_PATH = "src/repro/core/samplers.py"

    def test_private_functions_are_covered(self):
        src = (
            "import numpy as np\n"
            "def _f(x):\n"
            "    return np.asarray(x)\n"
        )
        assert codes(src, self.ALIAS_PATH, ["REP004"]) == ["REP004"]

    def test_allocators_are_covered(self):
        src = (
            "import numpy as np\n"
            "def _f(n):\n"
            "    a = np.empty(n)\n"
            "    b = np.zeros(n)\n"
            "    c = np.ones(n)\n"
            "    d = np.full(n, 7)\n"
            "    return a, b, c, d\n"
        )
        assert codes(src, self.SAMPLERS_PATH, ["REP004"]) == ["REP004"] * 4

    def test_pinned_allocators_are_clean(self):
        src = (
            "import numpy as np\n"
            "def _f(n):\n"
            "    a = np.empty(n, dtype=np.int64)\n"
            "    b = np.zeros(n, np.float64)\n"
            "    c = np.full(n, 7, np.int64)\n"
            "    return a, b, c\n"
        )
        assert codes(src, self.ALIAS_PATH, ["REP004"]) == []

    def test_module_level_code_is_covered(self):
        src = "import numpy as np\nSCRATCH = np.empty(8)\n"
        assert codes(src, self.ALIAS_PATH, ["REP004"]) == ["REP004"]

    def test_allocators_not_checked_outside_strict_files(self):
        src = (
            "import numpy as np\n"
            "def f(n: int) -> object:\n"
            "    return np.empty(n)\n"
        )
        assert codes(src, CORE_PATH, ["REP004"]) == []

    def test_real_boundary_modules_are_clean(self):
        paths = [
            REPO_ROOT / "src/repro/core/alias.py",
            REPO_ROOT / "src/repro/core/samplers.py",
            REPO_ROOT / "src/repro/online/transform.py",
            REPO_ROOT / "src/repro/online/bruteforce.py",
        ]
        violations = lint_paths([str(p) for p in paths], select=["REP004"])
        assert violations == []


# ----------------------------------------------------------------------
# REP005 — embedding mutation discipline
# ----------------------------------------------------------------------
class TestRep005:
    def test_flags_item_assignment(self):
        src = "def f(embeddings, i):\n    embeddings[i] = 0.0\n"
        assert codes(src, OTHER_PATH, ["REP005"]) == ["REP005"]

    def test_flags_augmented_assignment(self):
        src = "def f(model, i, g):\n    model.embeddings[i] += g\n"
        assert codes(src, OTHER_PATH, ["REP005"]) == ["REP005"]

    def test_flags_out_argument(self):
        src = (
            "import numpy as np\n"
            "def f(user_vectors):\n"
            "    np.maximum(user_vectors, 0.0, out=user_vectors)\n"
        )
        assert codes(src, OTHER_PATH, ["REP005"]) == ["REP005"]

    def test_flags_ufunc_at(self):
        src = (
            "import numpy as np\n"
            "def f(emb, i, g):\n"
            "    np.add.at(emb.of(0), i, g)\n"
        )
        assert codes(src, OTHER_PATH, ["REP005"]) == ["REP005"]

    def test_trainer_and_fold_in_are_exempt(self):
        src = "def f(embeddings, i):\n    embeddings[i] = 0.0\n"
        assert codes(src, "src/repro/core/trainer.py", ["REP005"]) == []
        assert codes(src, "src/repro/core/fold_in.py", ["REP005"]) == []

    def test_unrelated_subscript_write_is_clean(self):
        src = "def f(cache, k, v):\n    cache[k] = v\n"
        assert codes(src, OTHER_PATH, ["REP005"]) == []

    def test_tests_are_exempt(self):
        src = "def f(embeddings, i):\n    embeddings[i] = 0.0\n"
        assert codes(src, TEST_PATH, ["REP005"]) == []

    def test_store_is_exempt_but_store_clients_are_not(self):
        # The memmap store owns whole-matrix loads (load_from /
        # fill_random); everything *consuming* its views stays confined.
        src = "def f(embeddings, i):\n    embeddings[i] = 0.0\n"
        assert codes(src, "src/repro/core/store.py", ["REP005"]) == []
        assert codes(src, "src/repro/core/parallel.py", ["REP005"]) == [
            "REP005"
        ]

    def test_writes_through_store_views_flagged(self):
        # Out-of-bounds write through the new backend: a view obtained
        # from a MemmapStore is still an embedding matrix to REP005.
        src = (
            "def f(store, i):\n"
            "    user_vectors = store.embeddings().users\n"
            "    user_vectors[i] = 0.0\n"
        )
        assert codes(src, OTHER_PATH, ["REP005"]) == ["REP005"]

    def test_store_client_fixture_seeds_rep005(self):
        fixture = (
            REPO_ROOT / "tools/replint/fixtures/repro/core/bad_store_client.py"
        )
        found = [
            v.code
            for v in lint_paths([str(fixture)])
            if v.code == "REP005"
        ]
        assert len(found) == 4


# ----------------------------------------------------------------------
# REP006 — docstrings on the public serving surface
# ----------------------------------------------------------------------
class TestRep006:
    MODULE_DOC = '"""Documented module."""\n'

    def test_flags_missing_module_docstring(self):
        src = "X = 1\n"
        assert codes(src, SERVING_PATH, ["REP006"]) == ["REP006"]

    def test_flags_undocumented_public_function(self):
        src = self.MODULE_DOC + "def serve(x: int) -> int:\n    return x\n"
        out = lint_source(src, SERVING_PATH, select=["REP006"])
        assert [v.code for v in out] == ["REP006"]
        assert "serve" in out[0].message

    def test_flags_undocumented_class_and_method(self):
        src = (
            self.MODULE_DOC
            + "class Engine:\n"
            + "    def query(self, n: int) -> int:\n"
            + "        return n\n"
        )
        out = lint_source(src, SERVING_PATH, select=["REP006"])
        messages = [v.message for v in out]
        assert len(out) == 2
        assert any("Engine" in m and "class" in m for m in messages)
        assert any("Engine.query" in m for m in messages)

    def test_documented_symbols_are_clean(self):
        src = (
            self.MODULE_DOC
            + "class Engine:\n"
            + '    """Doc."""\n'
            + "    def query(self, n: int) -> int:\n"
            + '        """Doc."""\n'
            + "        return n\n"
            + "def serve(x: int) -> int:\n"
            + '    """Doc."""\n'
            + "    return x\n"
        )
        assert codes(src, SERVING_PATH, ["REP006"]) == []

    def test_private_and_dunder_symbols_are_exempt(self):
        src = (
            self.MODULE_DOC
            + "class Engine:\n"
            + '    """Doc."""\n'
            + "    def __init__(self) -> None:\n"
            + "        pass\n"
            + "    def _internal(self) -> None:\n"
            + "        pass\n"
            + "def _helper() -> None:\n"
            + "    pass\n"
        )
        assert codes(src, SERVING_PATH, ["REP006"]) == []

    def test_private_class_members_are_exempt(self):
        src = (
            self.MODULE_DOC
            + "class _Hidden:\n"
            + "    def anything(self) -> None:\n"
            + "        pass\n"
        )
        assert codes(src, SERVING_PATH, ["REP006"]) == []

    def test_not_applied_outside_serving(self):
        src = "def f() -> None:\n    pass\n"
        assert codes(src, CORE_PATH, ["REP006"]) == []
        assert codes(src, OTHER_PATH, ["REP006"]) == []

    def test_serving_test_files_are_exempt(self):
        src = "def test_f() -> None:\n    pass\n"
        assert codes(src, "tests/serving/test_fake.py", ["REP006"]) == []

    def test_allow_pragma_suppresses(self):
        src = (
            self.MODULE_DOC
            + "def serve(x: int) -> int:  # replint: allow(REP006)\n"
            + "    return x\n"
        )
        assert codes(src, SERVING_PATH, ["REP006"]) == []


# ----------------------------------------------------------------------
# REP007 — lock discipline for guarded attributes
# ----------------------------------------------------------------------
class TestRep007:
    HEADER = (
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._n = 0  # replint: guarded-by(_lock)\n"
    )

    def test_flags_unlocked_access(self):
        src = self.HEADER + "    def bump(self):\n        self._n += 1\n"
        assert codes(src, SERVING_PATH, ["REP007"]) == ["REP007"]

    def test_access_under_with_is_clean(self):
        src = self.HEADER + (
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
        )
        assert codes(src, SERVING_PATH, ["REP007"]) == []

    def test_transitively_proven_helper_is_clean(self):
        src = self.HEADER + (
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._incr()\n"
            "    def _incr(self):\n"
            "        self._n += 1\n"
        )
        assert codes(src, SERVING_PATH, ["REP007"]) == []

    def test_helper_with_unlocked_caller_is_flagged(self):
        src = self.HEADER + (
            "    def bump(self):\n"
            "        self._incr()\n"
            "    def _incr(self):\n"
            "        self._n += 1\n"
        )
        out = lint_source(src, SERVING_PATH, select=["REP007"])
        assert [v.code for v in out] == ["REP007"]
        assert "_incr" in out[0].message

    def test_public_method_gets_no_hold_credit(self):
        # Public methods are entry points even when also called
        # internally under the lock.
        src = self.HEADER + (
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.incr()\n"
            "    def incr(self):\n"
            "        self._n += 1\n"
        )
        assert codes(src, SERVING_PATH, ["REP007"]) == ["REP007"]

    def test_init_is_exempt(self):
        # The constructor writes happen before the object escapes.
        assert codes(self.HEADER, SERVING_PATH, ["REP007"]) == []

    def test_pragma_on_preceding_line_binds_to_next_assignment(self):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        # replint: guarded-by(_lock)\n"
            "        self._n = 0\n"
            "    def bump(self):\n"
            "        self._n += 1\n"
        )
        assert codes(src, SERVING_PATH, ["REP007"]) == ["REP007"]

    def test_inline_pragma_does_not_leak_to_next_line(self):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._a = 0  # replint: guarded-by(_lock)\n"
            "        self._b = 0\n"
            "    def read_b(self):\n"
            "        return self._b\n"
        )
        assert codes(src, SERVING_PATH, ["REP007"]) == []

    def test_unknown_lock_name_is_flagged(self):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._n = 0  # replint: guarded-by(_missing)\n"
        )
        out = lint_source(src, SERVING_PATH, select=["REP007"])
        assert [v.code for v in out] == ["REP007"]
        assert "_missing" in out[0].message

    def test_allow_pragma_suppresses(self):
        src = self.HEADER + (
            "    def bump(self):\n"
            "        self._n += 1  # replint: allow(REP007)\n"
        )
        assert codes(src, SERVING_PATH, ["REP007"]) == []

    def test_applies_outside_serving_too(self):
        src = self.HEADER + "    def bump(self):\n        self._n += 1\n"
        assert codes(src, OTHER_PATH, ["REP007"]) == ["REP007"]

    def test_fixture_seeds_exactly_three(self):
        fixture = (
            REPO_ROOT
            / "tools/replint/fixtures/repro/serving/bad_lock_discipline.py"
        )
        found = [v for v in lint_paths([str(fixture)]) if v.code == "REP007"]
        assert [v.line for v in found] == [25, 30, 39]


# ----------------------------------------------------------------------
# REP008 — lock acquisition ordering
# ----------------------------------------------------------------------
class TestRep008:
    HEADER = (
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._a = threading.Lock()\n"
        "        self._b = threading.Lock()\n"
    )

    def test_flags_abba_cycle_once_per_edge(self):
        src = self.HEADER + (
            "    def f(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
            "    def g(self):\n"
            "        with self._b:\n"
            "            with self._a:\n"
            "                pass\n"
        )
        assert codes(src, SERVING_PATH, ["REP008"]) == ["REP008", "REP008"]

    def test_consistent_order_is_clean(self):
        src = self.HEADER + (
            "    def f(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
            "    def g(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
        )
        assert codes(src, SERVING_PATH, ["REP008"]) == []

    def test_transitive_edge_through_helper_is_flagged(self):
        src = self.HEADER + (
            "    def f(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
            "    def g(self):\n"
            "        with self._b:\n"
            "            self._grab_a()\n"
            "    def _grab_a(self):\n"
            "        with self._a:\n"
            "            pass\n"
        )
        assert codes(src, SERVING_PATH, ["REP008"]) == ["REP008", "REP008"]

    def test_reentrant_single_lock_is_clean(self):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._a = threading.RLock()\n"
            "        self._b = threading.Lock()\n"
            "    def f(self):\n"
            "        with self._a:\n"
            "            with self._a:\n"
            "                pass\n"
        )
        assert codes(src, SERVING_PATH, ["REP008"]) == []

    def test_fixture_seeds_exactly_two(self):
        fixture = (
            REPO_ROOT / "tools/replint/fixtures/repro/serving/bad_lock_order.py"
        )
        found = [v for v in lint_paths([str(fixture)]) if v.code == "REP008"]
        assert [v.line for v in found] == [24, 30]


# ----------------------------------------------------------------------
# REP009 — MemmapStore write -> freeze -> serve lifecycle
# ----------------------------------------------------------------------
class TestRep009:
    def test_flags_write_through_frozen_store(self):
        src = (
            "def f(d):\n"
            "    store = MemmapStore.open(d)\n"
            "    store.fill_random(seed=1)\n"
        )
        assert codes(src, OTHER_PATH, ["REP009"]) == ["REP009"]

    def test_writable_open_is_clean(self):
        src = (
            "def f(d):\n"
            "    store = MemmapStore.open(d, writable=True)\n"
            "    store.fill_random(seed=1)\n"
        )
        assert codes(src, OTHER_PATH, ["REP009"]) == []

    def test_flags_serving_over_writable_views(self):
        src = (
            "def f(d):\n"
            "    store = MemmapStore.create(d, {'users': 2}, dim=3)\n"
            "    emb = store.embeddings()\n"
            "    return ServingEngine(emb.users, emb.events, emb.event_ids)\n"
        )
        assert codes(src, OTHER_PATH, ["REP009"]) == ["REP009"]

    def test_freeze_then_serve_is_clean(self):
        src = (
            "def f(d):\n"
            "    store = MemmapStore.create(d, {'users': 2}, dim=3)\n"
            "    store.fill_random(seed=0)\n"
            "    store.freeze()\n"
            "    emb = store.embeddings()\n"
            "    return ServingEngine(emb.users, emb.events, emb.event_ids)\n"
        )
        assert codes(src, OTHER_PATH, ["REP009"]) == []

    def test_parameter_store_state_is_unknown(self):
        # A store received as a parameter could be in either state;
        # the pass only tracks provenance it can see.
        src = "def f(store):\n    store.fill_random(seed=1)\n"
        assert codes(src, OTHER_PATH, ["REP009"]) == []

    def test_fixture_seeds_exactly_three(self):
        fixture = (
            REPO_ROOT
            / "tools/replint/fixtures/repro/core/bad_store_lifecycle.py"
        )
        found = [v for v in lint_paths([str(fixture)]) if v.code == "REP009"]
        assert [v.line for v in found] == [21, 27, 39]


# ----------------------------------------------------------------------
# REP010 — request outcome exhaustiveness
# ----------------------------------------------------------------------
class TestRep010:
    def test_flags_answered_without_stats(self):
        src = (
            "def f(user: int) -> RequestOutcome:\n"
            "    return RequestOutcome(user=user, n=1, answered=True)\n"
        )
        assert codes(src, SERVING_PATH, ["REP010"]) == ["REP010"]

    def test_answered_with_stats_is_clean(self):
        src = (
            "def f(user: int, stats: QueryStats) -> RequestOutcome:\n"
            "    return RequestOutcome(\n"
            "        user=user, n=1, answered=True, stats=stats\n"
            "    )\n"
        )
        assert codes(src, SERVING_PATH, ["REP010"]) == []

    def test_flags_undeclared_shed_reason(self):
        src = (
            "def f(user: int) -> RequestOutcome:\n"
            "    return RequestOutcome(\n"
            "        user=user, n=1, answered=False, shed_reason='because'\n"
            "    )\n"
        )
        assert codes(src, SERVING_PATH, ["REP010"]) == ["REP010"]

    def test_declared_shed_reason_is_clean(self):
        src = (
            "def f(user: int) -> RequestOutcome:\n"
            "    return RequestOutcome(\n"
            "        user=user, n=1, answered=False,\n"
            "        shed_reason='deadline_expired',\n"
            "    )\n"
        )
        assert codes(src, SERVING_PATH, ["REP010"]) == []

    def test_flags_fall_off_the_end(self):
        src = (
            "def f(user: int) -> RequestOutcome:\n"
            "    if user % 2:\n"
            "        return RequestOutcome(\n"
            "            user=user, n=1, answered=False,\n"
            "            shed_reason='queue_full',\n"
            "        )\n"
        )
        out = lint_source(src, SERVING_PATH, select=["REP010"])
        assert [v.code for v in out] == ["REP010"]
        assert out[0].line == 1  # anchored at the def line

    def test_exhaustive_if_else_is_clean(self):
        src = (
            "def f(user: int) -> RequestOutcome:\n"
            "    if user % 2:\n"
            "        return RequestOutcome(\n"
            "            user=user, n=1, answered=False,\n"
            "            shed_reason='queue_full',\n"
            "        )\n"
            "    else:\n"
            "        return RequestOutcome(\n"
            "            user=user, n=1, answered=False,\n"
            "            shed_reason='deadline_expired',\n"
            "        )\n"
        )
        assert codes(src, SERVING_PATH, ["REP010"]) == []

    def test_flags_bare_return(self):
        src = (
            "def f(user: int) -> RequestOutcome:\n"
            "    return\n"
        )
        assert codes(src, SERVING_PATH, ["REP010"]) == ["REP010"]

    def test_delegation_to_outcome_returner_is_clean(self):
        src = (
            "class C:\n"
            "    def inner(self, user: int) -> RequestOutcome:\n"
            "        return RequestOutcome(\n"
            "            user=user, n=1, answered=False,\n"
            "            shed_reason='queue_full',\n"
            "        )\n"
            "    def outer(self, user: int) -> RequestOutcome:\n"
            "        return self.inner(user)\n"
        )
        assert codes(src, SERVING_PATH, ["REP010"]) == []

    def test_flags_undeclared_rung_label(self):
        src = (
            "def f() -> QueryStats:\n"
            "    return QueryStats(rung='turbo')\n"
        )
        assert codes(src, SERVING_PATH, ["REP010"]) == ["REP010"]

    def test_declared_rung_label_is_clean(self):
        src = (
            "def f() -> QueryStats:\n"
            "    return QueryStats(rung='truncated')\n"
        )
        assert codes(src, SERVING_PATH, ["REP010"]) == []

    def test_not_applied_outside_serving(self):
        src = (
            "def f(user: int) -> RequestOutcome:\n"
            "    if user % 2:\n"
            "        return RequestOutcome(user=user, n=1, answered=True)\n"
        )
        assert codes(src, CORE_PATH, ["REP010"]) == []
        assert codes(src, TEST_PATH, ["REP010"]) == []

    def test_fixture_seeds_exactly_four(self):
        fixture = (
            REPO_ROOT
            / "tools/replint/fixtures/repro/serving/bad_outcome_path.py"
        )
        found = [v for v in lint_paths([str(fixture)]) if v.code == "REP010"]
        assert [v.line for v in found] == [20, 24, 28, 37]


# ----------------------------------------------------------------------
# REP011 — span/phase context-manager discipline
# ----------------------------------------------------------------------
class TestRep011:
    OBS_PATH = "src/repro/obs/fake.py"

    def test_flags_bare_tracer_start(self):
        src = "def f(tracer):\n    s = tracer.start('request')\n"
        assert codes(src, self.OBS_PATH, ["REP011"]) == ["REP011"]

    def test_flags_bare_child_and_phase(self):
        src = (
            "def f(root, prof):\n"
            "    root.child('merge')\n"
            "    prof.phase('fold_in')\n"
        )
        assert codes(src, SERVING_PATH, ["REP011"]) == ["REP011", "REP011"]

    def test_with_item_spellings_are_clean(self):
        src = (
            "def f(tracer, prof):\n"
            "    with tracer.start('request') as root:\n"
            "        with root.child('retrieval'):\n"
            "            pass\n"
            "    with prof.phase('report'):\n"
            "        pass\n"
        )
        assert codes(src, self.OBS_PATH, ["REP011"]) == []

    def test_request_plus_finish_is_clean(self):
        src = (
            "def f(tracer):\n"
            "    root = tracer.request('request')\n"
            "    root.finish()\n"
        )
        assert codes(src, self.OBS_PATH, ["REP011"]) == []

    def test_non_tracer_start_is_clean(self):
        src = (
            "def f(thread, exporter, pool):\n"
            "    thread.start()\n"
            "    exporter.start()\n"
            "    pool.start()\n"
        )
        assert codes(src, self.OBS_PATH, ["REP011"]) == []

    def test_tracer_attribute_receiver_start_is_flagged(self):
        src = "def f(engine):\n    engine.tracer.start('request')\n"
        assert codes(src, self.OBS_PATH, ["REP011"]) == ["REP011"]

    def test_exempt_in_test_files(self):
        src = "def f(tracer):\n    tracer.start('request')\n"
        assert codes(src, TEST_PATH, ["REP011"]) == []
        assert codes(src, "benchmarks/bench_fake.py", ["REP011"]) == []

    def test_allow_pragma_suppresses(self):
        src = (
            "def f(root):\n"
            "    root.child('merge')  # replint: allow(REP011)\n"
        )
        assert codes(src, SERVING_PATH, ["REP011"]) == []

    def test_fixture_seeds_exactly_three(self):
        fixture = (
            REPO_ROOT / "tools/replint/fixtures/repro/obs/bad_span_discipline.py"
        )
        found = [v for v in lint_paths([str(fixture)]) if v.code == "REP011"]
        assert [v.line for v in found] == [23, 25, 26]


# ----------------------------------------------------------------------
# Runner / CLI
# ----------------------------------------------------------------------
class TestRunner:
    def test_syntax_error_reports_rep000(self):
        out = lint_source("def f(:\n", OTHER_PATH)
        assert [v.code for v in out] == ["REP000"]

    def test_unknown_select_code_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_source("x = 1\n", OTHER_PATH, select=["REP999"])

    def test_rule_codes_are_the_documented_eleven(self):
        # File rules first (REP011 is a per-file pass), then the
        # project-aware passes.
        assert RULE_CODES == (
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
            "REP006",
            "REP011",
            "REP007",
            "REP008",
            "REP009",
            "REP010",
        )

    def test_repo_src_is_clean(self):
        assert lint_paths([str(REPO_ROOT / "src")]) == []

    def test_cli_clean_run_exits_zero(self, capsys):
        assert main([str(REPO_ROOT / "src" / "repro" / "contracts.py")]) == 0
        assert "ok" in capsys.readouterr().err

    def test_cli_flags_violation_fixtures(self, capsys):
        fixtures = REPO_ROOT / "tools/replint/fixtures"
        assert main([str(fixtures)]) == 1
        captured = capsys.readouterr()
        for code in RULE_CODES:
            assert code in captured.out, f"{code} missing from fixture output"

    def test_cli_missing_path_exits_two(self, capsys):
        assert main(["no/such/path"]) == 2
        assert "error" in capsys.readouterr().err

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULE_CODES:
            assert code in out

    def test_cli_output_is_deterministic(self, capsys):
        fixtures = str(REPO_ROOT / "tools/replint/fixtures")
        main([fixtures])
        first = capsys.readouterr().out
        main([fixtures])
        second = capsys.readouterr().out
        assert first == second
        lines = [ln for ln in first.splitlines() if ln.strip()]
        assert lines == sorted(lines)


# ----------------------------------------------------------------------
# Baseline workflow
# ----------------------------------------------------------------------
class TestBaseline:
    def test_write_then_apply_round_trip(self, tmp_path, capsys):
        fixtures = str(REPO_ROOT / "tools/replint/fixtures")
        baseline = tmp_path / "replint-baseline.txt"

        # Writing the baseline exits 0 even though violations exist.
        assert main(["--write-baseline", str(baseline), fixtures]) == 0
        capsys.readouterr()

        # With every finding baselined the same run is clean.
        assert main(["--baseline", str(baseline), fixtures]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "baselined" in captured.err
        assert "ok" in captured.err

    def test_new_violations_still_fail_with_baseline(self, tmp_path, capsys):
        fixtures = str(REPO_ROOT / "tools/replint/fixtures")
        baseline = tmp_path / "empty.txt"
        baseline.write_text("# nothing baselined\n")
        assert main(["--baseline", str(baseline), fixtures]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_baseline_is_line_number_independent(self, tmp_path):
        from replint.runner import fingerprint, load_baseline, write_baseline
        from replint.diagnostics import Violation

        v = Violation(
            path="src/x.py", line=10, code="REP007", message="m", col=0
        )
        moved = Violation(
            path="src/x.py", line=99, code="REP007", message="m", col=4
        )
        assert fingerprint(v) == fingerprint(moved)

        path = tmp_path / "b.txt"
        write_baseline([v], str(path))
        assert fingerprint(moved) in load_baseline(str(path))

    def test_missing_baseline_file_exits_two(self, capsys):
        fixtures = str(REPO_ROOT / "tools/replint/fixtures")
        assert main(["--baseline", "no/such/baseline.txt", fixtures]) == 2
        assert "error" in capsys.readouterr().err
