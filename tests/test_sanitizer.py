"""Tests for the ``REPRO_TSAN`` lock-coverage sanitizer.

Three layers:

* pure-function tests for :func:`repro.sanitizer.scan_guarded_lines`
  and the :class:`_TsanLock` wrapper — these need no environment;
* structural zero-cost checks for whichever mode this process runs in
  (``tsan_lock`` identity + no trace hook when off, wrapped serving
  locks when on), so the same file is meaningful under both the default
  tier-1 run and the ``REPRO_TSAN=1`` CI stage;
* subprocess probes that flip ``REPRO_TSAN=1`` for real: a deliberate
  unlocked access on a watched module must be reported, its locked twin
  must not, and a threaded serving stress must finish clean.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro import sanitizer
from repro.sanitizer import _TsanLock, scan_guarded_lines, tsan_lock

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_probe(script: str, *, tsan: str = "1") -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter with REPRO_TSAN set."""
    env = dict(os.environ)
    env["REPRO_TSAN"] = tsan
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=str(REPO_ROOT),
    )


# ----------------------------------------------------------------------
# scan_guarded_lines — pure static-map extraction
# ----------------------------------------------------------------------
class TestScanGuardedLines:
    SOURCE = textwrap.dedent(
        """\
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._n = 0  # replint: guarded-by(_lock)
                self._free = 0

            def bump(self):
                self._n += 1

            def read_free(self):
                return self._free
        """
    )

    def test_maps_guarded_access_lines(self):
        linemap = scan_guarded_lines(self.SOURCE)
        assert linemap == {10: (("_n", "_lock"),)}

    def test_init_lines_are_exempt(self):
        linemap = scan_guarded_lines(self.SOURCE)
        assert 6 not in linemap  # the declaring assignment itself

    def test_allow_pragma_excludes_line(self):
        src = self.SOURCE.replace(
            "self._n += 1", "self._n += 1  # replint: allow(REP007)"
        )
        assert scan_guarded_lines(src) == {}

    def test_comment_only_pragma_binds_to_next_line(self):
        src = textwrap.dedent(
            """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    # replint: guarded-by(_lock)
                    self._n = 0

                def bump(self):
                    self._n += 1
            """
        )
        assert scan_guarded_lines(src) == {10: (("_n", "_lock"),)}

    def test_inline_pragma_does_not_leak_to_next_line(self):
        src = textwrap.dedent(
            """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._a = 0  # replint: guarded-by(_lock)
                    self._b = 0

                def read_b(self):
                    return self._b
            """
        )
        assert scan_guarded_lines(src) == {}

    def test_syntax_error_yields_empty_map(self):
        assert scan_guarded_lines("def f(:\n") == {}

    def test_real_serving_modules_have_guarded_lines(self):
        def guarded(module: str) -> set[str]:
            source = (REPO_ROOT / "src/repro/serving" / module).read_text()
            linemap = scan_guarded_lines(source)
            return {attr for entries in linemap.values() for attr, _ in entries}

        assert {"_cache", "_stale"} <= guarded("engine.py")
        assert {
            "_snap", "_pair_buffer", "profiler", "build_stats", "_trunc_rows_per_s"
        } <= guarded("index.py")
        assert {"_snap"} <= guarded("sharded.py")
        assert {"_queue", "_offered", "_visible", "_dropped"} <= guarded(
            "streaming.py"
        )
        assert {"_window", "_by_rung", "_totals", "_sheds"} <= guarded(
            "telemetry.py"
        )


# ----------------------------------------------------------------------
# _TsanLock semantics (constructible regardless of the env gate)
# ----------------------------------------------------------------------
class TestTsanLockWrapper:
    def test_tracks_hold_depth(self):
        wrapped = _TsanLock(threading.Lock(), "_lock")
        assert not wrapped.held_by_current_thread()
        with wrapped:
            assert wrapped.held_by_current_thread()
        assert not wrapped.held_by_current_thread()

    def test_reentrant_with_rlock(self):
        wrapped = _TsanLock(threading.RLock(), "_lock")
        with wrapped:
            with wrapped:
                assert wrapped.held_by_current_thread()
            assert wrapped.held_by_current_thread()
        assert not wrapped.held_by_current_thread()

    def test_other_thread_does_not_appear_held(self):
        wrapped = _TsanLock(threading.Lock(), "_lock")
        seen: list[bool] = []
        with wrapped:
            t = threading.Thread(
                target=lambda: seen.append(wrapped.held_by_current_thread())
            )
            t.start()
            t.join()
        assert seen == [False]

    def test_failed_nonblocking_acquire_not_counted(self):
        inner = threading.Lock()
        wrapped = _TsanLock(inner, "_lock")
        inner.acquire()
        try:
            assert wrapped.acquire(blocking=False) is False
            assert not wrapped.held_by_current_thread()
        finally:
            inner.release()


# ----------------------------------------------------------------------
# Structural mode checks for the current process
# ----------------------------------------------------------------------
class TestCurrentMode:
    @pytest.mark.skipif(sanitizer.enabled(), reason="REPRO_TSAN is on")
    def test_disabled_tsan_lock_is_identity(self):
        lock = threading.Lock()
        assert tsan_lock(lock, "_lock") is lock

    @pytest.mark.skipif(sanitizer.enabled(), reason="REPRO_TSAN is on")
    def test_disabled_watch_is_noop(self):
        path = REPO_ROOT / "src/repro/serving/engine.py"
        assert sanitizer.watch(str(path)) == 0

    @pytest.mark.skipif(not sanitizer.enabled(), reason="REPRO_TSAN is off")
    def test_enabled_serving_locks_are_wrapped(self):
        import numpy as np

        from repro.serving import ServingEngine

        rng = np.random.default_rng(0)
        engine = ServingEngine(
            np.abs(rng.normal(0.3, 0.3, (6, 4))),
            np.abs(rng.normal(0.3, 0.3, (5, 4))),
            np.arange(5),
        )
        assert isinstance(engine._build_lock, _TsanLock)
        assert isinstance(engine._cache_lock, _TsanLock)


# ----------------------------------------------------------------------
# Subprocess probes with REPRO_TSAN=1
# ----------------------------------------------------------------------
class TestEnabledProbes:
    def test_unlocked_access_is_reported_locked_is_not(self, tmp_path):
        module = tmp_path / "tsan_probe_mod.py"
        module.write_text(
            textwrap.dedent(
                """\
                import threading

                from repro.sanitizer import tsan_lock


                class Box:
                    def __init__(self):
                        self._lock = tsan_lock(threading.Lock(), "_lock")
                        self._n = 0  # replint: guarded-by(_lock)

                    def bump_locked(self):
                        with self._lock:
                            self._n += 1

                    def bump_unlocked(self):
                        self._n += 1
                """
            )
        )
        script = f"""
            import importlib.util
            import threading

            import repro.sanitizer as san

            assert san.enabled()
            n_lines = san.watch({str(module)!r})
            assert n_lines == 2, n_lines

            spec = importlib.util.spec_from_file_location(
                "tsan_probe_mod", {str(module)!r}
            )
            mod = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(mod)

            box = mod.Box()
            box.bump_locked()
            print("after_locked", len(san.violations()))

            t = threading.Thread(target=box.bump_unlocked)
            t.start()
            t.join()
            print("after_unlocked", len(san.violations()))
            print(san.report(), end="")
        """
        result = run_probe(script)
        assert result.returncode == 0, result.stderr
        assert "after_locked 0" in result.stdout
        assert "after_unlocked 1" in result.stdout
        assert "'_n' accessed without holding '_lock'" in result.stdout

    def test_threaded_serving_stress_is_clean(self):
        script = """
            import threading

            import numpy as np

            import repro.sanitizer as san
            from repro.serving import ServingEngine

            assert san.enabled()
            rng = np.random.default_rng(7)
            E = np.abs(rng.normal(0.3, 0.3, (16, 5)))
            U = np.abs(rng.normal(0.3, 0.3, (24, 5)))
            engine = ServingEngine(U, E, np.arange(16), cache_size=8)

            errors = []

            def worker(offset):
                try:
                    for user in range(offset, offset + 8):
                        engine.query(user % U.shape[0], 3)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i * 5,))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert not errors, errors
            print("violations", len(san.violations()))
            print(san.report(), end="")
        """
        result = run_probe(script)
        assert result.returncode == 0, result.stderr
        assert "violations 0" in result.stdout

    def test_hooks_are_gone_before_module_teardown(self):
        # What a pytest session leaves behind at shutdown: a module
        # imported before repro still references the sanitizer (so its
        # globals are wiped to None, not just dropped) and a log handler,
        # whose weakref callback then runs as a traced call.  The hooks
        # must be uninstalled by then: nothing on stderr.
        script = """
            import logging
            import sys
            import threading

            import repro.sanitizer
            from repro.sanitizer import tsan_lock

            log = logging.getLogger("probe")
            threading.probe = (repro.sanitizer, logging.StreamHandler(sys.stdout))
            log.addHandler(threading.probe[1])
            with tsan_lock(threading.Lock(), "_lock"):
                log.warning("once")
            log.removeHandler(threading.probe[1])
        """
        result = run_probe(script)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "once\n"
        assert result.stderr == ""

    def test_disabled_process_installs_no_trace(self):
        script = """
            import sys

            import threading

            import repro.sanitizer as san

            assert not san.enabled()
            assert sys.gettrace() is None
            lock = threading.Lock()
            assert san.tsan_lock(lock, "_lock") is lock
            print("structurally-free")
        """
        result = run_probe(script, tsan="")
        assert result.returncode == 0, result.stderr
        assert "structurally-free" in result.stdout
