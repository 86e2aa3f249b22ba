"""Shared fixtures: a tiny synthetic EBSN, its split and training graphs.

Session-scoped so the ~60-user dataset and its graph bundle are built once
for the whole suite; tests must treat them as read-only (anything mutating
should build its own copy).
"""

from __future__ import annotations

import os
from pathlib import Path

# Runtime shape/dtype contracts are compiled in at repro import time, so
# this must run before anything from repro is imported (conftest.py is
# loaded first by pytest, making it the reliable switch point).
os.environ.setdefault("REPRO_CONTRACTS", "1")

import numpy as np
import pytest

from repro.data import chronological_split, make_dataset
from repro.data.splits import DatasetSplit
from repro.ebsn.graphs import GraphBundle
from repro.ebsn.network import EBSN


@pytest.fixture(scope="session")
def tiny_dataset():
    """(EBSN, ground truth) for the 'tiny' preset."""
    return make_dataset("tiny", seed=11)


@pytest.fixture(scope="session")
def tiny_ebsn(tiny_dataset) -> EBSN:
    return tiny_dataset[0]


@pytest.fixture(scope="session")
def tiny_truth(tiny_dataset):
    return tiny_dataset[1]


@pytest.fixture(scope="session")
def tiny_split(tiny_ebsn) -> DatasetSplit:
    return chronological_split(tiny_ebsn)


@pytest.fixture(scope="session")
def tiny_bundle(tiny_split) -> GraphBundle:
    return tiny_split.training_bundle()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


class FakeClock:
    """A clock the test owns: reading it returns ``now``, only ``advance``
    moves it.

    Hand the instance to ``RequestContext(clock=)`` and ``advance`` to
    ``FaultPlan(sleep=)``: queue wait and injected stalls then drain a
    request's budget exactly and instantly, with no wall clock involved.
    """

    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture()
def break_write(monkeypatch):
    """``break_write("mid-write" | "rename")`` fails the next atomic write.

    ``"mid-write"``: ``Path.write_text`` writes half its text, then raises
    as a full disk would; ``"rename"``: the ``os.replace`` of
    ``repro.utils.files`` raises.  ``monkeypatch.undo()`` mends both.
    """
    real_write_text = Path.write_text

    def disk_full(self, text, *args, **kwargs):
        real_write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    def no_rename(src, dst):
        raise OSError(13, "Permission denied")

    def install(fail_at):
        if fail_at == "mid-write":
            monkeypatch.setattr(Path, "write_text", disk_full)
        else:
            assert fail_at == "rename"
            monkeypatch.setattr("repro.utils.files.os.replace", no_rename)

    return install


@pytest.fixture(scope="session", autouse=True)
def _tsan_clean_at_exit():
    """Under REPRO_TSAN=1, fail the run if any test left a lock-coverage
    violation behind: every guarded attribute access in the whole suite
    must have held its declared lock."""
    yield
    from repro import sanitizer

    if sanitizer.enabled():
        assert sanitizer.violations() == [], sanitizer.report()
