"""Self time on a hand-built span tree and recorder nesting."""

import pytest

from benchmarks.spine.spans import NullRecorder, Span, SpanRecorder, self_seconds


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        Span("request", 0.0, 10.0, None, 1),
        Span("scan", 1.0, 3.0, 0, 1),
        Span("leg", 2.0, 5.0, 0, 1),  # overlaps `scan`: counted once
        Span("late", 8.0, 12.0, 0, 1),  # clipped to the parent's end
        Span("inner", 2.5, 4.0, 2, 1),  # grandchild: charged to `leg` only
        Span("other", 20.0, 21.0, None, 2),
    ]
    own = self_seconds(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0 - 1.5)
    assert own[3] == pytest.approx(4.0)
    assert own[5] == pytest.approx(1.0)


def test_recorder_nests_and_inherits_the_request_id():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    with rec.span("request", request=7):
        with rec.span("engine"):
            with rec.span("scan"):
                pass
        with rec.span("decode"):
            pass
    names = [(s.name, s.parent, s.request) for s in rec.spans]
    assert names == [
        ("request", None, 7),
        ("engine", 0, 7),
        ("scan", 1, 7),
        ("decode", 0, 7),
    ]
    assert rec.durations("request") == [7.0]
    # request [0,7] minus engine [1,4] and decode [5,6]
    assert rec.self_by_name()["request"] == [3.0]


def test_null_recorder_records_nothing():
    rec = NullRecorder()
    with rec.span("anything", request=1):
        pass
    assert not rec.enabled and len(rec.spans) == 0
