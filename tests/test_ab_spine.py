"""``scripts/ab_spine.py``: the tabulation and the verdict rule, on canned runs.

The script drives the benchmark spine in two checkouts and times nothing
itself, so nothing here reads a clock either: result lines are canned, and
the one end-to-end case runs a stand-in "benchmark" that prints them.
"""

import importlib.util
import json
import os
import sys
import textwrap
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab_spine", Path(__file__).resolve().parents[1] / "scripts" / "ab_spine.py"
)
ab_spine = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_spine)

P50 = {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}
OPS = {"name": "throughput_ops_s", "better": "higher", "bound": 0.25}

STDOUT = textwrap.dedent(
    """\
    serve_ladder seed 601
    tallies: requests=21600 rung.ivf=21600
      latency_p50_ms   0.2 ms
    checks: ok (attempted=21600 failed=0)
    detail: .spine_out/serve_ladder-seed601.run.json
    {"correct": true, "attempted": 21600, "failed": 0, "metrics": {"latency_p50_ms": {"value": 0.2, "unit": "ms"}, "success_ratio": {"value": 1.0, "unit": "ratio"}}}
    """
)


def test_parse_result_reads_the_last_line_and_the_tallies():
    result = ab_spine.parse_result(STDOUT)
    assert result["values"] == {"latency_p50_ms": 0.2, "success_ratio": 1.0}
    assert (result["correct"], result["attempted"], result["failed"]) == (
        True, 21600, 0,
    )
    assert result["tallies"] == "requests=21600 rung.ivf=21600"
    with pytest.raises(ValueError):
        ab_spine.parse_result("Traceback (most recent call last):\n  boom\n")


class TestVerdict:
    PARENT = [0.200, 0.204, 0.198, 0.202, 0.206, 0.199, 0.201, 0.203, 0.197, 0.205]

    def test_nine_wins_of_ten_beyond_the_parent_quartiles_is_a_gain(self):
        change = [p * 0.7 for p in self.PARENT]
        change[3] = self.PARENT[3] * 1.1  # one loss
        row = ab_spine.judge(P50, self.PARENT, change)
        assert (row["wins"], row["losses"], row["pairs"]) == (9, 1, 10)
        assert row["verdict"] == "gain"
        assert row["ratio"] == pytest.approx(0.7, abs=0.01)
        assert row["parent"] == pytest.approx(0.2015)
        q1, q3 = row["parent_quartiles"]
        assert q1 < row["parent"] < q3

    def test_a_tie_is_a_win_for_neither(self):
        change = [p * 0.7 for p in self.PARENT]
        change[0], change[1] = self.PARENT[0], self.PARENT[1]  # two ties
        row = ab_spine.judge(P50, self.PARENT, change)
        assert (row["wins"], row["losses"]) == (8, 0)
        assert row["verdict"] == "within bound"  # 8 of 10 is not nine tenths

    def test_medians_inside_the_parent_quartiles_are_no_gain(self):
        change = [p - 0.001 for p in self.PARENT]  # wins 10/10, by a hair
        row = ab_spine.judge(P50, self.PARENT, change)
        assert row["wins"] == 10 and row["verdict"] == "within bound"

    def test_higher_is_better_is_judged_in_its_own_direction(self):
        parent = [4000 + 10 * i for i in range(10)]
        row = ab_spine.judge(OPS, parent, [v * 1.4 for v in parent])
        assert row["wins"] == 10 and row["verdict"] == "gain"
        row = ab_spine.judge(OPS, parent, [v * 0.7 for v in parent])
        assert row["losses"] == 10 and row["verdict"] == "regression"

    def test_worse_by_more_than_the_bound_is_a_regression(self):
        row = ab_spine.judge(P50, self.PARENT, [p * 1.3 for p in self.PARENT])
        assert row["verdict"] == "regression"
        row = ab_spine.judge(P50, self.PARENT, [p * 1.2 for p in self.PARENT])
        assert row["verdict"] == "within bound"

    def test_spread_wider_than_the_bound_is_unresolved_not_unchanged(self):
        noisy = [0.20, 0.31, 0.19, 0.33, 0.21, 0.30, 0.18, 0.32, 0.22, 0.29]
        row = ab_spine.judge(P50, noisy, list(reversed(noisy)))
        assert row["verdict"] == "unresolved"
        # ... even when the medians sit a regression apart,
        row = ab_spine.judge(P50, noisy, [v * 1.4 for v in reversed(noisy)])
        assert row["verdict"] == "unresolved"
        # ... unless every run of the change beats every run of the parent.
        row = ab_spine.judge(P50, noisy, [0.17] * 10)
        assert row["wins"] == 10 and row["verdict"] == "within bound"

    def test_one_pair_has_no_quartiles(self):
        row = ab_spine.judge(P50, [0.2], [0.1])
        assert row["verdict"] == "too few pairs" and row["wins"] == 1

    def test_render_gives_every_ratio_with_its_base(self):
        row = ab_spine.judge(P50, self.PARENT, [p * 0.7 for p in self.PARENT])
        table = ab_spine.render([row])
        assert "x0.700 (of 0.2015)" in table and "10/10" in table
        assert "0.2015 [0.19875, 0.20425]" in table
        assert table.splitlines()[1].endswith("gain")


def _runs(quality):
    return [{"values": {"latency_p50_ms": 0.2, "answer_quality": q}} for q in quality]


def test_quality_is_listed_per_seed_under_the_table():
    text = ab_spine.quality_by_seed(
        [13, 21, 99],
        {"parent": _runs([0.9617, 0.9719, 0.9617]),
         "change": _runs([0.9570, 0.9719, 0.9719])},
    )
    assert text.splitlines()[0] == "answer_quality by seed"
    assert [line.split() for line in text.splitlines()[2:]] == [
        ["13", "0.9617", "0.957", "-0.0047"],
        ["21", "0.9719", "0.9719", "+0"],
        ["99", "0.9617", "0.9719", "+0.0102"],
    ]
    # Runs that report no quality list nothing.
    bare = [{"values": {"latency_p50_ms": 0.2}}]
    assert ab_spine.quality_by_seed([13], {"parent": bare, "change": bare}) == ""


FAKE_BENCHMARK = textwrap.dedent(
    """\
    import json, pathlib, sys
    args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    side = pathlib.Path.cwd().name
    p50 = (0.2 if side == "parent" else 0.1) + int(args["--seed"]) / 1e4
    with open(pathlib.Path.cwd().parent / "order.log", "a") as log:
        log.write(f"{side} {args['--seed']} {args['--seconds']} {args['--trace']}\\n")
    quality = 0.95 + (int(args["--seed"]) % 2) / 100 * (side == "change")
    print("tallies: rung.ivf=5")
    print(json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": {
        "latency_p50_ms": {"value": p50, "unit": "ms"},
        "answer_quality": {"value": quality, "unit": "ratio"}}}))
    """
)


def test_the_run_history_is_the_tracked_file_at_the_root():
    assert ab_spine.HISTORY == Path(__file__).resolve().parents[1] / (
        "BENCH_history.jsonl"
    )
    assert ab_spine.HISTORY.exists()


def _fake_trees(tmp_path, **declared):
    """A parent and a change checkout whose benchmark is the stand-in."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "fake.py").write_text(FAKE_BENCHMARK)
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps(
                {
                    "command": [sys.executable, "fake.py"],
                    "run_seconds": 12,
                    "end_to_end": [P50],
                    **declared,
                }
            )
        )


def test_main_alternates_the_sides_and_logs_every_run(tmp_path, capsys):
    _fake_trees(tmp_path)
    out = tmp_path / "runs.jsonl"
    code = ab_spine.main(
        [
            str(tmp_path / "parent"), str(tmp_path / "change"),
            "--workload", "serve_ladder", "--seeds", "7-10", "--out", str(out),
        ]
    )
    assert code == 0
    # Odd pairs run the parent first, even pairs the change; the command is
    # the declared one in the driver's form.
    assert (tmp_path / "order.log").read_text().splitlines() == [
        "parent 7 12 0", "change 7 12 0",
        "change 8 12 0", "parent 8 12 0",
        "parent 9 12 0", "change 9 12 0",
        "change 10 12 0", "parent 10 12 0",
    ]
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["pair"], r["side"], r["first"]) for r in records[:4]] == [
        (1, "parent", "parent"), (1, "change", "parent"),
        (2, "change", "change"), (2, "parent", "change"),
    ]
    assert all(r["workload"] == "serve_ladder" for r in records)
    assert all(r["returncode"] == 0 for r in records)
    # Each row names its tree's commit (none: these trees are not git
    # checkouts) and the machine it ran on.
    assert records[0]["commit"] is None
    assert records[0]["cpu_count"] == os.cpu_count()
    assert set(records[0]["blas_threads"]) == set(ab_spine.BLAS_THREADS)
    assert records[0]["values"] == {
        "latency_p50_ms": pytest.approx(0.2007), "answer_quality": 0.95,
    }
    table = capsys.readouterr().out
    assert "4/4" in table and "gain" in table
    # Under the table, each seed's quality on both sides (odd seeds gain).
    below = table.split("answer_quality by seed\n")[1].splitlines()
    assert [line.split() for line in below[1:5]] == [
        ["7", "0.95", "0.96", "+0.01"], ["8", "0.95", "0.95", "+0"],
        ["9", "0.95", "0.96", "+0.01"], ["10", "0.95", "0.95", "+0"],
    ]
    assert "parent: 0 of 20 operations failed, 4/4 runs correct" in table


def test_workloads_expand_all_and_drop_repeats():
    declared = {"workloads": [{"name": "a"}, {"name": "b"}, {"name": "c"}]}
    assert ab_spine.workloads(["b"], declared) == ["b"]
    assert ab_spine.workloads(["all"], declared) == ["a", "b", "c"]
    assert ab_spine.workloads(["c", "all", "a"], declared) == ["c", "a", "b"]


@pytest.mark.parametrize(
    "asked", [["all"], ["serve_scan", "stream_sharded"]], ids=["all", "repeated"]
)
def test_one_call_runs_and_tabulates_every_workload(tmp_path, capsys, asked):
    _fake_trees(
        tmp_path,
        workloads=[{"name": "serve_scan"}, {"name": "stream_sharded"}],
    )
    out = tmp_path / "runs.jsonl"
    flags = [arg for name in asked for arg in ("--workload", name)]
    code = ab_spine.main(
        [str(tmp_path / "parent"), str(tmp_path / "change"), *flags,
         "--seeds", "3-4", "--out", str(out)]
    )
    assert code == 0
    # Each workload's pairs in turn, the sides alternating within each.
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["workload"], r["pair"], r["side"]) for r in records] == [
        ("serve_scan", 1, "parent"), ("serve_scan", 1, "change"),
        ("serve_scan", 2, "change"), ("serve_scan", 2, "parent"),
        ("stream_sharded", 1, "parent"), ("stream_sharded", 1, "change"),
        ("stream_sharded", 2, "change"), ("stream_sharded", 2, "parent"),
    ]
    # One table per workload, all of them after the last run.
    printed = capsys.readouterr().out
    last_run = printed.index("stream_sharded pair 2 seed 4 parent")
    headers = [
        printed.index(f"\n{name}, seeds 3-4, runs appended to {out}")
        for name in ("serve_scan", "stream_sharded")
    ]
    assert last_run < headers[0] < headers[1]
    for start, end in zip(headers, [*headers[1:], len(printed)]):
        table = printed[start:end]
        assert "latency_p50_ms" in table and "2/2" in table
        assert "change: 0 of 10 operations failed, 2/2 runs correct" in table
