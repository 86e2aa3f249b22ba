"""Tests for dataset persistence."""

import json

import pytest

from repro.data.io import load_ebsn, save_ebsn


class TestEbsnRoundTrip:
    def test_round_trip_preserves_everything(self, tiny_ebsn, tmp_path):
        save_ebsn(tiny_ebsn, tmp_path / "ds")
        restored = load_ebsn(tmp_path / "ds")
        assert restored.name == tiny_ebsn.name
        assert restored.n_users == tiny_ebsn.n_users
        assert restored.n_events == tiny_ebsn.n_events
        assert restored.n_venues == tiny_ebsn.n_venues
        assert len(restored.attendances) == len(tiny_ebsn.attendances)
        assert restored.friendships == tiny_ebsn.friendships
        for a, b in zip(restored.events, tiny_ebsn.events):
            assert a == b
        for a, b in zip(restored.venues, tiny_ebsn.venues):
            assert a.venue_id == b.venue_id
            assert a.lat == pytest.approx(b.lat)

    def test_adjacency_survives_round_trip(self, tiny_ebsn, tmp_path):
        save_ebsn(tiny_ebsn, tmp_path / "ds")
        restored = load_ebsn(tmp_path / "ds")
        for u in range(tiny_ebsn.n_users):
            assert restored.events_of_user(u) == tiny_ebsn.events_of_user(u)
            assert restored.friends_of(u) == tiny_ebsn.friends_of(u)

    def test_meta_json_contains_statistics(self, tiny_ebsn, tmp_path):
        directory = save_ebsn(tiny_ebsn, tmp_path / "ds")
        meta = json.loads((directory / "meta.json").read_text())
        assert meta["format_version"] == 1
        assert meta["statistics"]["# of users"] == tiny_ebsn.n_users

    def test_load_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_ebsn(tmp_path / "nope")

    def test_load_rejects_unknown_format_version(self, tiny_ebsn, tmp_path):
        directory = save_ebsn(tiny_ebsn, tmp_path / "ds")
        meta = json.loads((directory / "meta.json").read_text())
        meta["format_version"] = 999
        (directory / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            load_ebsn(directory)

    def test_corrupt_jsonl_reports_line(self, tiny_ebsn, tmp_path):
        directory = save_ebsn(tiny_ebsn, tmp_path / "ds")
        target = directory / "users.jsonl"
        target.write_text(target.read_text() + "{broken\n")
        with pytest.raises(ValueError, match="users.jsonl"):
            load_ebsn(directory)

