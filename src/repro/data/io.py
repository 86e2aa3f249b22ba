"""Dataset persistence.

Datasets are stored as a directory of JSON-Lines files (one entity type per
file) plus a ``meta.json`` — the format a Douban/Meetup crawler would
naturally emit, so swapping in real crawled data only requires writing
these files.  Trained state has its own format, the
:class:`~repro.core.store.MemmapStore` directory (``GEM.save`` /
``GEM.load``, :func:`repro.online.persistence.save_engine`).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.ebsn.entities import Attendance, Event, Friendship, User, Venue
from repro.ebsn.network import EBSN

_FILES = {
    "users": "users.jsonl",
    "events": "events.jsonl",
    "venues": "venues.jsonl",
    "attendances": "attendances.jsonl",
    "friendships": "friendships.jsonl",
}

FORMAT_VERSION = 1


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def _read_jsonl(path: Path) -> list[dict]:
    rows: list[dict] = []
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
    return rows


def save_ebsn(ebsn: EBSN, directory: "str | Path") -> Path:
    """Serialise an EBSN to ``directory`` (created if missing)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    _write_jsonl(
        directory / _FILES["users"],
        [{"user_id": u.user_id, "name": u.name} for u in ebsn.users],
    )
    _write_jsonl(
        directory / _FILES["venues"],
        [
            {"venue_id": v.venue_id, "lat": v.lat, "lon": v.lon, "name": v.name}
            for v in ebsn.venues
        ],
    )
    _write_jsonl(
        directory / _FILES["events"],
        [
            {
                "event_id": e.event_id,
                "venue_id": e.venue_id,
                "start_time": e.start_time,
                "description": e.description,
                "title": e.title,
                "organizer_id": e.organizer_id,
            }
            for e in ebsn.events
        ],
    )
    _write_jsonl(
        directory / _FILES["attendances"],
        [
            {"user_id": a.user_id, "event_id": a.event_id, "rating": a.rating}
            for a in ebsn.attendances
        ],
    )
    _write_jsonl(
        directory / _FILES["friendships"],
        [{"user_a": f.user_a, "user_b": f.user_b} for f in ebsn.friendships],
    )
    meta = {
        "format_version": FORMAT_VERSION,
        "name": ebsn.name,
        "statistics": dict(ebsn.statistics().as_rows()),
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")
    return directory


def load_ebsn(directory: "str | Path") -> EBSN:
    """Load an EBSN previously written by :func:`save_ebsn`."""
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise FileNotFoundError(f"not an EBSN dataset directory: {directory}")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported dataset format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )

    users = [
        User(user_id=r["user_id"], name=r.get("name", ""))
        for r in _read_jsonl(directory / _FILES["users"])
    ]
    venues = [
        Venue(
            venue_id=r["venue_id"],
            lat=float(r["lat"]),
            lon=float(r["lon"]),
            name=r.get("name", ""),
        )
        for r in _read_jsonl(directory / _FILES["venues"])
    ]
    events = [
        Event(
            event_id=r["event_id"],
            venue_id=r["venue_id"],
            start_time=float(r["start_time"]),
            description=r.get("description", ""),
            title=r.get("title", ""),
            organizer_id=r.get("organizer_id"),
        )
        for r in _read_jsonl(directory / _FILES["events"])
    ]
    attendances = [
        Attendance(
            user_id=r["user_id"],
            event_id=r["event_id"],
            rating=r.get("rating"),
        )
        for r in _read_jsonl(directory / _FILES["attendances"])
    ]
    friendships = [
        Friendship(user_a=r["user_a"], user_b=r["user_b"])
        for r in _read_jsonl(directory / _FILES["friendships"])
    ]
    return EBSN(
        users=users,
        events=events,
        venues=venues,
        attendances=attendances,
        friendships=friendships,
        name=meta.get("name", "ebsn"),
    )
