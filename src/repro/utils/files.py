"""File writes a concurrent reader never sees half of."""

from __future__ import annotations

import os
import threading
from pathlib import Path

__all__ = ["write_text_atomic"]


def write_text_atomic(path: str | Path, text: str) -> Path:
    """Replace ``path`` with ``text`` in one rename; returns ``path``.

    The text goes to a sibling temp file first (same directory, hence the
    same filesystem; ordinary ``open`` permissions, so another user's
    collector can still read the result) and ``os.replace`` swaps it in:
    a reader gets the previous content or the new one, never a prefix.
    If the write fails the previous file is untouched and the temp file
    is removed.  Atomic for readers, not durable — nothing is fsynced
    (crash consistency is ROADMAP item 7).
    """
    out = Path(path)
    # One name per writer: two threads dumping to one path do not share it.
    tmp = out.with_name(f"{out.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return out
