"""File writes a concurrent reader never sees half of."""

from __future__ import annotations

import os
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO

__all__ = ["open_atomic", "write_text_atomic"]


@contextmanager
def _replacing(out: Path) -> Iterator[Path]:
    """A sibling temp path that a clean exit renames over ``out``.

    Same directory, hence the same filesystem; ordinary ``open``
    permissions, so another user's collector can still read the result.
    ``os.replace`` swaps it in: a reader gets the previous content or the
    new one, never a prefix.  If the body or the rename fails the previous
    file is untouched and the temp file is removed.  Atomic for readers,
    not durable — nothing is fsynced (crash consistency is ROADMAP item 7).
    """
    # One name per writer: two threads dumping to one path do not share it.
    tmp = out.with_name(f"{out.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        yield tmp
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path: str | Path, text: str) -> Path:
    """Replace ``path`` with ``text`` in one rename; returns ``path``."""
    out = Path(path)
    with _replacing(out) as tmp:
        tmp.write_text(text)
    return out


@contextmanager
def open_atomic(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file whose content replaces ``path`` in one rename.

    The handle is closed before the rename; leaving the block on an
    exception keeps whatever ``path`` held before.
    """
    with _replacing(Path(path)) as tmp, open(tmp, "wb") as handle:
        yield handle
