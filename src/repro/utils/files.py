"""Durable file publication: neither a reader nor a crash sees half a file.

:func:`write_text_atomic` writes a sibling temp file, fsyncs it, swaps it
in with one ``os.replace`` and then fsyncs the directory, so the rename
itself survives a power loss.  A concurrent reader gets the previous
content or the new one, never a prefix; after a crash at any point the
path holds one of the two, whole.  :func:`fsync_path` is the primitive,
exported for writers (the embedding store's ``.dat`` files) that must be
on disk before the file that publishes them is swapped in.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

__all__ = ["fsync_path", "write_text_atomic"]


def fsync_path(path: str | Path) -> None:
    """Flush ``path`` to stable storage: a file's data, or a directory's
    entries (which is what makes a rename inside it durable)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_text_atomic(path: str | Path, text: str) -> Path:
    """Replace ``path`` with ``text`` durably, in one rename; returns ``path``.

    The temp file sits in the same directory, hence on the same
    filesystem, with ordinary ``open`` permissions, so another user's
    collector can still read the result.  Order: temp-file fsync, then
    ``os.replace``, then directory fsync.  If the write, the fsync or the
    rename fails, the previous file is untouched and the temp file is
    removed.
    """
    out = Path(path)
    # One name per writer: two threads dumping to one path do not share it.
    tmp = out.with_name(f"{out.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text)
        fsync_path(tmp)
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_path(out.parent)
    return out
