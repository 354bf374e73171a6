"""Whole-file writes that leave no half-written file behind."""

from __future__ import annotations

import contextlib
import os
from typing import Iterable


def write_atomic(path: str | os.PathLike, chunks: Iterable[str | bytes]) -> None:
    """Write the chunks (str as UTF-8) to path through a temp file.

    The temp file sits in path's directory and replaces path only once
    every chunk is written, so a write that fails midway leaves neither a
    partial file nor the temp file, and an earlier file at path unchanged.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "wb")
    except OSError as exc:  # name the file asked for, not its temp file
        exc.filename = path
        raise
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        try:
            os.replace(tmp, path)
        except OSError as exc:  # likewise, when path names a directory
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
