"""Atomic artifact writes: a reader sees the old file or the new one, never a torn one."""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w", **open_kwargs):
    """Open a temporary file beside ``path`` for writing; on a clean exit it
    replaces ``path`` with ``os.replace``.

    ``mode`` is ``"w"`` or ``"wb"``; ``open_kwargs`` go to ``open``. If the
    body raises, the temporary file is removed and ``path`` is left as it
    was. The temporary file is created like ``open`` would create the
    target, so the umask decides its permissions.
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_open writes with 'w' or 'wb', got {mode!r}")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
