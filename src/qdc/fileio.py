"""Crash-safe artifact writes: a temp sibling, then an atomic rename."""
from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "wb"):
    """Open a temp sibling of path for writing; replace path with it on exit.

    path keeps its previous contents until the block completes, and a block
    that raises leaves no temp file behind. The rename is atomic on one
    file system, so a process killed mid-write never leaves a partial
    artifact under path. Text modes write UTF-8.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    encoding = None if "b" in mode else "utf-8"
    try:
        with open(tmp, mode, encoding=encoding) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write text as UTF-8 through atomic_write."""
    with atomic_write(path, "w") as f:
        f.write(text)
