"""Every file teammem writes goes through :func:`append` or :func:`replace`.

Both are looked up on this module at each call, so one patch of it sees a
run's writes in order. Each call opens one descriptor, writes exactly
``text.encode("utf-8")`` through it and closes it, so no handle outlives a
call, even one that fails. The parent directory is made only when opening
finds it missing. Neither calls ``fsync``: a killed process leaves each
replaced file old or new and at worst a torn last line in a log, but a power
loss may leave less.
"""

import contextlib
import os
from pathlib import Path

_APPEND = os.O_WRONLY | os.O_CREAT | os.O_APPEND | os.O_CLOEXEC
_TRUNCATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC


def _write(path: str | Path, flags: int, text: str) -> None:
    """Open ``path`` with ``flags``, write all of ``text`` as UTF-8, close it."""
    data = memoryview(text.encode("utf-8"))
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        while data:  # os.write may take less than it is given
            data = data[os.write(fd, data) :]
    finally:
        os.close(fd)


def append(path: str | Path, text: str) -> None:
    """Append ``text`` to ``path``, creating the file and its directory."""
    _write(path, _APPEND, text)


def replace(path: Path, text: str) -> None:
    """Make ``text`` the whole of ``path``: write ``<name>.tmp`` beside it, then rename.

    If either step fails, the temp file is removed and ``path`` is left as it was.
    """
    target = os.fspath(path)
    tmp = target + ".tmp"
    try:
        _write(tmp, _TRUNCATE, text)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
