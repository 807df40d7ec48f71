"""Every file teammem writes goes through :func:`append` or :func:`replace`.

Both are looked up on this module at each call, so one patch of it sees a
run's writes in order. Neither calls ``fsync``: a killed process leaves each
replaced file old or new and at worst a torn last line in a log, but a power
loss may leave less.
"""

import os
from pathlib import Path


def append(path: Path, text: str) -> None:
    """Append ``text`` to ``path``, creating the file and its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(text)


def replace(path: Path, text: str) -> None:
    """Make ``text`` the whole of ``path``: write ``<name>.tmp`` beside it, then rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
