"""Static checks on the package source.

The runtime imports only the standard library and teammem itself, and only
``teammem.disk`` writes files.
"""

import ast
import sys
from pathlib import Path

import teammem

SOURCES = sorted(Path(teammem.__file__).parent.glob("*.py"))


def imported_modules(path):
    """Top-level names of every module ``path`` imports; relative imports count as teammem."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "teammem" if node.level else node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    assert len(SOURCES) > 1
    foreign = {
        f"{path.name}: {name}"
        for path in SOURCES
        for name in imported_modules(path)
        if name != "teammem" and name not in sys.stdlib_module_names
    }
    assert not foreign, sorted(foreign)


def file_writes(path):
    """Each call in ``path`` that writes, moves or makes a file or directory, by name.

    That is ``open`` (builtin, ``os.open`` or a path's method) with a mode
    that is not read-only, ``write_text``, ``write_bytes``, ``mkdir``,
    ``makedirs``, ``os.write``, ``os.replace``, ``os.rename``, ``os.unlink``
    and ``os.remove``. A mode that is not a string literal, such as
    ``os.open``'s flags, counts as a write.
    """
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "open":
            # open(path, mode) or os.open(path, flags), else path.open(mode)
            at = 1 if isinstance(func, ast.Name) or getattr(func.value, "id", None) == "os" else 0
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[at:at + 1]
            if any(
                not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
                or set(mode.value) & set("wax+")
                for mode in modes
            ):
                yield "open"
        elif name in ("write_text", "write_bytes", "mkdir", "makedirs"):
            yield name
        elif name in ("write", "replace", "rename", "unlink", "remove"):
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
                yield f"os.{name}"


def test_only_the_disk_module_writes_files():
    writers = {path.name: sorted(file_writes(path)) for path in SOURCES}
    # the guard sees the seam's own writes, so it is not blind to them elsewhere
    expected = ["mkdir", "open", "open", "os.replace", "os.unlink", "os.write"]
    assert writers.pop("disk.py") == expected
    assert not {name: calls for name, calls in writers.items() if calls}
