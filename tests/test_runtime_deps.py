"""The runtime imports only the standard library and teammem itself."""

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
