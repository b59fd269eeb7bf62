"""The package imports nothing outside the Python standard library, and
nothing slow to import."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "intervalzeta").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 1


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    assert {name.split(".")[0] for name in names} <= sys.stdlib_module_names


def test_cold_start_loads_neither_dataclasses_nor_inspect():
    # every CLI call pays for its imports; these two cost as much as the
    # rest of the set-up together
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import intervalzeta, intervalzeta.cli; "
        "print(intervalzeta.__file__); print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out == [str(SRC / "intervalzeta" / "__init__.py"), "[]"]
