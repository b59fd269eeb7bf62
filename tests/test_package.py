"""The package imports nothing outside the Python standard library, nothing
slow to import, and keeps no private helper that only tests reach."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "intervalzeta").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def test_sources_found():
    assert len(SOURCES) > 1


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    tree = TREES[path.name]
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


def _private_definitions(tree):
    """(name, node) for each module-level `_private` function, class or
    assigned name; dunder names are not private helpers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _is_reference(node, name) -> bool:
    if isinstance(node, ast.Name):
        return node.id == name and not isinstance(node.ctx, ast.Store)
    return isinstance(node, ast.Attribute) and node.attr == name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_private_names_have_a_src_reference(path):
    # a helper that only tests call belongs in tests/tests_support.py; a
    # mention in a docstring or an import list is not a use
    unused = []
    for name, definition in _private_definitions(TREES[path.name]):
        own = {id(n) for n in ast.walk(definition)}
        if not any(_is_reference(n, name) and id(n) not in own for tree in TREES.values() for n in ast.walk(tree)):
            unused.append(name)
    assert unused == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _foreign_private_reads(tree):
    """The `_private` names a module reads from another src module: imported
    by `from .mod import _name`, or read as `mod._name` of a module imported
    by `from . import mod`."""
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    modules = {alias.asname or alias.name for node in imports if node.module is None for alias in node.names}
    for node in imports:
        if node.module is not None:
            yield from ("%s.%s" % (node.module, alias.name) for alias in node.names if _is_private(alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
                and _is_private(node.attr)):
            yield "%s.%s" % (node.value.id, node.attr)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_private_names_stay_in_their_module(path):
    # a name another module needs is public
    assert list(_foreign_private_reads(TREES[path.name])) == []


def _attribute_readers(node, attr, scope=()):
    """The qualified name of the function or class body around each read of
    `.attr` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _attribute_readers(child, attr, scope + (child.name,))
            continue
        if isinstance(child, ast.Attribute) and child.attr == attr and isinstance(child.ctx, ast.Load):
            yield ".".join(scope)
        yield from _attribute_readers(child, attr, scope)


def test_kneading_words_have_one_reader():
    # the layout of a row's word (t^0 implied, period L_i from t^(P_i)) is
    # decoded in one place; a new row source only writes words
    readers = {"%s.%s" % (path.stem, name) for path in SOURCES
               for name in _attribute_readers(TREES[path.name], "words")}
    assert readers == {"kneading._row", "kneading.KneadingData.modality"}


def test_attribute_readers_are_found():
    tree = ast.parse("class K:\n    def f(self):\n        return self.words\n"
                     "def g(kd):\n    kd.words = 1\n    return [w for w in kd.words]\n")
    assert list(_attribute_readers(tree, "words")) == ["K.f", "g"]


def test_foreign_private_reads_are_found():
    tree = ast.parse("from . import fibmap as fm\nfrom .series import _scaled, poly_mul\nfrom ._value import Value\n"
                     "x = fm._CAP + fm.PUBLIC\ny = fm.__name__\n")
    assert list(_foreign_private_reads(tree)) == ["series._scaled", "fm._CAP"]
