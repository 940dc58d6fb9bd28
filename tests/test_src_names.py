"""Every private module-level name in `src/contextlab` has a reader in `src/`,
every public one a reader in `src/`, `bench/`, `demos/` or `tests/`, and no
module imports a name it never uses.

A helper stranded by a merge (a function, class or constant whose last caller
moved away) or an import left behind by one would otherwise stay until someone
happened to read past it.  These tests only parse the source.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "contextlab"
MODULES = sorted(SRC.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
READERS = [ast.parse(p.read_text(), filename=str(p))
           for d in ("src", "bench", "demos", "tests") for p in sorted((ROOT / d).rglob("*.py"))]


def read_names(tree) -> set[str]:
    """Each name the module loads, bare or as a module attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def definitions(tree):
    """The module-level functions, classes and constants, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if not (name.startswith("__") and name.endswith("__")))


def imported_names(tree):
    """Each name a module-level or nested import binds, `from __future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)


def test_every_module_is_parsed():
    assert {"simulate.py", "analysis.py", "coins.py", "randtests.py"} <= set(TREES)


@pytest.mark.parametrize("name", sorted(TREES))
def test_private_module_names_are_read_somewhere_in_src(name):
    read = set().union(*map(read_names, TREES.values()))
    private = {n for n in definitions(TREES[name]) if n.startswith("_")}
    stranded = sorted(private - read)
    assert not stranded, f"{name}: {stranded} are never read in src/"


@pytest.mark.parametrize("name", sorted(TREES))
def test_public_module_names_are_read_somewhere(name):
    read = set().union(*map(read_names, READERS))
    public = {n for n in definitions(TREES[name]) if not n.startswith("_")}
    stranded = sorted(public - read)
    assert not stranded, f"{name}: {stranded} are never read in src/, bench/, demos/ or tests/"


@pytest.mark.parametrize("name", sorted(TREES))
def test_modules_use_every_name_they_import(name):
    unused = sorted(set(imported_names(TREES[name])) - read_names(TREES[name]))
    assert not unused, f"{name}: imports {unused} and never uses them"
