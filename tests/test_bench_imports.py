"""Every `contextlab` name the benchmark scripts import still exists.

The scripts under `bench/` run only in benchmark runs, so a rename in `src/`
that breaks one would otherwise show up only there.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def contextlab_imports(path: Path):
    """(module, name) for each `from contextlab... import name`; name None for `import`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "contextlab":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "contextlab":
                    yield alias.name, None


SCRIPTS = sorted(BENCH.glob("*.py"))


def test_bench_scripts_import_contextlab_names():
    assert any(list(contextlab_imports(path)) for path in SCRIPTS)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_bench_imports_resolve(path):
    for module, name in contextlab_imports(path):
        loaded = importlib.import_module(module)
        assert name is None or hasattr(loaded, name), f"{path.name}: {module}.{name} is gone"
