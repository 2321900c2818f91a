"""The names the demos and the benchmark tracer use from the package.

A demo takes seconds to run and the tracer runs only with the benchmark,
so a removed or renamed name would otherwise surface late.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _phcf_imports(path):
    """(module, name) for each name a file imports from phcf or phcf.<module>."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "phcf":
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    names = list(_phcf_imports(path))
    assert names, "the demo imports nothing from phcf"
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_tracer_bindings_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for binding, _ in tracer.SPANS:
        owner, attr = tracer._resolve(binding)
        assert callable(getattr(owner, attr, None)), binding
