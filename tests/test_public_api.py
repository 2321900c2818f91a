"""The public surface: the names the package exports, and those the demos
and the benchmark tracer use from it.

A demo takes seconds to run and the tracer runs only with the benchmark,
so a removed or renamed name would otherwise surface late.
"""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import pytest

import phcf

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


def test_all_names_resolve():
    missing = [name for name in phcf.__all__ if not hasattr(phcf, name)]
    assert not missing


def test_all_equals_bound_names():
    """__all__ lists exactly the names bound in the package: a deleted
    function still imported, or a new import left out of __all__, fails."""
    bound = {
        name
        for name, value in vars(phcf).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    }
    assert len(phcf.__all__) == len(set(phcf.__all__))
    assert set(phcf.__all__) == bound
