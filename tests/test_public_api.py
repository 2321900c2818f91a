"""The public surface: the names the package exports, those the demos
and the benchmark tracer use from it, and the command layer's use of
public names only.

A demo takes seconds to run and the tracer runs only with the benchmark,
so a removed or renamed name would otherwise surface late.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import phcf
from phcf.scenario import write_scenario
from phcf.sde import _step_count

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


def test_spectra_and_stability_map_demos_run(tmp_path):
    """The two demos that call the broadcast stability report and the
    index-rule abscissa run to their stated results.  They run as copies
    in tmp_path, so their SVGs go to tmp_path/output, not demos/output."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = {}
    for name in ("spectra.py", "stability_map.py"):
        copy = tmp_path / name
        copy.write_text((ROOT / "demos" / name).read_text(encoding="utf-8"), encoding="utf-8")
        proc = subprocess.run([sys.executable, str(copy)], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        out[name] = proc.stdout
    spectra = out["spectra.py"].splitlines()
    assert [line.strip() for line in spectra if "structural zeros" in line] == [
        f"structural zeros: {count}" for count in (2, 1, 1)]
    assert [line.strip() for line in spectra if "spectral abscissa" in line] == [
        f"spectral abscissa (nonzero modes): {value}" for value in ("-0.04894", "-0.09894", "+0.00419")]
    assert "all inside the exact region: True" in out["stability_map.py"]
    assert "stability flips at gamma = [0.1, 1.55]" in out["stability_map.py"]
    assert (tmp_path / "output" / "stability_map.svg").exists()


def test_tracer_bindings_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for binding, _ in tracer.SPANS:
        owner, attr = tracer._resolve(binding)
        assert callable(getattr(owner, attr, None)), binding


@pytest.mark.parametrize("name, command, runs", [
    ("fig1", "simulate", 1),
    ("fig1", "ensemble", 3),
    ("fig3", "simulate", 1),
], ids=["simulate-1", "ensemble-3", "fig3-simulate-1"])
def test_tracer_counts_runs_and_run_steps(tmp_path, name, command, runs):
    """The tracer reads the run count from the integrator's arguments, so
    a change of the simulate or run_ensemble signature would corrupt the
    per-run-step metrics without any error; run it on a tiny command.
    The spans the benchmark's workloads must exercise are counted through
    the bindings the tracer wraps, so a command that stops calling one of
    them fails here too: the stability report on gap feedback only, the
    observables once per command, the stacked samples at least once."""
    sc = phcf.preset(name)
    sc = replace(sc, config=replace(sc.config, t_end=0.1))
    scenario = tmp_path / "s.ini"
    write_scenario(sc, scenario)
    trace = tmp_path / "trace.json"
    args = [sys.executable, str(ROOT / "bench" / "tracer.py"), str(trace), command,
            "--scenario", str(scenario), "--out", str(tmp_path / "o"), "--svg", "off"]
    if command == "ensemble":
        args += ["--runs", str(runs)]
    src = str(Path(phcf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run(args, check=True, cwd=tmp_path, env=env, timeout=120)
    report = json.loads(trace.read_text())
    counters, spans = report["counters"], report["spans"]
    assert counters["sde.runs"] == runs
    assert counters["sde.run_steps"] == runs * _step_count(sc.config.dt, sc.config.t_end)
    assert (spans["spectral.stability_report"]["calls"] > 0) == (name == "fig3")
    assert spans["stats.observables"]["calls"] == 1
    assert spans["sde.stack"]["calls"] > 0


def test_cli_imports_no_private_name():
    """The command layer uses the package through public names only, so a
    private helper stays free to change with the module that owns it."""
    tree = ast.parse((ROOT / "src" / "phcf" / "cli.py").read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "phcf")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert private == []


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
