"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json names comes out with its unit on
every workload, that the layers a workload exercises show work there, and
that the harness refuses to run without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7  # not the golden seed, so the structural checks alone apply

SIMULATIONS = {"sim_long_fig3", "sim_wide_ring2000", "ensemble_fig1"}
SPECTRAL = {"sim_long_fig3", "sim_wide_ring2000", "stability_map_fig3"}

# The lasting job of each workload: (metric that counts the work, the
# workloads that do it).  The metric reads more than 0 on exactly these.
EXERCISED = {
    "model.acceleration_array.calls": SIMULATIONS,
    "sde.noise_block.calls": SIMULATIONS,
    "sde.stack.calls": SIMULATIONS,
    "stats.observables.calls": SIMULATIONS,
    "spectral.stability_report.calls": SPECTRAL,
    "svgplot.bytes": SPECTRAL,
    "cli.csv_bytes": set(run.WORKLOADS),
    "scenario.load_s": set(run.WORKLOADS),
}
# Dense builds that an O(N) spectral layer may remove: they may read 0
# anywhere, and must read 0 on a workload whose command cannot reach them.
REACHABLE = {
    "model.build_matrices.s": SIMULATIONS,
    "model.assemble_drift_matrix.calls": set(run.WORKLOADS),
    "spectral.drift_matrix_norm.calls": SPECTRAL,
}


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[-2])["environment"]
    assert env["workload_seed"] == SEED
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stderr
    return out["metrics"]


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_end_to_end_metrics(workload):
    metrics = result(workload, 0)
    for spec in SPEC["end_to_end"]:
        got = metrics[spec["name"]]
        assert got["unit"] == spec["unit"]
        assert got["value"] > 0, spec["name"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_per_layer_metrics(workload):
    metrics = result(workload, 1)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    for name, workloads in EXERCISED.items():
        value = metrics[name]["value"]
        assert (value > 0) == (workload in workloads), (name, value)
    for name, workloads in REACHABLE.items():
        value = metrics[name]["value"]
        assert value >= 0 and (value == 0 or workload in workloads), (name, value)


def test_golden_mismatch_names_the_file(tmp_path):
    wl = run.Workload("fig3", "simulate", t_end=0.2)
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(run.scenario_text(wl, SEED), encoding="utf-8")
    out = tmp_path / "out"
    subprocess.run([sys.executable, "-m", "phcf", *run.cli_args(wl, scenario, out)],
                   env=run.child_env(), check=True, timeout=120)
    errors, hashes, _, files = run.check_outputs(wl, out, None)
    assert errors == [] and files == 5
    golden = dict(hashes, **{"observables.csv": "0" * 64})
    errors, _, _, _ = run.check_outputs(wl, out, golden)
    assert errors == ["observables.csv: SHA-256 differs from golden_seed42.json"]
    (out / "trajectory.csv").write_text("t,q1\n0,nan\n", encoding="utf-8")
    errors, _, _, _ = run.check_outputs(wl, out, None)
    assert errors and errors[0].startswith("trajectory.csv:")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sim_long_fig3", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
