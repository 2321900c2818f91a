"""Scenario files, presets, CSV contracts and manifest reproducibility."""

import contextlib
import csv
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phcf
from phcf import CustomDerivative, InvalidInputError, load_scenario, preset, stability_report
from phcf.cli import (
    _load,
    build_parser,
    cmd_ensemble,
    cmd_simulate,
    cmd_spectrum,
    cmd_stability_map,
    main,
    parse_vary,
)
from phcf.scenario import (
    PRESETS,
    Scenario,
    format_manifest,
    format_scenario,
    parse_scenario,
    write_scenario,
)
from oracles import report_at


def short_scenario(name="fig1", t_end=2.0, stride=10):
    sc = preset(name)
    return replace(sc, config=replace(sc.config, t_end=t_end, sample_stride=stride))


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# presets and scenario round trips


def test_preset_fig2_commanded_speed():
    assert preset("fig2").params.regime.x == 2.05


def test_preset_fig1_uncontrolled():
    sc = preset("fig1")
    assert sc.params.gamma == 0.0
    assert sc.params.alpha == 1.0 and sc.params.beta == 1.0 and sc.params.sigma == 1.0
    assert sc.params.n_vehicles == 20 and sc.params.ring_length == 141.0
    assert sc.config.dt == 0.001 and sc.config.t_end == 250.0


def test_preset_fig3_sufficient_lhs():
    report = stability_report(preset("fig3").params)
    assert report.sufficient_lhs == 1.5 and not report.sufficient_stable


def test_preset_unknown_name(capsys):
    """preset() and the preset command know exactly the names of PRESETS."""
    with pytest.raises(InvalidInputError):
        preset("fig4")
    with pytest.raises(SystemExit) as info:
        main(["preset", "fig4"])
    assert info.value.code == 2
    assert "{" + ",".join(PRESETS) + "}" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
def test_scenario_round_trip(name):
    sc = preset(name)
    again = parse_scenario(format_scenario(sc))
    assert again.params == sc.params
    assert again.config == sc.config
    assert again.output == sc.output


# format_scenario(preset(name)) as written before the regimes carried
# their own behaviour; the round trip above compares objects and would
# miss a lost unit comment.
PRESET_TEXT_MODEL = """[model]
; n_vehicles: count, ring_length: length units
; alpha, beta, gamma: 1/time; sigma: length/time^(3/2)
n_vehicles = 20
ring_length = 141.0
alpha = {alpha}
beta = 1.0
gamma = {gamma}
sigma = 1.0
potential = quadratic

[regime]
"""
PRESET_TEXT_SIM = """
[sim]
; dt, t_end: time units
dt = 0.001
t_end = 250.0
sample_stride = 100
seed = 42
initial = {initial}

[output]
svg = true
wrap_positions = true
"""
PRESET_TEXT_REGIME = {
    "fig1": ("1.0", "0.0", "kind = uncontrolled\n"),
    "fig2": ("0.5", "0.1", "kind = open_loop\n; x: length/time\nx = 2.05\n"),
    "fig3": ("0.5", "1.0", "kind = closed_loop\n; ell: length units, t_gap: time units\n"
                           "ell = 5.0\nt_gap = 1.0\n"),
}


@pytest.mark.parametrize("initial", ["uniform_zero_speed", "uniform_stationary"])
@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
def test_format_scenario_text_is_pinned(name, initial):
    from phcf import UniformStationary, UniformZeroSpeed

    alpha, gamma, regime = PRESET_TEXT_REGIME[name]
    sc = preset(name)
    start = UniformStationary() if initial == "uniform_stationary" else UniformZeroSpeed()
    sc = replace(sc, config=replace(sc.config, initial=start))
    assert format_scenario(sc) == (
        PRESET_TEXT_MODEL.format(alpha=alpha, gamma=gamma) + regime
        + PRESET_TEXT_SIM.format(initial=initial)
    )


def test_unknown_names_rejected():
    text = format_scenario(preset("fig1"))
    with pytest.raises(InvalidInputError, match="unknown regime kind 'cruise'"):
        parse_scenario(text.replace("kind = uncontrolled", "kind = cruise"))
    with pytest.raises(InvalidInputError, match="unknown initial condition 'random'"):
        parse_scenario(text.replace("initial = uniform_zero_speed", "initial = random"))
    from phcf import Explicit

    sc = preset("fig1")
    start = Explicit(q=np.arange(20.0), p=np.zeros(20))
    with pytest.raises(InvalidInputError, match="Explicit cannot be written"):
        format_scenario(replace(sc, config=replace(sc.config, initial=start)))


def test_manifest_round_trip_keeps_preset_name():
    sc = preset("fig2")
    text = format_manifest(sc, {"command": "simulate"})
    again = parse_scenario(text)
    assert again.preset_name == "fig2"
    assert again.params == sc.params


def test_unknown_key_rejected():
    text = format_scenario(preset("fig1")).replace("[sim]", "[sim]\nwarp_drive = 9")
    with pytest.raises(InvalidInputError, match="warp_drive"):
        parse_scenario(text)


def test_missing_key_rejected():
    text = format_scenario(preset("fig1")).replace("sigma = 1.0\n", "")
    with pytest.raises(InvalidInputError, match="sigma"):
        parse_scenario(text)


def test_unknown_section_rejected():
    text = format_scenario(preset("fig1")) + "\n[extras]\nfoo = 1\n"
    with pytest.raises(InvalidInputError, match="extras"):
        parse_scenario(text)


def test_regime_key_mismatch_rejected():
    text = format_scenario(preset("fig1")).replace("kind = uncontrolled", "kind = uncontrolled\nx = 2.0")
    with pytest.raises(InvalidInputError):
        parse_scenario(text)


def test_unsupported_potential_rejected():
    text = format_scenario(preset("fig1")).replace("potential = quadratic", "potential = morse")
    with pytest.raises(InvalidInputError, match="potential"):
        parse_scenario(text)


def test_format_scenario_rejects_custom_potential():
    """The file format has no key for a CustomDerivative, so writing one
    would silently turn it into the quadratic potential on reload."""
    sc = preset("fig1")
    sc = replace(sc, params=replace(sc.params, potential=CustomDerivative(np.tanh)))
    with pytest.raises(InvalidInputError, match="CustomDerivative"):
        format_scenario(sc)


def test_seed_override(tmp_path):
    """The command line's --seed and --svg override the scenario file's
    values; an option not given leaves the file's value."""
    path = tmp_path / "s.ini"

    def load(*options):
        return _load(build_parser().parse_args(["simulate", "--scenario", str(path), *options]))

    sc = preset("fig1")
    for svg in (False, True):
        write_scenario(replace(sc, output=replace(sc.output, svg=svg)), path)
        assert load() == load_scenario(path)
        assert load().config.seed == 42
        assert load("--seed", "777").config.seed == 777
        assert load().output.svg is svg
        assert load("--svg", "off").output.svg is False
        assert load("--svg", "on").output.svg is True


# ---------------------------------------------------------------------------
# simulate command


def test_cmd_simulate_contract(tmp_path):
    sc = short_scenario("fig1")
    assert cmd_simulate(sc, tmp_path / "run") == 0
    out = tmp_path / "run"
    assert (out / "trajectory.csv").exists()
    assert (out / "observables.csv").exists()
    assert (out / "run_manifest.txt").exists()
    assert (out / "trajectory.svg").exists()
    header, rows = read_csv(out / "trajectory.csv")
    assert len(header) == 1 + 2 * 20
    assert header[0] == "t" and header[1] == "q1" and header[21] == "p1"
    assert len(rows) == 2.0 / 0.001 // 10 + 1
    header, _ = read_csv(out / "observables.csv")
    assert header == ["t", "mean_speed", "speed_variance", "p1", "hamiltonian"]


def test_cmd_simulate_rerun_from_manifest_is_byte_identical(tmp_path):
    sc = short_scenario("fig2")
    cmd_simulate(sc, tmp_path / "a")
    replay = load_scenario(tmp_path / "a" / "run_manifest.txt")
    cmd_simulate(replay, tmp_path / "b")
    for name in ("trajectory.csv", "observables.csv", "run_manifest.txt", "trajectory.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_cmd_simulate_wrapped_positions(tmp_path):
    from phcf import UniformStationary

    sc = short_scenario("fig2", t_end=5.0)
    sc = replace(sc, config=replace(sc.config, initial=UniformStationary()))
    cmd_simulate(sc, tmp_path / "wrapped")
    _, rows = read_csv(tmp_path / "wrapped" / "trajectory.csv")
    q_cols = np.array([[float(v) for v in row[1:21]] for row in rows])
    assert q_cols.max() < 141.0 and q_cols.min() >= 0.0
    unwrapped = replace(sc, output=replace(sc.output, wrap_positions=False))
    cmd_simulate(unwrapped, tmp_path / "raw")
    _, rows = read_csv(tmp_path / "raw" / "trajectory.csv")
    assert float(rows[-1][20]) > 141.0  # last vehicle cruises past the seam


def test_cmd_simulate_svg_off(tmp_path):
    sc = replace(short_scenario("fig1"), output=replace(preset("fig1").output, svg=False))
    cmd_simulate(sc, tmp_path)
    assert not (tmp_path / "trajectory.svg").exists()


def test_cmd_simulate_blowup_partial_output(tmp_path):
    from phcf import ClosedLoop, ModelParams, SimConfig

    params = ModelParams(5, 10.0, 0.0, 0.0, 10.0, 1.0, ClosedLoop(ell=1.0, t_gap=0.01))
    config = SimConfig(dt=0.001, t_end=5.0, sample_stride=10, seed=3)
    sc = Scenario(params=params, config=config)
    assert cmd_simulate(sc, tmp_path) == 3
    manifest = (tmp_path / "run_manifest.txt").read_text()
    assert "blowup = true" in manifest
    _, rows = read_csv(tmp_path / "trajectory.csv")
    assert 0 < len(rows) < 501


def test_csv_values_round_trip_exactly(tmp_path):
    sc = short_scenario("fig1", t_end=0.5)
    cmd_simulate(sc, tmp_path)
    _, rows = read_csv(tmp_path / "observables.csv")
    from phcf import SimConfig, observables, simulate

    obs = observables(simulate(sc.params, sc.config))
    for i, row in enumerate(rows):
        assert float(row[1]) == obs.mean_speed[i]
        assert float(row[4]) == obs.hamiltonian[i]


# ---------------------------------------------------------------------------
# spectrum command


@pytest.mark.parametrize("name,zero_rows", [("fig1", 2), ("fig2", 1), ("fig3", 1)])
def test_cmd_spectrum_zero_rows(tmp_path, name, zero_rows):
    assert cmd_spectrum(preset(name), tmp_path / name) == 0
    _, rows = read_csv(tmp_path / name / "spectrum.csv")
    assert len(rows) == 40
    mags = [abs(complex(float(r[2]), float(r[3]))) for r in rows]
    assert sum(m < 1e-10 for m in mags) == zero_rows


@pytest.mark.parametrize("name", ["fig2", "fig3"])
def test_cmd_spectrum_oracle_column(tmp_path, name):
    cmd_spectrum(preset(name), tmp_path / name)
    _, rows = read_csv(tmp_path / name / "spectrum.csv")
    assert max(float(r[4]) for r in rows) <= 1e-8


@pytest.mark.xfail(
    strict=True,
    reason="fig1 (alpha = beta = 1, even N) makes mode j=10 defective: "
    "(x+2)^2 with a single eigenvector, so any backward-stable dense solver "
    "splits the double root by ~sqrt(machine eps) ~ 2.5e-8; see the Jordan test",
)
def test_cmd_spectrum_oracle_column_fig1(tmp_path):
    cmd_spectrum(preset("fig1"), tmp_path)
    _, rows = read_csv(tmp_path / "spectrum.csv")
    assert max(float(r[4]) for r in rows) <= 1e-8


def test_fig1_defective_mode_limits_oracle_accuracy(tmp_path):
    """alpha = beta = 1 puts mode j=10 (mu=4) at the double root -2 with
    geometric multiplicity 1; the closed form is exact while the dense
    oracle is off by the square-root-of-eps an exact Jordan block forces.
    Every non-defective eigenvalue still matches to 1e-8."""
    from phcf import build_matrices, preset as _preset

    b = build_matrices(_preset("fig1").params)
    s = np.linalg.svd(b + 2.0 * np.eye(40), compute_uv=False)
    assert (s < 1e-10 * s[0]).sum() == 1  # one eigenvector for multiplicity 2
    cmd_spectrum(_preset("fig1"), tmp_path)
    _, rows = read_csv(tmp_path / "spectrum.csv")
    defective = [r for r in rows if complex(float(r[2]), float(r[3])) == -2 + 0j]
    others = [r for r in rows if complex(float(r[2]), float(r[3])) != -2 + 0j]
    assert len(defective) == 2
    assert max(float(r[4]) for r in defective) <= 1e-7
    assert max(float(r[4]) for r in others) <= 1e-8


def test_main_spectrum_refuses_large_n_before_building(tmp_path, capsys, monkeypatch):
    import phcf.cli as cli_mod
    from phcf.spectral import DENSE_ORACLE_MAX_DIM

    def no_dense(*args, **kwargs):
        raise AssertionError("the dense drift matrix was built")

    monkeypatch.setattr(cli_mod, "build_matrices", no_dense)
    path = tmp_path / "s.ini"
    assert main(["preset", "fig3", "--out", str(path)]) == 0
    n = DENSE_ORACLE_MAX_DIM // 2 + 1
    path.write_text(path.read_text().replace("n_vehicles = 20", f"n_vehicles = {n}"))
    assert main(["spectrum", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "dense oracle" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
def test_cmd_spectrum_oracle_gets_regime_drift_matrix(tmp_path, monkeypatch, name):
    """phcf spectrum builds only the drift matrix, and it is the one
    build_matrices carries for the scenario's regime."""
    import phcf.cli as cli_mod
    from phcf import build_matrices

    seen = []
    real = cli_mod.dense_eigen_oracle

    def oracle(b):
        seen.append(b)
        return real(b)

    monkeypatch.setattr(cli_mod, "dense_eigen_oracle", oracle)
    assert cmd_spectrum(preset(name), tmp_path) == 0
    assert len(seen) == 1
    assert np.array_equal(seen[0], build_matrices(preset(name).params))


def test_cmd_spectrum_svg(tmp_path):
    cmd_spectrum(preset("fig3"), tmp_path)
    svg = (tmp_path / "spectrum.svg").read_text()
    assert svg.startswith("<svg") and "circle" in svg


def test_svg_polyline_breaks_at_nan():
    """A trace breaks at every NaN y, and a piece of fewer than two points
    draws nothing.  The panel maps x to 10*x and y to 100 - 10*y."""
    from phcf.svgplot import _Panel

    panel = _Panel(0, 0, 100, 100, (0.0, 10.0), (0.0, 10.0))
    del panel.parts[:]
    panel.polyline(np.arange(9.0), [0, np.nan, 1, 2, np.nan, np.nan, 3, 4, 5], ["red"])
    tail = '" fill="none" stroke="red" stroke-width="1.00"/>'
    assert panel.parts == [
        '<polyline points="20.00,90.00 30.00,80.00' + tail,
        '<polyline points="60.00,70.00 70.00,60.00 80.00,50.00' + tail,
    ]


@pytest.mark.parametrize("command, builder", [
    ("simulate", "trajectory_svg"),
    ("simulate", "observables_svg"),
    ("spectrum", "spectrum_svg"),
    ("stability-map", "stability_map_svg"),
])
def test_main_failing_svg_leaves_no_directory(tmp_path, capsys, monkeypatch, command, builder):
    """Every output is computed before the directory is made: an SVG that
    cannot be drawn fails the command with no files behind."""
    import phcf.cli as cli_mod

    def fail(*args, **kwargs):
        raise InvalidInputError("cannot draw")

    monkeypatch.setattr(cli_mod, builder, fail)
    path = tmp_path / "s.ini"
    assert main(["preset", "fig3", "--out", str(path)]) == 0
    path.write_text(path.read_text().replace("t_end = 250.0", "t_end = 0.5"))
    extra = ["--vary", "alpha=0.5:1:2", "--vary", "gamma=1:2:2"] if command == "stability-map" else []
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "o")] + extra) == 2
    assert capsys.readouterr().err == "error: cannot draw\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("alpha, gamma", [
    ("0:1e-323:2", "1:2:2"),
    ("1:2:2", "1e17:1e17:1"),
    ("1:2:2", "9e15:9e15:1"),
], ids=["subnormal_step", "constant_1e17", "constant_9e15"])
def test_main_subnormal_sweep_step_leaves_no_directory(tmp_path, capsys, alpha, gamma):
    """A sweep step of 1e-323, and a constant gamma whose one-wide cell
    rounds back to a zero span (from about 2**52 on), give an axis the
    map cannot draw; the command fails with one error line before any
    file is written."""
    path = tmp_path / "s.ini"
    assert main(["preset", "fig3", "--out", str(path)]) == 0
    argv = ["stability-map", "--scenario", str(path), "--out", str(tmp_path / "o"),
            "--vary", f"alpha={alpha}", "--vary", f"gamma={gamma}"]
    assert main(argv) == 2
    assert re.fullmatch(r"error: cannot draw ticks on an axis from [^\n]*\n", capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def _x_ticks(svg):
    """Tick labels of a 440 x 440 map panel's x axis, as floats."""
    return [float(t) for t in re.findall(r'y="480.00" [^>]*text-anchor="middle">([^<]+)</text>', svg)]


def test_stability_map_svg_constant_axis():
    """A constant axis is drawn one cell wide: no NaN coordinates."""
    from phcf.svgplot import stability_map_svg

    xs = np.full(3, 1.0)
    ys = np.linspace(0.5, 1.0, 2)
    cells = np.ones((3, 2), dtype=bool)
    svg = stability_map_svg(xs, ys, cells, cells, "alpha", "gamma")
    assert "nan" not in svg
    assert _x_ticks(svg) and all(0.5 <= t <= 1.5 for t in _x_ticks(svg))


def test_stability_map_svg_descending_axis():
    """A descending axis gets ticks inside its range and cells of
    positive width and height, as its ascending twin."""
    from phcf.svgplot import stability_map_svg

    xs = np.linspace(3.0, 1.0, 5)
    ys = np.linspace(2.0, 1.0, 2)
    cells = np.zeros((5, 2), dtype=bool)
    svg = stability_map_svg(xs, ys, cells, cells, "alpha", "gamma")
    ticks = _x_ticks(svg)
    assert ticks and all(0.75 <= t <= 3.25 for t in ticks)
    sizes = re.findall(r'<rect x="[^"]+" y="[^"]+" width="([^"]+)" height="([^"]+)" fill="#d6604d"', svg)
    assert len(sizes) == 10
    assert all(float(w) > 0 and float(h) > 0 for w, h in sizes)
    # the same elements as the ascending twin's, in another order
    twin = stability_map_svg(xs[::-1], ys[::-1], cells, cells, "alpha", "gamma")
    assert sorted(svg.splitlines()) == sorted(twin.splitlines())


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_main_simulate_svg_on_one_ulp_axis(tmp_path):
    """The mean speed of an open-loop ring at x = 9e7 spans one ulp
    (1.49e-8), so the observables panel's tick step is below half an ulp
    of its ticks; the command still writes all five files.  It runs in a
    subprocess capped at 2 GiB of address space and 60 s, so a tick loop
    that never advances fails fast instead of filling the memory."""
    from phcf import ModelParams, OpenLoop, SimConfig, UniformStationary
    from phcf.scenario import write_scenario

    params = ModelParams(20, 141.0, 0.5, 1.0, 1.0, 3e-7, OpenLoop(x=9e7))
    config = SimConfig(dt=0.001, t_end=0.02, sample_stride=1, seed=0, initial=UniformStationary())
    write_scenario(Scenario(params=params, config=config), tmp_path / "ulp.ini")
    src = str(Path(phcf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = [sys.executable, "-m", "phcf", "simulate", "--scenario", str(tmp_path / "ulp.ini"),
            "--out", str(tmp_path / "o")]
    proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=60,
                          preexec_fn=_cap_address_space)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
        "observables.csv", "observables.svg", "run_manifest.txt", "trajectory.csv", "trajectory.svg"]
    speeds = [float(row[1]) for row in read_csv(tmp_path / "o" / "observables.csv")[1]]
    assert max(speeds) - min(speeds) == np.spacing(9e7)


# ---------------------------------------------------------------------------
# stability map command


def test_parse_vary():
    name, values = parse_vary("alpha=0.25:3:12")
    assert name == "alpha" and len(values) == 12
    assert values[0] == 0.25 and values[-1] == 3.0
    assert parse_vary("t_gap=0.5:2:4")[0] == "t_gap"
    assert parse_vary("beta=0:3:7")[0] == "beta"
    with pytest.raises(InvalidInputError):
        parse_vary("alpha=1:2")
    with pytest.raises(InvalidInputError):
        parse_vary("speed=1:2:3")
    assert parse_vary("gamma=0:1:3")[1][0] == 0.0  # gamma = 0 is a valid, unstable cell
    for spec, message in [
        ("t_gap=0:1:3", "t_gap must be positive, got 0.0"),
        ("t_gap=-1:-0.5:3", "t_gap must be positive, got -1.0"),
        ("gamma=-1:1:3", "gamma must be nonnegative, got -1.0"),
        ("beta=-0.5:1:4", "beta must be nonnegative, got -0.5"),
        ("alpha=nan:1:3", "alpha must be finite, got nan"),
        ("alpha=0:inf:3", "alpha must be finite, got inf"),
    ]:
        with pytest.raises(InvalidInputError, match=message):
            parse_vary(spec)


@pytest.mark.parametrize("vary", ["t_gap=0:1:3", "t_gap=-1:-0.5:3", "gamma=-1:1:3", "alpha=nan:1:3"])
def test_main_stability_map_rejects_invalid_sweep_values(tmp_path, capsys, vary):
    scenario_path = tmp_path / "s.ini"
    assert main(["preset", "fig3", "--out", str(scenario_path)]) == 0
    out = tmp_path / "map"
    other = "beta=0.5:1:2" if vary.startswith(("gamma", "alpha")) else "gamma=0.5:1:2"
    argv = ["stability-map", "--scenario", str(scenario_path), "--out", str(out),
            "--vary", vary, "--vary", other]
    assert main(argv) == 2
    name = vary.split("=")[0]
    assert f"error: {name} must be" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_stability_map(tmp_path):
    sc = preset("fig3")
    vary = [parse_vary("alpha=0.25:3:12"), parse_vary("gamma=0.25:3:12")]
    assert cmd_stability_map(sc, vary, tmp_path) == 0
    header, rows = read_csv(tmp_path / "stability.csv")
    assert header == ["param1", "param2", "exact_stable", "sufficient_stable", "spectral_abscissa"]
    assert len(rows) == 144
    table = {(float(r[0]), float(r[1])): (int(r[2]), int(r[3]), float(r[4])) for r in rows}
    exact, sufficient, abscissa = table[(0.5, 1.0)]
    assert exact == 0 and abscissa > 0
    exact, sufficient, _ = table[(2.0, 1.0)]
    assert sufficient == 1 and exact == 1
    # containment: sufficient cells are exact cells
    assert all(e >= s for e, s, _ in table.values())
    assert (tmp_path / "stability_map.svg").exists()


def test_cmd_stability_map_requires_closed_loop(tmp_path):
    with pytest.raises(InvalidInputError):
        cmd_stability_map(preset("fig1"), [parse_vary("alpha=1:2:2"), parse_vary("gamma=1:2:2")], tmp_path)


def test_cmd_stability_map_rejects_duplicate_axes(tmp_path):
    with pytest.raises(InvalidInputError):
        cmd_stability_map(preset("fig3"), [parse_vary("alpha=1:2:2"), parse_vary("alpha=1:3:2")], tmp_path)


def test_cmd_stability_map_aborts_on_containment_violation(tmp_path, monkeypatch, capsys):
    """The containment guard is unreachable with correct conditions, so a
    fake report exercises the abort path.  It violates containment at
    two cells off the first, (alpha, gamma) = (2, 2) and (3, 1); the
    message counts both and names the first in sweep order."""
    import phcf.cli as cli_mod

    real = cli_mod.stability_report
    violating = {2.0: [1], 3.0: [0]}  # alpha -> indices of gamma

    def broken(params, **cells):
        report = real(params, **cells)
        from dataclasses import replace as drep

        flip = np.zeros(report.exact_stable.shape, dtype=bool)
        flip[violating.get(cells["alpha"], [])] = True
        return drep(report, sufficient_stable=flip, exact_stable=~flip)

    monkeypatch.setattr(cli_mod, "stability_report", broken)
    vary = [parse_vary("alpha=1:3:3"), parse_vary("gamma=1:3:3")]
    assert cmd_stability_map(preset("fig3"), vary, tmp_path / "x") == 4
    assert capsys.readouterr().err == (
        "containment violated: sufficient-but-not-exact at 2 cells, first at alpha=2, gamma=2\n"
    )
    assert not (tmp_path / "x" / "stability.csv").exists()


def test_cmd_stability_map_one_report_per_row(tmp_path, monkeypatch):
    import phcf.cli as cli_mod

    calls = []
    real = cli_mod.stability_report

    def counted(params, **cells):
        calls.append(cells)
        return real(params, **cells)

    monkeypatch.setattr(cli_mod, "stability_report", counted)
    vary = [parse_vary("alpha=0.25:3:5"), parse_vary("gamma=0.25:3:7")]
    assert cmd_stability_map(preset("fig3"), vary, tmp_path) == 0
    assert len(calls) == 5
    assert all(np.shape(point["gamma"]) == (7,) for point in calls)
    assert len(read_csv(tmp_path / "stability.csv")[1]) == 35


def test_cmd_stability_map_rows_equal_cell_reports(tmp_path):
    """Row-order CSV from the per-row reports equals one scalar report per
    cell, here on the beta x t_gap plane."""
    sc = preset("fig3")
    vary = [parse_vary("beta=0:2:4"), parse_vary("t_gap=0.5:3:3")]
    assert cmd_stability_map(sc, vary, tmp_path) == 0
    _, rows = read_csv(tmp_path / "stability.csv")
    expected = []
    for beta in vary[0][1]:
        for t_gap in vary[1][1]:
            r = report_at(20, sc.params.alpha, float(beta), sc.params.gamma, float(t_gap))
            expected.append([repr(float(beta)), repr(float(t_gap)), str(int(r.exact_stable)),
                             str(int(r.sufficient_stable)), repr(r.spectral_abscissa_nonzero)])
    assert rows == expected


def test_cmd_stability_map_memory_stays_small(tmp_path):
    """A 400 x 400 map keeps three grid arrays and makes its CSV rows as
    they are written: its traced peak stays under 10 MB, where 160k rows
    of five Python strings held at once take several times that."""
    import tracemalloc

    sc = preset("fig3")
    sc = replace(sc, output=replace(sc.output, svg=False))
    vary = [parse_vary("alpha=0.05:3:400"), parse_vary("gamma=0.05:3:400")]
    tracemalloc.start()
    try:
        assert cmd_stability_map(sc, vary, tmp_path) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert (tmp_path / "stability.csv").read_bytes().count(b"\n") == 1 + 400 * 400


# ---------------------------------------------------------------------------
# ensemble command


def test_cmd_ensemble_outputs(tmp_path):
    sc = short_scenario("fig1", t_end=1.0)
    assert cmd_ensemble(replace(sc, n_runs=3), tmp_path / "ens") == 0
    out = tmp_path / "ens"
    for r in range(3):
        assert (out / f"observables_run{r:03d}.csv").exists()
    header, rows = read_csv(out / "ensemble_summary.csv")
    assert header == ["t", "mean_of_mean_speed", "var_of_mean_speed", "mean_speed_variance"]
    assert len(rows) == 101
    manifest = (out / "run_manifest.txt").read_text()
    assert "n_runs = 3" in manifest


def test_cmd_ensemble_rerun_from_manifest(tmp_path):
    """A manifest replays its ensemble; --runs overrides its n_runs, and
    the new manifest records the override."""
    sc = short_scenario("fig1", t_end=1.0)
    cmd_ensemble(replace(sc, n_runs=2), tmp_path / "a")
    replay = load_scenario(tmp_path / "a" / "run_manifest.txt")
    assert replay.n_runs == 2
    cmd_ensemble(replay, tmp_path / "b")
    for name in ("observables_run000.csv", "observables_run001.csv", "ensemble_summary.csv", "run_manifest.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    manifest = str(tmp_path / "a" / "run_manifest.txt")
    assert main(["ensemble", "--scenario", manifest, "--out", str(tmp_path / "c"), "--runs", "1"]) == 0
    assert load_scenario(tmp_path / "c" / "run_manifest.txt") == replace(replay, n_runs=1)
    assert sorted(p.name for p in (tmp_path / "c").glob("observables_run*.csv")) == ["observables_run000.csv"]


# The blowing ring of tests/test_sde.py as a scenario: runs 0 and 1 blow
# up before t_end, run 2 does not.
BLOWING_SCENARIO = """\
[model]
n_vehicles = 5
ring_length = 10.0
alpha = 0.0
beta = 0.0
gamma = 10.0
sigma = 1.0
potential = quadratic

[regime]
kind = closed_loop
ell = 1.0
t_gap = 0.01

[sim]
dt = 0.001
t_end = 1.95
sample_stride = 10
seed = 3
initial = uniform_zero_speed
"""

# SHA-256 of each output of `ensemble --runs 3` on BLOWING_SCENARIO,
# recorded while each run was still returned as its own TimeSeries.
BLOWN_ENSEMBLE_SHA256 = {
    "ensemble_summary.csv": "0979cb519b64407e1aa970d6fcc53768c4f6ca91d8d738f8ff84acbbd5462e55",
    "observables_run000.csv": "4afc813b36055df5175b6f62d02b36055da44fdf9c0387b7f44ef726a6d08f1c",
    "observables_run001.csv": "24a014cace80811c53cec39360ced510a42eea4cfe9da513305b2e7ba23e91a5",
    "observables_run002.csv": "487e6412972ddecbde480ead497bd86aeec12b575095c5b4204d8f11bde221c8",
    "run_manifest.txt": "dda283d256e0d8ada744d28ecda39d3c0c6f00525bacb759a75f0db926eebe6b",
}


def test_main_ensemble_with_blown_runs_is_pinned(tmp_path):
    """Blown runs exit 3; each per-run CSV ends at the run's last valid
    sample (191, 193 and 196 rows), the summary at the shortest run's."""
    path = tmp_path / "blowing.ini"
    path.write_text(BLOWING_SCENARIO)
    out = tmp_path / "o"
    assert main(["ensemble", "--scenario", str(path), "--out", str(out), "--runs", "3"]) == 3
    assert "blown_runs = 0,1\n" in (out / "run_manifest.txt").read_text()
    lengths = [len(read_csv(out / f"observables_run{r:03d}.csv")[1]) for r in range(3)]
    assert lengths == [191, 193, 196]
    assert len(read_csv(out / "ensemble_summary.csv")[1]) == 191
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert hashes == BLOWN_ENSEMBLE_SHA256


# ---------------------------------------------------------------------------
# argparse front end


def test_main_preset_and_simulate(tmp_path, capsys):
    scenario_path = tmp_path / "s.ini"
    assert main(["preset", "fig1", "--out", str(scenario_path)]) == 0
    text = scenario_path.read_text().replace("t_end = 250.0", "t_end = 1.0")
    scenario_path.write_text(text)
    assert main(["simulate", "--scenario", str(scenario_path), "--out", str(tmp_path / "o"),
                 "--svg", "off", "--seed", "9"]) == 0
    manifest = (tmp_path / "o" / "run_manifest.txt").read_text()
    assert "seed = 9" in manifest
    assert not (tmp_path / "o" / "trajectory.svg").exists()


def test_main_preset_stdout(capsys):
    assert main(["preset", "fig3"]) == 0
    out = capsys.readouterr().out
    assert "kind = closed_loop" in out and "ell = 5.0" in out


def test_main_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nn_vehicles = 20\n")
    assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("line, bad", [("t_end = 250.0", "t_end = inf"),
                                       ("sigma = 1.0", "sigma = nan"),
                                       ("t_gap = 1.0", "t_gap = inf")])
def test_main_rejects_non_finite_values(tmp_path, capsys, line, bad):
    scenario_path = tmp_path / "s.ini"
    assert main(["preset", "fig3", "--out", str(scenario_path)]) == 0
    scenario_path.write_text(scenario_path.read_text().replace(line, bad))
    assert main(["simulate", "--scenario", str(scenario_path), "--out", str(tmp_path / "o")]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_main_rejects_non_utf8_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"\xff\xfe[model]\n")
    assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.ini" in err and "UTF-8" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "ensemble"])
def test_main_maps_memory_error_to_exit_2(tmp_path, capsys, monkeypatch, command):
    """A run too large for memory (say t_end = 1e9 with sample_stride = 1)
    exits 2 with a message and leaves no output directory.  The allocation
    failure is faked; nothing large is allocated."""
    import phcf.cli as cli_mod

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.46 PiB for an array")

    monkeypatch.setattr(cli_mod, "simulate", out_of_memory)
    monkeypatch.setattr(cli_mod, "run_ensemble", out_of_memory)
    path = tmp_path / "s.ini"
    assert main(["preset", "fig1", "--out", str(path)]) == 0
    args = [command, "--scenario", str(path), "--out", str(tmp_path / "o")]
    assert main(args + (["--runs", "2"] if command == "ensemble" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "memory" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, edit, extra", [
    ("simulate", "alpha = 1e200", []),
    ("simulate", "alpha = 1e100", []),
    ("ensemble", "alpha = 1e100", ["--runs", "2"]),
    ("spectrum", "alpha = 1e200", []),
    ("spectrum", "alpha = 1e100", []),
    ("spectrum", "alpha = 1e154", []),
    ("stability-map", "alpha = 0.5", ["--vary", "alpha=0:1e200:3", "--vary", "gamma=0.1:1:2"]),
    ("stability-map", "alpha = 0.5", ["--vary", "gamma=0.1:1e160:3", "--vary", "alpha=0.1:1:2"]),
    ("stability-map", "alpha = 0.5", ["--vary", "alpha=0.5:1e100:2", "--vary", "gamma=0.1:1:2"]),
    ("simulate", "beta = 1e308", []),
    ("ensemble", "beta = 1e308", ["--runs", "2"]),
    ("spectrum", "beta = 1e308", []),
    ("stability-map", "beta = 1.0", ["--vary", "beta=1e308:1.7e308:3", "--vary", "gamma=1:2:2"]),
    ("simulate", "t_gap = 5e-324", []),
    ("ensemble", "t_gap = 5e-324", ["--runs", "2"]),
], ids=["simulate", "simulate-norm", "ensemble-norm", "spectrum", "spectrum-norm",
        "spectrum-oracle", "stability-map-alpha", "stability-map-gamma", "stability-map-norm",
        "simulate-beta", "ensemble-beta", "spectrum-beta", "stability-map-beta", "simulate-t_gap",
        "ensemble-t_gap"])
def test_main_maps_overflow_to_exit_2(tmp_path, capsys, command, edit, extra):
    """A parameter whose float square overflows exits 2 with a message
    and, like any failed command, leaves no output directory: alpha =
    1e200 in alpha**2, gamma = 1e160 in (gamma/T)**2 (the norm's, before
    the Hurwitz term rho**2), and alpha = 1e100 in the squared alpha**2
    of the drift-matrix norm that every manifest's stability fields and
    every map row need, and alpha = 1e154, whose
    finite alpha**2 still gives eigenvalues that are not finite.  beta =
    1e308 overflows the numpy terms of the spectrum and the Hurwitz test
    without a warning, and the spectral fields refuse the result.  The
    subnormal t_gap = 5e-324 makes gamma/t_gap infinite: the spectral
    fields are refused before a run starts, so its drift never warns."""
    path = tmp_path / "s.ini"
    assert main(["preset", "fig3", "--out", str(path)]) == 0
    key = edit.split(" = ")[0]
    path.write_text(re.sub(rf"^{key} = .*$", edit, path.read_text(), flags=re.M))
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "o")] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "range" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


# Extra arguments of each command in the property test of main().
COMMANDS = {
    "simulate": [],
    "ensemble": ["--runs", "2"],
    "spectrum": [],
    "stability-map": ["--vary", "alpha=0.25:1:2", "--vary", "gamma=0.5:2:2"],
}
# Replacement values: finite extremes, subnormals, inf and nan, huge
# integers and junk.
ANY_VALUE = st.one_of(st.floats().map(repr), st.integers(-10**40, 10**40).map(str), st.text(max_size=12))
# The keys that size a run get values that keep it small (at most 1000
# steps of at most 64 vehicles, from t_end = 0.05 and dt = 0.001) or make
# it far too large to allocate, never one that would run for minutes.
SIZED = {
    "n_vehicles": st.one_of(st.integers(-10**40, 64), st.integers(10**15, 10**40)).map(str)
    | st.floats().map(repr),
    "dt": st.floats().filter(lambda x: not 1e-20 < x < 5e-5).map(repr),
    "t_end": st.floats().filter(lambda x: not 1.0 < x < 1e17).map(repr),
}


@st.composite
def edited_presets(draw):
    """A preset's text, cut to t_end = 0.05 with a sample every 10 steps,
    with one value changed, one line duplicated or one line dropped."""
    text = format_scenario(preset(draw(st.sampled_from(["fig1", "fig2", "fig3"]))))
    lines = text.replace("t_end = 250.0", "t_end = 0.05").replace("stride = 100", "stride = 10").split("\n")
    edit = draw(st.sampled_from(["value", "duplicate", "drop"]))
    if edit == "value":
        i = draw(st.sampled_from([i for i, line in enumerate(lines) if " = " in line]))
        key = lines[i].split(" = ")[0]
        lines[i] = f"{key} = {draw(SIZED.get(key, ANY_VALUE))}"
    else:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = [lines[i]] * 2 if edit == "duplicate" else []
    return "\n".join(lines)


def run_main(argv):
    """main(argv) in process: (exit code, standard error)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def contents(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(edited_presets(), st.sampled_from(sorted(COMMANDS)))
def test_main_contract_on_edited_presets(text, command):
    """Every command on an edited preset exits 0, 2 or 3; exit 2 prints
    one error line and leaves no output directory, and the manifest of an
    exit 0 replays to the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "s.ini").write_bytes(text.encode("utf-8", "surrogatepass"))
        code, err = run_main([command, "--scenario", str(tmp / "s.ini"), "--out", str(tmp / "o"),
                              *COMMANDS[command]])
        assert code in (0, 2, 3), err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not (tmp / "o").exists()
        if code == 0:
            replay = [command, "--scenario", str(tmp / "o" / "run_manifest.txt"), "--out", str(tmp / "r"),
                      *COMMANDS[command]]
            assert run_main(replay) == (0, "")
            assert contents(tmp / "r") == contents(tmp / "o")


@pytest.mark.parametrize("command, old, new, extra, message", [
    ("simulate", "n_vehicles = 20", f"n_vehicles = {10**40}", [], "not enough memory"),
    ("ensemble", "t_end = 250.0", "t_end = 1e300", ["--runs", "2"], "not enough memory"),
    ("stability-map", "n_vehicles = 20", f"n_vehicles = {10**40}", COMMANDS["stability-map"], "not enough memory"),
    ("simulate", "[model]", "", [], "malformed scenario"),
    ("stability-map", "", "", ["--vary", f"alpha=0:1:{10**20}", "--vary", "gamma=1:2:2"], "not enough memory"),
    ("simulate", "dt = 0.001", "dt = 5e-324", [], "not enough memory"),
], ids=["simulate-address-space", "ensemble-address-space", "stability-map-address-space",
        "no-section-header", "stability-map-sweep-count", "simulate-step-count-past-float-range"])
def test_main_exit_2_prints_one_line(tmp_path, capsys, command, old, new, extra, message):
    """Buffers past the address space (numpy refuses them with a
    ValueError), a ring's or a sweep axis's, and a step count t_end/dt
    past the float range count as too large for memory, and a parser
    message that quotes the input over several lines is printed on one."""
    path = tmp_path / "s.ini"
    assert main(["preset", "fig3", "--out", str(path)]) == 0
    path.write_text(path.read_text().replace(old, new))
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "o")] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_main_energy_past_float_range_is_inf(tmp_path, capsys):
    """On a ring of length 1e200 the energy overflows; the run blows up
    at its first step and records an infinite energy without a warning."""
    path = tmp_path / "s.ini"
    assert main(["preset", "fig1", "--out", str(path)]) == 0
    path.write_text(path.read_text().replace("ring_length = 141.0", "ring_length = 1e200"))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == ""
    _, rows = read_csv(tmp_path / "o" / "observables.csv")
    assert rows[0][-1] == "inf"


@pytest.mark.parametrize("command, extra", [("simulate", []), ("ensemble", ["--runs", "2"])],
                         ids=["simulate", "ensemble"])
def test_main_run_past_float_range_blows_up_silently(tmp_path, capsys, command, extra):
    """On a ring of length 1e305 with t_gap = 1e-10 the commanded speed
    overflows in the drift at the first step.  The command exits 3 and
    records the blowup; numpy warns nothing, because the state that is
    not finite already reports the error."""
    path = tmp_path / "s.ini"
    assert main(["preset", "fig3", "--out", str(path)]) == 0
    text = path.read_text()
    for edit in ("ring_length = 1e305", "t_gap = 1e-10", "t_end = 0.05"):
        key = edit.split(" = ")[0]
        text = re.sub(rf"^{key} = .*$", edit, text, flags=re.M)
    path.write_text(text)
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "o")] + extra) == 3
    assert capsys.readouterr().err == ""
    assert "\nblowup = true\n" in (tmp_path / "o" / "run_manifest.txt").read_text()


@pytest.mark.parametrize("runs", ["0", "100000000000"])
def test_main_ensemble_impossible_run_count_exits_2(tmp_path, capsys, monkeypatch, runs):
    """--runs 0 is refused by Scenario in _load; 10^11 runs of the preset need
    petabytes, and the buffers are allocated before any per-run seed is
    derived, so the command fails at once instead of deriving 10^11
    seeds first."""
    import phcf.sde as sde_mod

    def no_derivation(seed, run_index):
        raise AssertionError("a seed was derived for a run that cannot be allocated")

    monkeypatch.setattr(sde_mod, "derive_run_seed", no_derivation)
    path = tmp_path / "s.ini"
    assert main(["preset", "fig1", "--out", str(path)]) == 0
    args = ["ensemble", "--scenario", str(path), "--out", str(tmp_path / "o"), "--runs", runs]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


def test_main_ensemble_requires_runs(tmp_path, capsys):
    path = tmp_path / "s.ini"
    main(["preset", "fig1", "--out", str(path)])
    assert main(["ensemble", "--scenario", str(path), "--out", str(tmp_path / "e")]) == 2


def test_fig3_manifest_records_instability(tmp_path):
    sc = short_scenario("fig3", t_end=1.0)
    cmd_simulate(sc, tmp_path)
    manifest = (tmp_path / "run_manifest.txt").read_text()
    assert "stability_verdict = unstable" in manifest
    assert "exact_stable = false" in manifest
    assert "spectral_abscissa = 0.004185" in manifest


def test_import_cli_loads_no_scipy():
    """scipy serves only the oracle matching, so the CLI starts without it."""
    code = "import sys, phcf.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    src = str(Path(phcf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    assert proc.stdout.strip() == "[]"
