"""Command-line front end: presets, runs, ensembles, spectra, stability maps.

Every output is deterministic: CSV floats use shortest round-trip
formatting, the manifest records every parameter a run consumed, and a
manifest replayed as a scenario reproduces the run byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidInputError, NumericalBlowupError, UnsupportedOperationError
from .model import build_matrices
from .scenario import (
    Scenario,
    format_manifest,
    load_scenario,
    preset,
    format_scenario,
    with_seed,
    with_svg,
)
from .sde import TimeSeries, run_ensemble, simulate
from .spectral import (
    check_dense_size,
    dense_eigen_oracle,
    drift_matrix_norm,
    eigenvalues,
    match_distances,
    spectral_abscissa_nonzero,
    stability_report,
)
from .stats import observables
from .svgplot import observables_svg, spectrum_svg, stability_map_svg, trajectory_svg

_SWEEPABLE = ("alpha", "beta", "gamma", "t_gap")


def _num(x) -> str:
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _trajectory_rows(ts: TimeSeries, wrap: bool):
    q = ts.positions()
    if wrap:
        q = np.mod(q, ts.params.ring_length)
    p = ts.speeds()
    # repr of a tolist() float is _num's string; one (N,) row at a time,
    # so no (samples, N) array of Python floats is ever built
    for i, t in enumerate(ts.times.tolist()):
        yield [repr(t), *map(repr, q[i].tolist()), *map(repr, p[i].tolist())]


def _observable_rows(obs, run=..., n_valid=None):
    """CSV rows of one run's observables: row run of an ensemble's, cut
    at its n_valid samples."""
    columns = (obs.mean_speed, obs.speed_variance, obs.single_vehicle_speed, obs.hamiltonian)
    # one run's (samples,) columns as Python floats, formatted as _num does
    for row in zip(obs.times[:n_valid].tolist(), *(c[run].tolist() for c in columns)):
        yield list(map(repr, row))


def _stability_info(scenario: Scenario) -> dict:
    """Spectral metadata recorded in every manifest; the gap-feedback
    regime additionally gets a stability verdict.  O(N): no matrix."""
    params = scenario.params
    if params.regime.t_gap is None:
        scale = drift_matrix_norm(params.n_vehicles, params.alpha, params.beta, params.gamma)
        return {"spectral_abscissa": spectral_abscissa_nonzero(eigenvalues(params), scale)}
    report = stability_report(
        params.n_vehicles, params.alpha, params.beta, params.gamma, params.regime.t_gap
    )
    if report.marginal:
        verdict = "marginal"
    else:
        verdict = "stable" if report.exact_stable else "unstable"
    return {
        "spectral_abscissa": report.spectral_abscissa_nonzero,
        "exact_stable": report.exact_stable,
        "sufficient_lhs": report.sufficient_lhs,
        "stability_verdict": verdict,
    }


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(scenario: Scenario, out_dir) -> int:
    """Run one trajectory; write trajectory.csv, observables.csv,
    run_manifest.txt and (optionally) the two SVG panels.

    Returns 0, or 3 when the run blew up (partial output is still
    written and the manifest carries the blowup flag).
    """
    blowup = None
    try:
        ts = simulate(scenario.params, scenario.config)
    except NumericalBlowupError as exc:
        ts = exc.partial
        blowup = exc
    stability = _stability_info(scenario)
    # Created after the run and the stability fields, so a command that
    # fails leaves no directory.
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    wrap = scenario.output.wrap_positions
    n = scenario.params.n_vehicles
    header = ["t"] + [f"q{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
    _write_csv(out / "trajectory.csv", header, _trajectory_rows(ts, wrap))
    obs = observables(ts)
    _write_csv(
        out / "observables.csv",
        ["t", "mean_speed", "speed_variance", "p1", "hamiltonian"],
        _observable_rows(obs),
    )
    if scenario.output.svg and len(ts.times) > 1:
        _write_text(
            out / "trajectory.svg",
            trajectory_svg(ts.times, ts.positions(), scenario.params.ring_length, wrap=wrap),
        )
        _write_text(
            out / "observables.svg",
            observables_svg(obs.times, obs.mean_speed, obs.speed_variance, obs.single_vehicle_speed),
        )

    info = {
        "tool_version": __version__,
        "command": "simulate",
        "overtake": ts.overtake_flag,
        "blowup": blowup is not None,
    }
    if blowup is not None:
        info["blowup_time"] = blowup.time
    info.update(stability)
    _write_text(out / "run_manifest.txt", format_manifest(scenario, info))
    return 0 if blowup is None else 3


def cmd_ensemble(scenario: Scenario, out_dir, n_runs: int) -> int:
    """Run an ensemble; write per-run observables CSVs, a cross-run
    summary (time, moments of the mean speed, mean variance) and the
    manifest.  Returns 0, or 3 if any member blew up."""
    runs = run_ensemble(scenario.params, scenario.config, n_runs=n_runs)
    stability = _stability_info(scenario)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    obs = observables(runs)
    for r, n_valid in enumerate(runs.n_valid):
        _write_csv(
            out / f"observables_run{r:03d}.csv",
            ["t", "mean_speed", "speed_variance", "p1", "hamiltonian"],
            _observable_rows(obs, r, n_valid),
        )
    # Samples that every run reached, reduced one column of runs at a time:
    # a reduction along axis 0 sums in another order and changes the bytes.
    rows = (
        [
            _num(obs.times[i]),
            _num(obs.mean_speed[:, i].mean()),
            _num(obs.mean_speed[:, i].var(ddof=1) if n_runs > 1 else 0.0),
            _num(obs.speed_variance[:, i].mean()),
        ]
        for i in range(runs.n_valid.min())
    )
    _write_csv(
        out / "ensemble_summary.csv",
        ["t", "mean_of_mean_speed", "var_of_mean_speed", "mean_speed_variance"],
        rows,
    )
    blown = np.flatnonzero(runs.blowup_step)
    scenario = replace(scenario, n_runs=n_runs)
    info = {
        "tool_version": __version__,
        "command": "ensemble",
        "blowup": bool(blown.size),
    }
    if blown.size:
        info["blown_runs"] = ",".join(map(str, blown))
    info.update(stability)
    _write_text(out / "run_manifest.txt", format_manifest(scenario, info))
    return 3 if blown.size else 0


def cmd_spectrum(scenario: Scenario, out_dir) -> int:
    """Write the closed-form spectrum with its dense-oracle deviation per
    eigenvalue, plus a complex-plane scatter.  Refuses N above half of
    DENSE_ORACLE_MAX_DIM before building the dense matrix."""
    check_dense_size(2 * scenario.params.n_vehicles)
    params = scenario.params
    spectrum = eigenvalues(params)
    # The drift matrix is not kept once the oracle has it.
    oracle = dense_eigen_oracle(build_matrices(params))
    diffs = match_distances(spectrum, oracle)
    stability = _stability_info(scenario)
    # Created after the computation, so a spectrum that fails leaves no directory.
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [
        [str(i // 2), str(i % 2), _num(lam.real), _num(lam.imag), _num(diffs[i])]
        for i, lam in enumerate(spectrum.tolist())
    ]
    _write_csv(out / "spectrum.csv", ["j", "k", "re_lambda", "im_lambda", "oracle_abs_diff"], rows)
    if scenario.output.svg:
        _write_text(out / "spectrum.svg", spectrum_svg(spectrum))
    info = {"tool_version": __version__, "command": "spectrum"}
    info.update(stability)
    _write_text(out / "run_manifest.txt", format_manifest(scenario, info))
    return 0


def parse_vary(spec: str):
    """Parse a sweep axis 'name=start:stop:count'."""
    try:
        name, rng = spec.split("=", 1)
        start, stop, count = rng.split(":")
        name = name.strip()
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise InvalidInputError(f"bad sweep spec {spec!r}; expected name=start:stop:count") from exc
    if name not in _SWEEPABLE:
        raise InvalidInputError(f"cannot sweep {name!r}; choose from {', '.join(_SWEEPABLE)}")
    if count < 1:
        raise InvalidInputError("sweep needs at least one value")
    # The rules ModelParams and ClosedLoop apply to the base point.
    for value in (start, stop):
        if not math.isfinite(value):
            raise InvalidInputError(f"{name} must be finite, got {value}")
    values = np.linspace(start, stop, count)
    if name == "t_gap" and not (values > 0).all():
        raise InvalidInputError(f"t_gap must be positive, got {values[values <= 0][0]}")
    if (values < 0).any():
        raise InvalidInputError(f"{name} must be nonnegative, got {values[values < 0][0]}")
    return name, values


def cmd_stability_map(scenario: Scenario, vary, out_dir) -> int:
    """Evaluate exact and sufficient stability over a 2-parameter grid.

    The base point comes from the scenario, which must use gap feedback.
    Any grid cell with sufficient_stable and not exact_stable aborts with
    diagnostics (the sufficient region must sit inside the exact one).
    """
    params = scenario.params
    if params.regime.t_gap is None:
        raise InvalidInputError("stability maps need a closed_loop scenario")
    if len(vary) != 2:
        raise InvalidInputError("exactly two --vary axes are required")
    (name1, values1), (name2, values2) = vary
    if name1 == name2:
        raise InvalidInputError("the two sweep axes must differ")

    base = {
        "alpha": params.alpha,
        "beta": params.beta,
        "gamma": params.gamma,
        "t_gap": params.regime.t_gap,
    }
    n = params.n_vehicles
    rows = []
    exact = np.zeros((len(values1), len(values2)), dtype=bool)
    suff = np.zeros_like(exact)
    violations = []
    for i, v1 in enumerate(values1):
        # One report per row, the second axis as an array: memory stays
        # O(len(values2) * N) whatever the grid size.
        point = dict(base)
        point[name1] = float(v1)
        point[name2] = values2
        report = stability_report(n, point["alpha"], point["beta"], point["gamma"], point["t_gap"])
        exact[i] = report.exact_stable
        suff[i] = report.sufficient_stable
        violations.extend((v1, values2[j]) for j in np.flatnonzero(suff[i] & ~exact[i]))
        rows.extend(
            [_num(v1), _num(v2), str(int(e)), str(int(s)), _num(x)]
            for v2, e, s, x in zip(values2, exact[i], suff[i], report.spectral_abscissa_nonzero)
        )
    if violations:
        print(
            f"containment violated: sufficient-but-not-exact at {len(violations)} cells, "
            f"first at {name1}={violations[0][0]:g}, {name2}={violations[0][1]:g}",
            file=sys.stderr,
        )
        return 4

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "stability.csv",
        ["param1", "param2", "exact_stable", "sufficient_stable", "spectral_abscissa"],
        rows,
    )
    if scenario.output.svg:
        _write_text(
            out / "stability_map.svg",
            stability_map_svg(values1, values2, exact, suff, name1, name2),
        )
    info = {
        "tool_version": __version__,
        "command": "stability-map",
        "sweep_param1": name1,
        "sweep_param2": name2,
        "sweep_values1": f"{values1[0]:g}:{values1[-1]:g}:{len(values1)}",
        "sweep_values2": f"{values2[0]:g}:{values2[-1]:g}:{len(values2)}",
    }
    _write_text(out / "run_manifest.txt", format_manifest(scenario, info))
    return 0


def cmd_preset(name: str, out_path=None) -> int:
    """Emit one of the bundled scenarios (to stdout without a path)."""
    text = format_scenario(preset(name))
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write_text(out_path, text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    scenario = with_seed(scenario, args.seed)
    svg = None if args.svg is None else args.svg == "on"
    return with_svg(scenario, svg)


def _add_common(sub):
    sub.add_argument("--scenario", required=True, help="scenario or manifest file")
    sub.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--svg", choices=("on", "off"), default=None, help="override SVG emission")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phcf",
        description="Stochastic car-following on a ring: simulation, spectra and stability.",
    )
    parser.add_argument("--version", action="version", version=f"phcf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate one trajectory and export CSV/SVG")
    _add_common(p)
    p.set_defaults(func=lambda a: cmd_simulate(_load(a), a.out))

    p = sub.add_parser("ensemble", help="integrate independent runs and export summaries")
    _add_common(p)
    p.add_argument("--runs", type=int, default=None, help="number of runs (defaults to the manifest's)")
    p.set_defaults(func=_run_ensemble_args)

    p = sub.add_parser("spectrum", help="closed-form eigenvalues with dense-oracle deviations")
    _add_common(p)
    p.set_defaults(func=lambda a: cmd_spectrum(_load(a), a.out))

    p = sub.add_parser("stability-map", help="exact/sufficient stability over a 2-parameter grid")
    _add_common(p)
    p.add_argument(
        "--vary",
        action="append",
        required=True,
        metavar="NAME=START:STOP:COUNT",
        help="sweep axis; give exactly twice",
    )
    p.set_defaults(func=lambda a: cmd_stability_map(_load(a), [parse_vary(v) for v in a.vary], a.out))

    p = sub.add_parser("preset", help="emit a bundled scenario")
    p.add_argument("name", choices=("fig1", "fig2", "fig3"))
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=lambda a: cmd_preset(a.name, a.out))
    return parser


def _run_ensemble_args(args) -> int:
    scenario = _load(args)
    n_runs = args.runs if args.runs is not None else scenario.n_runs
    if n_runs is None:
        raise InvalidInputError("--runs is required (no n_runs recorded in the scenario)")
    return cmd_ensemble(scenario, args.out, n_runs)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, UnsupportedOperationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory for this run ({exc})", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a value left the floating-point range ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
