"""Command-line front end: presets, runs, ensembles, spectra, stability maps.

Every output is deterministic: CSV floats use shortest round-trip
formatting, the manifest records every parameter a run consumed, and a
manifest replayed as a scenario reproduces the run byte for byte.

A CSV line is its fields joined by commas.  No field ever needs quoting:
each is a float ``repr`` (digits, sign, ".", "e", "inf" or "nan"), an int
string or a fixed header name, and none holds a comma, a quote or a line
break.  Every table but the stability map is written from arrays by
``_rows``; the map's own generator formats each axis value once.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import EigenSolverError, InvalidInputError, NumericalBlowupError, UnsupportedOperationError
from .model import build_matrices
from .scenario import (
    PRESETS,
    Scenario,
    format_manifest,
    load_scenario,
    preset,
    format_scenario,
    write_scenario,
)
from .sde import run_ensemble, simulate
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
# Cells times modes per stability_report call of a map (20 x 20 cells at
# N = 20), or one grid row where that is more.
_MAP_TILE_MODE_CELLS = 2**13


def _write_outputs(out_dir, scenario: Scenario, command: str, files: dict, fields: dict):
    """Create out_dir and write a command's finished outputs into it, then
    run_manifest.txt with tool_version and command ahead of fields.

    files maps a file name to SVG text or to a CSV's (header, rows).  A
    command computes every output before it calls this, so a command that
    fails leaves no directory; rows may be a generator that only formats
    finished arrays, which cannot fail.
    """
    info = {"tool_version": __version__, "command": command, **fields}
    files = {**files, "run_manifest.txt": format_manifest(scenario, info)}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        # newline="" writes each "\n" as it is, for text and CSV alike
        with open(out / name, "w", encoding="utf-8", newline="") as fh:
            if isinstance(content, str):
                fh.write(content)
            else:
                header, rows = content
                fh.write(",".join(header) + "\n")
                fh.writelines(",".join(row) + "\n" for row in rows)


def _rows(*columns):
    """CSV rows of arrays that share their first axis: row i holds entry i
    of each 1-D column and the entries of row i of each 2-D column, each
    the repr of its Python float or int.  A 2-D column is converted one
    row at a time, so no (samples, N) array of Python floats is built."""
    parts = [c[:, None].tolist() if c.ndim == 1 else map(np.ndarray.tolist, c) for c in columns]
    for row in zip(*parts):
        yield [repr(v) for part in row for v in part]


_OBSERVABLES_HEADER = ["t", "mean_speed", "speed_variance", "p1", "hamiltonian"]


def _observable_columns(obs):
    return obs.mean_speed, obs.speed_variance, obs.single_vehicle_speed, obs.hamiltonian


def _stability_info(scenario: Scenario) -> dict:
    """Spectral metadata recorded in every manifest; the gap-feedback
    regime additionally gets a stability verdict.  O(N): no matrix."""
    p = scenario.params
    if p.regime.t_gap is None:
        scale = drift_matrix_norm(p.n_vehicles, p.alpha, p.beta, p.gamma)
        return {"spectral_abscissa": spectral_abscissa_nonzero(eigenvalues(p), scale)}
    report = stability_report(p)
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

# A floating-point error in a run leaves a state that is not finite, which
# the integrator reports as a blowup (exit 3); the run warns nothing.
_RUN_ERRSTATE = dict(over="ignore", invalid="ignore", divide="ignore")


def cmd_simulate(scenario: Scenario, out_dir) -> int:
    """Run one trajectory; write trajectory.csv, observables.csv,
    run_manifest.txt and (optionally) the two SVG panels.

    Returns 0, or 3 when the run blew up (partial output is still
    written and the manifest carries the blowup flag).
    """
    stability = _stability_info(scenario)
    blowup = None
    try:
        with np.errstate(**_RUN_ERRSTATE):
            ts = simulate(scenario.params, scenario.config)
    except NumericalBlowupError as exc:
        ts = exc.partial
        blowup = exc
    fields = {"overtake": ts.overtake_flag, "blowup": blowup is not None}
    if blowup is not None:
        fields["blowup_time"] = blowup.time
    fields.update(stability)

    wrap = scenario.output.wrap_positions
    n = scenario.params.n_vehicles
    header = ["t"] + [f"q{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
    q = np.mod(ts.positions(), scenario.params.ring_length) if wrap else ts.positions()
    obs = observables(ts)
    files = {
        "trajectory.csv": (header, _rows(ts.times, q, ts.speeds())),
        "observables.csv": (_OBSERVABLES_HEADER, _rows(obs.times, *_observable_columns(obs))),
    }
    if scenario.output.svg and len(ts.times) > 1:
        files["trajectory.svg"] = trajectory_svg(
            ts.times, ts.positions(), scenario.params.ring_length, wrap=wrap
        )
        files["observables.svg"] = observables_svg(
            obs.times, obs.mean_speed, obs.speed_variance, obs.single_vehicle_speed
        )
    _write_outputs(out_dir, scenario, "simulate", files, fields)
    return 0 if blowup is None else 3


def cmd_ensemble(scenario: Scenario, out_dir) -> int:
    """Run an ensemble of scenario.n_runs runs; write per-run observables
    CSVs, a cross-run summary (time, moments of the mean speed, mean
    variance) and the manifest.  Returns 0, or 3 if any member blew up."""
    if scenario.n_runs is None:
        raise InvalidInputError("--runs is required (no n_runs recorded in the scenario)")
    stability = _stability_info(scenario)
    with np.errstate(**_RUN_ERRSTATE):
        runs = run_ensemble(scenario.params, scenario.config, n_runs=scenario.n_runs)
    obs = observables(runs)
    columns = _observable_columns(obs)
    files = {
        f"observables_run{r:03d}.csv": (_OBSERVABLES_HEADER, _rows(obs.times[:v], *(c[r, :v] for c in columns)))
        for r, v in enumerate(runs.n_valid)
    }
    # Samples that every run reached.  A contiguous (samples, runs) copy sums
    # each sample's runs in the pairwise order of the column [:, i]; a sum
    # along axis 0 adds them in another order and changes the bytes.
    shared = runs.n_valid.min()
    speed, variance = (np.ascontiguousarray(c[:, :shared].T) for c in (obs.mean_speed, obs.speed_variance))
    spread = speed.var(axis=1, ddof=1) if scenario.n_runs > 1 else np.zeros(shared)
    files["ensemble_summary.csv"] = (
        ["t", "mean_of_mean_speed", "var_of_mean_speed", "mean_speed_variance"],
        _rows(obs.times[:shared], speed.mean(axis=1), spread, variance.mean(axis=1)),
    )
    blown = np.flatnonzero(runs.blowup_step)
    fields = {"blowup": bool(blown.size)}
    if blown.size:
        fields["blown_runs"] = ",".join(map(str, blown))
    fields.update(stability)
    _write_outputs(out_dir, scenario, "ensemble", files, fields)
    return 3 if blown.size else 0


def cmd_spectrum(scenario: Scenario, out_dir) -> int:
    """Write the closed-form spectrum with its dense-oracle deviation per
    eigenvalue, plus a complex-plane scatter.  Refuses N above half of
    DENSE_ORACLE_MAX_DIM before building the dense matrix."""
    check_dense_size(2 * scenario.params.n_vehicles)
    params = scenario.params
    spectrum = eigenvalues(params)
    # Before the oracle: a spectrum that left the float range is refused
    # without a dense solve.
    stability = _stability_info(scenario)
    # The drift matrix is not kept once the oracle has it.
    oracle = dense_eigen_oracle(build_matrices(params))
    diffs = match_distances(spectrum, oracle)
    i = np.arange(len(spectrum))
    rows = _rows(i // 2, i % 2, spectrum.real, spectrum.imag, diffs)
    files = {"spectrum.csv": (["j", "k", "re_lambda", "im_lambda", "oracle_abs_diff"], rows)}
    if scenario.output.svg:
        files["spectrum.svg"] = spectrum_svg(spectrum)
    _write_outputs(out_dir, scenario, "spectrum", files, stability)
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
    try:
        values = np.linspace(start, stop, count)
    except ValueError as exc:  # numpy's refusal of a size past the address space
        raise MemoryError(str(exc)) from exc
    if name == "t_gap" and not (values > 0).all():
        raise InvalidInputError(f"t_gap must be positive, got {values[values <= 0][0]}")
    if (values < 0).any():
        raise InvalidInputError(f"{name} must be nonnegative, got {values[values < 0][0]}")
    return name, values


def _map_rows(values1, values2, exact, suff, abscissa):
    """CSV rows of a stability map, made one grid row at a time as they
    are written: each axis value is formatted once, and a cell adds one
    repr, its abscissa's."""
    column2 = [repr(v) for v in values2.tolist()]
    bits = ("0", "1")
    for v1, e_row, s_row, x_row in zip(values1.tolist(), exact, suff, abscissa):
        v1 = repr(v1)
        for v2, e, s, x in zip(column2, e_row.tolist(), s_row.tolist(), x_row.tolist()):
            yield [v1, v2, bits[e], bits[s], repr(x)]


def cmd_stability_map(scenario: Scenario, vary, out_dir) -> int:
    """Evaluate exact and sufficient stability over a 2-parameter grid.

    The base point comes from the scenario, which must use gap feedback.
    Any grid cell with sufficient_stable and not exact_stable aborts with
    diagnostics (the sufficient region must sit inside the exact one).
    """
    if len(vary) != 2:
        raise InvalidInputError("exactly two --vary axes are required")
    (name1, values1), (name2, values2) = vary
    if name1 == name2:
        raise InvalidInputError("the two sweep axes must differ")

    exact = np.zeros((len(values1), len(values2)), dtype=bool)
    suff = np.zeros_like(exact)
    abscissa = np.zeros(exact.shape)
    # One report per near-square tile of at most _MAP_TILE_MODE_CELLS cells
    # times modes: a tile shares each axis-only term among its cells, memory
    # per report stays bounded, and the grid is three arrays.  A tile never
    # holds fewer cells than a grid row, so where the budget holds less than
    # a row a tile is one row, and a report's O(N) mode tables and powers of
    # omega are built at most once per row's worth of cells.
    cells = _MAP_TILE_MODE_CELLS // scenario.params.n_vehicles
    if cells < len(values2):
        height, width = 1, len(values2)
    else:
        width = min(len(values2), math.isqrt(cells))
        height = cells // width
    for i in range(0, len(values1), height):
        rows = values1[i : i + height, None]
        for j in range(0, len(values2), width):
            report = stability_report(scenario.params, **{name1: rows, name2: values2[None, j : j + width]})
            tile = np.s_[i : i + height, j : j + width]
            exact[tile] = report.exact_stable
            suff[tile] = report.sufficient_stable
            abscissa[tile] = report.spectral_abscissa_nonzero
    # row-major, so the first entry is the first violating cell of the sweep
    violations = np.argwhere(suff & ~exact)
    if len(violations):
        i, j = violations[0]
        print(
            f"containment violated: sufficient-but-not-exact at {len(violations)} cells, "
            f"first at {name1}={values1[i]:g}, {name2}={values2[j]:g}",
            file=sys.stderr,
        )
        return 4

    header = ["param1", "param2", "exact_stable", "sufficient_stable", "spectral_abscissa"]
    files = {"stability.csv": (header, _map_rows(values1, values2, exact, suff, abscissa))}
    if scenario.output.svg:
        files["stability_map.svg"] = stability_map_svg(values1, values2, exact, suff, name1, name2)
    fields = {
        "sweep_param1": name1,
        "sweep_param2": name2,
        "sweep_values1": f"{values1[0]:g}:{values1[-1]:g}:{len(values1)}",
        "sweep_values2": f"{values2[0]:g}:{values2[-1]:g}:{len(values2)}",
    }
    _write_outputs(out_dir, scenario, "stability-map", files, fields)
    return 0


def cmd_preset(name: str, out_path=None) -> int:
    """Emit one of the bundled scenarios (to stdout without a path)."""
    if out_path is None:
        sys.stdout.write(format_scenario(preset(name)))
    else:
        write_scenario(preset(name), out_path)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _load(args) -> Scenario:
    """The scenario file with the --seed, --svg and (ensemble only) --runs
    overrides applied."""
    scenario = load_scenario(args.scenario)
    if getattr(args, "runs", None) is not None:
        scenario = replace(scenario, n_runs=args.runs)
    if args.seed is not None:
        scenario = replace(scenario, config=replace(scenario.config, seed=args.seed))
    if args.svg is not None:
        scenario = replace(scenario, output=replace(scenario.output, svg=args.svg == "on"))
    return scenario


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
    p.set_defaults(func=lambda a: cmd_ensemble(_load(a), a.out))

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
    p.add_argument("name", choices=PRESETS)
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=lambda a: cmd_preset(a.name, a.out))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, UnsupportedOperationError, EigenSolverError, OSError) as exc:
        message = str(exc)
    except MemoryError as exc:
        message = f"not enough memory for this run ({exc})"
    except OverflowError as exc:
        message = f"a value left the floating-point range ({exc})"
    # one line, also for a message that quotes a multi-line input
    print("error:", " ".join(message.splitlines()), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
