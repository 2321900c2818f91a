"""Scenario files: flat key-value documents that drive the CLI.

INI-style sections [model], [regime], [sim], [output] with units noted in
comments.  Unknown keys and unknown sections are errors, so configuration
drift fails loudly.  A [manifest] section (written by runs) is tolerated
on load, which lets a run manifest be replayed as a scenario.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace
from typing import Optional

from .errors import InvalidInputError
from .model import ClosedLoop, ModelParams, OpenLoop, Uncontrolled
from .sde import SimConfig, UniformStationary, UniformZeroSpeed

SCHEMA_VERSION = 1

_MODEL_KEYS = ("n_vehicles", "ring_length", "alpha", "beta", "gamma", "sigma", "potential")
_SIM_KEYS = ("dt", "t_end", "sample_stride", "seed", "initial")
_OUTPUT_KEYS = ("svg", "wrap_positions")
# [regime] kind, regime class and the unit comment written above its
# fields; the section's other keys are the class's dataclass fields.
_REGIMES = (
    ("uncontrolled", Uncontrolled, None),
    ("open_loop", OpenLoop, "; x: length/time"),
    ("closed_loop", ClosedLoop, "; ell: length units, t_gap: time units"),
)
# [sim] initial names and their initial-condition classes
_INITIALS = (
    ("uniform_zero_speed", UniformZeroSpeed),
    ("uniform_stationary", UniformStationary),
)
# manifest keys that feed back into the scenario on load
_MANIFEST_SCENARIO_KEYS = ("preset", "n_runs")


@dataclass(frozen=True)
class OutputOptions:
    svg: bool = True
    wrap_positions: bool = True


@dataclass(frozen=True)
class Scenario:
    """Everything a run needs: model, regime, integration, output."""

    params: ModelParams
    config: SimConfig
    output: OutputOptions = OutputOptions()
    preset_name: Optional[str] = None
    n_runs: Optional[int] = None


def preset(name: str) -> Scenario:
    """The three bundled scenarios.

    All share N=20, L=141, dt=0.001, t_end=250, sigma=1 and start evenly
    spaced at rest: fig1 is uncontrolled (alpha=1, beta=1, gamma=0), fig2
    holds the commanded speed x=2.05 weakly (gamma=0.1, alpha=0.5), fig3
    uses gap feedback with ell=5, t_gap=1 (gamma=1, alpha=0.5).
    """
    common = dict(n_vehicles=20, ring_length=141.0, beta=1.0, sigma=1.0)
    if name == "fig1":
        params = ModelParams(**common, alpha=1.0, gamma=0.0, regime=Uncontrolled())
    elif name == "fig2":
        params = ModelParams(**common, alpha=0.5, gamma=0.1, regime=OpenLoop(x=2.05))
    elif name == "fig3":
        params = ModelParams(**common, alpha=0.5, gamma=1.0, regime=ClosedLoop(ell=5.0, t_gap=1.0))
    else:
        raise InvalidInputError(f"unknown preset {name!r}; expected fig1, fig2 or fig3")
    config = SimConfig(dt=0.001, t_end=250.0, sample_stride=100, seed=42, initial=UniformZeroSpeed())
    return Scenario(params=params, config=config, preset_name=name)


# ---------------------------------------------------------------------------
# formatting


def _row_of(table, obj):
    """The row of a name/class table that holds obj's class."""
    for row in table:
        if type(obj) is row[1]:
            return row
    raise InvalidInputError(f"{type(obj).__name__} cannot be written to a scenario")


def _row_named(table, name, what):
    """The row of a name/class table with the given name."""
    for row in table:
        if row[0] == name:
            return row
    raise InvalidInputError(f"unknown {what} {name!r}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_scenario(scenario: Scenario) -> str:
    """The scenario as file text; the format knows only the quadratic
    potential, so params with a CustomDerivative are refused."""
    p = scenario.params
    if p.potential is not None:
        raise InvalidInputError("a CustomDerivative potential cannot be written to a scenario")
    regime = p.regime
    lines = [
        "[model]",
        "; n_vehicles: count, ring_length: length units",
        "; alpha, beta, gamma: 1/time; sigma: length/time^(3/2)",
        f"n_vehicles = {p.n_vehicles}",
        f"ring_length = {_fmt(p.ring_length)}",
        f"alpha = {_fmt(p.alpha)}",
        f"beta = {_fmt(p.beta)}",
        f"gamma = {_fmt(p.gamma)}",
        f"sigma = {_fmt(p.sigma)}",
        "potential = quadratic",
        "",
        "[regime]",
    ]
    kind, _, units = _row_of(_REGIMES, regime)
    lines.append(f"kind = {kind}")
    if units is not None:
        lines.append(units)
    lines += [f"{f.name} = {_fmt(getattr(regime, f.name))}" for f in fields(regime)]
    c = scenario.config
    initial = _row_of(_INITIALS, c.initial)[0]
    lines += [
        "",
        "[sim]",
        "; dt, t_end: time units",
        f"dt = {_fmt(c.dt)}",
        f"t_end = {_fmt(c.t_end)}",
        f"sample_stride = {c.sample_stride}",
        f"seed = {c.seed}",
        f"initial = {initial}",
        "",
        "[output]",
        f"svg = {_fmt(scenario.output.svg)}",
        f"wrap_positions = {_fmt(scenario.output.wrap_positions)}",
        "",
    ]
    return "\n".join(lines)


def format_manifest(scenario: Scenario, info: dict) -> str:
    """Scenario serialization plus a [manifest] section with run metadata.

    Contains every parameter the run consumed; replaying it as a scenario
    reproduces the run byte for byte.
    """
    lines = [format_scenario(scenario), "[manifest]", f"schema_version = {SCHEMA_VERSION}"]
    if scenario.preset_name is not None:
        lines.append(f"preset = {scenario.preset_name}")
    if scenario.n_runs is not None:
        lines.append(f"n_runs = {scenario.n_runs}")
    for key, value in info.items():
        lines.append(f"{key} = {_fmt(value)}")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# parsing


def _section(cp, name, required=True):
    if not cp.has_section(name):
        if required:
            raise InvalidInputError(f"scenario is missing the [{name}] section")
        return None
    return cp[name]


def _check_keys(name, section, allowed):
    unknown = set(section) - set(allowed)
    if unknown:
        raise InvalidInputError(f"unknown key(s) in [{name}]: {', '.join(sorted(unknown))}")
    missing = set(allowed) - set(section)
    if missing:
        raise InvalidInputError(f"missing key(s) in [{name}]: {', '.join(sorted(missing))}")


def _get_float(section, key):
    try:
        return float(section[key])
    except ValueError as exc:
        raise InvalidInputError(f"{key}: {exc}") from exc


def _get_int(section, key):
    try:
        return int(section[key])
    except ValueError as exc:
        raise InvalidInputError(f"{key}: {exc}") from exc


def _get_bool(section, key):
    value = section[key].strip().lower()
    if value in ("true", "1", "yes", "on"):
        return True
    if value in ("false", "0", "no", "off"):
        return False
    raise InvalidInputError(f"{key}: expected a boolean, got {section[key]!r}")


def parse_scenario(text: str) -> Scenario:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise InvalidInputError(f"malformed scenario: {exc}") from exc

    known_sections = {"model", "regime", "sim", "output", "manifest"}
    unknown = set(cp.sections()) - known_sections
    if unknown:
        raise InvalidInputError(f"unknown section(s): {', '.join(sorted(unknown))}")

    model = _section(cp, "model")
    _check_keys("model", model, _MODEL_KEYS)
    if model["potential"].strip().lower() != "quadratic":
        raise InvalidInputError(f"unsupported potential {model['potential']!r}")

    regime_sec = _section(cp, "regime")
    if "kind" not in regime_sec:
        raise InvalidInputError("missing key(s) in [regime]: kind")
    _, regime_class, _ = _row_named(_REGIMES, regime_sec["kind"].strip().lower(), "regime kind")
    names = tuple(f.name for f in fields(regime_class))
    _check_keys("regime", regime_sec, ("kind",) + names)
    regime = regime_class(**{name: _get_float(regime_sec, name) for name in names})

    params = ModelParams(
        n_vehicles=_get_int(model, "n_vehicles"),
        ring_length=_get_float(model, "ring_length"),
        alpha=_get_float(model, "alpha"),
        beta=_get_float(model, "beta"),
        gamma=_get_float(model, "gamma"),
        sigma=_get_float(model, "sigma"),
        regime=regime,
    )

    sim = _section(cp, "sim")
    _check_keys("sim", sim, _SIM_KEYS)
    _, initial_class = _row_named(_INITIALS, sim["initial"].strip().lower(), "initial condition")
    config = SimConfig(
        dt=_get_float(sim, "dt"),
        t_end=_get_float(sim, "t_end"),
        sample_stride=_get_int(sim, "sample_stride"),
        seed=_get_int(sim, "seed"),
        initial=initial_class(),
    )

    output_sec = _section(cp, "output", required=False)
    if output_sec is None:
        output = OutputOptions()
    else:
        _check_keys("output", output_sec, _OUTPUT_KEYS)
        output = OutputOptions(
            svg=_get_bool(output_sec, "svg"),
            wrap_positions=_get_bool(output_sec, "wrap_positions"),
        )

    preset_name = None
    n_runs = None
    if cp.has_section("manifest"):
        manifest = cp["manifest"]
        if "preset" in manifest:
            preset_name = manifest["preset"].strip()
        if "n_runs" in manifest:
            n_runs = _get_int(manifest, "n_runs")

    return Scenario(params=params, config=config, output=output,
                    preset_name=preset_name, n_runs=n_runs)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{path}: not a UTF-8 text file ({exc.reason})") from exc
    return parse_scenario(text)


def write_scenario(scenario: Scenario, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_scenario(scenario))


def with_seed(scenario: Scenario, seed: Optional[int]) -> Scenario:
    """Scenario with the seed overridden (None leaves it unchanged)."""
    if seed is None:
        return scenario
    return replace(scenario, config=replace(scenario.config, seed=seed))


def with_svg(scenario: Scenario, svg: Optional[bool]) -> Scenario:
    if svg is None:
        return scenario
    return replace(scenario, output=replace(scenario.output, svg=svg))
