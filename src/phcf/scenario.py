"""Scenario files: flat key-value documents that drive the CLI.

INI-style sections [model], [regime], [sim], [output] with units noted in
comments.  A section's keys are the fields of its dataclass in field
order: [model] those of ModelParams but regime, [regime] a kind and then
the fields of that regime's class, [sim] those of SimConfig and [output]
those of OutputOptions.  Each value is read by its field's annotation
(int, float or bool); only potential (always quadratic) and initial (a
start-condition name) are read by name.  Unknown keys and unknown
sections are errors, so configuration drift fails loudly.  A [manifest]
section (written by runs) is tolerated on load, which lets a run
manifest be replayed as a scenario; its schema_version must be
SCHEMA_VERSION, since a manifest of another version would replay to
other bytes.
"""

from __future__ import annotations

import configparser
import numbers
from dataclasses import dataclass, fields
from functools import cache
from types import MappingProxyType
from typing import Optional, get_type_hints

import numpy as np

from .errors import InvalidInputError
from .model import ClosedLoop, ModelParams, OpenLoop, Uncontrolled, _require_integer
from .sde import SimConfig, UniformStationary, UniformZeroSpeed

SCHEMA_VERSION = 1

# [regime] kind, regime class and the unit comments written above its keys
_REGIMES = (
    ("uncontrolled", Uncontrolled, ()),
    ("open_loop", OpenLoop, ("; x: length/time",)),
    ("closed_loop", ClosedLoop, ("; ell: length units, t_gap: time units",)),
)
# [sim] initial names and their initial-condition classes
_INITIALS = (
    ("uniform_zero_speed", UniformZeroSpeed),
    ("uniform_stationary", UniformStationary),
)


@dataclass(frozen=True)
class OutputOptions:
    """Which outputs a run writes; each field is a bool (numpy's too)."""

    svg: bool = True
    wrap_positions: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, (bool, np.bool_)):
                raise InvalidInputError(f"{f.name} must be a bool, got {value!r}")


def _reads_back(text) -> bool:
    """Whether text, as the value of a manifest line, reads back as
    itself: a str of one line with no whitespace at either end and no ;
    or # that starts an inline comment (first, or after whitespace)."""
    return (isinstance(text, str) and "\n" not in text and text == text.strip()
            and not any(c in ";#" and (i == 0 or text[i - 1].isspace()) for i, c in enumerate(text)))


@dataclass(frozen=True)
class Scenario:
    """Everything a run needs: model, regime, integration, output.

    preset_name and n_runs, None or the preset a run started from and an
    ensemble's run count, are written to a run manifest: preset_name must
    be one line that reads back as itself and n_runs an integer >= 1, not
    a bool.
    """

    params: ModelParams
    config: SimConfig
    output: OutputOptions = OutputOptions()
    preset_name: Optional[str] = None
    n_runs: Optional[int] = None

    def __post_init__(self):
        if self.preset_name is not None and not _reads_back(self.preset_name):
            raise InvalidInputError("preset must be one line of text without whitespace at its ends "
                                    f"or a comment, got {self.preset_name!r}")
        if self.n_runs is not None:
            _require_integer("n_runs", self.n_runs)
            if self.n_runs < 1:
                raise InvalidInputError(f"n_runs must be >= 1, got {self.n_runs}")


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
    """Value text; numpy scalars are written as their Python equivalents."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return repr(float(value))
    return str(value)


def format_scenario(scenario: Scenario) -> str:
    """The scenario as file text; the format knows only the quadratic
    potential, so params with a CustomDerivative are refused."""
    p = scenario.params
    if p.potential is not None:
        raise InvalidInputError("a CustomDerivative potential cannot be written to a scenario")
    kind, _, units = _row_of(_REGIMES, p.regime)
    named = {"potential": "quadratic", "initial": _row_of(_INITIALS, scenario.config.initial)[0]}
    # section, the dataclass that holds its keys, the lines above its keys
    sections = (
        ("model", p, ("; n_vehicles: count, ring_length: length units",
                      "; alpha, beta, gamma: 1/time; sigma: length/time^(3/2)")),
        ("regime", p.regime, (f"kind = {kind}", *units)),
        ("sim", scenario.config, ("; dt, t_end: time units",)),
        ("output", scenario.output, ()),
    )
    lines = []
    for name, obj, head in sections:
        lines += [f"[{name}]", *head]
        lines += [f"{key} = {named.get(key) or _fmt(getattr(obj, key))}"
                  for key in _field_parsers(type(obj))]
        lines.append("")
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
        lines.append(f"n_runs = {_fmt(scenario.n_runs)}")
    for key, value in info.items():
        lines.append(f"{key} = {_fmt(value)}")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# parsing


def _parse_bool(text):
    value = text.strip().lower()
    if value in ("true", "1", "yes", "on"):
        return True
    if value in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_potential(text):
    if text.strip().lower() != "quadratic":
        raise InvalidInputError(f"unsupported potential {text!r}")
    return None  # the quadratic potential


def _parse_initial(text):
    return _row_named(_INITIALS, text.strip().lower(), "initial condition")[1]()


# parser of a field's key by the field's annotation
_PARSERS = {int: int, float: float, bool: _parse_bool}
# the keys parsed by name; regime is a field with its own section, not a key
_NAMED = {"potential": _parse_potential, "initial": _parse_initial}


@cache
def _field_parsers(cls) -> MappingProxyType:
    """Key -> parser for each field of the dataclass cls, in field order:
    potential and initial by name, every other field by its annotation.
    regime, which has its own section, is no key."""
    hints = get_type_hints(cls)
    return MappingProxyType({f.name: _NAMED.get(f.name) or _PARSERS[hints[f.name]]
                             for f in fields(cls) if f.name != "regime"})


def _parse(key, parse, text):
    """parse(text), with a ValueError reported as "key: message"."""
    try:
        return parse(text)
    except InvalidInputError:
        raise
    except ValueError as exc:
        raise InvalidInputError(f"{key}: {exc}") from exc


def _read(cp, name, cls, extra=()):
    """Keyword arguments of cls from the [name] section, whose keys are
    exactly extra and cls's fields."""
    if not cp.has_section(name):
        raise InvalidInputError(f"scenario is missing the [{name}] section")
    section = cp[name]
    parsers = _field_parsers(cls)
    allowed = {*extra, *parsers}
    unknown = set(section) - allowed
    if unknown:
        raise InvalidInputError(f"unknown key(s) in [{name}]: {', '.join(sorted(unknown))}")
    missing = allowed - set(section)
    if missing:
        raise InvalidInputError(f"missing key(s) in [{name}]: {', '.join(sorted(missing))}")
    return {key: _parse(key, parse, section[key]) for key, parse in parsers.items()}


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

    # each section is looked for only after the one above it was read: a
    # dropped section header reports the keys it leaves in the section above
    model = _read(cp, "model", ModelParams)
    if not cp.has_section("regime"):
        raise InvalidInputError("scenario is missing the [regime] section")
    if "kind" not in cp["regime"]:
        raise InvalidInputError("missing key(s) in [regime]: kind")
    _, regime_class, _ = _row_named(_REGIMES, cp["regime"]["kind"].strip().lower(), "regime kind")
    params = ModelParams(**model, regime=regime_class(**_read(cp, "regime", regime_class, ("kind",))))
    config = SimConfig(**_read(cp, "sim", SimConfig))
    output = OutputOptions()
    if cp.has_section("output"):
        output = OutputOptions(**_read(cp, "output", OutputOptions))

    preset_name = n_runs = None
    if cp.has_section("manifest"):
        manifest = cp["manifest"]
        if "schema_version" not in manifest:
            raise InvalidInputError("missing key(s) in [manifest]: schema_version")
        version = _parse("schema_version", int, manifest["schema_version"])
        if version != SCHEMA_VERSION:
            raise InvalidInputError(f"manifest schema_version {version} is not {SCHEMA_VERSION}: "
                                    "its run cannot be replayed")
        preset_name = manifest.get("preset")
        if "n_runs" in manifest:
            n_runs = _parse("n_runs", int, manifest["n_runs"])
    return Scenario(params=params, config=config, output=output, preset_name=preset_name, n_runs=n_runs)


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
