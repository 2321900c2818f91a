"""Scenario files: numpy scalars, round trips, one-key edits, bools
refused as numbers, ints in real-valued fields, field coverage."""

import typing
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phcf import (
    ClosedLoop,
    InvalidInputError,
    ModelParams,
    OpenLoop,
    SimConfig,
    Uncontrolled,
    UniformStationary,
    UniformZeroSpeed,
    preset,
)
from phcf import run_ensemble, scenario
from phcf.cli import cmd_ensemble
from phcf.scenario import OutputOptions, Scenario, format_manifest, format_scenario, parse_scenario


def as_numpy(obj):
    """obj with each bool, int and float field replaced by a numpy scalar
    of the same value."""
    changes = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, bool):
            changes[f.name] = np.bool_(value)
        elif isinstance(value, int):
            changes[f.name] = np.uint64(value) if value >= 2**63 else np.int64(value)
        elif isinstance(value, float):
            changes[f.name] = np.float64(value)
    return replace(obj, **changes)


def numpy_twin(sc):
    """sc with numpy scalars in every scalar field, the regime's included."""
    params = replace(as_numpy(sc.params), regime=as_numpy(sc.params.regime))
    n_runs = None if sc.n_runs is None else np.int64(sc.n_runs)
    return Scenario(params, as_numpy(sc.config), as_numpy(sc.output), sc.preset_name, n_runs)


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
def test_numpy_scalars_write_as_python_scalars(name):
    sc = preset(name)
    sc = replace(sc, output=OutputOptions(svg=False, wrap_positions=True), n_runs=7)
    twin = numpy_twin(sc)
    info = {"spectral_abscissa": -0.05, "blowup": False, "blown_runs": 3}
    np_info = {"spectral_abscissa": np.float64(-0.05), "blowup": np.bool_(False), "blown_runs": np.int64(3)}
    assert format_scenario(twin) == format_scenario(sc)
    text = format_manifest(twin, np_info)
    assert text == format_manifest(sc, info)
    assert parse_scenario(text) == sc


# ---------------------------------------------------------------------------
# generated scenarios


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# (regime, gamma) pairs: gamma is 0 exactly when the regime is uncontrolled
REGIMES = st.one_of(
    st.tuples(st.just(Uncontrolled()), st.just(0.0)),
    st.tuples(st.builds(OpenLoop, x=FINITE), POSITIVE),
    st.tuples(st.builds(ClosedLoop, ell=NONNEGATIVE, t_gap=POSITIVE), POSITIVE),
)


@st.composite
def scenarios(draw):
    """Any writable scenario, in Python or numpy scalars, with or without
    the manifest's preset and n_runs."""
    regime, gamma = draw(REGIMES)
    params = ModelParams(
        draw(st.integers(2, 10**9)), draw(POSITIVE), draw(NONNEGATIVE), draw(NONNEGATIVE),
        gamma, draw(NONNEGATIVE), regime,
    )
    dt = draw(POSITIVE)
    config = SimConfig(
        dt, draw(st.floats(min_value=dt, allow_infinity=False)), draw(st.integers(1, 2**62)),
        draw(st.integers(0, 2**64 - 1)), draw(st.sampled_from([UniformZeroSpeed(), UniformStationary()])),
    )
    sc = Scenario(
        params, config, OutputOptions(draw(st.booleans()), draw(st.booleans())),
        draw(st.none() | st.sampled_from(["fig1", "fig2", "fig3"])), draw(st.none() | st.integers(1, 10**9)),
    )
    return numpy_twin(sc) if draw(st.booleans()) else sc


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(scenarios())
def test_manifest_round_trip(sc):
    assert parse_scenario(format_manifest(sc, {})) == sc


# any value for a field written to the manifest, refused or not
ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.sampled_from([np.True_, np.False_]), st.integers(-3, 2**64),
    st.integers(-3, 3).map(np.int64), st.floats(), st.text(), st.sampled_from(["fig1", "fig3", "yes"]),
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(scenarios(), ANY_VALUE, ANY_VALUE, ANY_VALUE, ANY_VALUE)
def test_every_accepted_scenario_round_trips(sc, svg, wrap_positions, preset_name, n_runs):
    """Scenario and OutputOptions refuse what format_manifest cannot write
    back: every one they accept parses back unchanged."""
    try:
        sc = replace(sc, output=OutputOptions(svg, wrap_positions), preset_name=preset_name, n_runs=n_runs)
    except InvalidInputError:
        return
    assert parse_scenario(format_manifest(sc, {})) == sc


@pytest.mark.parametrize("edit", [
    lambda sc: replace(sc, output=OutputOptions(svg=None)),
    lambda sc: replace(sc, output=OutputOptions(svg=2.5)),
    lambda sc: replace(sc, output=OutputOptions(svg="yes")),
    lambda sc: replace(sc, output=OutputOptions(wrap_positions=1)),
    lambda sc: replace(sc, n_runs=True),
    lambda sc: replace(sc, n_runs=1.5),
    lambda sc: replace(sc, n_runs=0),
    lambda sc: replace(sc, preset_name="a\nb"),
    lambda sc: replace(sc, preset_name=" fig1"),
    lambda sc: replace(sc, preset_name="fig1 ;x"),
    lambda sc: replace(sc, preset_name="a\rb"),
    lambda sc: replace(sc, preset_name="mine"),
], ids=["svg_none", "svg_float", "svg_text", "wrap_int", "n_runs_bool", "n_runs_float", "n_runs_zero",
        "preset_two_lines", "preset_leading_space", "preset_comment", "preset_carriage_return",
        "preset_unknown"])
def test_unwritable_scenario_is_refused(edit):
    """Each was accepted, and then written as text that parse_scenario
    refused or read back as another scenario; a preset name outside
    PRESETS names no preset."""
    with pytest.raises(InvalidInputError, match="must be"):
        edit(preset("fig1"))


# replacement values: finite extremes, subnormals, inf and nan, huge
# integers, junk, and an integer past int()'s 4300-digit limit
VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(-10**40, 10**40).map(str),
    st.text(max_size=12),
    st.just("9" * 5000),
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(scenarios(), st.sampled_from(["value", "duplicate", "drop"]), st.data())
def test_one_key_edit_parses_or_is_invalid(sc, edit, data):
    """A changed value, a duplicated line or a dropped line (key, section
    header or comment) either parses or raises InvalidInputError."""
    lines = format_manifest(sc, {"command": "simulate"}).split("\n")
    if edit == "value":
        i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if " = " in line]))
        lines[i] = lines[i].split(" = ")[0] + " = " + data.draw(VALUES)
    else:
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = [lines[i]] * 2 if edit == "duplicate" else []
    try:
        parse_scenario("\n".join(lines))
    except InvalidInputError:
        pass


@pytest.mark.parametrize("line, message", [
    (None, "missing key(s) in [manifest]: schema_version"),
    ("schema_version = junk", "schema_version: invalid literal"),
    ("schema_version = 1.0", "schema_version: invalid literal"),
    ("schema_version = 99", "schema_version 99 is not 1"),
])
def test_manifest_schema_version_is_checked(line, message):
    """A manifest of another schema version would replay to other bytes,
    so it is refused, as is one whose version is missing or not an integer."""
    text = format_manifest(preset("fig1"), {})
    assert "schema_version = 1\n" in text
    edited = text.replace("schema_version = 1\n", "" if line is None else line + "\n")
    with pytest.raises(InvalidInputError) as info:
        parse_scenario(edited)
    assert message in str(info.value)


def test_manifest_preset_spanning_lines_is_refused():
    """An indented line after preset continues its value; written back,
    that value would be a bare line no parse accepts."""
    text = format_manifest(preset("fig1"), {})
    assert "preset = fig1\n" in text
    with pytest.raises(InvalidInputError, match="preset must be one of"):
        parse_scenario(text.replace("preset = fig1\n", "preset = fig1\n  extra\n"))


# ---------------------------------------------------------------------------
# bools and other non-numbers

# bool is a numbers.Integral and math.isfinite(True) holds, but a bool
# field is written as "true", which no int or float field parses; text and
# None raised math.isfinite's TypeError
NON_NUMBER_CALLS = {
    "sample_stride": lambda out: SimConfig(0.01, 1.0, sample_stride=True),
    "seed": lambda out: SimConfig(0.01, 1.0, seed=True),
    "dt": lambda out: SimConfig(dt=True, t_end=1.0),
    "dt_numpy": lambda out: SimConfig(dt=np.True_, t_end=1.0),
    "alpha": lambda out: replace(preset("fig1").params, alpha=True),
    "sigma_numpy": lambda out: replace(preset("fig1").params, sigma=np.True_),
    "x": lambda out: OpenLoop(x=True),
    "alpha_text": lambda out: replace(preset("fig1").params, alpha="1"),
    "x_none": lambda out: OpenLoop(x=None),
    "run_ensemble": lambda out: run_ensemble(preset("fig1").params, SimConfig(0.01, 0.1), True),
    "cmd_ensemble": lambda out: cmd_ensemble(replace(preset("fig1"), n_runs=True), out),
}


@pytest.mark.parametrize("call", NON_NUMBER_CALLS.values(), ids=NON_NUMBER_CALLS.keys())
def test_non_number_is_refused_where_a_number_is_expected(call, tmp_path):
    with pytest.raises(InvalidInputError, match="must be"):
        call(tmp_path / "o")
    assert not (tmp_path / "o").exists()


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(scenarios(), st.data(), st.sampled_from([True, False, np.True_, np.False_]))
def test_scenario_with_a_bool_number_is_refused(sc, data, flag):
    """Any number of a writable scenario's model, regime or config set to
    a bool is refused, so no scenario the dataclasses accept is written
    with a bool where parse_scenario reads a number."""
    params, config = sc.params, sc.config
    obj = data.draw(st.sampled_from([params, params.regime, config]))
    names = [f.name for f in fields(obj) if isinstance(getattr(obj, f.name), (int, float, np.number))]
    if not names:  # Uncontrolled has no fields
        return
    with pytest.raises(InvalidInputError):
        replace(obj, **{data.draw(st.sampled_from(names)): flag})


# ---------------------------------------------------------------------------
# ints in real-valued fields

BIG_INT = 10**17 + 1  # no float equals it: float(BIG_INT) is 1e+17

INT_EDITS = {
    "alpha": lambda sc: replace(sc, params=replace(sc.params, alpha=BIG_INT)),
    "x": lambda sc: replace(sc, params=replace(sc.params, gamma=1.0, regime=OpenLoop(x=BIG_INT))),
    "ell": lambda sc: replace(sc, params=replace(sc.params, gamma=1.0, regime=ClosedLoop(ell=BIG_INT, t_gap=2))),
    "t_end": lambda sc: replace(sc, config=replace(sc.config, t_end=BIG_INT)),
}


@pytest.mark.parametrize("edit", INT_EDITS.values(), ids=INT_EDITS.keys())
def test_int_in_a_real_field_round_trips(edit):
    """A real-valued field stores an int as a float.  Kept as an int,
    BIG_INT was written as its digits and read back as 1e+17, so the
    parsed scenario differed from the one written."""
    sc = edit(preset("fig1"))
    assert parse_scenario(format_manifest(sc, {})) == sc


HUGE_INT_CALLS = {
    "ModelParams": lambda v: replace(preset("fig1").params, alpha=v),
    "OpenLoop": lambda v: OpenLoop(x=v),
    "ClosedLoop": lambda v: ClosedLoop(ell=v, t_gap=1.0),
    "SimConfig": lambda v: SimConfig(dt=0.01, t_end=v),
}


@pytest.mark.parametrize("exponent", [400, 5000])
@pytest.mark.parametrize("call", HUGE_INT_CALLS.values(), ids=HUGE_INT_CALLS.keys())
def test_int_past_the_float_range_is_refused(call, exponent):
    """float() of such an int overflows, which was an untyped OverflowError;
    10**5000 has more digits than Python writes as text, so the message
    does not quote the int."""
    with pytest.raises(InvalidInputError, match="must be finite, got an int past the float range"):
        call(10**exponent)


# ---------------------------------------------------------------------------
# field coverage


# keys read by name rather than by the field's annotation
NAMED = {"regime", "potential", "initial"}


@pytest.mark.parametrize("cls", [ModelParams, SimConfig, OutputOptions, Uncontrolled, OpenLoop, ClosedLoop])
def test_every_field_has_a_parser(cls):
    """A field added later with a type the file format cannot read fails
    here.  Annotations are resolved to types first, so string annotations
    (postponed evaluation) and real ones are checked alike."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        assert f.name in NAMED or hints[f.name] in scenario._PARSERS, (cls.__name__, f.name)
    assert all(isinstance(annotation, type) for annotation in scenario._PARSERS)


@dataclass(frozen=True)
class _Probe:
    count: int
    rate: "float"
    flag: bool


def test_field_parsers_resolve_annotations():
    """Real and string annotations both pick the annotation's parser."""
    parsers = scenario._field_parsers(_Probe)
    assert list(parsers) == ["count", "rate", "flag"]
    assert [parsers[key](text) for key, text in zip(parsers, ["12", "2.5", "off"])] == [12, 2.5, False]
