"""The CSV and SVG emitters against their plain reference forms.

CSV lines are fields joined by commas; they must equal what csv.writer
writes.  The table generator writes each value of its array columns as
the repr of its Python float or int, and the ensemble summary's
reductions of contiguous copies must have the bits of a per-column loop.
The SVG trajectory fan, its polylines and the stability map format each
axis once for all traces and cells; they must equal the references in
oracles.py, which draw one trace or one cell at a time.
A panel's title, axes and dashed lines go through one text and one line
writer; they must equal the references that spell each element out.
"""

import csv
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    reference_axes,
    reference_csv_text,
    reference_hline,
    reference_polyline,
    reference_stability_map_svg,
    reference_title,
    reference_trajectory_svg,
    reference_vline,
)
from phcf import InvalidInputError, preset, write_scenario
from phcf.cli import _rows, _write_outputs, main
from phcf.svgplot import _PALETTE, _Panel, _ticks, observables_svg, stability_map_svg, trajectory_svg

# The header names of every command's CSV files.
HEADER_NAMES = [
    "t", "q1", "q20", "p1", "p20", "mean_speed", "speed_variance", "hamiltonian",
    "mean_of_mean_speed", "var_of_mean_speed", "mean_speed_variance",
    "j", "k", "re_lambda", "im_lambda", "oracle_abs_diff",
    "param1", "param2", "exact_stable", "sufficient_stable", "spectral_abscissa",
]
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308 / 3, 1e308, -1e308, 1.7976931348623157e308]

fields = st.one_of(st.floats().map(repr), st.integers().map(str), st.sampled_from(HEADER_NAMES))


def written_csv(header, rows) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        _write_outputs(tmp, preset("fig3"), "test", {"t.csv": (header, rows)}, {})
        with open(Path(tmp) / "t.csv", encoding="utf-8", newline="") as fh:
            return fh.read()


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.lists(fields, min_size=1, max_size=6),
       st.lists(st.lists(fields, min_size=1, max_size=6), max_size=5))
@example(["t", "mean_speed"], [])
@example(HEADER_NAMES, [[repr(x) for x in SPECIAL_FLOATS]])
@example(["j", "k"], [["0", "1"], ["-7", str(10**30)]])
def test_csv_lines_equal_csv_writer(header, rows):
    assert written_csv(header, rows) == reference_csv_text(header, rows)


@pytest.mark.parametrize("argv, wrap", [
    (["simulate"], True),
    (["simulate"], False),
    (["ensemble", "--runs", "2"], True),
    (["ensemble", "--runs", "1"], True),
    (["spectrum"], True),
    (["stability-map", "--vary", "alpha=3:0.1:4", "--vary", "gamma=0:2:3"], True),
])
def test_every_command_writes_csv_writer_text(tmp_path, argv, wrap):
    """Every CSV file of every command, read back with csv.reader, is
    what csv.writer writes for its fields: no field needed quoting."""
    sc = preset("fig3")
    sc = replace(sc, config=replace(sc.config, t_end=1.0, sample_stride=50),
                 output=replace(sc.output, wrap_positions=wrap))
    path = tmp_path / "s.ini"
    write_scenario(sc, path)
    assert main(argv[:1] + ["--scenario", str(path), "--out", str(tmp_path / "o")] + argv[1:]) == 0
    tables = sorted((tmp_path / "o").glob("*.csv"))
    assert tables
    for table in tables:
        with open(table, encoding="utf-8", newline="") as fh:
            text = fh.read()
        header, *rows = csv.reader(text.splitlines())
        assert text == reference_csv_text(header, rows), table.name


@st.composite
def table_columns(draw):
    """One to four float64 or int64 columns of a few rows, each 1-D or
    (rows, width)."""
    rows = draw(st.integers(0, 6))
    floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        width = draw(st.none() | st.integers(1, 5))
        shape = (rows,) if width is None else (rows, width)
        columns.append(draw(arrays(np.int64, shape) | arrays(np.float64, shape, elements=floats)))
    return columns


def field(x) -> str:
    """A numpy scalar as a CSV field: repr of its Python float, or its int."""
    return repr(float(x)) if isinstance(x, np.floating) else str(int(x))


SPECIAL = np.array(SPECIAL_FLOATS)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(table_columns())
@example([np.arange(len(SPECIAL)), SPECIAL, np.stack([SPECIAL[::-1], -SPECIAL], axis=1)])
def test_rows_write_each_value_as_repr_of_its_python_scalar(columns):
    """Row i of 1-D and 2-D float64 and int64 columns holds entry i of
    each 1-D column and row i of each 2-D one, in column order."""
    expected = [[field(x) for c in columns for x in np.atleast_1d(c[i])] for i in range(len(columns[0]))]
    assert list(_rows(*columns)) == expected
    header = [f"c{i}" for i in range(len(expected[0]) if expected else 1)]
    assert written_csv(header, _rows(*columns)) == reference_csv_text(header, expected)


def same_bits(a, b) -> bool:
    """The two float arrays hold the same bits, any NaN matching any NaN."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.integers(2, 600), st.integers(1, 60), st.integers(-320, 300), st.integers(0, 40),
       st.integers(0, 2**32 - 1))
@example(600, 60, 300, 8, 0)
@example(2, 1, -320, 0, 1)
def test_summary_reductions_equal_per_column_loop(runs, samples, exponent, spread, seed):
    """mean and var(ddof=1) along axis 1 of a contiguous (samples, runs)
    copy equal, bit for bit, the reductions of each strided column
    c[:, i] over the samples that every run reached; a run's columns are
    NaN past its n_valid samples.  It pins the installed numpy's pairwise
    summation order, on which the ensemble summary relies to keep the
    bytes of its former per-column loop; it passes without that change
    too."""
    rng = np.random.default_rng(seed)
    # decades from subnormal to near the largest float; sums may overflow
    decades = np.clip(rng.uniform(exponent - spread, exponent + spread, (runs, samples)), -323, 307)
    c = rng.standard_normal((runs, samples)) * 10.0**decades
    n_valid = rng.integers(1, samples + 1, runs)
    c[np.arange(samples) >= n_valid[:, None]] = math.nan
    v = n_valid.min()
    copy = np.ascontiguousarray(c[:, :v].T)
    with np.errstate(all="ignore"):
        assert same_bits(copy.mean(axis=1), np.array([c[:, i].mean() for i in range(v)]))
        assert same_bits(copy.var(axis=1, ddof=1), np.array([c[:, i].var(ddof=1) for i in range(v)]))


def outcome(build, *args):
    """The SVG text, or the type of the error that stopped it."""
    try:
        return build(*args)
    except (InvalidInputError, ArithmeticError, RuntimeWarning) as exc:
        return type(exc)


def with_nans(shape, elements):
    return arrays(float, shape, elements=st.one_of(elements, st.just(math.nan)))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_polyline_equals_per_trace_loop(data):
    """Traces with NaN gaps, one-point pieces and NaN ends draw the same
    elements as each trace drawn alone."""
    n = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(1, 13))
    ys = data.draw(with_nans((n, k), st.floats(-50, 50)))
    xs = np.linspace(-1.0, 11.0, n)
    colors = _PALETTE[:3]
    panel = _Panel(0, 0, 100, 100, (-1.0, 11.0), (-50.0, 50.0))
    reference = _Panel(0, 0, 100, 100, (-1.0, 11.0), (-50.0, 50.0))
    panel.polyline(xs, ys, colors, 0.8)
    for i in range(k):
        reference_polyline(reference, xs, ys[:, i], colors[i % len(colors)], 0.8)
    assert panel.parts == reference.parts


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.data(), st.booleans())
def test_trajectory_svg_equals_per_vehicle_loop(data, wrap):
    """Positions over several laps cross the seam; NaN positions break
    wrapped traces too.  Unwrapped traces are finite: their span sets
    the axis."""
    ring_length = data.draw(st.sampled_from([1.0, 7.05, 141.0]))
    n = data.draw(st.integers(2, 10))
    k = data.draw(st.integers(1, 12))
    laps = st.floats(-3 * ring_length, 3 * ring_length)
    positions = data.draw(with_nans((n, k), laps) if wrap else arrays(float, (n, k), elements=laps))
    times = np.cumsum(data.draw(arrays(float, n, elements=st.floats(0.01, 2.0))))
    expected = outcome(reference_trajectory_svg, times, positions, ring_length, wrap)
    before = positions.copy()
    assert outcome(trajectory_svg, times, positions, ring_length, wrap) == expected
    assert np.array_equal(positions, before, equal_nan=True)


# sweep axes: ascending, descending or one value; one value repeated
axes = st.builds(np.linspace, st.floats(0, 1e4), st.floats(0, 1e4), st.integers(1, 7)) | st.builds(
    np.full, st.integers(2, 7), st.floats(0, 1e4))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(axes, axes, st.integers(0, 2**32 - 1))
@example(np.linspace(3.0, 1.0, 5), np.linspace(0.5, 1.0, 2), 0)
@example(np.full(3, 1.0), np.array([0.25]), 1)
def test_stability_map_svg_equals_per_cell_loop(xs, ys, seed):
    """Random verdict masks over any pair of axes draw the same rectangles
    as one cell at a time."""
    rng = np.random.default_rng(seed)
    exact = rng.random((len(xs), len(ys))) < 0.6
    sufficient = rng.random(exact.shape) < 0.5
    args = (xs, ys, exact, sufficient, "alpha", "gamma")
    assert outcome(stability_map_svg, *args) == outcome(reference_stability_map_svg, *args)


finite = st.floats(allow_nan=False, allow_infinity=False)
# any order and any span up to the whole float range, ordinary spans, and
# spans of a few ulps (where the ticks run out of digits)
limits = st.one_of(
    st.tuples(finite, finite),
    st.builds(lambda lo, span: (lo, lo + span), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    st.builds(lambda lo, k: (lo, lo + k * math.ulp(lo)), st.floats(-1e300, 1e300), st.integers(1, 64)),
)


def drawn(panel, *calls):
    """panel.parts after the calls, with the error (type and message) or
    None of each call; the calls run in order, whatever an earlier one
    raised."""
    errors = []
    for call in calls:
        try:
            errors.append(call())
        except (InvalidInputError, ArithmeticError) as exc:
            errors.append((type(exc), str(exc)))
    return panel.parts, errors


def refusal(lim):
    """The error (type and message) _ticks raises on an axis, or None."""
    try:
        _ticks(*lim)
    except (InvalidInputError, ArithmeticError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(limits, limits, st.text(max_size=8), st.text(max_size=8), st.text(max_size=8), finite, finite,
       st.sampled_from(_PALETTE))
@example((0.0, 10.0), (-1.0, 1.0), "t", "x", "", 0.0, 0.0, "#999")
@example((0.0, 10.0), (-1.0, 1.0), "", "", "y", 5.0, -0.5, "#999")
@example((1.0, 1.0), (2.0, -2.0), "flat", "", "", 1.0, 0.0, "#999")
@example((0.0, 5e-324), (1e308, -1e308), "", "x", "y", 0.0, 0.0, "#999")
def test_panel_elements_equal_inline_elements(xlim, ylim, title, xlabel, ylabel, x, y, color):
    """Title, axes with and without each label, hline and vline append
    the elements that the references spell out, and raise where they do.
    A panel is refused when it is built if _ticks refuses one of its
    axes: a flat or descending one, or one whose tick step is not a
    normal float.  So a one-sample trajectory or observables figure,
    whose time axis is flat, is refused at any time x."""
    for figure in (lambda: trajectory_svg([x], [[y]], 1.0), lambda: observables_svg([x], [y], [y], [y])):
        with pytest.raises(InvalidInputError) as info:
            figure()
        assert str(info.value) == f"cannot draw ticks on an axis from {x!r} to {x!r}"
    expected = refusal(xlim) or refusal(ylim)
    if expected is not None:
        with pytest.raises(expected[0]) as info:
            _Panel(60, 24, 420, 300, xlim, ylim, title=title)
        assert (info.type, str(info.value)) == expected
        return
    panel = _Panel(60, 24, 420, 300, xlim, ylim, title=title)
    reference = _Panel(60, 24, 420, 300, xlim, ylim)
    reference_title(reference, title)
    assert drawn(panel, lambda: panel.axes(xlabel, ylabel), lambda: panel.hline(y, color),
                 lambda: panel.vline(x, color)) == drawn(
        reference, lambda: reference_axes(reference, xlabel, ylabel),
        lambda: reference_hline(reference, y, color), lambda: reference_vline(reference, x, color))
