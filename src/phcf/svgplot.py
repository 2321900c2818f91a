"""Small deterministic SVG emitters; no plotting dependency.

Output contains no timestamps or generated ids, so identical data gives
identical bytes.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import InvalidInputError

_FONT = 'font-family="sans-serif" font-size="11"'
_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]
_N_TICKS = 5
_DASH = 'stroke-dasharray="4,3"'


def _f(x) -> str:
    return f"{x:.2f}"


def _ticks(lo, hi):
    span = hi - lo
    # Tick steps are normal floats: below that 10**k loses digits and
    # then underflows to 0.
    if not sys.float_info.min <= span / _N_TICKS < math.inf:
        raise InvalidInputError(f"cannot draw ticks on an axis from {lo!r} to {hi!r}")
    step = 10.0 ** math.floor(math.log10(span / _N_TICKS))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= _N_TICKS:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        if t + step == t:  # a step below half an ulp of t never advances
            break
        t += step
    return out


class _Panel:
    """Maps a data rectangle onto a pixel rectangle and accumulates
    SVG elements.  Both axes are checked, and their ticks made, when the
    panel is built, so px and py never divide by zero."""

    def __init__(self, x0, y0, width, height, xlim, ylim, title=""):
        self.x0, self.y0, self.w, self.h = x0, y0, width, height
        self.xlim, self.ylim = xlim, ylim
        self.xticks, self.yticks = _ticks(*xlim), _ticks(*ylim)
        self.parts = [
            f'<rect x="{_f(x0)}" y="{_f(y0)}" width="{_f(width)}" height="{_f(height)}" '
            'fill="white" stroke="#333" stroke-width="1"/>'
        ]
        if title:
            self.text(x0 + width / 2, y0 - 6, title)

    def px(self, x):
        lo, hi = self.xlim
        return self.x0 + (x - lo) / (hi - lo) * self.w

    def py(self, y):
        lo, hi = self.ylim
        return self.y0 + self.h - (y - lo) / (hi - lo) * self.h

    def text(self, x, y, body, anchor="middle", extra=""):
        """One text element at pixel (x, y); extra holds more attributes, each after a space."""
        self.parts.append(f'<text x="{_f(x)}" y="{_f(y)}" {_FONT} text-anchor="{anchor}"{extra}>{body}</text>')

    def line(self, x1, y1, x2, y2, style='stroke="#333"'):
        """One line element between pixel points (x1, y1) and (x2, y2)."""
        self.parts.append(f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" {style}/>')

    def axes(self, xlabel="", ylabel=""):
        bottom = self.y0 + self.h
        for t in self.xticks:
            x = self.px(t)
            self.line(x, bottom, x, bottom + 4)
            self.text(x, bottom + 16, f"{t:g}")
        for t in self.yticks:
            y = self.py(t)
            self.line(self.x0 - 4, y, self.x0, y)
            self.text(self.x0 - 6, y + 4, f"{t:g}", anchor="end")
        if xlabel:
            self.text(self.x0 + self.w / 2, bottom + 32, xlabel)
        if ylabel:
            x = self.x0 - 38
            y = self.y0 + self.h / 2
            self.text(x, y, ylabel, extra=f' transform="rotate(-90 {_f(x)} {_f(y)})"')

    def polyline(self, xs, ys, colors, width=1.0):
        """One polyline per trace and run of at least two points between
        NaN ys.  ys holds one trace per column (a 1-D ys is one trace);
        trace k is drawn in colors[k % len(colors)].

        px and py map whole arrays with the scalar arithmetic, element
        by element, so each point is the same double as mapped alone.
        The x strings are formatted once for all traces.
        """
        ys = np.asarray(ys, dtype=float)
        ys = ys.reshape(len(ys), -1)
        xp = [_f(x) for x in self.px(np.asarray(xs, dtype=float)).tolist()]
        # each trace's NaN rows, ascending (nonzero goes row by row)
        breaks = [[] for _ in range(ys.shape[1])]
        for i, k in zip(*(a.tolist() for a in np.nonzero(np.isnan(ys)))):
            breaks[k].append(i)
        for k, (yp, stops) in enumerate(zip(self.py(ys).T.tolist(), breaks)):
            color = colors[k % len(colors)]
            start = 0
            for stop in stops + [len(yp)]:
                if stop - start > 1:
                    # "%.2f" formats as _f does; xp holds no "%"
                    points = " ".join([x + ",%.2f" for x in xp[start:stop]]) % tuple(yp[start:stop])
                    self.parts.append(
                        f'<polyline points="{points}" fill="none" stroke="{color}" '
                        f'stroke-width="{_f(width)}"/>'
                    )
                start = stop + 1

    def circle(self, x, y, r, color):
        self.parts.append(
            f'<circle cx="{_f(self.px(x))}" cy="{_f(self.py(y))}" r="{_f(r)}" '
            f'fill="{color}" fill-opacity="0.7"/>'
        )

    def hline(self, y, color):
        self.line(self.x0, self.py(y), self.x0 + self.w, self.py(y), f'stroke="{color}" {_DASH}')

    def vline(self, x, color):
        self.line(self.px(x), self.y0, self.px(x), self.y0 + self.h, f'stroke="{color}" {_DASH}')


def _document(width, height, panels) -> str:
    body = "\n".join(part for panel in panels for part in panel.parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n<rect width="100%" height="100%" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def _span(values):
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def trajectory_svg(times, positions, ring_length, wrap=True) -> str:
    """Fan of vehicle trajectories; wrapped traces break at the seam."""
    times = np.asarray(times, dtype=float)
    pos = np.asarray(positions, dtype=float)
    if wrap:
        pos = np.mod(pos, ring_length)
        ylim = (0.0, ring_length)
    else:
        ylim = _span(pos)
    panel = _Panel(60, 24, 620, 300, (float(times[0]), float(times[-1])), ylim,
                   title="vehicle trajectories")
    panel.axes(xlabel="t", ylabel="position mod L" if wrap else "position")
    if wrap:
        # a trace breaks where it crosses the seam
        jumps = np.abs(np.diff(pos, axis=0)) > 0.5 * ring_length
        pos[1:][jumps] = np.nan
    panel.polyline(times, pos, _PALETTE, 0.8)
    return _document(740, 380, [panel])


def observables_svg(times, mean_speed, speed_variance, single_vehicle_speed) -> str:
    """Three side-by-side panels: mean speed, speed variance, one vehicle."""
    times = np.asarray(times, dtype=float)
    tlim = (float(times[0]), float(times[-1]))
    specs = [
        ("mean speed", mean_speed, "#1f77b4"),
        ("speed variance", speed_variance, "#d62728"),
        ("speed of vehicle 1", single_vehicle_speed, "#2ca02c"),
    ]
    panels = []
    for i, (title, series, color) in enumerate(specs):
        panel = _Panel(60 + i * 250, 24, 200, 180, tlim, _span(series), title=title)
        panel.axes(xlabel="t")
        panel.polyline(times, series, [color], 1.0)
        panels.append(panel)
    return _document(820, 250, panels)


def spectrum_svg(values) -> str:
    """Scatter of eigenvalues in the complex plane."""
    values = np.asarray(values, dtype=complex)
    re, im = values.real, values.imag
    xlim, ylim = _span(re), _span(im)
    panel = _Panel(60, 24, 420, 420, xlim, ylim, title="drift spectrum")
    panel.axes(xlabel="Re", ylabel="Im")
    if xlim[0] < 0 < xlim[1]:
        panel.vline(0.0, "#999")
    if ylim[0] < 0 < ylim[1]:
        panel.hline(0.0, "#999")
    for x, y in zip(re, im):
        panel.circle(x, y, 3.0, "#1f77b4")
    return _document(540, 500, [panel])


def _cells(values):
    """Limits and cell width of a sweep axis: cells |step| wide (1.0 for
    one value or a constant axis), centred on the values, so a descending
    axis is drawn as its ascending twin."""
    width = float(abs(values[1] - values[0])) if len(values) > 1 else 0.0
    width = width or 1.0
    return (float(values.min()) - width / 2, float(values.max()) + width / 2), width


def stability_map_svg(x_values, y_values, exact, sufficient, xlabel, ylabel) -> str:
    """Heatmap of stability verdicts over a 2-parameter grid.

    Colors: red = unstable, light green = exact only, dark green = exact
    and sufficient.
    """
    xs = np.asarray(x_values, dtype=float)
    ys = np.asarray(y_values, dtype=float)
    exact = np.asarray(exact, dtype=bool)
    sufficient = np.asarray(sufficient, dtype=bool)
    xlim, dx = _cells(xs)
    ylim, dy = _cells(ys)
    panel = _Panel(60, 24, 440, 440, xlim, ylim, title="stability map")
    # A cell's x and width depend on its column only, its y and height on
    # its row only; each is the scalar arithmetic of the cell's corners.
    x_lo = xs - dx / 2
    x_px = panel.px(x_lo)
    x_attr = [f'x="{_f(x)}" ' for x in x_px.tolist()]
    w_attr = [f'width="{_f(w)}" ' for w in (panel.px(x_lo + dx) - x_px).tolist()]
    y_lo = ys - dy / 2
    y_px = panel.py(y_lo + dy)
    y_attr = [f'y="{_f(y)}" ' for y in y_px.tolist()]
    h_attr = [f'height="{_f(h)}" ' for h in (panel.py(y_lo) - y_px).tolist()]
    # 0 unstable, 1 exact only, 2 exact and sufficient
    verdict = exact.astype(int) + (exact & sufficient)
    colors = ('fill="#d6604d"/>', 'fill="#a6dba0"/>', 'fill="#1b7837"/>')
    for x, w, row in zip(x_attr, w_attr, verdict.tolist()):
        panel.parts.extend(
            ["<rect " + x + y + w + h + colors[v] for y, h, v in zip(y_attr, h_attr, row)]
        )
    panel.axes(xlabel=xlabel, ylabel=ylabel)
    return _document(560, 520, [panel])
