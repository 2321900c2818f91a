"""Small deterministic SVG emitters; no plotting dependency.

Output contains no timestamps or generated ids, so identical data gives
identical bytes.
"""

from __future__ import annotations

import math

import numpy as np

_FONT = 'font-family="sans-serif" font-size="11"'
_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def _f(x) -> str:
    return f"{x:.2f}"


def _ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return out


class _Panel:
    """Maps a data rectangle onto a pixel rectangle and accumulates
    SVG elements."""

    def __init__(self, x0, y0, width, height, xlim, ylim, title=""):
        self.x0, self.y0, self.w, self.h = x0, y0, width, height
        self.xlim, self.ylim = xlim, ylim
        self.parts = []
        self.parts.append(
            f'<rect x="{_f(x0)}" y="{_f(y0)}" width="{_f(width)}" height="{_f(height)}" '
            'fill="white" stroke="#333" stroke-width="1"/>'
        )
        if title:
            self.parts.append(
                f'<text x="{_f(x0 + width / 2)}" y="{_f(y0 - 6)}" {_FONT} '
                f'text-anchor="middle">{title}</text>'
            )

    def px(self, x):
        lo, hi = self.xlim
        return self.x0 + (x - lo) / (hi - lo) * self.w

    def py(self, y):
        lo, hi = self.ylim
        return self.y0 + self.h - (y - lo) / (hi - lo) * self.h

    def axes(self, xlabel="", ylabel=""):
        for t in _ticks(*self.xlim):
            x = self.px(t)
            self.parts.append(
                f'<line x1="{_f(x)}" y1="{_f(self.y0 + self.h)}" x2="{_f(x)}" '
                f'y2="{_f(self.y0 + self.h + 4)}" stroke="#333"/>'
            )
            self.parts.append(
                f'<text x="{_f(x)}" y="{_f(self.y0 + self.h + 16)}" {_FONT} '
                f'text-anchor="middle">{t:g}</text>'
            )
        for t in _ticks(*self.ylim):
            y = self.py(t)
            self.parts.append(
                f'<line x1="{_f(self.x0 - 4)}" y1="{_f(y)}" x2="{_f(self.x0)}" '
                f'y2="{_f(y)}" stroke="#333"/>'
            )
            self.parts.append(
                f'<text x="{_f(self.x0 - 6)}" y="{_f(y + 4)}" {_FONT} '
                f'text-anchor="end">{t:g}</text>'
            )
        if xlabel:
            self.parts.append(
                f'<text x="{_f(self.x0 + self.w / 2)}" y="{_f(self.y0 + self.h + 32)}" '
                f'{_FONT} text-anchor="middle">{xlabel}</text>'
            )
        if ylabel:
            x = self.x0 - 38
            y = self.y0 + self.h / 2
            self.parts.append(
                f'<text x="{_f(x)}" y="{_f(y)}" {_FONT} text-anchor="middle" '
                f'transform="rotate(-90 {_f(x)} {_f(y)})">{ylabel}</text>'
            )

    def polyline(self, xs, ys, color, width=1.0):
        """One polyline per run of at least two points between NaN ys.

        px and py map whole arrays with the scalar arithmetic, element
        by element, so each point is the same double as mapped alone.
        """
        ys = np.asarray(ys, dtype=float)
        xp = self.px(np.asarray(xs, dtype=float)).tolist()
        yp = self.py(ys).tolist()
        start = 0
        for stop in np.flatnonzero(np.isnan(ys)).tolist() + [len(yp)]:
            if stop - start > 1:
                self._emit_polyline(zip(xp[start:stop], yp[start:stop]), color, width)
            start = stop + 1

    def _emit_polyline(self, pts, color, width):
        coords = " ".join(f"{_f(x)},{_f(y)}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{_f(width)}"/>'
        )

    def circle(self, x, y, r, color):
        self.parts.append(
            f'<circle cx="{_f(self.px(x))}" cy="{_f(self.py(y))}" r="{_f(r)}" '
            f'fill="{color}" fill-opacity="0.7"/>'
        )

    def rect(self, x, y, dx, dy, color):
        xp, yp = self.px(x), self.py(y + dy)
        self.parts.append(
            f'<rect x="{_f(xp)}" y="{_f(yp)}" width="{_f(self.px(x + dx) - xp)}" '
            f'height="{_f(self.py(y) - yp)}" fill="{color}"/>'
        )

    def hline(self, y, color, dash="4,3"):
        self.parts.append(
            f'<line x1="{_f(self.x0)}" y1="{_f(self.py(y))}" x2="{_f(self.x0 + self.w)}" '
            f'y2="{_f(self.py(y))}" stroke="{color}" stroke-dasharray="{dash}"/>'
        )

    def vline(self, x, color, dash="4,3"):
        self.parts.append(
            f'<line x1="{_f(self.px(x))}" y1="{_f(self.y0)}" x2="{_f(self.px(x))}" '
            f'y2="{_f(self.y0 + self.h)}" stroke="{color}" stroke-dasharray="{dash}"/>'
        )


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
    for i in range(pos.shape[1]):
        y = pos[:, i].copy()
        if wrap:
            jumps = np.abs(np.diff(y)) > 0.5 * ring_length
            y[1:][jumps] = np.nan
        panel.polyline(times, y, _PALETTE[i % len(_PALETTE)], 0.8)
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
        panel.polyline(times, np.asarray(series, dtype=float), color, 1.0)
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


def stability_map_svg(x_values, y_values, exact, sufficient, xlabel, ylabel) -> str:
    """Heatmap of stability verdicts over a 2-parameter grid.

    Colors: red = unstable, light green = exact only, dark green = exact
    and sufficient.
    """
    xs = np.asarray(x_values, dtype=float)
    ys = np.asarray(y_values, dtype=float)
    exact = np.asarray(exact, dtype=bool)
    sufficient = np.asarray(sufficient, dtype=bool)
    dx = xs[1] - xs[0] if len(xs) > 1 else 1.0
    dy = ys[1] - ys[0] if len(ys) > 1 else 1.0
    xlim = (float(xs[0]) - dx / 2, float(xs[-1]) + dx / 2)
    ylim = (float(ys[0]) - dy / 2, float(ys[-1]) + dy / 2)
    panel = _Panel(60, 24, 440, 440, xlim, ylim, title="stability map")
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if exact[i, j] and sufficient[i, j]:
                color = "#1b7837"
            elif exact[i, j]:
                color = "#a6dba0"
            else:
                color = "#d6604d"
            panel.rect(x - dx / 2, y - dy / 2, dx, dy, color)
    panel.axes(xlabel=xlabel, ylabel=ylabel)
    return _document(560, 520, [panel])
