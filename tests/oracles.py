"""Reference implementations the tests check the package against.

Each is the plain, one-object-at-a-time form of something the package
computes in a faster or batched way: one Euler-Maruyama step, a run of
such steps that tests every step for blowup, the noise of one step, the
scalar mode factor, the scalar Hurwitz test, the sufficient condition and
the drift-matrix norm of one parameter cell in Python floats, the dense
mean-removal projector, the port-Hamiltonian matrices J, R and Q, a CSV
file as ``csv.writer`` writes it, the SVG trajectory fan and stability
map drawn one trace or one cell at a time, and a panel's title, axes and
dashed lines with each element spelled out in place.  ``report_at``
calls the package's stability report with five scalars.
``near_zero_count`` and ``ball_abscissa`` tell structural zeros by a ball
around zero, so they take a spectrum in any order, a dense one included.
"""

import csv
import io
import math

import numpy as np

from phcf import ClosedLoop, InvalidInputError, ModelParams, initial_state, stability_report
from phcf.model import acceleration_array, gaps_array
from phcf.sde import BLOWUP_LIMIT, NOISE_BLOCK, _step_count, noise_block
from phcf.svgplot import _FONT, _PALETTE, _Panel, _cells, _document, _f, _span, _ticks


def reference_step(q, p, params, dt, noise):
    """One update: p gains dt*drift + sigma*sqrt(dt)*noise, then q
    advances with the updated p.  noise holds raw standard-normal draws."""
    acc = acceleration_array(q, p, params)
    p_new = p + dt * acc + params.sigma * math.sqrt(dt) * noise
    q_new = q + dt * p_new
    return q_new, p_new


def reference_run(params, config, seed):
    """One run of reference_step from config.initial under the noise of
    seed, ended by the first step after which a speed exceeds
    BLOWUP_LIMIT in magnitude or q or p is not finite.

    Returns (q, p, overtake, blowup_step): the (samples, N) states
    recorded every sample_stride steps from the start, whether one of
    them has a non-positive gap, and the step that ended the run (0 if
    none did; steps count from 1)."""
    q, p = initial_state(params, config.initial)
    n_steps = _step_count(config.dt, config.t_end)
    qs, ps = [], []
    overtake, blowup = False, 0
    for s in range(n_steps + 1):
        if s % config.sample_stride == 0:
            qs.append(q)
            ps.append(p)
            overtake |= bool((gaps_array(q, params.ring_length) <= 0).any())
        if s == n_steps:
            break
        if s % NOISE_BLOCK == 0:
            draws = noise_block(seed, s // NOISE_BLOCK, params.n_vehicles)
        q, p = reference_step(q, p, params, config.dt, draws[s % NOISE_BLOCK])
        if not (np.isfinite(q).all() and np.isfinite(p).all() and np.abs(p).max() <= BLOWUP_LIMIT):
            blowup = s + 1
            break
    return np.array(qs), np.array(ps), overtake, blowup


def step_noise(seed, step, n_vehicles):
    """The noise vector consumed at one step."""
    return noise_block(seed, step // NOISE_BLOCK, n_vehicles)[step % NOISE_BLOCK]


def mu(j, n):
    """Circulant mode factor 2 - 2*cos(2*pi*j/n), in [0, 4]."""
    if not 0 <= j < n:
        raise InvalidInputError(f"mode index {j} outside [0, {n})")
    return 2.0 - 2.0 * math.cos(2.0 * math.pi * j / n)


def complex_hurwitz_stable(kappa, eta, nu, rho):
    """Both roots of x^2 + (kappa + i*eta)*x + (nu + i*rho) have negative
    real part iff kappa > 0 and kappa*(nu*kappa + rho*eta) - rho^2 > 0."""
    return kappa > 0 and kappa * (nu * kappa + rho * eta) - rho**2 > 0


def report_at(n, alpha, beta, gamma, t_gap):
    """stability_report at N vehicles with all four values given: floats
    or arrays that broadcast to a grid, overriding a ClosedLoop base."""
    base = ModelParams(n, 7.0 * n, 1.0, 1.0, 1.0, 1.0, ClosedLoop(ell=1.0, t_gap=1.0))
    return stability_report(base, alpha=alpha, beta=beta, gamma=gamma, t_gap=t_gap)


def reference_sufficient_condition(alpha, gamma, t_gap):
    """(lhs, verdict) of gamma*T + 2*(alpha*T)^2 > 2 (with gamma > 0) for
    one cell; Python's float power raises OverflowError on overflow."""
    lhs = gamma * t_gap + 2.0 * (alpha * t_gap) ** 2
    return lhs, bool(gamma > 0 and lhs > 2.0)


def reference_drift_matrix_norm(n, alpha, beta, gamma, t_gap=None):
    """Closed-form Frobenius norm of the drift matrix for one cell."""
    a2 = alpha * alpha
    g = 0.0 if t_gap is None else gamma / t_gap
    damping = gamma if gamma > 0 else 0.0
    neighbours = (4.0 if n == 2 else 2.0) * beta * beta
    return math.sqrt(n * (2.0 + (a2 + g) ** 2 + a2 * a2 + (2.0 * beta + damping) ** 2 + neighbours))


# Radius of the structural-zero ball, relative to the drift matrix's norm:
# the dense oracle's structural roots are not exactly zero, but round far
# below it at desk scale.
ZERO_BALL_RTOL = 1e-10


def near_zero_count(values, scale):
    """Number of eigenvalues inside the structural-zero ball."""
    return int(np.sum(np.abs(np.asarray(values, dtype=complex)) < ZERO_BALL_RTOL * scale))


def ball_abscissa(values, scale):
    """Largest real part over the eigenvalues of one spectrum that lie
    outside the structural-zero ball."""
    values = np.asarray(values, dtype=complex)
    kept = values[np.abs(values) >= ZERO_BALL_RTOL * scale]
    if not kept.size:
        raise InvalidInputError("all eigenvalues are structural zeros")
    return float(kept.real.max())


def deviation_matrix(n):
    """Mean-removing projector I - ones/n."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def ring_difference(n):
    """Periodic forward difference A: (A x)_i = x_{i+1} - x_i, wrapping."""
    return np.roll(np.eye(n), 1, axis=1) - np.eye(n)


def phs_matrices(n, alpha, beta, gamma):
    """(J, R, Q) of the linear dynamics in (gaps, speeds) coordinates:
    interconnection J = [[0, A], [-A^T, 0]], dissipation
    R = diag(0, beta*A^T A + gamma*I) and the energy Hessian
    Q = diag(alpha^2 I, I), so that grad H = Q z."""
    a = ring_difference(n)
    zero = np.zeros((n, n))
    eye = np.eye(n)
    j = np.block([[zero, a], [-a.T, zero]])
    r = np.block([[zero, zero], [zero, beta * (a.T @ a) + gamma * eye]])
    q = np.block([[alpha**2 * eye, zero], [zero, eye]])
    return j, r, q


def reference_csv_text(header, rows):
    """A CSV file's text as csv.writer writes it, with "\n" line ends."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def reference_polyline(panel, xs, ys, color, width=1.0):
    """Append one trace's polylines to panel, point by point: one per run
    of at least two points between NaN ys."""
    ys = np.asarray(ys, dtype=float)
    xp = panel.px(np.asarray(xs, dtype=float)).tolist()
    yp = panel.py(ys).tolist()
    start = 0
    for stop in np.flatnonzero(np.isnan(ys)).tolist() + [len(yp)]:
        if stop - start > 1:
            coords = " ".join(f"{_f(x)},{_f(y)}" for x, y in zip(xp[start:stop], yp[start:stop]))
            panel.parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="{_f(width)}"/>'
            )
        start = stop + 1


def reference_title(panel, title):
    """Append the title element a _Panel built with this title holds."""
    if title:
        panel.parts.append(
            f'<text x="{_f(panel.x0 + panel.w / 2)}" y="{_f(panel.y0 - 6)}" {_FONT} '
            f'text-anchor="middle">{title}</text>'
        )


def reference_axes(panel, xlabel="", ylabel=""):
    """Append the tick marks, tick labels and axis labels of panel.axes."""
    for t in _ticks(*panel.xlim):
        x = panel.px(t)
        panel.parts.append(
            f'<line x1="{_f(x)}" y1="{_f(panel.y0 + panel.h)}" x2="{_f(x)}" '
            f'y2="{_f(panel.y0 + panel.h + 4)}" stroke="#333"/>'
        )
        panel.parts.append(
            f'<text x="{_f(x)}" y="{_f(panel.y0 + panel.h + 16)}" {_FONT} '
            f'text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(*panel.ylim):
        y = panel.py(t)
        panel.parts.append(
            f'<line x1="{_f(panel.x0 - 4)}" y1="{_f(y)}" x2="{_f(panel.x0)}" '
            f'y2="{_f(y)}" stroke="#333"/>'
        )
        panel.parts.append(
            f'<text x="{_f(panel.x0 - 6)}" y="{_f(y + 4)}" {_FONT} '
            f'text-anchor="end">{t:g}</text>'
        )
    if xlabel:
        panel.parts.append(
            f'<text x="{_f(panel.x0 + panel.w / 2)}" y="{_f(panel.y0 + panel.h + 32)}" '
            f'{_FONT} text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        x = panel.x0 - 38
        y = panel.y0 + panel.h / 2
        panel.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" {_FONT} text-anchor="middle" '
            f'transform="rotate(-90 {_f(x)} {_f(y)})">{ylabel}</text>'
        )


def reference_hline(panel, y, color):
    """Append the dashed line of panel.hline across the panel at data y."""
    panel.parts.append(
        f'<line x1="{_f(panel.x0)}" y1="{_f(panel.py(y))}" x2="{_f(panel.x0 + panel.w)}" '
        f'y2="{_f(panel.py(y))}" stroke="{color}" stroke-dasharray="4,3"/>'
    )


def reference_vline(panel, x, color):
    """Append the dashed line of panel.vline down the panel at data x."""
    panel.parts.append(
        f'<line x1="{_f(panel.px(x))}" y1="{_f(panel.y0)}" x2="{_f(panel.px(x))}" '
        f'y2="{_f(panel.y0 + panel.h)}" stroke="{color}" stroke-dasharray="4,3"/>'
    )


def reference_trajectory_svg(times, positions, ring_length, wrap=True):
    """The trajectory fan drawn one vehicle at a time, each wrapped trace
    broken at its own seam crossings."""
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
        reference_polyline(panel, times, y, _PALETTE[i % len(_PALETTE)], 0.8)
    return _document(740, 380, [panel])


def reference_stability_map_svg(x_values, y_values, exact, sufficient, xlabel, ylabel):
    """The stability map drawn one cell at a time, each cell's rectangle
    mapped from its own corners."""
    xs = np.asarray(x_values, dtype=float)
    ys = np.asarray(y_values, dtype=float)
    xlim, dx = _cells(xs)
    ylim, dy = _cells(ys)
    panel = _Panel(60, 24, 440, 440, xlim, ylim, title="stability map")
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if exact[i][j] and sufficient[i][j]:
                color = "#1b7837"
            elif exact[i][j]:
                color = "#a6dba0"
            else:
                color = "#d6604d"
            x0, y0 = x - dx / 2, y - dy / 2
            xp, yp = panel.px(x0), panel.py(y0 + dy)
            panel.parts.append(
                f'<rect x="{_f(xp)}" y="{_f(yp)}" width="{_f(panel.px(x0 + dx) - xp)}" '
                f'height="{_f(panel.py(y0) - yp)}" fill="{color}"/>'
            )
    panel.axes(xlabel=xlabel, ylabel=ylabel)
    return _document(560, 520, [panel])
