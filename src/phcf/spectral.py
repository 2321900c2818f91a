"""Closed-form spectra and stability conditions of the linear ring dynamics.

Every N x N block of the drift matrix is circulant, so its characteristic
polynomial factors over the N Fourier modes.  Mode j contributes the
quadratic

    lambda^2 + (beta*mu_j + gamma)*lambda + alpha^2*mu_j + coupling_j = 0

with mu_j = 2 - 2*cos(2*pi*j/N) and, for gap feedback only, the complex
coupling (gamma/t_gap)*(1 - omega^j), omega = exp(2i*pi/N).  A spectrum is
one complex array of the 2N roots: entry 2j + k is mode j, branch k.  Mode
0 always carries structural zero eigenvalues: a double zero without
control, a single zero otherwise.

Stability of the gap-feedback regime follows from the Hurwitz test for
quadratics with complex coefficients, evaluated mode by mode; a parameter-
only sufficient condition is gamma*T + 2*(alpha*T)^2 > 2.

Nothing here builds the 2N x 2N drift matrix.  The modes are numpy arrays
over j, O(N) in time and memory, with cos, sin of 2*pi*j/N from math.cos
and math.sin, the scalar formulas' operations in their order, and every
square from :func:`_square` (Python's x ** 2 per element): each root and
Hurwitz coefficient equals the one-mode-at-a-time result bit for bit.

The stability report, the sufficient condition and the drift norm
broadcast: parameters of grid shape S give per-mode arrays of shape
S + (N-1,) and verdicts of shape S, each cell its scalar call bit for
bit (a scalar call is the 0-d grid and gives Python floats and bools).
Each parameter keeps its own shape, so a term runs once per value of the
parameters it depends on and only the mixed terms run once per cell.  A
grid costs O(cells * N) memory; evaluate a large map in tiles, as
``phcf stability-map`` does.

The zero-detection scale is the drift matrix's Frobenius norm, in closed form

    ||B||_F^2 = 2N + N*((alpha^2 + g)^2 + alpha^4) + N*((2*beta + d)^2 + 2*beta^2)

with g = gamma/t_gap under gap feedback (else 0), d = gamma when gamma > 0
(else 0), and 4*beta^2 for 2*beta^2 at N = 2, where the neighbours coincide.

Everything here is cross-checkable against a generic dense eigensolver,
exposed as :func:`dense_eigen_oracle`; it and :func:`match_distances`
refuse problems above :data:`DENSE_ORACLE_MAX_DIM`.  scipy is imported only
when :func:`match_distances` runs.
"""

from __future__ import annotations

import errno
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EigenSolverError, InvalidInputError
from .model import (
    ModelParams,
    _linear_scalars,
    assemble_drift_matrix,  # noqa: F401  (bench/tracer.py times calls through this binding)
)

# Structural zeros are exact in the closed form; the dense oracle rounds
# far below this at desk scale.
ZERO_EIGENVALUE_RTOL = 1e-10
# Strict inequalities give no verdict on the boundary: report as marginal.
MARGINAL_ABSCISSA = 1e-10
# Largest matrix dimension (= eigenvalue count, 2N) the dense oracle and the
# optimal matching accept.  At 2048 LAPACK's O(d^3) QR iteration takes about
# 5 s and 200 MB on one core of a Xeon VM; the cost grows eightfold per doubling.
DENSE_ORACLE_MAX_DIM = 2048


def _mode_tables(n: int):
    """(cos, sin) of the angles 2*pi*j/n for j = 0..n-1, each angle
    rounded exactly as the scalar expression and each entry from
    math.cos/math.sin.  Raises MemoryError when n is past the address
    space, as when it is past memory."""
    try:
        j = np.arange(n)
    except ValueError as exc:  # numpy's refusal of a size past the address space
        raise MemoryError(str(exc)) from exc
    angles = (2.0 * math.pi * j / n).tolist()
    return np.array([math.cos(a) for a in angles]), np.array([math.sin(a) for a in angles])


def _mode_roots(cos: np.ndarray, a2, beta, gamma, g=None) -> np.ndarray:
    """Roots of x^2 + lin_j*x + const_j for every mode j, interleaved as
    index 2*j + k with k = 0 for +sqrt and k = 1 for -sqrt.

    cos[j] = cos(2*pi*j/n), a2 = alpha**2 and g = gamma/t_gap (None
    without gap feedback).  Parameters are floats or arrays that end in a
    length-1 mode axis and broadcast to S + (1,); each term runs at the
    shape of its own parameters, and the result has shape S + (2n,).  An
    exact zero const_j (mode 0, or alpha = 0 without feedback) yields the
    exact roots 0 and -lin_j.
    """
    n = len(cos)
    # Parameters near the float range give non-finite roots, returned
    # without numpy warnings; match_distances refuses them.
    with np.errstate(over="ignore", invalid="ignore"):
        m = 2.0 - 2.0 * cos
        lin = beta * m + gamma
        const = a2 * m
        if g is not None:
            # Equal bit for bit to the scalar powers omega**j: numpy computes
            # both with the same complex power routine.
            const = const + g * (1.0 - np.exp(2j * np.pi / n) ** np.arange(n))
        s = np.sqrt((lin * lin - 4.0 * const).astype(complex, copy=False))
        roots = np.empty(s.shape + (2,), dtype=complex)
        neg = -lin
        np.add(neg, s, out=roots[..., 0])
        np.subtract(neg, s, out=roots[..., 1])
        roots /= 2.0
    zero = np.broadcast_to(const == 0, s.shape)
    roots[zero, 0] = 0.0
    roots[zero, 1] = np.broadcast_to(neg, s.shape)[zero]
    return roots.reshape(s.shape[:-1] + (2 * n,))


def _square(x):
    """x ** 2 per element with Python's float power: np.float_power gives
    its bits, and OverflowError where a finite base has an infinite square."""
    with np.errstate(over="ignore"):
        square = np.float_power(x, 2.0)
    if (np.isinf(square) & np.isfinite(x)).any():
        raise OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))
    return square


def eigenvalues(params: ModelParams) -> np.ndarray:
    """Closed-form spectrum for whichever regime params carries: a
    read-only complex array, entry 2j + k is mode j, branch k.

    Mode 0 carries a double zero without control and {0, -gamma} under
    control.  Under constant speed control every other eigenvalue has
    negative real part when alpha > 0; under gap feedback the coupling
    makes the per-mode constant term complex, so conjugate partners sit
    in modes j and N-j.  Raises UnsupportedOperationError for a
    CustomDerivative potential.
    """
    n, alpha, beta, gamma, t_gap = _linear_scalars(params)
    cos, _ = _mode_tables(n)
    values = _mode_roots(cos, _square(alpha), beta, gamma, None if t_gap is None else gamma / t_gap)
    values.setflags(write=False)
    return values


# ---------------------------------------------------------------------------
# independent dense check


def check_dense_size(dim: int) -> None:
    """Refuse a dense eigenproblem or matching of more than
    DENSE_ORACLE_MAX_DIM eigenvalues, before anything is allocated."""
    if dim > DENSE_ORACLE_MAX_DIM:
        raise InvalidInputError(
            f"the dense oracle takes at most {DENSE_ORACLE_MAX_DIM} eigenvalues "
            f"(N <= {DENSE_ORACLE_MAX_DIM // 2}), got {dim}"
        )


def dense_eigen_oracle(b: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square matrix by LAPACK's Hessenberg + shifted-QR
    path, independent of the per-mode closed forms.  A non-finite entry
    is InvalidInputError; EigenSolverError means LAPACK itself failed."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise InvalidInputError(f"need a square matrix, got shape {b.shape}")
    check_dense_size(b.shape[0])
    if not np.isfinite(b).all():
        raise InvalidInputError("the matrix has a non-finite (nan or infinite) entry")
    try:
        return np.linalg.eigvals(b)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue iteration failed: {exc}") from exc


def match_distances(values_a: Sequence[complex], values_b: Sequence[complex]) -> np.ndarray:
    """Per-entry distances of the optimal pairing between two eigenvalue
    multisets; result is ordered like values_a.

    Pairing instead of sorting keeps the comparison stable under the exact
    duplicate modes (mu_j == mu_{N-j}) that sorting would interleave.
    """
    a = np.asarray(values_a, dtype=complex).ravel()
    b = np.asarray(values_b, dtype=complex).ravel()
    if a.shape != b.shape:
        raise InvalidInputError(f"multisets differ in size: {a.shape} vs {b.shape}")
    check_dense_size(a.size)
    from scipy.optimize import linear_sum_assignment

    # A non-finite entry of either multiset or an overflowing distance is
    # refused below, without numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        cost = np.abs(a[:, None] - b[None, :])
    if not np.isfinite(cost).all():
        raise InvalidInputError("eigenvalue distances left the floating-point range")
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols]


@np.errstate(all="ignore")
def drift_matrix_norm(n, alpha, beta, gamma, t_gap=None):
    """Frobenius norm of the drift matrix (N >= 2), the scale for zero
    detection, in closed form: the damping block counts when gamma > 0, the
    feedback block when t_gap is given.  Broadcasts (module docstring)."""
    a2 = alpha * alpha
    g = 0.0 if t_gap is None else gamma / t_gap
    damping = np.where(gamma > 0, gamma, 0.0)
    neighbours = (4.0 if n == 2 else 2.0) * beta * beta
    total = 2.0 + _square(a2 + g) + a2 * a2 + _square(2.0 * beta + damping) + neighbours
    return _unwrap(np.sqrt(n * total))


def near_zero_count(values, scale: float) -> int:
    """Number of eigenvalues inside the structural-zero ball."""
    return int(np.sum(np.abs(np.asarray(values, dtype=complex)) < ZERO_EIGENVALUE_RTOL * scale))


def spectral_abscissa_nonzero(values, scale):
    """Largest real part over eigenvalues outside the structural-zero ball.

    Broadcasts: values of shape S + (M,) and scale of shape S give one
    abscissa per cell, a float when S is ().  Raises InvalidInputError
    when a value or the scale is not finite.
    """
    v = np.asarray(values, dtype=complex)
    scale = np.asarray(scale)
    if not (np.isfinite(v).all() and np.isfinite(scale).all()):
        raise InvalidInputError("the spectrum or its scale left the floating-point range")
    keep = np.abs(v) >= ZERO_EIGENVALUE_RTOL * scale[..., None]
    if not keep.any(axis=-1).all():
        raise InvalidInputError("all eigenvalues are structural zeros")
    real = v.real
    top = np.asarray(np.where(keep, real, -np.inf).max(axis=-1))
    # Which signed zero a max returns depends on where the zeros sit; take
    # those cells from their kept values alone, as a one-cell call does.
    for cell in map(tuple, np.argwhere(top == 0)):
        top[cell] = real[cell][keep[cell]].max()
    return _unwrap(top)


def _unwrap(x):
    """A 0-d array as a Python scalar; any other array unchanged."""
    return x.item() if x.ndim == 0 else x


# ---------------------------------------------------------------------------
# stability of the gap-feedback regime


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Exact per-mode verdicts, the sufficient condition, and the
    spectral abscissa excluding the structural zero, for one parameter
    cell or a grid of shape S.

    The per-mode arrays have shape S + (N-1,) and cover modes j = 1..N-1
    (entry i is mode i + 1): mode j is x^2 + kappa*x + (nu + i*rho),
    hurwitz_det its Hurwitz determinant kappa*(nu*kappa) - rho^2, and
    mode_stable is kappa > 0 and hurwitz_det > 0.  They are read-only
    broadcast views: kappa, nu and rho of the smaller arrays over the
    parameters they depend on.  The verdicts have shape S, sufficient_lhs
    and sufficient_stable as read-only views too; for a single cell they
    are Python bools and floats.
    """

    kappa: np.ndarray
    nu: np.ndarray
    rho: np.ndarray
    hurwitz_det: np.ndarray
    mode_stable: np.ndarray
    exact_stable: bool | np.ndarray
    sufficient_lhs: float | np.ndarray
    sufficient_stable: bool | np.ndarray
    spectral_abscissa_nonzero: float | np.ndarray

    @property
    def marginal(self):
        return abs(self.spectral_abscissa_nonzero) < MARGINAL_ABSCISSA


@np.errstate(all="ignore")
def sufficient_condition(alpha, gamma, t_gap):
    """(lhs, verdict) of the parameter-only condition
    gamma*T + 2*(alpha*T)^2 > 2 (with gamma > 0); broadcasts."""
    lhs = gamma * t_gap + 2.0 * _square(alpha * t_gap)
    return _unwrap(lhs), _unwrap((gamma > 0) & (lhs > 2.0))


def stability_report(params: ModelParams, *, alpha=None, beta=None, gamma=None, t_gap=None) -> StabilityReport:
    """Gap-feedback stability of params.  Each keyword given replaces its
    params value by a float or an array; all four broadcast to a grid of
    cells and are not validated, so a sweep may hold gamma = 0.

    Mode j (1 <= j < N) contributes x^2 + kappa_j*x + (nu_j + i*rho_j) with
    kappa_j = 2*beta*(1-c_j) + gamma, nu_j = (1-c_j)*(gamma/T + 2*alpha^2)
    and rho_j = -(gamma/T)*s_j; a cell is exactly stable iff gamma > 0 and
    every mode passes the Hurwitz test.  Raises UnsupportedOperationError
    for a CustomDerivative potential, OverflowError where the square of a
    finite value overflows, and InvalidInputError without gap feedback, or
    where a cell has only structural zeros or leaves the float range.
    """
    n, *base = _linear_scalars(params)
    if params.regime.t_gap is None:
        raise InvalidInputError(
            f"stability needs gap feedback (kind = closed_loop), got {type(params.regime).__name__}"
        )
    # Each parameter keeps its own shape plus a length-1 mode axis.  An
    # empty grid broadcasts all four, so that no value outside every cell
    # is evaluated, or can overflow.
    axes = [np.asarray(b if v is None else v, dtype=float) for b, v in zip(base, (alpha, beta, gamma, t_gap))]
    shape = np.broadcast_shapes(*(axis.shape for axis in axes))
    if 0 in shape:
        axes = np.broadcast_arrays(*axes)
    alpha, beta, gamma, t_gap = (axis[..., None] for axis in axes)
    a2 = _square(alpha)
    lhs, sufficient = sufficient_condition(alpha[..., 0], gamma[..., 0], t_gap[..., 0])
    scale = drift_matrix_norm(n, alpha[..., 0], beta[..., 0], gamma[..., 0], t_gap[..., 0])

    cos, sin = _mode_tables(n)
    c, s = cos[1:], sin[1:]
    # Non-finite terms pass without warnings; spectral_abscissa_nonzero refuses them.
    with np.errstate(all="ignore"):
        g = gamma / t_gap
        kappa = 2.0 * beta * (1.0 - c) + gamma
        nu = (1.0 - c) * (g + 2.0 * a2)
        rho = -g * s
        det = kappa * (nu * kappa) - _square(rho)
        stable = (kappa > 0) & (det > 0)
    values = _mode_roots(cos, a2, beta, gamma, g)
    return StabilityReport(
        kappa=np.broadcast_to(kappa, det.shape),
        nu=np.broadcast_to(nu, det.shape),
        rho=np.broadcast_to(rho, det.shape),
        hurwitz_det=np.broadcast_to(det, det.shape),
        mode_stable=np.broadcast_to(stable, det.shape),
        exact_stable=_unwrap((gamma[..., 0] > 0) & stable.all(axis=-1)),
        sufficient_lhs=_unwrap(np.broadcast_to(lhs, shape)),
        sufficient_stable=_unwrap(np.broadcast_to(sufficient, shape)),
        spectral_abscissa_nonzero=spectral_abscissa_nonzero(values, scale),
    )
