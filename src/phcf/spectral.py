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

Nothing here builds the 2N x 2N drift matrix.  The modes are evaluated as
numpy arrays over j, O(N) in time and memory: the tables cos, sin of
2*pi*j/N come from math.cos/math.sin element by element and every array
operation repeats the scalar formula's operations in the same order, so
each root and Hurwitz coefficient equals the one-mode-at-a-time result bit
for bit.

:func:`stability_report` also broadcasts over its parameters: arrays that
broadcast to a grid shape S give per-mode arrays of shape S + (N-1,) and
verdicts of shape S, cells on the leading axes and modes on the last, and
each cell equals its scalar call bit for bit (a scalar call is the 0-d
grid and returns Python bools and floats).  The grid costs O(cells * N)
memory, so a large map is best evaluated one row at a time.  Powers keep
Python's float semantics per element: alpha**2, (alpha*T)**2 and rho**2
are taken with the float power, because pow(x, 2) is not always x*x
rounded and numpy's array power differs from both.  Quotients, sums and
products are the same IEEE operations in numpy and in Python.

The zero-detection scale is the drift matrix's Frobenius norm in
closed form,

    ||B||_F^2 = 2N + N*((alpha^2 + g)^2 + alpha^4) + N*((2*beta + d)^2 + 2*beta^2)

with g = gamma/t_gap under gap feedback (else 0) and d = gamma when
gamma > 0 (else 0); at N = 2 the two neighbours coincide and 2*beta^2
becomes 4*beta^2.

Everything here is cross-checkable against a generic dense eigensolver,
exposed as :func:`dense_eigen_oracle`; it and :func:`match_distances`
refuse problems above :data:`DENSE_ORACLE_MAX_DIM`.  scipy is imported only
when :func:`match_distances` runs.
"""

from __future__ import annotations

import math
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
    without gap feedback).  Parameters are floats or arrays of shape
    S + (1,); the result has shape S + (2n,).  An exact zero const_j
    (mode 0, or alpha = 0 without feedback) yields the exact roots 0 and
    -lin_j.
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
        s = np.sqrt((lin * lin - 4.0 * const).astype(complex))
        roots = np.empty(lin.shape + (2,), dtype=complex)
        roots[..., 0] = (-lin + s) / 2.0
        roots[..., 1] = (-lin - s) / 2.0
    zero = const == 0
    roots[zero, 0] = 0.0
    roots[zero, 1] = -lin[zero]
    return roots.reshape(lin.shape[:-1] + (2 * n,))


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
    values = _mode_roots(cos, alpha**2, beta, gamma, None if t_gap is None else gamma / t_gap)
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


def drift_matrix_norm(n, alpha, beta, gamma, t_gap=None) -> float:
    """Frobenius norm of the drift matrix (N >= 2); the scale for zero
    detection.  Closed form, see the module docstring: the damping block
    counts when gamma > 0, the feedback block when t_gap is given."""
    a2 = alpha * alpha
    g = 0.0 if t_gap is None else gamma / t_gap
    damping = gamma if gamma > 0 else 0.0
    neighbours = (4.0 if n == 2 else 2.0) * beta * beta
    return math.sqrt(n * (2.0 + (a2 + g) ** 2 + a2 * a2 + (2.0 * beta + damping) ** 2 + neighbours))


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
    mode_stable is kappa > 0 and hurwitz_det > 0.  The verdicts have
    shape S; for a single cell they are Python bools and floats.
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


def sufficient_condition(alpha, gamma, t_gap):
    """(lhs, verdict) of the parameter-only condition
    gamma*T + 2*(alpha*T)^2 > 2 (with gamma > 0)."""
    lhs = gamma * t_gap + 2.0 * (alpha * t_gap) ** 2
    return lhs, bool(gamma > 0 and lhs > 2.0)


def stability_report(n, alpha, beta, gamma, t_gap) -> StabilityReport:
    """Gap-feedback stability; alpha, beta, gamma and t_gap are floats or
    arrays that broadcast to a grid of cells.

    Mode j (1 <= j < N) contributes the complex-coefficient quadratic with
    kappa_j = 2*beta*(1-c_j) + gamma, eta_j = 0,
    nu_j = (1-c_j)*(gamma/T + 2*alpha^2), rho_j = -(gamma/T)*s_j;
    a cell is exactly stable iff gamma > 0 and every mode passes the
    Hurwitz test.  Raises InvalidInputError if any cell has only
    structural-zero eigenvalues, or eigenvalues or a scale past the float
    range.
    """
    # Cells on the leading axes, a length-1 axis for the modes.
    alpha, beta, gamma, t_gap = np.broadcast_arrays(
        *(np.asarray(x, dtype=float)[..., None] for x in (alpha, beta, gamma, t_gap))
    )
    shape = alpha.shape[:-1]
    cells = list(zip(*(x.ravel().tolist() for x in (alpha, beta, gamma, t_gap))))
    # Powers per cell with Python's float power, as the one-cell formulas.
    a2 = np.array([a**2 for a in alpha.ravel().tolist()]).reshape(alpha.shape)
    sufficient = [sufficient_condition(a, gm, t) for a, _, gm, t in cells]
    scale = np.array([drift_matrix_norm(n, *cell) for cell in cells]).reshape(shape)

    cos, sin = _mode_tables(n)
    c, s = cos[1:], sin[1:]
    # Parameters near the float range give non-finite terms, computed
    # without numpy warnings; spectral_abscissa_nonzero refuses them.
    with np.errstate(over="ignore", invalid="ignore"):
        g = gamma / t_gap
        kappa = 2.0 * beta * (1.0 - c) + gamma
        nu = (1.0 - c) * (g + 2.0 * a2)
        rho = -g * s
        # Python's float power, as the scalar formula: pow(x, 2) is not always
        # x*x rounded, and numpy's array power is neither.
        rho_sq = np.array([r**2 for r in rho.ravel().tolist()]).reshape(rho.shape)
        det = kappa * (nu * kappa) - rho_sq
        stable = (kappa > 0) & (det > 0)
    values = _mode_roots(cos, a2, beta, gamma, g)
    return StabilityReport(
        kappa=kappa,
        nu=nu,
        rho=rho,
        hurwitz_det=det,
        mode_stable=stable,
        exact_stable=_unwrap((gamma[..., 0] > 0) & stable.all(axis=-1)),
        sufficient_lhs=_unwrap(np.array([lhs for lhs, _ in sufficient]).reshape(shape)),
        sufficient_stable=_unwrap(np.array([ok for _, ok in sufficient]).reshape(shape)),
        spectral_abscissa_nonzero=spectral_abscissa_nonzero(values, scale),
    )


def exact_stability(params: ModelParams) -> StabilityReport:
    """Stability report of the gap-feedback regime in params (quadratic
    potential only)."""
    n, alpha, beta, gamma, t_gap = _linear_scalars(params)
    if t_gap is None:
        raise InvalidInputError(f"params.regime must be ClosedLoop, got {type(params.regime).__name__}")
    return stability_report(n, alpha, beta, gamma, t_gap)

