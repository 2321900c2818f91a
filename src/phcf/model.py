"""Car-following dynamics of N vehicles on a ring of length L.

The state is the pair of arrays (q, p): absolute positions and speeds, the
vehicles on the last axis, any leading axes a batch.  Positions are never
wrapped; the ring enters only through the gap map, whose last entry
closes the loop with the constant L, so the gap vector always sums to L.
The speed equation combines relaxation toward a commanded speed (rate
gamma), speed alignment with both neighbours (rate beta), and interaction
forces from a distance potential evaluated on the gaps ahead and behind.
The potential belongs to the parameters: quadratic unless they carry a
CustomDerivative.  With the quadratic potential the drift is linear: in
(gaps, speeds) coordinates it is one dense 2N x 2N matrix per regime.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Union

import numpy as np

from .errors import InvalidInputError, UnsupportedOperationError


# ---------------------------------------------------------------------------
# control regimes


def _require_finite(obj, *names):
    """Store each named field of obj as a float; reject a bool, any other
    non-real, an int past the float range, nan and infinities.  A bool or
    an int would be written as text that need not read back as itself."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InvalidInputError(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # no str() of the int: Python refuses one past 4300 digits
            raise InvalidInputError(f"{name} must be finite, got an int past the float range") from None
        if not math.isfinite(value):
            raise InvalidInputError(f"{name} must be finite, got {value}")
        object.__setattr__(obj, name, value)


def _require_integer(name, value):
    """Reject a count that is a bool or not an integer; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")


# Each regime carries what differs between them: ``controlled`` (whether
# speeds relax toward a commanded speed at rate gamma), ``t_gap`` (None
# without gap feedback) and target_speed(gap, out=None), the commanded
# speed.  Only ClosedLoop's depends on the gap; it writes into out when
# one is given, and the other two ignore out and return their scalar.


@dataclass(frozen=True)
class Uncontrolled:
    """No commanded speed; requires gamma == 0."""

    controlled: ClassVar[bool] = False
    t_gap: ClassVar[None] = None

    def target_speed(self, gap, out=None):
        """0: every common speed is steady, and 0 is the convention."""
        return 0.0


@dataclass(frozen=True)
class OpenLoop:
    """Constant commanded speed x, identical for every vehicle."""

    x: float
    controlled: ClassVar[bool] = True
    t_gap: ClassVar[None] = None

    def __post_init__(self):
        _require_finite(self, "x")

    def target_speed(self, gap, out=None):
        return self.x


@dataclass(frozen=True)
class ClosedLoop:
    """Commanded speed (gap - ell)/t_gap computed from the gap ahead."""

    ell: float
    t_gap: float
    controlled: ClassVar[bool] = True

    def __post_init__(self):
        _require_finite(self, "ell", "t_gap")
        if not self.t_gap > 0:
            raise InvalidInputError(f"t_gap must be positive, got {self.t_gap}")
        if self.ell < 0:
            raise InvalidInputError(f"ell must be nonnegative, got {self.ell}")

    def target_speed(self, gap, out=None):
        """(gap - ell)/t_gap by two ufuncs, written into out when given."""
        return np.divide(np.subtract(gap, self.ell, out), self.t_gap, out)


ControlRegime = Union[Uncontrolled, OpenLoop, ClosedLoop]


# ---------------------------------------------------------------------------
# parameters and potentials


@dataclass(frozen=True)
class CustomDerivative:
    """Interaction potential known only through its derivative.

    Usable in the drift (and hence the simulator) but rejected by every
    spectral operation and by scenario files.  The callable must act
    elementwise on arrays.  ``value``, when given, enables energy
    evaluation.
    """

    derivative: Callable
    value: Optional[Callable] = None


@dataclass(frozen=True)
class ModelParams:
    """Scalar constants of the ring model and its interaction potential.

    n_vehicles and ring_length fix the geometry.  alpha is the potential
    stiffness (1/time), beta the speed-alignment rate (1/time), gamma the
    control relaxation rate (1/time) and sigma the noise volatility
    (length/time^(3/2)).  Every real field must be finite, and alpha,
    beta, gamma and sigma nonnegative.  A bool is refused where a number
    is expected.  gamma must be exactly 0 for Uncontrolled and strictly
    positive for the two controlled regimes.

    potential None is the quadratic potential 0.5*(alpha*x)**2 with force
    alpha**2 * x, the only one the spectra, the scenario files and the CLI
    know.  A CustomDerivative replaces it in the drift and the energy;
    alpha is then unused by the dynamics.
    """

    n_vehicles: int
    ring_length: float
    alpha: float
    beta: float
    gamma: float
    sigma: float
    regime: ControlRegime = Uncontrolled()
    potential: Optional[CustomDerivative] = None

    def __post_init__(self):
        _require_integer("n_vehicles", self.n_vehicles)
        if self.n_vehicles < 2:
            raise InvalidInputError(f"need at least 2 vehicles, got {self.n_vehicles}")
        _require_finite(self, "ring_length", "alpha", "beta", "gamma", "sigma")
        if not self.ring_length > 0:
            raise InvalidInputError(f"ring_length must be positive, got {self.ring_length}")
        for name in ("alpha", "beta", "gamma", "sigma"):
            if getattr(self, name) < 0:
                raise InvalidInputError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if not self.regime.controlled and self.gamma != 0:
            raise InvalidInputError("uncontrolled regime requires gamma == 0")
        if self.regime.controlled and not self.gamma > 0:
            raise InvalidInputError("controlled regimes require gamma > 0")


# ---------------------------------------------------------------------------
# ring geometry and drift


def _forward_views(x, d):
    """(minuend, subtrahend, out) view triples of d = forward difference
    of x along the last axis, for C-contiguous x and d of one shape.

    The first triple is the interior x[i+1] - x[i] taken over the
    flattened buffers: one ufunc for every row of a batch at once.  At
    each row's last entry it subtracts across two rows (the next row's
    first entry minus this one's last).  The second triple, the wrap
    x[0] - x[-1], runs after it and overwrites exactly those entries, so
    every entry that survives is the row's own difference.  The
    discarded entries can raise floating-point warnings (overflow,
    invalid value) that no row alone would.
    """
    xf, df = x.reshape(-1), d.reshape(-1)
    return (xf[1:], xf[:-1], df[:-1]), (x[..., :1], x[..., -1:], d[..., -1:])


def _backward_views(x, d):
    """The same for the backward difference x[i] - x[i-1]: the flat
    interior crosses rows at each row's first entry, which the wrap
    x[0] - x[-1] then overwrites."""
    xf, df = x.reshape(-1), d.reshape(-1)
    return (xf[1:], xf[:-1], df[1:]), (x[..., :1], x[..., -1:], d[..., :1])


def _forward_diff(x: np.ndarray) -> np.ndarray:
    """x[i+1] - x[i] along the last axis; the last entry wraps to x[0] - x[-1]."""
    x = np.ascontiguousarray(x)
    d = np.empty_like(x)
    for views in _forward_views(x, d):
        np.subtract(*views)
    return d


def gaps_array(q: np.ndarray, ring_length: float) -> np.ndarray:
    """Gap map on raw position arrays; broadcasts over leading axes.

    The wrap entry is (q[0] - q[-1]) + L, in that order.
    """
    dq = _forward_diff(q)
    dq[..., -1] += ring_length
    return dq


class _DriftWork:
    """Buffers and slice views for evaluating the drift of one (q, p)
    pair again and again, as an integrator does after updating q and p
    in place.

    Every buffer and every view of q, p and the buffers is made here,
    once; evaluate() then runs the drift's ufunc sequence with out= into
    them and allocates nothing, except what a CustomDerivative returns.
    Each of the four ring differences (gap, speed difference,
    acceleration, force difference) is one ufunc over the flattened
    (..., N) buffers for all rows at once, then one over the wrap column,
    which overwrites the row-crossing entries of the first (see
    _forward_views).  q and p must therefore be C-contiguous: the flat
    view of any other array is a copy, and evaluate() would read stale
    data from it.  Anything else raises InvalidInputError.
    """

    def __init__(self, q: np.ndarray, p: np.ndarray, params: ModelParams):
        for name, x in (("q", q), ("p", p)):
            if not x.flags.c_contiguous:
                raise InvalidInputError(f"the drift workspace needs a C-contiguous {name}")
        self.q, self.p, self.params = q, p, params
        self.gap = np.empty_like(q)
        self.force = np.empty_like(q)
        self.dforce = np.empty_like(q)
        self.dp = np.empty_like(p)
        self.acc = np.empty_like(p)
        self.scratch = np.empty_like(p)
        self._gap_diff = _forward_views(q, self.gap)
        self._gap_wrap = self.gap[..., -1:]
        self._dp_diff = _forward_views(p, self.dp)
        self._acc_diff = _backward_views(self.dp, self.acc)
        self._dforce_diff = _backward_views(self.force, self.dforce)
        self._alpha2 = params.alpha**2
        self._derivative = None if params.potential is None else params.potential.derivative

    def evaluate(self) -> np.ndarray:
        """The drift at the current q and p, in the buffer self.acc."""
        sub = np.subtract
        params = self.params
        gap, force, acc = self.gap, self.force, self.acc
        for views in self._gap_diff:
            sub(*views)
        np.add(self._gap_wrap, params.ring_length, self._gap_wrap)
        if self._derivative is None:
            np.multiply(self._alpha2, gap, force)
        else:
            np.copyto(force, self._derivative(gap))
        for views in self._dp_diff:
            sub(*views)
        for views in self._acc_diff:
            sub(*views)
        np.multiply(acc, params.beta, acc)
        for views in self._dforce_diff:
            sub(*views)
        np.add(acc, self.dforce, acc)
        regime = params.regime
        if regime.controlled:
            scratch = self.scratch
            sub(regime.target_speed(gap, scratch), self.p, scratch)
            np.multiply(params.gamma, scratch, scratch)
            np.add(acc, scratch, acc)
        return acc


def acceleration_array(q, p, params: ModelParams, work: Optional[_DriftWork] = None):
    """Speed drift on raw arrays; broadcasts over leading axes.

    beta*bwd(fwd(p)) + bwd(force) plus the control term, with fwd/bwd
    the periodic forward and backward differences (index n-1 wraps to N
    at n=1) and force the potential's derivative at each gap.  Rows of a
    batch never mix, so each equals that state evaluated alone.

    Without work the result is a new array, computed from C-contiguous
    copies of q and p where they are not C-contiguous already (same
    values, same bits).  work is a _DriftWork built for these very q, p
    and params (anything else raises InvalidInputError); the result is
    then its buffer, which the next call with that work overwrites.
    Both paths run the same arithmetic, so their results are equal bit
    for bit.
    """
    if work is None:
        return _DriftWork(np.ascontiguousarray(q), np.ascontiguousarray(p), params).evaluate()
    if not (work.q is q and work.p is p and work.params is params):
        raise InvalidInputError("the drift workspace was built for other arrays or params")
    return work.evaluate()


def hamiltonian(q, p, params: ModelParams):
    """Total energy 0.5*|p|^2 plus the potential summed over the gaps;
    broadcasts over leading axes, one energy per state."""
    potential = params.potential
    if potential is not None and potential.value is None:
        raise UnsupportedOperationError(
            "energy needs the potential itself; this CustomDerivative has no value callable"
        )
    gap = gaps_array(q, params.ring_length)
    if potential is None:
        energy = 0.5 * (params.alpha * gap) ** 2
    else:
        energy = potential.value(gap)
    return 0.5 * (p**2).sum(axis=-1) + energy.sum(axis=-1)


# ---------------------------------------------------------------------------
# linear structure


def _ring_difference_matrix(n: int) -> np.ndarray:
    """Forward difference with periodic wrap: -1 diagonal, +1 superdiagonal,
    +1 in the bottom-left corner."""
    a = -np.eye(n)
    a += np.diag(np.ones(n - 1), 1)
    a[-1, 0] = 1.0
    return a


def assemble_drift_matrix(n, alpha, beta, gamma, t_gap=None) -> np.ndarray:
    """Dense 2N x 2N drift matrix from scalar parameters.

    gamma > 0 adds the -gamma*I damping block; ``t_gap`` additionally
    adds the gap-feedback block (gamma/t_gap)*I in the lower left.
    """
    a = _ring_difference_matrix(n)
    ata = a.T @ a
    eye = np.eye(n)
    lower_left = -(alpha**2) * a.T
    lower_right = -beta * ata
    if gamma > 0:
        lower_right = lower_right - gamma * eye
    if t_gap is not None:
        lower_left = lower_left + (gamma / t_gap) * eye
    zero = np.zeros((n, n))
    return np.block([[zero, a], [lower_left, lower_right]])


def _linear_scalars(params: ModelParams):
    """(n_vehicles, alpha, beta, gamma, t_gap) of the linear drift, the
    scalars of every matrix, spectrum and stability result.

    gamma is the literal 0.0 without control: params.gamma may be -0.0,
    and beta*mu + -0.0 keeps a signed zero that + 0.0 does not.  t_gap is
    None without gap feedback.  Raises UnsupportedOperationError for a
    CustomDerivative potential: the linear structure exists only for the
    quadratic one.
    """
    if params.potential is not None:
        raise UnsupportedOperationError(
            "the drift matrix and the spectra need the quadratic potential; "
            "these params carry a CustomDerivative"
        )
    regime = params.regime
    gamma = params.gamma if regime.controlled else 0.0
    return params.n_vehicles, params.alpha, params.beta, gamma, regime.t_gap


def build_matrices(params: ModelParams) -> np.ndarray:
    """The regime's dense 2N x 2N drift matrix B.

    B acts on the shifted state (gaps, p - shift) with shift =
    regime.target_speed(0.0).  Eigenvalues never depend on the shift.
    Raises UnsupportedOperationError for a CustomDerivative potential.
    """
    return assemble_drift_matrix(*_linear_scalars(params))
