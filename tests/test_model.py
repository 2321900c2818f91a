"""Geometry, drift, energy and matrix structure of the ring model."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phcf import (
    ClosedLoop,
    CustomDerivative,
    Explicit,
    InvalidInputError,
    ModelParams,
    OpenLoop,
    SimConfig,
    Uncontrolled,
    UnsupportedOperationError,
    build_matrices,
    hamiltonian,
    simulate,
)
from phcf.model import _DriftWork, _forward_diff, _ring_difference_matrix, acceleration_array, gaps_array
from phcf.scenario import PRESETS
from oracles import phs_matrices, ring_difference


def uncontrolled(n=3, length=9.0, alpha=1.0, beta=1.0, sigma=0.0):
    return ModelParams(n_vehicles=n, ring_length=length, alpha=alpha, beta=beta,
                       gamma=0.0, sigma=sigma, regime=Uncontrolled())


# ---------------------------------------------------------------------------
# gaps and speed gaps


def test_gaps_two_vehicles():
    assert np.array_equal(gaps_array(np.array([0.0, 4.0]), 10.0), [4.0, 6.0])


def test_gaps_uniform_spacing():
    assert np.array_equal(gaps_array(np.array([0.0, 3.0, 6.0]), 9.0), [3.0, 3.0, 3.0])


def test_gaps_ring_preset_spacing():
    gaps = gaps_array(np.arange(20) * (141.0 / 20.0), 141.0)
    assert np.allclose(gaps, 7.05, rtol=0, atol=1e-12)


def test_gaps_sum_to_ring_length():
    rng = np.random.default_rng(3)
    for n in (2, 5, 20):
        q = np.sort(rng.uniform(0, 50.0, n))
        assert abs(gaps_array(q, 50.0).sum() - 50.0) < 1e-9


def test_speed_gaps():
    """Speed differences to the vehicle ahead: the forward difference."""
    assert np.array_equal(_forward_diff(np.array([1.0, 1.0, 1.0])), [0.0, 0.0, 0.0])
    assert np.array_equal(_forward_diff(np.array([0.0, 2.0])), [2.0, -2.0])
    assert np.array_equal(_forward_diff(np.array([1.0, 2.0, 4.0])), [1.0, 2.0, -3.0])


def test_speed_gaps_sum_to_zero():
    rng = np.random.default_rng(4)
    p = rng.normal(size=17)
    assert abs(_forward_diff(p).sum()) < 1e-12


# ---------------------------------------------------------------------------
# drift


def test_drift_zero_on_uniform_uncontrolled_state():
    params = uncontrolled(n=5, length=10.0, alpha=1.3, beta=0.7)
    dp = acceleration_array(np.arange(5) * 2.0, np.full(5, 3.0), params)
    assert np.array_equal(dp, np.zeros(5))


def test_drift_zero_at_closed_loop_equilibrium():
    params = ModelParams(n_vehicles=20, ring_length=141.0, alpha=0.5, beta=1.0,
                         gamma=1.0, sigma=0.0, regime=ClosedLoop(ell=5.0, t_gap=1.0))
    q = np.arange(20) * (141.0 / 20.0)
    dp = acceleration_array(q, np.full(20, 2.05), params)
    # q_k = k*7.05 rounds per k, so the gaps match 7.05 only to the last ulp
    assert np.abs(dp).max() <= 1e-13


def _random_params(rng, n, regime_kind):
    alpha = rng.uniform(0.1, 2.0)
    beta = rng.uniform(0.0, 2.0)
    if regime_kind == "uncontrolled":
        return ModelParams(n, 10.0 * n, alpha, beta, 0.0, 1.0, Uncontrolled())
    gamma = rng.uniform(0.1, 2.0)
    if regime_kind == "open_loop":
        return ModelParams(n, 10.0 * n, alpha, beta, gamma, 1.0, OpenLoop(x=rng.uniform(-2, 2)))
    return ModelParams(n, 10.0 * n, alpha, beta, gamma, 1.0,
                       ClosedLoop(ell=rng.uniform(0, 3), t_gap=rng.uniform(0.2, 3)))


@pytest.mark.parametrize("regime_kind", ["uncontrolled", "open_loop", "closed_loop"])
@pytest.mark.parametrize("n", [2, 3, 5, 20])
def test_drift_matches_matrix_form(regime_kind, n):
    """With the quadratic potential, the drift equals the drift matrix B
    applied to the shifted state (gaps, p - shift); checked componentwise
    on random states."""
    rng = np.random.default_rng(hash((regime_kind, n)) % 2**32)
    for _ in range(25):
        params = _random_params(rng, n, regime_kind)
        b = build_matrices(params)
        shift = params.regime.target_speed(0.0)
        q = np.cumsum(rng.uniform(0.5, 2.0, n))
        p = rng.normal(0, 2.0, n)
        z_shifted = np.concatenate([gaps_array(q, params.ring_length), p - shift])
        rhs = b @ z_shifted
        dp = acceleration_array(q, p, params)
        assert np.abs(rhs[:n] - _forward_diff(p)).max() <= 1e-10  # gap derivative = A p
        assert np.abs(rhs[n:] - dp).max() <= 1e-10


def test_drift_matches_matrix_form_small_ring_tight():
    rng = np.random.default_rng(42)
    params = uncontrolled(n=3, length=12.0, alpha=1.3, beta=0.6)
    b = build_matrices(params)
    for _ in range(20):
        q, p = np.cumsum(rng.uniform(0.5, 4.0, 3)), rng.normal(0, 2.0, 3)
        z = np.concatenate([gaps_array(q, params.ring_length), p])
        dp = acceleration_array(q, p, params)
        assert np.abs((b @ z)[3:] - dp).max() <= 1e-12


def test_drift_interactions_telescope():
    """Alignment and potential contributions sum to zero over the ring
    (any potential, here a non-quadratic one)."""
    rng = np.random.default_rng(9)
    params = replace(uncontrolled(n=12, length=40.0, alpha=0.0, beta=1.4),
                     potential=CustomDerivative(derivative=lambda x: np.tanh(x) + 0.3 * x))
    q = np.cumsum(rng.uniform(0.5, 4.0, 12))
    dp = acceleration_array(q, rng.normal(0, 3.0, 12), params)
    assert abs(dp.sum()) < 1e-10


# ---------------------------------------------------------------------------
# energy


def test_hamiltonian_zero_at_minimum():
    params = uncontrolled(n=3, length=9.0, alpha=0.0)
    assert hamiltonian(np.array([0.0, 3.0, 6.0]), np.zeros(3), params) == 0.0


def test_hamiltonian_hand_value():
    params = uncontrolled(n=2, length=2.0, alpha=1.0)
    energy = hamiltonian(np.array([0.0, 1.0]), np.array([1.0, 1.0]), params)
    assert energy == pytest.approx(2.0, abs=1e-14)


def test_hamiltonian_nonnegative():
    rng = np.random.default_rng(12)
    params = uncontrolled(n=7, length=20.0, alpha=0.8)
    for _ in range(50):
        q, p = np.cumsum(rng.uniform(0.1, 4.0, 7)), rng.normal(0, 5, 7)
        assert hamiltonian(q, p, params) >= 0.0


def test_hamiltonian_custom_needs_value():
    params = replace(uncontrolled(n=3), potential=CustomDerivative(derivative=lambda x: x))
    q, p = np.array([0.0, 3.0, 6.0]), np.zeros(3)
    with pytest.raises(UnsupportedOperationError):
        hamiltonian(q, p, params)
    with_value = CustomDerivative(derivative=lambda x: x, value=lambda x: 0.5 * x**2)
    assert hamiltonian(q, p, replace(params, potential=with_value)) == pytest.approx(13.5)


@st.composite
def energy_batches(draw):
    samples = draw(st.integers(1, 6))
    n = draw(st.integers(2, 30))
    q = draw(hnp.arrays(np.float64, (samples, n), elements=st.floats(-1e6, 1e6)))
    p = draw(hnp.arrays(np.float64, (samples, n), elements=st.floats(-1e6, 1e6)))
    params = uncontrolled(n=n, length=draw(st.floats(1e-3, 1e6)), alpha=draw(st.floats(0.0, 50.0)))
    potential = draw(st.sampled_from([None, CustomDerivative(np.tanh, value=lambda x: x * np.tanh(x))]))
    return q, p, replace(params, potential=potential)


@settings(deadline=None, database=None)
@given(energy_batches())
def test_hamiltonian_batch_equals_rows_bitwise(case):
    """A (samples, N) batch gives one energy per row, each the very float
    of that row's own call."""
    q, p, params = case
    batch = hamiltonian(q, p, params)
    assert batch.shape == (len(q),)
    rows = [hamiltonian(qi, pi, params) for qi, pi in zip(q, p)]
    assert batch.tobytes() == np.array(rows).tobytes()


# ---------------------------------------------------------------------------
# energy gradient in (gaps, speeds) coordinates: grad H = Q z (test oracle)


def test_gradient_zero_speeds_zero_stiffness():
    """With alpha = 0 and p = 0 the energy gradient vanishes, and so does
    the drift (J - R) grad H."""
    params = uncontrolled(n=3, length=3.0, alpha=0.0)
    q = np.array([0.0, 1.0, 2.0])
    _, _, hess = phs_matrices(3, 0.0, params.beta, 0.0)
    z = np.concatenate([gaps_array(q, params.ring_length), np.zeros(3)])
    assert np.array_equal(hess @ z, np.zeros(6))
    assert np.array_equal(acceleration_array(q, np.zeros(3), params), np.zeros(3))


def test_gradient_componentwise_scaling():
    """grad H = (alpha^2 * gaps, p), and H is the quadratic form z.Qz/2."""
    params = uncontrolled(n=4, length=4.0, alpha=2.0)
    q, p = np.array([0.0, 1.0, 2.0, 3.0]), np.full(4, 3.0)
    _, _, hess = phs_matrices(4, 2.0, params.beta, 0.0)
    z = np.concatenate([gaps_array(q, params.ring_length), p])
    grad = hess @ z
    assert np.allclose(grad[:4], 4.0)  # alpha^2 * gap = 4 * 1
    assert np.allclose(grad[4:], 3.0)
    assert hamiltonian(q, p, params) == pytest.approx(0.5 * z @ grad, rel=1e-15)


def test_gradient_against_finite_differences():
    """Central differences of the energy (the package's quadratic
    potential summed over the gaps, plus 0.5*|p|^2) in (gaps, speeds)
    coordinates against Q z.  The gaps of a ring of N >= 2 vehicles are
    free coordinates: the state q = cumsum(gaps) on a ring of length
    sum(gaps) has exactly those gaps."""
    rng = np.random.default_rng(21)
    n, alpha = 6, 1.7
    _, _, hess = phs_matrices(n, alpha, 1.0, 0.0)

    def energy(gap_vec, p_vec):
        params = uncontrolled(n=n, length=float(gap_vec.sum()), alpha=alpha)
        q = np.concatenate([[0.0], np.cumsum(gap_vec[:-1])])
        return float(hamiltonian(q, p_vec, params))

    for _ in range(10):
        q = np.cumsum(rng.uniform(0.5, 4.0, n))
        p = rng.normal(0, 2, n)
        g = gaps_array(q, 30.0)
        grad = hess @ np.concatenate([g, p])
        h = 1e-6
        fd = np.empty(2 * n)
        for i in range(n):
            e_plus = g.copy(); e_plus[i] += h
            e_minus = g.copy(); e_minus[i] -= h
            fd[i] = (energy(e_plus, p) - energy(e_minus, p)) / (2 * h)
        for i in range(n):
            e_plus = p.copy(); e_plus[i] += h
            e_minus = p.copy(); e_minus[i] -= h
            fd[n + i] = (energy(g, e_plus) - energy(g, e_minus)) / (2 * h)
        scale = max(1.0, np.abs(grad).max())
        assert np.abs(fd - grad).max() / scale <= 1e-5


# ---------------------------------------------------------------------------
# matrices


def test_difference_matrix_rows():
    a = _ring_difference_matrix(3)
    assert np.array_equal(a, [[-1, 1, 0], [0, -1, 1], [1, 0, -1]])
    assert np.array_equal(a, ring_difference(3))


def test_ata_is_the_expected_circulant():
    a = _ring_difference_matrix(3)
    assert np.array_equal(a.T @ a, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


REGIMES = [Uncontrolled(), OpenLoop(x=1.0), ClosedLoop(ell=2.0, t_gap=0.5)]


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("n", [2, 3, 7, 20])
def test_matrix_structure(n, regime):
    gamma = 0.0 if isinstance(regime, Uncontrolled) else 0.8
    params = ModelParams(n, 10.0 * n, alpha=1.1, beta=0.6, gamma=gamma, sigma=0.5, regime=regime)
    b = build_matrices(params)
    assert b.shape == (2 * n, 2 * n)
    # every N x N block of the drift matrix is circulant
    for block in (b[:n, :n], b[:n, n:], b[n:, :n], b[n:, n:]):
        for i in range(1, n):
            assert np.array_equal(block[i], np.roll(block[i - 1], 1))


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("n", [2, 3, 7, 20])
def test_drift_matrix_is_port_hamiltonian(n, regime):
    """B = (J - R) Q with J skew and R positive semidefinite; gap feedback
    adds the input (gamma/T) I acting on the gaps, in the lower-left block."""
    gamma = 0.0 if isinstance(regime, Uncontrolled) else 0.8
    params = ModelParams(n, 10.0 * n, alpha=1.1, beta=0.6, gamma=gamma, sigma=0.5, regime=regime)
    j, r, q = phs_matrices(n, params.alpha, params.beta, params.gamma)
    assert np.array_equal(j, -j.T)
    assert np.array_equal(r, r.T)
    assert np.linalg.eigvalsh(r).min() >= -1e-12
    expected = (j - r) @ q
    if isinstance(regime, ClosedLoop):
        expected[n:, :n] += (params.gamma / regime.t_gap) * np.eye(n)
    assert np.allclose(build_matrices(params), expected, rtol=0, atol=1e-14)


def test_drift_matrix_regime_blocks():
    n = 4
    a = _ring_difference_matrix(n)
    base = ModelParams(n, 8.0, 1.5, 0.5, 0.0, 0.0, Uncontrolled())
    b_unc = build_matrices(base)
    assert np.array_equal(b_unc[:n, n:], a)
    assert np.array_equal(b_unc[n:, :n], -(1.5**2) * a.T)
    assert np.array_equal(b_unc[n:, n:], -0.5 * (a.T @ a))
    ol = ModelParams(n, 8.0, 1.5, 0.5, 0.3, 0.0, OpenLoop(x=1.0))
    b_ol = build_matrices(ol)
    assert np.array_equal(b_ol[n:, n:], -0.5 * (a.T @ a) - 0.3 * np.eye(n))
    cl = ModelParams(n, 8.0, 1.5, 0.5, 0.3, 0.0, ClosedLoop(ell=1.0, t_gap=2.0))
    b_cl = build_matrices(cl)
    assert np.array_equal(b_cl[n:, :n], -(1.5**2) * a.T + (0.3 / 2.0) * np.eye(n))


# ---------------------------------------------------------------------------
# validation


def test_params_validation():
    with pytest.raises(InvalidInputError):
        ModelParams(1, 10.0, 1.0, 1.0, 0.0, 1.0, Uncontrolled())
    with pytest.raises(InvalidInputError):
        ModelParams(5, 0.0, 1.0, 1.0, 0.0, 1.0, Uncontrolled())
    with pytest.raises(InvalidInputError):
        ModelParams(5, 10.0, -1.0, 1.0, 0.0, 1.0, Uncontrolled())
    with pytest.raises(InvalidInputError):
        ModelParams(5, 10.0, 1.0, 1.0, 0.5, 1.0, Uncontrolled())  # gamma must be 0
    with pytest.raises(InvalidInputError):
        ModelParams(5, 10.0, 1.0, 1.0, 0.0, 1.0, OpenLoop(x=1.0))  # gamma must be > 0
    with pytest.raises(InvalidInputError):
        ModelParams(5, 10.0, 1.0, 1.0, 0.0, 1.0, ClosedLoop(ell=1.0, t_gap=1.0))
    with pytest.raises(InvalidInputError):
        ClosedLoop(ell=1.0, t_gap=0.0)
    with pytest.raises(InvalidInputError):
        ClosedLoop(ell=-1.0, t_gap=1.0)
    with pytest.raises(InvalidInputError, match="alpha"):
        ModelParams(5, 10.0, -0.5, 1.0, 0.0, 1.0, Uncontrolled())


NON_FINITE = [float("nan"), float("inf"), float("-inf")]
VALID_PARAMS = ModelParams(5, 10.0, 1.0, 1.0, 1.0, 1.0, OpenLoop(x=1.0))


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["ring_length", "alpha", "beta", "gamma", "sigma"])
def test_params_reject_non_finite(field, bad):
    with pytest.raises(InvalidInputError, match=field):
        replace(VALID_PARAMS, **{field: bad})


@pytest.mark.parametrize("bad", [20.0, 2.5, "20", None])
def test_params_reject_non_integer_vehicle_count(bad):
    with pytest.raises(InvalidInputError, match="n_vehicles must be an integer"):
        replace(VALID_PARAMS, n_vehicles=bad)
    assert replace(VALID_PARAMS, n_vehicles=np.int64(5)).n_vehicles == 5


def test_params_reject_negative_sigma():
    with pytest.raises(InvalidInputError, match="sigma"):
        replace(VALID_PARAMS, sigma=-0.1)
    assert replace(VALID_PARAMS, sigma=0.0).sigma == 0.0


@pytest.mark.parametrize("bad", NON_FINITE)
def test_regimes_reject_non_finite(bad):
    with pytest.raises(InvalidInputError, match="x"):
        OpenLoop(x=bad)
    with pytest.raises(InvalidInputError, match="ell"):
        ClosedLoop(ell=bad, t_gap=1.0)
    with pytest.raises(InvalidInputError, match="t_gap"):
        ClosedLoop(ell=1.0, t_gap=bad)


def test_state_arrays_are_read_only():
    """The recorded positions and speeds of a run cannot be written."""
    params = uncontrolled(n=2, length=2.0, sigma=1.0)
    config = SimConfig(dt=0.01, t_end=0.05, initial=Explicit(q=[0.0, 1.0], p=[0.0, 0.0]))
    ts = simulate(params, config)
    for states in (ts.q, ts.p):
        with pytest.raises(ValueError):
            states[0, 0] = 5.0


# ---------------------------------------------------------------------------
# slice kernels against the np.roll reference formulas


def roll_gaps(q, ring_length):
    dq = np.roll(q, -1, axis=-1) - q
    dq[..., -1] += ring_length
    return dq


def roll_speed_gaps(p):
    return np.roll(p, -1, axis=-1) - p


def roll_acceleration(q, p, params):
    gap = roll_gaps(q, params.ring_length)
    dp = np.roll(p, -1, axis=-1) - p
    if params.potential is None:
        force = params.alpha**2 * gap  # the quadratic potential's derivative
    else:
        force = params.potential.derivative(gap)
    acc = params.beta * (dp - np.roll(dp, 1, axis=-1)) + (force - np.roll(force, 1, axis=-1))
    regime = params.regime
    if isinstance(regime, OpenLoop):
        acc = acc + params.gamma * (regime.x - p)
    elif isinstance(regime, ClosedLoop):
        acc = acc + params.gamma * (regime.target_speed(gap) - p)
    return acc


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_bits_but_nan(a, b):
    """same_bits with every nan taken as one.  When both operands of an
    add are nans, numpy passes on one or the other depending on whether
    the entry falls in the vector body or the scalar tail of its loop,
    so the sign of a nan depends on its position in the array."""
    return same_bits(np.where(np.isnan(a), np.nan, a), np.where(np.isnan(b), np.nan, b))


_rates = st.floats(0.0, 50.0)
_reals = st.floats(-1e6, 1e6)


def _or_one(floats):
    """floats, or exactly 1.0 with fair probability: the drift workspace
    leaves out its multiply or divide by an operand of exactly 1.0."""
    return st.one_of(st.just(1.0), floats)


@st.composite
def kernel_cases(draw, min_runs=1):
    runs = draw(st.integers(min_runs, 4))
    n = draw(st.integers(2, 25))
    entries = st.one_of(st.sampled_from([0.0, -0.0]), _reals)
    q = draw(hnp.arrays(np.float64, (runs, n), elements=entries))
    p = draw(hnp.arrays(np.float64, (runs, n), elements=entries))
    kind = draw(st.sampled_from(["uncontrolled", "open_loop", "closed_loop"]))
    if kind == "uncontrolled":
        regime, gamma = Uncontrolled(), 0.0
    else:
        gamma = draw(_or_one(st.floats(1e-3, 50.0)))
        if kind == "open_loop":
            regime = OpenLoop(x=draw(_reals))
        else:
            regime = ClosedLoop(ell=draw(st.floats(0.0, 1e3)), t_gap=draw(_or_one(st.floats(1e-3, 1e3))))
    potential = draw(st.sampled_from([None, CustomDerivative(np.tanh)]))
    params = ModelParams(n, draw(st.floats(1e-3, 1e6)), draw(_or_one(_rates)), draw(_or_one(_rates)), gamma, 1.0,
                         regime, potential)
    return q, p, params


@st.composite
def ring_positions(draw):
    runs = draw(st.integers(1, 4))
    n = draw(st.integers(2, 40))
    return draw(hnp.arrays(np.float64, (runs, n), elements=_reals))


@settings(deadline=None, database=None)
@given(ring_positions(), st.floats(1e-3, 1e6))
def test_gaps_rows_sum_to_ring_length(q, ring_length):
    """Ring-length conservation: the gaps telescope, so every row's exact
    sum is L up to one rounding per gap (and one for the wrap's + L)."""
    eps = np.finfo(float).eps
    for row in gaps_array(q, ring_length):
        assert abs(math.fsum(row) - ring_length) <= 2 * eps * (np.abs(row).sum() + ring_length)


# dp's wrap entry p[0] - p[-1] = -0.0 - 0.0 keeps its sign through the
# stacked + [L; -0.0]; it shows in acc[-1] = (-0.0 - 0.0) + (0*gap[-1] -
# 0*gap[-2]) = -0.0, with gap[-1] < 0 < gap[-2], alpha = 0 and beta = 1
_NEGATIVE_ZERO_WRAP = (np.array([[0.0, 0.5, 2.0]]), np.array([[-0.0, 0.0, 0.0]]),
                       uncontrolled(n=3, length=1.0, alpha=0.0, beta=1.0))


@settings(deadline=None, database=None)
@given(kernel_cases())
@example(_NEGATIVE_ZERO_WRAP)
def test_slice_kernels_equal_roll_formulas_bitwise(case):
    q, p, params = case
    assert same_bits(gaps_array(q, params.ring_length), roll_gaps(q, params.ring_length))
    for row in p:
        assert same_bits(_forward_diff(row), roll_speed_gaps(row))
    assert same_bits(acceleration_array(q, p, params), roll_acceleration(q, p, params))
    # a lone row (1-d arrays) sees the same arithmetic as inside the batch
    assert same_bits(acceleration_array(q[-1], p[-1], params), roll_acceleration(q, p, params)[-1])
    # one workspace while its own q and p change in place, as in the
    # integrator: a move, a reversal, and a dead row zeroed
    work = _DriftWork(q, p, params)
    q, p = work.q, work.p
    for change in range(4):
        if change == 1:
            q += p
        elif change == 2:
            p[...] = p[..., ::-1]
        elif change == 3:
            q[0] = p[0] = 0.0
        acc = acceleration_array(q, p, params, work)
        assert same_bits(acc, roll_acceleration(q, p, params))
    # the result is the workspace's buffer, overwritten by the next call
    assert acceleration_array(q, p, params, work) is acc


@pytest.mark.parametrize("runs", [1, 4])
@pytest.mark.parametrize("name, n_calls", [("fig1", 6), ("fig2", 10), ("fig3", 10)])
def test_drift_calls_stay_on_the_fast_path(name, n_calls, runs):
    """Every drift call takes numpy's trivial loop: its array operands
    are 1-D or C-contiguous, and no in-place call has a single entry,
    where numpy takes its slow path.  The multiplies and divides by an
    operand of exactly 1.0 are left out of the presets' call lists."""
    params = PRESETS[name]
    state = np.zeros((runs, params.n_vehicles))
    work = _DriftWork(state, state, params)
    assert len(work._calls) == n_calls
    for fn, args in work._calls:
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        assert all(a.ndim == 1 or a.flags.c_contiguous for a in arrays), fn
        if isinstance(fn, np.ufunc):
            inputs, out = args[: fn.nin], args[-1]
            if any(np.shares_memory(out, x) for x in inputs):
                assert out.size > 1, fn


def test_drift_workspace_refuses_other_arrays():
    q, p = np.arange(4.0).reshape(1, 4), np.ones((1, 4))
    params = uncontrolled(n=4, length=8.0)
    work = _DriftWork(q, p, params)
    q, p = work.q, work.p
    for args in [(q.copy(), p, params), (q, p.copy(), params), (q, p, replace(params, beta=2.0))]:
        with pytest.raises(InvalidInputError):
            acceleration_array(*args, work)


@st.composite
def scaled_batches(draw):
    """(q, p, params) with 2..4 rows whose scales differ by up to 1e6, so
    that a row-crossing difference left in a result would show; one row
    may carry a nan or an infinity at the entries next to its neighbours."""
    q, p, params = draw(kernel_cases(min_runs=2))
    scales = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=len(q), max_size=len(q))))
    q *= scales[:, None]
    p *= scales[:, None]
    if draw(st.booleans()):
        x = q if draw(st.booleans()) else p
        row = draw(st.integers(0, len(q) - 1))
        x[row, draw(st.sampled_from([..., 0, -1]))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return q, p, params


@settings(deadline=None, database=None)
@given(scaled_batches())
def test_batch_rows_equal_rows_alone_bitwise(case):
    """Each difference runs over the flattened batch and the wrap column
    then overwrites the row-crossing entries: no row may see another,
    not even a non-finite neighbour."""
    q, p, params = case
    with np.errstate(all="ignore"):
        acc = acceleration_array(q, p, params)
        gaps = gaps_array(q, params.ring_length)
        for r in range(len(q)):
            assert same_bits_but_nan(acc[r], acceleration_array(q[r], p[r], params))
            assert same_bits_but_nan(gaps[r], gaps_array(q[r], params.ring_length))


def _layouts(x):
    """x as Fortran-ordered, reversed, strided and broadcast arrays."""
    wide = np.zeros((2 * x.shape[0], 3 * x.shape[1]))
    wide[::2, ::3] = x
    return [
        np.asfortranarray(x),
        x[..., ::-1].copy()[..., ::-1],
        wide[::2, ::3],
        np.broadcast_to(x[:1], x.shape),
    ]


@settings(deadline=None, database=None)
@given(kernel_cases(min_runs=2))
def test_non_contiguous_inputs_equal_contiguous_copy_bitwise(case):
    q, p, params = case
    for q_in, p_in in zip(_layouts(q), _layouts(p)):
        assert not q_in.flags.c_contiguous and not p_in.flags.c_contiguous
        q_c, p_c = np.ascontiguousarray(q_in), np.ascontiguousarray(p_in)
        assert same_bits(acceleration_array(q_in, p_in, params), acceleration_array(q_c, p_c, params))
        assert same_bits(gaps_array(q_in, params.ring_length), gaps_array(q_c, params.ring_length))


@settings(deadline=None, database=None)
@given(kernel_cases(min_runs=2))
def test_drift_workspace_copies_any_layout(case):
    """q and p of any layout are copied into the workspace's own
    C-contiguous (2, runs, N) buffer, whose halves are work.q and work.p,
    so changing the caller's arrays afterwards does not change the drift."""
    q, p, params = case
    layouts = list(zip(_layouts(q), _layouts(p)))
    expected = [acceleration_array(np.ascontiguousarray(q_in), np.ascontiguousarray(p_in), params)
                for q_in, p_in in layouts]
    works = [_DriftWork(q_in, p_in, params) for q_in, p_in in layouts]
    for work, (q_in, p_in) in zip(works, layouts):
        assert work.qp.flags.c_contiguous and work.qp.shape == (2,) + q.shape
        assert work.q.base is work.qp and work.p.base is work.qp
        assert not np.shares_memory(work.qp, q_in) and not np.shares_memory(work.qp, p_in)
    # the read-only broadcast layouts view q and p, which change with the rest
    for x in [q, p] + [x for pair in layouts for x in pair if x.flags.writeable]:
        x[...] = np.nan
    for work, acc in zip(works, expected):
        assert same_bits(acceleration_array(work.q, work.p, params, work), acc)


@settings(deadline=None, database=None)
@given(kernel_cases(), st.sampled_from(["q", "p"]), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_stacked_seams_never_mix_rows(case, where, value):
    """The workspace stacks [q; p] and [force; dp], so its flat passes
    also cross from q's last row into p's first and from the force's last
    row into dp's first.  With rows scaled apart and a nan or an infinity
    at q[-1, -1] or p[0, 0], the entries on either side of those seams,
    every row equals that row alone and the seam-free np.roll formula."""
    q, p, params = case
    scales = np.geomspace(1.0, 1e-6, len(q))[:, None]
    q *= scales
    p *= scales
    if where == "q":
        q[-1, -1] = value
    else:
        p[0, 0] = value
    with np.errstate(all="ignore"):
        acc = acceleration_array(q, p, params)
        assert same_bits_but_nan(acc, roll_acceleration(q, p, params))
        for r in range(len(q)):
            assert same_bits_but_nan(acc[r], acceleration_array(q[r], p[r], params))


def test_closed_loop_target_speed_bits():
    """(gap - ell)/t_gap, to the bit, for an array gap and for a scalar one
    as initial_state and mean_speed_law pass; the other regimes return
    their constant."""
    regime = ClosedLoop(ell=1.3, t_gap=0.7)
    gap = np.random.default_rng(5).uniform(-10.0, 10.0, (3, 7))
    assert same_bits(regime.target_speed(gap), np.divide(np.subtract(gap, 1.3), 0.7))
    scalar = 10.0 / 7.0
    assert same_bits(np.float64(regime.target_speed(scalar)), np.float64((scalar - 1.3) / 0.7))
    for scalar_regime, value in ((Uncontrolled(), 0.0), (OpenLoop(x=2.5), 2.5)):
        assert scalar_regime.target_speed(gap) == value
