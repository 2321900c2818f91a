"""Geometry, drift, energy and matrix structure of the ring model."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phcf import (
    ClosedLoop,
    CustomDerivative,
    InvalidInputError,
    ModelParams,
    OpenLoop,
    Quadratic,
    State,
    Uncontrolled,
    UnsupportedOperationError,
    build_matrices,
    drift,
    gaps,
    hamiltonian,
    hamiltonian_gradient,
    ring_difference_matrix,
    speed_gaps,
)
from phcf.model import acceleration_array, gaps_array


def uncontrolled(n=3, length=9.0, alpha=1.0, beta=1.0, sigma=0.0):
    return ModelParams(n_vehicles=n, ring_length=length, alpha=alpha, beta=beta,
                       gamma=0.0, sigma=sigma, regime=Uncontrolled())


# ---------------------------------------------------------------------------
# gaps and speed gaps


def test_gaps_two_vehicles():
    params = uncontrolled(n=2, length=10.0)
    state = State(q=[0.0, 4.0], p=[0.0, 0.0])
    assert np.array_equal(gaps(state, params), [4.0, 6.0])


def test_gaps_uniform_spacing():
    params = uncontrolled(n=3, length=9.0)
    state = State(q=[0.0, 3.0, 6.0], p=np.zeros(3))
    assert np.array_equal(gaps(state, params), [3.0, 3.0, 3.0])


def test_gaps_ring_preset_spacing():
    params = uncontrolled(n=20, length=141.0)
    state = State(q=np.arange(20) * (141.0 / 20.0), p=np.zeros(20))
    assert np.allclose(gaps(state, params), 7.05, rtol=0, atol=1e-12)


def test_gaps_sum_to_ring_length():
    rng = np.random.default_rng(3)
    for n in (2, 5, 20):
        params = uncontrolled(n=n, length=50.0)
        q = np.sort(rng.uniform(0, 50.0, n))
        state = State(q=q, p=np.zeros(n))
        assert abs(gaps(state, params).sum() - 50.0) < 1e-9


def test_gaps_dimension_mismatch():
    params = uncontrolled(n=3)
    with pytest.raises(InvalidInputError):
        gaps(State(q=[0.0, 1.0], p=[0.0, 0.0]), params)


def test_speed_gaps():
    assert np.array_equal(speed_gaps(State(q=np.zeros(3), p=[1.0, 1.0, 1.0])), [0.0, 0.0, 0.0])
    assert np.array_equal(speed_gaps(State(q=np.zeros(2), p=[0.0, 2.0])), [2.0, -2.0])
    assert np.array_equal(speed_gaps(State(q=np.zeros(3), p=[1.0, 2.0, 4.0])), [1.0, 2.0, -3.0])


def test_speed_gaps_sum_to_zero():
    rng = np.random.default_rng(4)
    p = rng.normal(size=17)
    assert abs(speed_gaps(State(q=np.zeros(17), p=p)).sum()) < 1e-12


# ---------------------------------------------------------------------------
# drift


def test_drift_zero_on_uniform_uncontrolled_state():
    params = uncontrolled(n=5, length=10.0, alpha=1.3, beta=0.7)
    state = State(q=np.arange(5) * 2.0, p=np.full(5, 3.0))
    dq, dp = drift(state, params, Quadratic(params.alpha))
    assert np.array_equal(dq, state.p)
    assert np.array_equal(dp, np.zeros(5))


def test_drift_zero_at_closed_loop_equilibrium():
    params = ModelParams(n_vehicles=20, ring_length=141.0, alpha=0.5, beta=1.0,
                         gamma=1.0, sigma=0.0, regime=ClosedLoop(ell=5.0, t_gap=1.0))
    q = np.arange(20) * (141.0 / 20.0)
    state = State(q=q, p=np.full(20, 2.05))
    _, dp = drift(state, params, Quadratic(params.alpha))
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
    """With the quadratic potential, the drift equals b_drift applied to the
    shifted state (gaps, p - shift); checked componentwise on random states."""
    rng = np.random.default_rng(hash((regime_kind, n)) % 2**32)
    for _ in range(25):
        params = _random_params(rng, n, regime_kind)
        mats = build_matrices(params)
        shift = params.regime.target_speed(0.0)
        q = np.cumsum(rng.uniform(0.5, 2.0, n))
        p = rng.normal(0, 2.0, n)
        state = State(q=q, p=p)
        z_shifted = np.concatenate([gaps(state, params), p - shift])
        rhs = mats.b_drift @ z_shifted
        dq_gap = speed_gaps(state)  # gap derivative = A p
        _, dp = drift(state, params, Quadratic(params.alpha))
        assert np.abs(rhs[:n] - dq_gap).max() <= 1e-10
        assert np.abs(rhs[n:] - dp).max() <= 1e-10


def test_drift_matches_matrix_form_small_ring_tight():
    rng = np.random.default_rng(42)
    params = uncontrolled(n=3, length=12.0, alpha=1.3, beta=0.6)
    mats = build_matrices(params)
    for _ in range(20):
        state = State(q=np.cumsum(rng.uniform(0.5, 4.0, 3)), p=rng.normal(0, 2.0, 3))
        z = np.concatenate([gaps(state, params), state.p])
        _, dp = drift(state, params, Quadratic(params.alpha))
        assert np.abs((mats.b_drift @ z)[3:] - dp).max() <= 1e-12


def test_drift_interactions_telescope():
    """Alignment and potential contributions sum to zero over the ring
    (any potential, here a non-quadratic one)."""
    rng = np.random.default_rng(9)
    params = uncontrolled(n=12, length=40.0, alpha=0.0, beta=1.4)
    potential = CustomDerivative(derivative=lambda x: np.tanh(x) + 0.3 * x)
    q = np.cumsum(rng.uniform(0.5, 4.0, 12))
    state = State(q=q, p=rng.normal(0, 3.0, 12))
    _, dp = drift(state, params, potential)
    assert abs(dp.sum()) < 1e-10


# ---------------------------------------------------------------------------
# energy


def test_hamiltonian_zero_at_minimum():
    params = uncontrolled(n=3, length=9.0, alpha=0.0)
    state = State(q=[0.0, 3.0, 6.0], p=np.zeros(3))
    assert hamiltonian(state, params, Quadratic(0.0)) == 0.0


def test_hamiltonian_hand_value():
    params = uncontrolled(n=2, length=2.0, alpha=1.0)
    state = State(q=[0.0, 1.0], p=[1.0, 1.0])
    assert hamiltonian(state, params, Quadratic(1.0)) == pytest.approx(2.0, abs=1e-14)


def test_hamiltonian_nonnegative():
    rng = np.random.default_rng(12)
    params = uncontrolled(n=7, length=20.0, alpha=0.8)
    for _ in range(50):
        state = State(q=np.cumsum(rng.uniform(0.1, 4.0, 7)), p=rng.normal(0, 5, 7))
        assert hamiltonian(state, params, Quadratic(0.8)) >= 0.0


def test_hamiltonian_custom_needs_value():
    params = uncontrolled(n=3)
    state = State(q=[0.0, 3.0, 6.0], p=np.zeros(3))
    pot = CustomDerivative(derivative=lambda x: x)
    with pytest.raises(UnsupportedOperationError):
        hamiltonian(state, params, pot)
    with_value = CustomDerivative(derivative=lambda x: x, value=lambda x: 0.5 * x**2)
    assert hamiltonian(state, params, with_value) == pytest.approx(13.5)


def test_gradient_zero_speeds_zero_stiffness():
    params = uncontrolled(n=3, length=3.0, alpha=0.0)
    state = State(q=[0.0, 1.0, 2.0], p=np.zeros(3))
    assert np.array_equal(hamiltonian_gradient(state, params, Quadratic(0.0)), np.zeros(6))


def test_gradient_componentwise_scaling():
    params = uncontrolled(n=4, length=4.0, alpha=2.0)
    state = State(q=[0.0, 1.0, 2.0, 3.0], p=np.full(4, 3.0))
    grad = hamiltonian_gradient(state, params, Quadratic(2.0))
    assert np.allclose(grad[:4], 4.0)  # alpha^2 * gap = 4 * 1
    assert np.allclose(grad[4:], 3.0)


def test_gradient_rejects_custom_potential():
    params = uncontrolled(n=3)
    state = State(q=[0.0, 3.0, 6.0], p=np.zeros(3))
    with pytest.raises(UnsupportedOperationError):
        hamiltonian_gradient(state, params, CustomDerivative(derivative=lambda x: x))


def test_gradient_against_finite_differences():
    """Central differences of the energy in (gaps, speeds) coordinates."""
    rng = np.random.default_rng(21)
    n, alpha = 6, 1.7

    def energy(gap_vec, p_vec):
        return 0.5 * float(p_vec @ p_vec) + 0.5 * float(((alpha * gap_vec) ** 2).sum())

    params = uncontrolled(n=n, length=30.0, alpha=alpha)
    for _ in range(10):
        q = np.cumsum(rng.uniform(0.5, 4.0, n))
        p = rng.normal(0, 2, n)
        state = State(q=q, p=p)
        g = gaps(state, params)
        grad = hamiltonian_gradient(state, params, Quadratic(alpha))
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
    a = ring_difference_matrix(3)
    assert np.array_equal(a, [[-1, 1, 0], [0, -1, 1], [1, 0, -1]])


def test_ata_is_the_expected_circulant():
    a = ring_difference_matrix(3)
    assert np.array_equal(a.T @ a, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


@pytest.mark.parametrize("regime", [Uncontrolled(), OpenLoop(x=1.0), ClosedLoop(ell=2.0, t_gap=0.5)])
@pytest.mark.parametrize("n", [2, 3, 7, 20])
def test_matrix_structure(n, regime):
    gamma = 0.0 if isinstance(regime, Uncontrolled) else 0.8
    params = ModelParams(n, 10.0 * n, alpha=1.1, beta=0.6, gamma=gamma, sigma=0.5, regime=regime)
    mats = build_matrices(params)
    assert np.abs(mats.j_skew + mats.j_skew.T).max() == 0.0
    assert np.array_equal(mats.r_dissip, mats.r_dissip.T)
    assert np.linalg.eigvalsh(mats.r_dissip).min() >= -1e-12
    assert mats.sigma_block.shape == (2 * n, n)
    assert np.array_equal(mats.sigma_block[n:], 0.5 * np.eye(n))
    # every N x N block of the drift matrix is circulant
    for block in (mats.b_drift[:n, :n], mats.b_drift[:n, n:], mats.b_drift[n:, :n], mats.b_drift[n:, n:]):
        for i in range(1, n):
            assert np.array_equal(block[i], np.roll(block[i - 1], 1))


def test_drift_matrix_regime_blocks():
    n = 4
    a = ring_difference_matrix(n)
    base = ModelParams(n, 8.0, 1.5, 0.5, 0.0, 0.0, Uncontrolled())
    b_unc = build_matrices(base).b_drift
    assert np.array_equal(b_unc[:n, n:], a)
    assert np.array_equal(b_unc[n:, :n], -(1.5**2) * a.T)
    assert np.array_equal(b_unc[n:, n:], -0.5 * (a.T @ a))
    ol = ModelParams(n, 8.0, 1.5, 0.5, 0.3, 0.0, OpenLoop(x=1.0))
    b_ol = build_matrices(ol).b_drift
    assert np.array_equal(b_ol[n:, n:], -0.5 * (a.T @ a) - 0.3 * np.eye(n))
    cl = ModelParams(n, 8.0, 1.5, 0.5, 0.3, 0.0, ClosedLoop(ell=1.0, t_gap=2.0))
    b_cl = build_matrices(cl).b_drift
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
    with pytest.raises(InvalidInputError):
        Quadratic(alpha=-0.5)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]
VALID_PARAMS = ModelParams(5, 10.0, 1.0, 1.0, 1.0, 1.0, OpenLoop(x=1.0))


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["ring_length", "alpha", "beta", "gamma", "sigma"])
def test_params_reject_non_finite(field, bad):
    with pytest.raises(InvalidInputError, match=field):
        replace(VALID_PARAMS, **{field: bad})


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


@pytest.mark.parametrize("bad", NON_FINITE)
def test_quadratic_rejects_non_finite_alpha(bad):
    with pytest.raises(InvalidInputError, match="alpha"):
        Quadratic(alpha=bad)


def test_state_arrays_are_read_only():
    state = State(q=[0.0, 1.0], p=[0.0, 0.0])
    with pytest.raises(ValueError):
        state.q[0] = 5.0


def test_quadratic_potential_basics():
    pot = Quadratic(alpha=3.0)
    assert pot.derivative(0.0) == 0.0
    assert pot.derivative(2.0) == 18.0  # alpha^2 * x
    assert pot.value(1.0) == pytest.approx(4.5)


# ---------------------------------------------------------------------------
# slice kernels against the np.roll reference formulas


def roll_gaps(q, ring_length):
    dq = np.roll(q, -1, axis=-1) - q
    dq[..., -1] += ring_length
    return dq


def roll_speed_gaps(p):
    return np.roll(p, -1, axis=-1) - p


def roll_acceleration(q, p, params, potential):
    gap = roll_gaps(q, params.ring_length)
    dp = np.roll(p, -1, axis=-1) - p
    force = potential.derivative(gap)
    acc = params.beta * (dp - np.roll(dp, 1, axis=-1)) + (force - np.roll(force, 1, axis=-1))
    regime = params.regime
    if isinstance(regime, OpenLoop):
        acc = acc + params.gamma * (regime.x - p)
    elif isinstance(regime, ClosedLoop):
        acc = acc + params.gamma * (regime.target_speed(gap) - p)
    return acc


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_rates = st.floats(0.0, 50.0)
_reals = st.floats(-1e6, 1e6)


@st.composite
def kernel_cases(draw):
    runs = draw(st.integers(1, 4))
    n = draw(st.integers(2, 25))
    q = draw(hnp.arrays(np.float64, (runs, n), elements=_reals))
    p = draw(hnp.arrays(np.float64, (runs, n), elements=_reals))
    kind = draw(st.sampled_from(["uncontrolled", "open_loop", "closed_loop"]))
    if kind == "uncontrolled":
        regime, gamma = Uncontrolled(), 0.0
    else:
        gamma = draw(st.floats(1e-3, 50.0))
        if kind == "open_loop":
            regime = OpenLoop(x=draw(_reals))
        else:
            regime = ClosedLoop(ell=draw(st.floats(0.0, 1e3)), t_gap=draw(st.floats(1e-3, 1e3)))
    params = ModelParams(n, draw(st.floats(1e-3, 1e6)), draw(_rates), draw(_rates), gamma, 1.0, regime)
    potential = draw(st.sampled_from([Quadratic(params.alpha), CustomDerivative(np.tanh)]))
    return q, p, params, potential


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


@settings(deadline=None, database=None)
@given(kernel_cases())
def test_slice_kernels_equal_roll_formulas_bitwise(case):
    q, p, params, potential = case
    assert same_bits(gaps_array(q, params.ring_length), roll_gaps(q, params.ring_length))
    for row in p:
        assert same_bits(speed_gaps(State(q=row, p=row)), roll_speed_gaps(row))
    assert same_bits(acceleration_array(q, p, params, potential),
                     roll_acceleration(q, p, params, potential))
    # a lone row (1-d arrays) sees the same arithmetic as inside the batch
    assert same_bits(acceleration_array(q[-1], p[-1], params, potential),
                     roll_acceleration(q, p, params, potential)[-1])
