"""Closed-form spectra vs the dense oracle, and the stability conditions."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phcf import (
    ClosedLoop,
    CustomDerivative,
    EigenSolverError,
    InvalidInputError,
    ModelParams,
    OpenLoop,
    StabilityReport,
    Uncontrolled,
    UnsupportedOperationError,
    build_matrices,
    dense_eigen_oracle,
    eigenvalues,
    match_distances,
    preset,
    spectral_abscissa_nonzero,
    stability_report,
)
from phcf.cli import main
from phcf.model import assemble_drift_matrix
from phcf.spectral import (
    DENSE_ORACLE_MAX_DIM,
    ZERO_EIGENVALUE_RTOL,
    _square,
    check_dense_size,
    drift_matrix_norm,
    near_zero_count,
    sufficient_condition,
)
from oracles import (
    complex_hurwitz_stable,
    deviation_matrix,
    mu,
    reference_drift_matrix_norm,
    reference_sufficient_condition,
    report_at,
)


def make_params(n, alpha, beta, gamma=0.0, regime=None):
    return ModelParams(n, 7.0 * n, alpha, beta, gamma, 1.0, regime or Uncontrolled())


def random_params(rng, n, kind):
    alpha = rng.uniform(0.1, 3.0)
    beta = rng.uniform(0.05, 3.0)
    gamma = rng.uniform(0.05, 3.0)
    if kind == "uncontrolled":
        return make_params(n, alpha, beta)
    if kind == "open_loop":
        return make_params(n, alpha, beta, gamma, OpenLoop(x=rng.uniform(-2, 2)))
    return make_params(n, alpha, beta, gamma,
                       ClosedLoop(ell=rng.uniform(0, 3), t_gap=rng.uniform(0.1, 3.0)))


SWEEP_NS = (2, 3, 5, 8, 20, 50)
REGIMES = ("uncontrolled", "open_loop", "closed_loop")


# ---------------------------------------------------------------------------
# mode factor


def test_mu_values():
    assert mu(0, 7) == 0.0
    assert mu(2, 4) == pytest.approx(4.0, abs=1e-15)
    assert mu(1, 4) == pytest.approx(2.0, abs=1e-15)


def test_mu_range_check():
    with pytest.raises(InvalidInputError):
        mu(7, 7)
    with pytest.raises(InvalidInputError):
        mu(-1, 7)


# ---------------------------------------------------------------------------
# closed forms per regime


def test_uncontrolled_double_zero():
    spec = eigenvalues(make_params(6, 1.0, 1.0))
    assert spec[:2].tolist() == [0.0 + 0.0j, 0.0 + 0.0j]  # mode 0, both branches
    assert len(spec) == 12


def test_uncontrolled_pure_imaginary_mode():
    # beta = 0, alpha = 1, N = 4: mode j=2 (mu=4) solves x^2 + 4 = 0
    spec = eigenvalues(make_params(4, 1.0, 0.0))
    roots = sorted(spec[4:6].tolist(), key=lambda z: z.imag)
    assert roots[0] == pytest.approx(-2j, abs=1e-12)
    assert roots[1] == pytest.approx(2j, abs=1e-12)


def test_uncontrolled_nonzero_modes_damped():
    spec = eigenvalues(make_params(9, 1.2, 0.8))
    assert (spec[2:].real <= 1e-14).all()  # every mode j != 0


def test_open_loop_mode_zero():
    params = make_params(5, 1.0, 1.0, 0.7, OpenLoop(x=2.0))
    spec = eigenvalues(params)
    assert spec[0] == 0.0 + 0.0j
    assert spec[1] == pytest.approx(-0.7, abs=1e-15)


def test_open_loop_unconditionally_stable():
    params = make_params(20, 0.5, 1.0, 0.1, OpenLoop(x=2.05))
    spec = eigenvalues(params)
    scale = np.linalg.norm(build_matrices(params))
    assert near_zero_count(spec, scale) == 1
    nonzero = spec[np.abs(spec) >= ZERO_EIGENVALUE_RTOL * scale]
    assert (nonzero.real < 0).all()


def test_closed_loop_mode_zero():
    params = make_params(5, 1.0, 1.0, 0.9, ClosedLoop(ell=2.0, t_gap=1.5))
    spec = eigenvalues(params)
    assert spec[0] == 0.0 + 0.0j
    assert spec[1] == pytest.approx(-0.9, abs=1e-15)


def test_closed_loop_large_t_gap_approaches_open_loop():
    closed = make_params(12, 0.5, 1.0, 1.0, ClosedLoop(ell=5.0, t_gap=1e9))
    open_ = make_params(12, 0.5, 1.0, 1.0, OpenLoop(x=0.0))
    d = match_distances(eigenvalues(closed), eigenvalues(open_))
    assert d.max() <= 1e-6


def test_closed_loop_fig3_parameters_unstable():
    params = make_params(20, 0.5, 1.0, 1.0, ClosedLoop(ell=5.0, t_gap=1.0))
    spec = eigenvalues(params)
    scale = np.linalg.norm(build_matrices(params))
    assert spectral_abscissa_nonzero(spec, scale) > 0


def test_regime_mismatch_rejected():
    unc = make_params(5, 1.0, 1.0)
    ol = make_params(5, 1.0, 1.0, 0.5, OpenLoop(x=1.0))
    with pytest.raises(InvalidInputError):
        stability_report(ol)
    with pytest.raises(InvalidInputError):
        stability_report(unc)


@pytest.mark.parametrize("operation", [eigenvalues, stability_report, build_matrices])
def test_linear_structure_rejects_custom_potential(operation):
    """The spectra and the drift matrix exist for the quadratic potential
    only; params carrying a CustomDerivative are refused, not given the
    quadratic answer of their alpha."""
    params = replace(make_params(5, 1.0, 1.0, 1.0, ClosedLoop(ell=1.0, t_gap=1.0)),
                     potential=CustomDerivative(np.tanh))
    with pytest.raises(UnsupportedOperationError, match="quadratic"):
        operation(params)


def test_eigenvalues_dispatch():
    for kind in REGIMES:
        params = random_params(np.random.default_rng(1), 6, kind)
        assert len(eigenvalues(params)) == 12
    # Without control the damping is the literal 0.0, not a signed-zero
    # gamma: with beta = -0.0 the mode-0 root -lin keeps the sign of 0.0.
    signed = ModelParams(4, 4.0, 1.0, -0.0, -0.0, 0.0, Uncontrolled())
    got = eigenvalues(signed)
    assert bits(got) == bits(loop_mode_spectrum(4, 1.0, -0.0, 0.0))
    assert np.signbit(got[1].real)


# ---------------------------------------------------------------------------
# dense oracle


def test_oracle_identity_matrix():
    assert np.allclose(np.sort(dense_eigen_oracle(np.eye(4)).real), 1.0)


def test_oracle_companion_matrix():
    # companion of x^2 + 1
    vals = dense_eigen_oracle([[0.0, -1.0], [1.0, 0.0]])
    assert match_distances(vals, [1j, -1j]).max() <= 1e-12


def test_oracle_rejects_nonsquare():
    with pytest.raises(InvalidInputError):
        dense_eigen_oracle(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_oracle_refuses_non_finite_matrix(bad):
    b = np.eye(4)
    b[2, 1] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        dense_eigen_oracle(b)


def test_oracle_reports_solver_failure(monkeypatch):
    def fail(b):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(EigenSolverError, match="did not converge"):
        dense_eigen_oracle(np.eye(4))


def test_oracle_refuses_oversized_inputs():
    check_dense_size(DENSE_ORACLE_MAX_DIM)
    big = DENSE_ORACLE_MAX_DIM + 1
    with pytest.raises(InvalidInputError, match="dense oracle"):
        dense_eigen_oracle(np.broadcast_to(0.0, (big, big)))  # a view: no memory behind it
    with pytest.raises(InvalidInputError, match="dense oracle"):
        match_distances(np.zeros(big, dtype=complex), np.zeros(big, dtype=complex))


def test_oracle_matches_small_closed_form():
    params = make_params(3, 1.0, 1.0)
    closed = eigenvalues(params)
    dense = dense_eigen_oracle(build_matrices(params))
    assert match_distances(closed, dense).max() <= 1e-10


def test_oracle_eigenpair_residuals():
    """LAPACK pairs satisfy ||B v - lambda v|| / ||v|| <= 1e-8."""
    params = random_params(np.random.default_rng(5), 20, "closed_loop")
    b = build_matrices(params)
    vals, vecs = np.linalg.eig(b)
    for i in range(len(vals)):
        v = vecs[:, i]
        assert np.linalg.norm(b @ v - vals[i] * v) / np.linalg.norm(v) <= 1e-8


@pytest.mark.parametrize("kind", REGIMES)
def test_closed_form_equals_oracle_across_sweep(kind):
    rng = np.random.default_rng(77)
    for n in SWEEP_NS:
        for _ in range(20):
            params = random_params(rng, n, kind)
            closed = eigenvalues(params)
            dense = dense_eigen_oracle(build_matrices(params))
            assert match_distances(closed, dense).max() <= 1e-8


@pytest.mark.parametrize("kind", REGIMES)
def test_structural_zero_counts(kind):
    expected = 2 if kind == "uncontrolled" else 1
    rng = np.random.default_rng(78)
    for n in SWEEP_NS:
        for _ in range(5):
            params = random_params(rng, n, kind)
            scale = np.linalg.norm(build_matrices(params))
            spec = eigenvalues(params)
            assert near_zero_count(spec, scale) == expected
            dense = dense_eigen_oracle(build_matrices(params))
            assert near_zero_count(dense, scale) == expected


@pytest.mark.parametrize("kind", REGIMES)
def test_spectrum_closed_under_conjugation(kind):
    rng = np.random.default_rng(79)
    for n in (2, 5, 8, 21):
        params = random_params(rng, n, kind)
        vals = eigenvalues(params)
        assert match_distances(vals, np.conj(vals)).max() <= 1e-10


def test_mode_labels_cover_all_pairs():
    """Entry 2j + k is mode j, branch k: entries 2j and 2j + 1 are the
    roots of mode j's quadratic, the +sqrt root first."""
    spec = eigenvalues(make_params(5, 1.0, 1.0))
    assert len(spec) == 10
    for j in range(5):
        lin, const = mu(j, 5), mu(j, 5)  # beta*mu_j + 0 and alpha^2*mu_j
        root = np.sqrt(complex(lin * lin - 4.0 * const))
        assert spec[2 * j] == pytest.approx((-lin + root) / 2.0, abs=1e-14)
        assert spec[2 * j + 1] == pytest.approx((-lin - root) / 2.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Hurwitz test for complex-coefficient quadratics


def test_hurwitz_known_cases():
    assert complex_hurwitz_stable(1.0, 0.0, 1.0, 0.0)  # x^2 + x + 1
    assert not complex_hurwitz_stable(0.0, 0.0, 1.0, 0.0)
    assert not complex_hurwitz_stable(-1.0, 0.0, 1.0, 0.0)


def test_hurwitz_agrees_with_root_computation():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        kappa, eta, nu, rho = rng.uniform(-2, 2, 4)
        roots = np.roots([1.0, complex(kappa, eta), complex(nu, rho)])
        truth = bool((roots.real < 0).all())
        assert complex_hurwitz_stable(kappa, eta, nu, rho) == truth


# ---------------------------------------------------------------------------
# stability conditions


def test_exact_stability_fig3_parameters():
    params = make_params(20, 0.5, 1.0, 1.0, ClosedLoop(ell=5.0, t_gap=1.0))
    report = stability_report(params)
    assert not report.exact_stable
    assert report.sufficient_lhs == 1.5
    assert not report.sufficient_stable
    assert report.spectral_abscissa_nonzero > 0
    for per_mode in (report.kappa, report.nu, report.rho, report.hurwitz_det, report.mode_stable):
        assert per_mode.shape == (19,)
    assert (np.flatnonzero(~report.mode_stable) + 1).tolist() == [1, 19]
    assert np.array_equal(report.mode_stable, (report.kappa > 0) & (report.hurwitz_det > 0))


def test_stability_gamma_zero_never_stable():
    report = report_at(10, 2.0, 1.0, 0.0, 1.0)
    assert not report.exact_stable
    assert not report.sufficient_stable


def test_exact_stability_stiff_potential_stable():
    params = make_params(20, 2.0, 1.0, 1.0, ClosedLoop(ell=5.0, t_gap=1.0))
    report = stability_report(params)
    assert report.exact_stable
    assert report.sufficient_stable  # lhs = 1 + 8 = 9 > 2
    # dense-oracle abscissa agrees in sign
    dense = dense_eigen_oracle(build_matrices(params))
    scale = np.linalg.norm(build_matrices(params))
    assert spectral_abscissa_nonzero(dense, scale) < 0


def test_sufficient_condition_values():
    lhs, stable = sufficient_condition(alpha=0.5, gamma=1.0, t_gap=1.0)
    assert lhs == 1.5 and not stable
    lhs, stable = sufficient_condition(alpha=1.0, gamma=1.0, t_gap=1.0)
    assert lhs == 3.0 and stable
    params = make_params(20, 0.5, 1.0, 1.0, ClosedLoop(ell=5.0, t_gap=1.0))
    report = stability_report(params)
    assert (report.sufficient_lhs, report.sufficient_stable) == (1.5, False)


def test_sufficient_implies_exact_on_coarse_sweep():
    values = (0.25, 0.75, 1.5, 2.5)
    for n in (3, 8, 20, 40):
        for alpha in values:
            for gamma in values:
                for t_gap in values:
                    for beta in (0.0, 1.0, 2.5):
                        report = report_at(n, alpha, beta, gamma, t_gap)
                        if report.sufficient_stable:
                            assert report.exact_stable


def test_exact_matches_abscissa_sign_on_grid(stability_grid):
    alphas, gammas, exact, _, abscissa = stability_grid
    marginal = np.abs(abscissa) < 1e-10
    agree = exact == (abscissa < 0)
    assert agree[~marginal].all()


def test_stabilization_monotone_in_alpha(stability_grid):
    """Once exactly stable, increasing alpha keeps it stable, at grid
    resolution 0.05."""
    _, _, exact, _, _ = stability_grid
    along_alpha = exact[:-1, :] & ~exact[1:, :]
    assert not along_alpha.any()


@pytest.mark.xfail(
    strict=True,
    reason="monotone stabilization in gamma is falsified by the model itself: "
    "at alpha=0.3, beta=1, t_gap=1, N=20 the point gamma=0.05 is exactly stable "
    "but gamma=0.10 is not; the dense oracle agrees (see the counterexample test)",
)
def test_stabilization_monotone_in_gamma(stability_grid):
    _, _, exact, _, _ = stability_grid
    along_gamma = exact[:, :-1] & ~exact[:, 1:]
    assert not along_gamma.any()


def test_gamma_destabilization_counterexample():
    """A weak potential that is stable under weak control loses stability
    under moderate control: the (gamma/t_gap)^2 term in the per-mode
    condition grows faster than the stabilizing terms near c_j = 1.
    The dense oracle confirms the abscissa sign flip, so this is a
    property of the model, not of the closed form."""
    assert report_at(20, 0.3, 1.0, 0.05, 1.0).exact_stable
    assert not report_at(20, 0.3, 1.0, 0.10, 1.0).exact_stable
    for gamma, stable in ((0.05, True), (0.10, False)):
        b = assemble_drift_matrix(20, 0.3, 1.0, gamma, t_gap=1.0)
        abscissa = spectral_abscissa_nonzero(dense_eigen_oracle(b), np.linalg.norm(b))
        assert (abscissa < 0) == stable


def test_report_marginal_deadband():
    report = report_at(8, 1.5, 1.0, 1.0, 1.0)
    assert not report.marginal  # clearly stable point
    assert report.exact_stable == (report.spectral_abscissa_nonzero < 0)


# ---------------------------------------------------------------------------
# dense-free, vectorized layer vs the one-mode-at-a-time formulas


def loop_mode_spectrum(n, alpha, beta, gamma, t_gap=None):
    """Reference: the per-mode Python loop the vectorized spectrum replaced;
    entry 2j + k is mode j, branch k."""
    omega = np.exp(2j * np.pi / n)
    roots = []
    for j in range(n):
        m = mu(j, n)
        lin = beta * m + gamma
        const = alpha**2 * m
        if t_gap is not None:
            const = const + (gamma / t_gap) * (1.0 - omega**j)
        if const == 0:
            r0, r1 = 0.0 + 0.0j, complex(-lin)
        else:
            root = np.sqrt(complex(lin * lin - 4.0 * const))
            r0, r1 = (-lin + root) / 2.0, (-lin - root) / 2.0
        roots += [r0, r1]
    return roots


def loop_stability_report(n, alpha, beta, gamma, t_gap):
    """Reference: the per-mode Hurwitz loop, with the dense matrix norm as
    the zero-detection scale."""
    rows = []
    for j in range(1, n):
        ang = 2.0 * math.pi * j / n
        cj = math.cos(ang)
        sj = math.sin(ang)
        kappa = 2.0 * beta * (1.0 - cj) + gamma
        eta = 0.0
        nu = (1.0 - cj) * (gamma / t_gap + 2.0 * alpha**2)
        rho = -(gamma / t_gap) * sj
        det = kappa * (nu * kappa + rho * eta) - rho**2
        rows.append((kappa, nu, rho, det, complex_hurwitz_stable(kappa, eta, nu, rho)))
    kappa, nu, rho, det, stable = (np.array(col) for col in zip(*rows))
    b = assemble_drift_matrix(n, alpha, beta, gamma, t_gap=t_gap)
    values = loop_mode_spectrum(n, alpha, beta, gamma, t_gap)
    abscissa = spectral_abscissa_nonzero(values, np.linalg.norm(b))
    return kappa, nu, rho, det, stable, bool(gamma > 0 and stable.all()), abscissa


def bits(values):
    return np.asarray(values).tobytes()


RATES = st.floats(0.0, 3.0)
POSITIVE_RATES = st.floats(0.05, 3.0)
T_GAPS = st.floats(0.1, 5.0)


@st.composite
def regime_scalars(draw, max_n=40):
    """(n, alpha, beta, gamma, t_gap) of one regime; gamma = 0 and
    t_gap = None without control, t_gap = None for open loop."""
    n = draw(st.integers(2, max_n))
    alpha, beta = draw(RATES), draw(RATES)
    kind = draw(st.sampled_from(REGIMES))
    if kind == "uncontrolled":
        return n, alpha, beta, 0.0, None
    gamma = draw(POSITIVE_RATES)
    return n, alpha, beta, gamma, draw(T_GAPS) if kind == "closed_loop" else None


@settings(max_examples=200, deadline=None)
@given(regime_scalars())
@example((2, 1.0, 1.0, 0.0, None))
@example((2, 0.5, 2.0, 1.0, 1.0))
def test_closed_form_norm_equals_dense_norm(case):
    n, alpha, beta, gamma, t_gap = case
    b = assemble_drift_matrix(n, alpha, beta, gamma, t_gap=t_gap)
    dense = np.linalg.norm(b)
    assert drift_matrix_norm(n, alpha, beta, gamma, t_gap) == pytest.approx(dense, rel=1e-13, abs=0)


def python_square(x):
    """Python's x ** 2, or the OverflowError it raises."""
    try:
        return x**2
    except OverflowError as exc:
        return exc


def same_float(a, b):
    """The same float bits, any nan taken as nan."""
    return (math.isnan(a) and math.isnan(b)) or bits(a) == bits(b)


# The largest double whose square is finite, and the next one up.
SQUARE_EDGE = (1.3407807929942596e154, 1.3407807929942597e154)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=8))
@example([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-160])
@example([*SQUARE_EDGE, -SQUARE_EDGE[1], 1e200])
@example([2.6967998943009652])  # pow(x, 2) here is not x*x rounded
def test_square_is_pythons_float_power(xs):
    """_square is Python's x ** 2 per element: the same bits (any nan as
    nan), and OverflowError, with Python's message, exactly where Python
    raises it; an array gives the elements' results."""
    expected = [python_square(x) for x in xs]
    for x, want in zip(xs, expected):
        if isinstance(want, OverflowError):
            with pytest.raises(OverflowError) as info:
                _square(x)
            assert str(info.value) == str(want)
        else:
            assert same_float(_square(x), want), x
    if any(isinstance(want, OverflowError) for want in expected):
        with pytest.raises(OverflowError):
            _square(np.array(xs))
    else:
        got = _square(np.array(xs))
        assert got.shape == (len(xs),)
        assert all(same_float(g, want) for g, want in zip(got.tolist(), expected))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), st.lists(st.tuples(st.floats(), st.floats(), st.floats(),
                                              st.floats(min_value=5e-324)), min_size=1, max_size=6),
       st.booleans())
@example(2, [(1.0, 1.0, 0.0, 1.0)], False)
@example(2, [(0.5, 2.0, 1.0, 1.0), (1.0, 0.0, 0.0, 2.0)], True)
@example(20, [(0.5, 1.0, 1.0, 1.0), (1e100, 1.0, 1.0, 1.0)], True)  # (alpha**2)**2 overflows
def test_drift_matrix_norm_broadcasts_the_scalar_reference(n, cells, feedback):
    """On arrays the norm equals the Python-float reference cell by cell
    (any nan as nan), and raises OverflowError iff some cell does; with
    gamma = 0, at n = 2, and without feedback (t_gap=None) too."""
    alpha, beta, gamma, t_gap = (np.array(column) for column in zip(*cells))
    t_gap = t_gap if feedback else None
    expected = []
    for a, b, g, t in cells:
        try:
            expected.append(reference_drift_matrix_norm(n, a, b, g, t if feedback else None))
        except OverflowError:
            with pytest.raises(OverflowError):
                drift_matrix_norm(n, alpha, beta, gamma, t_gap)
            return
    got = drift_matrix_norm(n, alpha, beta, gamma, t_gap)
    assert got.shape == (len(cells),)
    assert all(same_float(g, want) for g, want in zip(got.tolist(), expected))
    one = drift_matrix_norm(n, *cells[0][:3], cells[0][3] if feedback else None)
    assert type(one) is float and same_float(one, expected[0])


@settings(max_examples=200, deadline=None)
@given(regime_scalars())
@example((2, 0.0, 1.0, 0.0, None))
@example((20, 0.5, 1.0, 1.0, 1.0))
def test_mode_spectrum_equals_loop_bitwise(case):
    n, alpha, beta, gamma, t_gap = case
    if gamma == 0:
        regime = Uncontrolled()
    else:
        regime = OpenLoop(x=1.0) if t_gap is None else ClosedLoop(ell=1.0, t_gap=t_gap)
    expected = loop_mode_spectrum(n, alpha, beta, gamma, t_gap)
    assert bits(eigenvalues(make_params(n, alpha, beta, gamma, regime))) == bits(expected)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), RATES, RATES, st.one_of(st.just(0.0), RATES), T_GAPS)
@example(20, 0.5, 1.0, 1.0, 1.0)
@example(20, 0.3, 1.0, 0.10, 1.0)
@example(2, 0.0, 0.0, 0.0, 1.0)  # every eigenvalue a structural zero
@example(12, 0.5, 1.0, 0.75, 1.0)  # a mode where rho**2 != rho*rho
@example(20, 2.6967998943009652, 1.0, 1.0, 1.0)  # alpha**2 != alpha*alpha
def test_stability_report_equals_loop_bitwise(n, alpha, beta, gamma, t_gap):
    try:
        expected = loop_stability_report(n, alpha, beta, gamma, t_gap)
    except InvalidInputError:
        with pytest.raises(InvalidInputError):
            report_at(n, alpha, beta, gamma, t_gap)
        return
    kappa, nu, rho, det, stable, exact, abscissa = expected
    report = report_at(n, alpha, beta, gamma, t_gap)
    assert bits(report.kappa) == bits(kappa)
    assert bits(report.nu) == bits(nu)
    assert bits(report.rho) == bits(rho)
    assert bits(report.hurwitz_det) == bits(det)
    assert np.array_equal(report.mode_stable, stable)
    assert report.exact_stable == exact
    assert report.spectral_abscissa_nonzero == abscissa


def assert_reports_equal_bitwise(report, other):
    for field in fields(StabilityReport):
        value, expected = getattr(report, field.name), getattr(other, field.name)
        assert type(value) is type(expected) and bits(value) == bits(expected), field.name


@st.composite
def closed_loop_params(draw):
    regime = ClosedLoop(ell=draw(st.floats(0.0, 3.0)), t_gap=draw(T_GAPS))
    return make_params(draw(st.integers(2, 40)), draw(RATES), draw(RATES), draw(POSITIVE_RATES), regime)


@settings(max_examples=200, deadline=None)
@given(closed_loop_params(), st.sampled_from(("alpha", "beta", "gamma", "t_gap")), POSITIVE_RATES)
@example(make_params(20, 0.5, 1.0, 1.0, ClosedLoop(ell=5.0, t_gap=1.0)), "gamma", 0.1)
def test_stability_report_reads_params_and_keyword_overrides(params, name, value):
    """Without keywords the report is that of the params' own four values;
    one keyword v > 0 gives the report of params with that value set to
    v.  A default read from the wrong field fails here."""
    own = dict(alpha=params.alpha, beta=params.beta, gamma=params.gamma, t_gap=params.regime.t_gap)
    assert_reports_equal_bitwise(stability_report(params), stability_report(params, **own))
    if name == "t_gap":
        edited = replace(params, regime=replace(params.regime, t_gap=value))
    else:
        edited = replace(params, **{name: value})
    assert_reports_equal_bitwise(stability_report(params, **{name: value}), stability_report(edited))


def test_stability_report_takes_overrides_by_keyword_only():
    with pytest.raises(TypeError):
        stability_report(preset("fig3").params, 0.5)
    with pytest.raises(TypeError):
        stability_report(20, 0.5, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("name, kind", [("fig1", "Uncontrolled"), ("fig2", "OpenLoop")])
def test_stability_report_refuses_regimes_without_gap_feedback(name, kind):
    """A t_gap keyword does not turn gap feedback on."""
    message = rf"^stability needs gap feedback \(kind = closed_loop\), got {kind}$"
    for cells in ({}, {"t_gap": 1.0}):
        with pytest.raises(InvalidInputError, match=message):
            stability_report(preset(name).params, **cells)


def test_stability_map_without_gap_feedback_exits_2(tmp_path, capsys):
    """stability_report's refusal is the map's only regime check: one
    error line, exit 2, and no output directory."""
    path = tmp_path / "s.ini"
    assert main(["preset", "fig1", "--out", str(path)]) == 0
    argv = ["stability-map", "--scenario", str(path), "--out", str(tmp_path / "o"),
            "--vary", "alpha=0.5:1:2", "--vary", "gamma=1:2:2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: stability needs gap feedback (kind = closed_loop), got Uncontrolled\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n", [2, 3, 7, 20, 99, 100, 101, 257, 2000])
def test_omega_power_array_equals_scalar_powers(n):
    """The spectrum raises omega to all mode indices in one array power;
    it must equal the scalar omega**j of the per-mode formula."""
    omega = np.exp(2j * np.pi / n)
    assert bits(omega ** np.arange(n)) == bits([omega**j for j in range(n)])


SWEEP_STRATEGIES = (RATES, RATES, st.one_of(st.just(0.0), RATES), T_GAPS)


@st.composite
def report_grids(draw):
    """(n, [alpha, beta, gamma, t_gap]) with two of the four parameters
    swept as the rows and columns of a grid and the other two scalars;
    gamma may be 0."""
    n = draw(st.integers(2, 30))
    params = [draw(strategy) for strategy in SWEEP_STRATEGIES]
    rows, cols = draw(st.permutations(range(4)))[:2]
    for axis, shape in ((rows, (-1, 1)), (cols, (1, -1))):
        values = draw(st.lists(SWEEP_STRATEGIES[axis], min_size=1, max_size=6))
        params[axis] = np.array(values).reshape(shape)
    return n, params


def assert_report_cells_equal_scalar_reports(n, params):
    """The broadcast report equals one scalar report per cell bit for bit,
    its sufficient condition equals the Python-float reference, and it
    raises iff some cell does: OverflowError if some cell does (every
    square comes before the abscissa is checked), else InvalidInputError."""
    shape = np.broadcast_shapes(*(np.shape(p) for p in params))
    cells, errors = {}, set()
    for idx in np.ndindex(shape):
        cell = [float(np.broadcast_to(p, shape)[idx]) for p in params]
        try:
            cells[idx] = cell, report_at(n, *cell)
        except (InvalidInputError, OverflowError) as exc:
            errors.add(type(exc))
    if errors:
        with pytest.raises((InvalidInputError, OverflowError)) as info:
            report_at(n, *params)
        assert info.type is (OverflowError if OverflowError in errors else InvalidInputError)
        return
    grid = report_at(n, *params)
    assert grid.kappa.shape == shape + (n - 1,)
    assert np.shape(grid.exact_stable) == shape
    for idx, (cell, one) in cells.items():
        alpha, _, gamma, t_gap = cell
        lhs, ok = reference_sufficient_condition(alpha, gamma, t_gap)
        assert bits(grid.sufficient_lhs[idx]) == bits(lhs) and grid.sufficient_stable[idx] == ok
        assert bits(one.sufficient_lhs) == bits(lhs) and one.sufficient_stable is ok
        for field in ("kappa", "nu", "rho", "hurwitz_det", "mode_stable"):
            assert bits(getattr(grid, field)[idx]) == bits(getattr(one, field)), (idx, field)
        assert type(one.exact_stable) is bool and type(one.sufficient_stable) is bool
        assert type(one.sufficient_lhs) is float and type(one.spectral_abscissa_nonzero) is float
        assert grid.exact_stable[idx] == one.exact_stable
        assert grid.sufficient_stable[idx] == one.sufficient_stable
        assert bits(grid.sufficient_lhs[idx]) == bits(one.sufficient_lhs)
        assert bits(grid.spectral_abscissa_nonzero[idx]) == bits(one.spectral_abscissa_nonzero)
        assert grid.marginal[idx] == one.marginal


@settings(max_examples=150, deadline=None)
@given(report_grids())
@example((20, [np.array([[0.5], [1e200]]), 1.0, np.array([[0.1, 1.0]]), 1.0]))  # alpha**2
@example((20, [0.5, 1.0, np.array([[1.0, 1e160]]), np.array([[1.0], [2.0]])]))  # (gamma/T)**2, rho**2
@example((20, [np.array([[0.5], [1e100]]), 1.0, np.array([[0.1, 1.0]]), 1.0]))  # the norm's (alpha**2)**2
@example((2, [np.array([[0.0], [1e200]]), 0.0, 0.0, 1.0]))  # a zero-only cell and an overflow
def test_broadcast_stability_report_equals_cell_reports_bitwise(case):
    assert_report_cells_equal_scalar_reports(*case)


@st.composite
def mixed_report_grids(draw):
    """(n, [alpha, beta, gamma, t_gap]) on a 2-D or 3-D grid that is not
    separable: one parameter varies over two axes at once, a second over
    one axis of its own (in 3-D the axis the first leaves), and the other
    two over one axis or none.  An array may drop leading length-1 axes
    down to one, so the parameters differ in ndim as well."""
    n = draw(st.integers(2, 30))
    ndim = draw(st.integers(2, 3))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(ndim))
    order = draw(st.permutations(range(4)))
    pair = draw(st.permutations(range(ndim)))[:2]
    single = [k for k in range(ndim) if k not in pair] or list(pair)
    axes = {order[0]: pair, order[1]: [draw(st.sampled_from(single))]}
    for p in order[2:]:
        axes[p] = draw(st.sampled_from([[]] + [[k] for k in range(ndim)]))
    params = []
    for p, strategy in enumerate(SWEEP_STRATEGIES):
        var_shape = tuple(size if k in axes[p] else 1 for k, size in enumerate(shape))
        count = math.prod(var_shape)
        values = np.array(draw(st.lists(strategy, min_size=count, max_size=count))).reshape(var_shape)
        if draw(st.booleans()):
            while values.ndim > 1 and values.shape[0] == 1:
                values = values[0]
        params.append(values)
    return n, params


@settings(max_examples=150, deadline=None)
@given(mixed_report_grids())
@example((20, [np.array([[0.5, 1e200], [1.0, 2.0]]), 1.0, np.array([0.1, 1.0]), 1.0]))  # alpha**2
@example((2, [np.array([[0.0, 1.0], [2.0, 0.0]]), 0.0, 0.0, np.array([[[0.5]], [[1.0]]])]))  # zero-only cells
def test_mixed_grid_stability_report_equals_cell_reports_bitwise(case):
    """Grids whose parameters share axes (a full 2-D parameter beside a
    row or column sweep, a 3-D grid of both kinds of axes) equal one
    scalar report per cell, as separable grids do."""
    assert_report_cells_equal_scalar_reports(*case)


@pytest.mark.parametrize("gamma", [np.array([[1e160]]), np.array([[1.0, 1e160]])])
def test_empty_grid_stability_report_is_empty(gamma):
    """An empty grid has no cell whose square could overflow: gamma = 1e160
    overflows (2*beta + gamma)**2 in any cell, but a grid with no alpha
    value gives an empty report and raises nothing."""
    report = report_at(20, np.empty((0, 1)), 1.0, gamma, 1.0)
    shape = (0, gamma.shape[1])
    for field in ("kappa", "nu", "rho", "hurwitz_det", "mode_stable"):
        assert getattr(report, field).shape == shape + (19,)
    for field in ("exact_stable", "sufficient_lhs", "sufficient_stable", "spectral_abscissa_nonzero"):
        assert getattr(report, field).shape == shape
    with pytest.raises(OverflowError):
        report_at(20, np.ones((1, 1)), 1.0, gamma, 1.0)


@pytest.mark.parametrize(
    "n,params",
    [
        # fig3 rows of the (alpha, gamma) map, gamma = 0 included
        (20, [np.array([[0.05], [0.5], [2.0]]), 1.0, np.array([[0.0, 0.1, 1.0, 3.0]]), 1.0]),
        # cells with beta = gamma = 0: undamped modes, a marginal abscissa of signed zeros
        (20, [np.array([[0.5], [1.0]]), 0.0, np.array([[0.0, 0.5]]), 1.0]),
        (7, [0.3, np.array([[0.0], [1.0]]), 0.0, np.array([[0.5, 2.0]])]),
        # a mode where rho**2 != rho*rho
        (12, [0.5, 1.0, np.array([[0.75]]), np.array([[1.0, 2.0]])]),
        # a 1-d sweep, and a 3-d grid
        (5, [np.linspace(0.0, 3.0, 7), 1.0, 1.0, 1.0]),
        (9, [np.array([0.2, 1.5])[:, None, None], np.array([0.0, 1.0])[:, None],
             np.array([0.0, 0.5, 2.0]), 0.7]),
    ],
)
def test_broadcast_stability_report_equals_cell_reports_examples(n, params):
    assert_report_cells_equal_scalar_reports(n, params)


# Kept eigenvalues with real part +0.0 and -0.0, and a structural zero.
POS, NEG, ZERO = complex(0.0, 1.0), complex(-0.0, 1.0), 0j
SIGNED_ZERO_ROW = [-1, ZERO, -1, -1, -1, NEG, -1, ZERO, POS, ZERO, NEG, NEG]


@settings(max_examples=200, deadline=None)
@given(st.integers(9, 40).flatmap(lambda m: st.lists(
    st.lists(st.sampled_from([POS, NEG, -1.0, ZERO]), min_size=m, max_size=m),
    min_size=1, max_size=4)))
@example([SIGNED_ZERO_ROW])  # the masked max alone would return -0.0 here
@example([SIGNED_ZERO_ROW[::-1], SIGNED_ZERO_ROW])
def test_abscissa_batch_equals_compacted_max_bitwise(rows):
    """Per cell, the masked max returns the very float (signed zeros
    included) that the max over the kept values alone returns."""
    values = np.array(rows)
    keep = np.abs(values) >= ZERO_EIGENVALUE_RTOL
    if not keep.any(axis=-1).all():
        with pytest.raises(InvalidInputError):
            spectral_abscissa_nonzero(values, np.ones(len(rows)))
        return
    batch = spectral_abscissa_nonzero(values, np.ones(len(rows)))
    for row, k, got in zip(values, keep, batch):
        assert bits(got) == bits(row.real[k].max())
        assert bits(got) == bits(spectral_abscissa_nonzero(row, 1.0))


def test_broadcast_stability_report_marginal_cells():
    report = report_at(20, np.array([0.5, 1.0]), 0.0, 0.0, 1.0)
    assert report.marginal.all() and not report.exact_stable.any()


def test_broadcast_stability_report_rejects_all_zero_cell():
    """n = 2 with alpha = beta = gamma = 0 has only structural zeros; one
    such cell fails the whole grid, as its scalar call does."""
    with pytest.raises(InvalidInputError):
        report_at(2, 0.0, 0.0, 0.0, 1.0)
    assert report_at(2, 1.0, 0.0, 0.0, 1.0).marginal
    with pytest.raises(InvalidInputError):
        report_at(2, np.array([1.0, 0.0]), 0.0, 0.0, 1.0)


@pytest.mark.parametrize("gamma", [0.0, 1.0, np.array([0.0, 1.0])])
def test_stability_report_refuses_zero_t_gap(gamma):
    """t_gap = 0 (outside ClosedLoop's domain) makes gamma/t_gap and the
    scale non-finite: InvalidInputError, without a numpy warning."""
    with pytest.raises(InvalidInputError):
        report_at(20, 0.5, 1.0, gamma, 0.0)


def test_spectrum_values_array_and_entries_view():
    """A spectrum is one read-only complex array; entry 2j + k is the
    per-mode loop's (mode j, branch k) root."""
    spec = eigenvalues(make_params(5, 0.5, 1.0, 1.0, ClosedLoop(ell=1.0, t_gap=2.0)))
    assert spec.dtype == complex and spec.shape == (10,)
    assert not spec.flags.writeable
    assert bits(spec) == bits(loop_mode_spectrum(5, 0.5, 1.0, 1.0, t_gap=2.0))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 200), POSITIVE_RATES, RATES, POSITIVE_RATES, T_GAPS)
def test_sufficient_region_inside_exact_region(n, alpha, beta, gamma, t_gap):
    report = report_at(n, alpha, beta, gamma, t_gap)
    assert report.exact_stable or not report.sufficient_stable


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 200), POSITIVE_RATES, POSITIVE_RATES, POSITIVE_RATES, T_GAPS,
       st.sampled_from(REGIMES))
def test_structural_zero_counts_with_closed_form_scale(n, alpha, beta, gamma, t_gap, kind):
    if kind == "uncontrolled":
        params = make_params(n, alpha, beta)
    elif kind == "open_loop":
        params = make_params(n, alpha, beta, gamma, OpenLoop(x=1.0))
    else:
        params = make_params(n, alpha, beta, gamma, ClosedLoop(ell=1.0, t_gap=t_gap))
    scale = drift_matrix_norm(n, alpha, beta, params.gamma,
                              t_gap if kind == "closed_loop" else None)
    assert near_zero_count(eigenvalues(params), scale) == (2 if kind == "uncontrolled" else 1)


def test_spectral_layer_builds_no_dense_matrix(monkeypatch):
    import phcf.cli as cli_mod
    import phcf.model as model_mod
    import phcf.spectral as spectral_mod
    from phcf import preset

    def no_dense(*args, **kwargs):
        raise AssertionError("a dense matrix was built")

    for module, name in ((model_mod, "assemble_drift_matrix"), (spectral_mod, "assemble_drift_matrix"),
                         (model_mod, "build_matrices"), (cli_mod, "build_matrices")):
        monkeypatch.setattr(module, name, no_dense)
    n = 10**5
    report = report_at(n, 0.5, 1.0, 1.0, 1.0)
    assert report.mode_stable.shape == (n - 1,)
    assert not report.exact_stable and report.spectral_abscissa_nonzero > 0
    for name in ("fig1", "fig2", "fig3"):
        scenario = preset(name)
        big = replace(scenario, params=replace(scenario.params, n_vehicles=n, ring_length=7.05 * n))
        info = cli_mod._stability_info(big)
        assert math.isfinite(info["spectral_abscissa"])


# ---------------------------------------------------------------------------
# deviation projector (the test oracle for stats.deviation_process)


def test_deviation_matrix_n2():
    assert np.array_equal(deviation_matrix(2), [[0.5, -0.5], [-0.5, 0.5]])


def test_deviation_matrix_properties():
    m = deviation_matrix(7)
    assert np.abs(m @ np.full(7, 3.3)).max() <= 1e-14
    assert np.abs(m @ m - m).max() <= 1e-14
    assert np.array_equal(m, m.T)
