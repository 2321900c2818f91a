"""Observables, the mean-speed moment laws, and the deviation process."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dataclasses import replace

from phcf import (
    ClosedLoop,
    CustomDerivative,
    InvalidInputError,
    ModelParams,
    OpenLoop,
    SimConfig,
    Uncontrolled,
    UnsupportedOperationError,
    deviation_process,
    hamiltonian,
    mean_speed_law,
    observables,
    preset,
    run_ensemble,
    simulate,
)
from phcf.sde import Explicit, TimeSeries
from oracles import deviation_matrix


def toy_series(speeds, params=None):
    """TimeSeries wrapper around given per-sample speed rows."""
    speeds = np.asarray(speeds, dtype=float)
    n = speeds.shape[1]
    if params is None:
        params = ModelParams(n, float(n), 1.0, 1.0, 0.0, 1.0, Uncontrolled())
    q = np.tile(np.arange(n) * (params.ring_length / n), (len(speeds), 1))
    config = SimConfig(dt=1.0, t_end=float(len(speeds)), sample_stride=1, seed=0)
    return TimeSeries(times=np.arange(len(speeds), dtype=float), q=q, p=speeds,
                      params=params, config=config, overtake_flag=False)


# ---------------------------------------------------------------------------
# observables


def test_observables_equal_speeds():
    obs = observables(toy_series([[3.0, 3.0, 3.0], [3.0, 3.0, 3.0]]))
    assert np.array_equal(obs.mean_speed, [3.0, 3.0])
    assert np.array_equal(obs.speed_variance, [0.0, 0.0])
    assert np.array_equal(obs.single_vehicle_speed, [3.0, 3.0])


def test_observables_hand_computed():
    obs = observables(toy_series([[0.0, 2.0]]))
    assert obs.mean_speed[0] == 1.0
    assert obs.speed_variance[0] == 2.0  # (1 + 1) / (N - 1)
    assert obs.single_vehicle_speed[0] == 0.0


def test_observables_rejects_empty():
    ts = toy_series([[0.0, 1.0]])
    empty = TimeSeries(times=np.array([]), q=np.empty((0, 2)), p=np.empty((0, 2)), params=ts.params,
                       config=ts.config, overtake_flag=False)
    with pytest.raises(InvalidInputError):
        observables(empty)


def test_observables_energy_matches_hamiltonian():
    """The energy column against the written-out formula
    0.5*sum(p^2) + 0.5*alpha^2*sum(gap^2), gaps taken by hand."""
    sc = preset("fig1")
    ts = simulate(sc.params, SimConfig(dt=0.01, t_end=1.0, sample_stride=20, seed=4))
    obs = observables(ts)
    alpha, length = sc.params.alpha, sc.params.ring_length
    for i, (q, p) in enumerate(zip(ts.q, ts.p)):
        gaps = [q[k + 1] - q[k] for k in range(len(q) - 1)] + [q[0] + length - q[-1]]
        energy = 0.5 * sum(v * v for v in p) + 0.5 * alpha**2 * sum(g * g for g in gaps)
        assert obs.hamiltonian[i] == pytest.approx(energy, rel=1e-12)


TANH = CustomDerivative(lambda x: np.tanh(x - 5.0), value=lambda x: np.log(np.cosh(x - 5.0)))


def test_observables_energy_uses_the_runs_potential():
    """A run under a custom potential reports that potential's energy,
    not the quadratic energy of its alpha."""
    params = replace(preset("fig3").params, potential=TANH)
    ts = simulate(params, SimConfig(dt=0.01, t_end=1.0, sample_stride=20, seed=4))
    energy = observables(ts).hamiltonian
    assert np.array_equal(energy, hamiltonian(ts.q, ts.p, params))
    quadratic = hamiltonian(ts.q, ts.p, replace(params, potential=None))
    assert np.all(np.abs(energy - quadratic) > 1.0)


def test_observables_need_the_potential_value():
    params = replace(preset("fig3").params, potential=replace(TANH, value=None))
    ts = simulate(params, SimConfig(dt=0.01, t_end=0.2, sample_stride=20, seed=4))
    with pytest.raises(UnsupportedOperationError, match="value"):
        observables(ts)


# A gap-feedback ring that blows up within t = 2.1 (as in test_sde.py).
BLOWING = ModelParams(5, 10.0, 0.0, 0.0, 10.0, 1.0, ClosedLoop(ell=1.0, t_gap=0.01))
FIELDS = ("mean_speed", "speed_variance", "single_vehicle_speed", "hamiltonian")


def test_batch_observables_are_nan_past_n_valid():
    """A blown run's observables and deviations are NaN past its n_valid
    samples, as its states are, so a cross-run mean there is NaN, not a
    mean over zero states; before n_valid they equal the observables of
    the run's own valid samples, bit for bit."""
    batch = run_ensemble(BLOWING, SimConfig(0.001, 5.0, 10, 3), 3)
    obs = observables(batch)
    assert batch.n_valid.tolist() == [191, 193, 202]
    assert np.isnan(obs.mean_speed[:, 300].mean())
    assert np.isnan(deviation_process(batch)[:, 300]).all()
    for r, v in enumerate(batch.n_valid):
        alone = observables(TimeSeries(batch.times[:v], batch.q[r, :v], batch.p[r, :v], BLOWING,
                                       batch.config, False))
        for field in FIELDS:
            column = getattr(obs, field)[r]
            assert np.isnan(column[v:]).all() and not np.isnan(column[:v]).any(), field
            assert np.array_equal(column[:v], getattr(alone, field)), field


def test_speed_variance_matches_projector_identity():
    """||M p||^2 = (N-1) V(t): guards the 1/(N-1) normalization."""
    rng = np.random.default_rng(6)
    series = toy_series(rng.normal(0, 2, size=(40, 9)))
    obs = observables(series)
    m = deviation_matrix(9)
    for i, p in enumerate(series.p):
        lhs = float(np.sum((m @ p) ** 2))
        assert abs(lhs - 8 * obs.speed_variance[i]) <= 1e-10 * max(1.0, lhs)


def test_fig2_variance_settles(preset_series):
    """Late-time V(t) fluctuates around a finite level: the change implied
    by the fitted slope over [200, 250] stays well under that level."""
    obs = observables(preset_series["fig2"])
    m = obs.times >= 200.0
    slope = np.polyfit(obs.times[m], obs.speed_variance[m], 1)[0]
    level = obs.speed_variance[m].mean()
    assert level > 0
    assert abs(slope) * 50.0 <= 0.5 * level


# ---------------------------------------------------------------------------
# moment laws


def test_law_uncontrolled_shape():
    params = preset("fig1").params
    law = mean_speed_law(params, initial_mean_speed=1.5)
    assert law.mean_of_mean_speed(0.0) == 1.5
    assert law.mean_of_mean_speed(100.0) == 1.5
    assert law.variance_of_mean_speed(0.0) == 0.0
    assert law.variance_of_mean_speed(100.0) == pytest.approx(100.0 / 20.0)
    assert law.stationary_variance is None


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_law_rejects_non_finite_initial_mean_speed(bad):
    with pytest.raises(InvalidInputError, match="initial_mean_speed must be finite"):
        mean_speed_law(preset("fig1").params, initial_mean_speed=bad)


@pytest.mark.parametrize("bad", [True, "1.5", None])
def test_law_rejects_a_non_number_initial_mean_speed(bad):
    """True was taken as 1.0 and text as its float, and None raised an
    untyped TypeError; MomentLaw refuses them as every dataclass does."""
    with pytest.raises(InvalidInputError, match="initial_mean_speed must be a number"):
        mean_speed_law(preset("fig2").params, initial_mean_speed=bad)


def test_law_open_loop_deterministic():
    params = ModelParams(10, 50.0, 0.5, 1.0, 0.2, 0.0, OpenLoop(x=3.0))
    law = mean_speed_law(params, initial_mean_speed=0.0)
    t = np.array([0.0, 5.0, 50.0])
    assert np.allclose(law.mean_of_mean_speed(t), 3.0 - 3.0 * np.exp(-0.2 * t))
    assert np.array_equal(law.variance_of_mean_speed(t), np.zeros(3))
    assert law.stationary_variance == 0.0


def test_law_open_loop_stationary_variance():
    params = preset("fig2").params
    law = mean_speed_law(params)
    assert law.stationary_variance == pytest.approx(1.0 / (2 * 0.1 * 20))
    assert law.variance_of_mean_speed(1e9) == pytest.approx(law.stationary_variance)
    assert law.variance_of_mean_speed(0.0) == 0.0


def test_law_closed_loop_fig3():
    """Gap feedback relaxes the mean speed to (L/N - ell)/T = (7.05 - 5)/1."""
    law = mean_speed_law(preset("fig3").params)
    assert law.x == 2.05
    assert law.stationary_variance == 0.025
    assert law.mean_of_mean_speed(0.0) == 0.0
    assert law.variance_of_mean_speed(1e9) == pytest.approx(0.025)


CUBIC = CustomDerivative(lambda g: g + 0.1 * g**3)


@st.composite
def zero_noise_runs(draw):
    """(params, config) at sigma = 0 from an uneven Explicit start, in each
    regime, and under gap feedback also with a cubic potential."""
    n = draw(st.integers(3, 12))
    length = draw(st.floats(2.0 * n, 10.0 * n))
    weights = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n)))
    q = np.concatenate([[0.0], np.cumsum(length * weights / weights.sum())[:-1]])
    p = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["uncontrolled", "open", "closed", "closed_cubic"]))
    if kind == "uncontrolled":
        regime, gamma = Uncontrolled(), 0.0
    elif kind == "open":
        regime, gamma = OpenLoop(x=draw(st.floats(-3.0, 3.0))), draw(st.floats(0.05, 2.0))
    else:
        regime = ClosedLoop(ell=draw(st.floats(0.0, 5.0)), t_gap=draw(st.floats(0.5, 3.0)))
        gamma = draw(st.floats(0.05, 2.0))
    params = ModelParams(n, length, draw(st.floats(0.1, 2.0)), draw(st.floats(0.0, 2.0)), gamma, 0.0,
                         regime, CUBIC if kind == "closed_cubic" else None)
    config = SimConfig(dt=draw(st.sampled_from([0.001, 0.01])), t_end=draw(st.floats(0.1, 5.0)),
                       initial=Explicit(q, p))
    return params, config


@settings(max_examples=40, deadline=None, database=None)
@given(zero_noise_runs())
def test_noiseless_mean_speed_follows_the_law(case):
    """Without noise the sampled mean speed is the Euler-Maruyama
    recursion x + (pbar0 - x)(1 - gamma dt)^k to rounding, whatever the
    gaps, the regime or the potential, and it stays within
    |pbar0 - x| gamma dt of the law's continuous mean."""
    params, config = case
    ts = simulate(params, config)
    pbar = ts.p.mean(axis=-1)
    law = mean_speed_law(params, initial_mean_speed=pbar[0])
    x, gamma_dt = law.x, params.gamma * config.dt
    # (1 - gamma dt)^k through log1p: the power of the rounded 1 - gamma dt
    # would carry k times its rounding error.
    recursion = x + (pbar[0] - x) * np.exp(np.arange(len(pbar)) * np.log1p(-gamma_dt))
    rounding = 1e-13 * max(1.0, np.abs(ts.p).max(), abs(x))
    assert np.abs(pbar - recursion).max() <= rounding
    gap = np.abs(pbar - law.mean_of_mean_speed(ts.times)).max()
    assert gap <= abs(pbar[0] - x) * gamma_dt + rounding


@pytest.mark.parametrize("t_probe", [10.0, 50.0, 100.0])
def test_uncontrolled_moments_match_monte_carlo(fig1_ensemble, t_probe):
    """Ensemble mean and variance of pbar within 3 standard errors."""
    i = int(np.searchsorted(fig1_ensemble.times, t_probe))
    samples = fig1_ensemble.pbar[i]
    r = fig1_ensemble.n_runs
    law = mean_speed_law(preset("fig1").params, initial_mean_speed=0.0)
    se_mean = samples.std(ddof=1) / np.sqrt(r)
    assert abs(samples.mean() - law.mean_of_mean_speed(t_probe)) <= 3 * se_mean
    sample_var = samples.var(ddof=1)
    se_var = sample_var * np.sqrt(2.0 / (r - 1))
    assert abs(sample_var - law.variance_of_mean_speed(t_probe)) <= 3 * se_var


@pytest.mark.parametrize("t_probe", [10.0, 50.0, 100.0])
def test_open_loop_moments_match_monte_carlo(fig2_ensemble, t_probe):
    i = int(np.searchsorted(fig2_ensemble.times, t_probe))
    samples = fig2_ensemble.pbar[i]
    r = fig2_ensemble.n_runs
    law = mean_speed_law(preset("fig2").params, initial_mean_speed=0.0)
    se_mean = samples.std(ddof=1) / np.sqrt(r)
    assert abs(samples.mean() - law.mean_of_mean_speed(t_probe)) <= 3 * se_mean
    sample_var = samples.var(ddof=1)
    se_var = sample_var * np.sqrt(2.0 / (r - 1))
    assert abs(sample_var - law.variance_of_mean_speed(t_probe)) <= 3 * se_var


@pytest.mark.parametrize("moment, t_probe", [("mean", t) for t in (1.0, 3.0, 10.0, 50.0, 100.0)]
                         + [("variance", t) for t in (10.0, 50.0, 100.0)])
def test_closed_loop_moments_match_monte_carlo(fig3_ensemble, moment, t_probe):
    """Under gap feedback, unstable fig3 included, the ensemble mean and
    variance of pbar are within 3 standard errors of the law's."""
    samples = fig3_ensemble.pbar[int(np.searchsorted(fig3_ensemble.times, t_probe))]
    law = mean_speed_law(preset("fig3").params, initial_mean_speed=0.0)
    r = fig3_ensemble.n_runs
    if moment == "mean":
        se = samples.std(ddof=1) / np.sqrt(r)
        assert abs(samples.mean() - law.mean_of_mean_speed(t_probe)) <= 3 * se
    else:
        sample_var = samples.var(ddof=1)
        se = sample_var * np.sqrt(2.0 / (r - 1))
        assert abs(sample_var - law.variance_of_mean_speed(t_probe)) <= 3 * se


def test_open_loop_stationary_window(fig2_ensemble):
    """Time-averaged squared fluctuation of pbar around x over [200, 250]
    lands within 20% of sigma^2/(2 gamma N)."""
    m = fig2_ensemble.times >= 200.0
    fluct = (fig2_ensemble.pbar[m] - 2.05) ** 2
    estimate = fluct.mean()
    target = 1.0 / (2 * 0.1 * 20)
    assert abs(estimate - target) / target <= 0.20


# ---------------------------------------------------------------------------
# deviation process


def test_deviation_constant_speeds_vanish():
    dev = deviation_process(toy_series([[2.0, 2.0, 2.0, 2.0]] * 3))
    assert np.abs(dev).max() <= 1e-14


def test_deviation_rows_sum_to_zero():
    rng = np.random.default_rng(11)
    dev = deviation_process(toy_series(rng.normal(0, 3, size=(25, 8))))
    assert np.abs(dev.sum(axis=1)).max() <= 1e-10


@settings(deadline=None, database=None)
@given(st.integers(2, 40).flatmap(lambda n: hnp.arrays(
    np.float64, st.tuples(st.integers(1, 8), st.just(n)), elements=st.floats(-1e3, 1e3))))
def test_deviation_process_equals_projector(speeds):
    """Row t is M p(t) for the mean-removing projector M, to 1e-12."""
    dev = deviation_process(toy_series(speeds))
    expected = speeds @ deviation_matrix(speeds.shape[1]).T
    assert dev.shape == speeds.shape
    assert np.abs(dev - expected).max() <= 1e-12 * max(1.0, np.abs(speeds).max())


def test_uncontrolled_dichotomy(fig1_ensemble):
    """Var[pbar] keeps growing while the speed variance levels off."""
    times = fig1_ensemble.times
    i100 = int(np.searchsorted(times, 100.0))
    i250 = int(np.searchsorted(times, 250.0))
    var_pbar_100 = fig1_ensemble.pbar[i100].var(ddof=1)
    var_pbar_250 = fig1_ensemble.pbar[i250].var(ddof=1)
    assert var_pbar_250 / var_pbar_100 > 1.5
    v_mid = fig1_ensemble.speed_var[(times >= 100) & (times <= 150)].mean()
    v_late = fig1_ensemble.speed_var[times >= 200].mean()
    assert v_late / v_mid < 1.5
