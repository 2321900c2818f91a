"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Statistical criteria use fixed seeds (see conftest fixtures), so
every verdict is reproducible.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

from phcf import (
    ClosedLoop,
    ModelParams,
    OpenLoop,
    Uncontrolled,
    build_matrices,
    dense_eigen_oracle,
    eigenvalues,
    match_distances,
    max_gap_closure_error,
    preset,
    simulate,
    spectral_abscissa_nonzero,
    stability_report,
)
from phcf.cli import cmd_ensemble, cmd_simulate, cmd_spectrum, cmd_stability_map, parse_vary
from phcf.scenario import load_scenario
from phcf.spectral import near_zero_count

SWEEP_NS = (2, 3, 5, 8, 20, 50)
REGIME_KINDS = ("uncontrolled", "open_loop", "closed_loop")


def _passed(num, text):
    print(f"[criterion {num:2d}] PASS: {text}")


def _sweep_params(rng, n, kind):
    alpha = rng.uniform(0.1, 3.0)
    beta = rng.uniform(0.05, 3.0)
    gamma = rng.uniform(0.05, 3.0)
    if kind == "uncontrolled":
        return ModelParams(n, 7.0 * n, alpha, beta, 0.0, 1.0, Uncontrolled())
    if kind == "open_loop":
        return ModelParams(n, 7.0 * n, alpha, beta, gamma, 1.0, OpenLoop(x=rng.uniform(-2, 2)))
    return ModelParams(n, 7.0 * n, alpha, beta, gamma, 1.0,
                       ClosedLoop(ell=rng.uniform(0, 3), t_gap=rng.uniform(0.1, 3.0)))


@pytest.fixture(scope="module")
def spectral_sweep():
    """Shared random sweep: per draw, the closed-form values, the dense
    oracle values and the matrix norm."""
    rng = np.random.default_rng(2024)
    draws = []
    for kind in REGIME_KINDS:
        for n in SWEEP_NS:
            for _ in range(20):
                params = _sweep_params(rng, n, kind)
                b = build_matrices(params)
                draws.append(
                    (kind, params, eigenvalues(params), dense_eigen_oracle(b),
                     float(np.linalg.norm(b)))
                )
    return draws


def test_criterion_1_spectral_equivalence(spectral_sweep):
    start = time.perf_counter()
    worst = 0.0
    for kind, params, closed, dense, _ in spectral_sweep:
        worst = max(worst, match_distances(closed, dense).max())
        assert worst <= 1e-8, (kind, params)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(1, f"closed form matches dense oracle on {len(spectral_sweep)} draws, "
               f"worst multiset distance {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_2_structural_zero_counts(spectral_sweep):
    for kind, params, closed, dense, scale in spectral_sweep:
        expected = 2 if kind == "uncontrolled" else 1
        assert near_zero_count(closed, scale) == expected, params
        assert near_zero_count(dense, scale) == expected, params
    _passed(2, "2 structural zeros uncontrolled, 1 under either control, "
               f"on closed-form and dense spectra across {len(spectral_sweep)} draws")


def test_criterion_3_open_loop_unconditional_stability(spectral_sweep):
    checked = 0
    for kind, params, closed, _, scale in spectral_sweep:
        if kind != "open_loop":
            continue
        assert spectral_abscissa_nonzero(closed, scale) < 0, params
        checked += 1
    assert checked == len(SWEEP_NS) * 20
    _passed(3, f"every nonzero eigenvalue damped on {checked} open-loop draws")


def test_criterion_4_exact_condition_equals_abscissa_sign(stability_grid):
    alphas, gammas, exact, sufficient, abscissa = stability_grid
    marginal = np.abs(abscissa) < 1e-10
    agree = exact == (abscissa < 0)
    assert agree[~marginal].all()
    violations = sufficient & ~exact
    assert not violations.any()
    _passed(4, f"sign agreement on {(~marginal).sum()} non-marginal cells of the "
               f"60x60 (alpha, gamma) grid; containment violations: {int(violations.sum())}")


def test_criterion_5_reference_instability_point():
    params = preset("fig3").params
    report = stability_report(params)
    lhs, stable = report.sufficient_lhs, report.sufficient_stable
    assert not report.exact_stable
    assert lhs == 1.5 and not stable
    _passed(5, f"alpha=0.5, beta=1, gamma=1, T=1, N=20: exact_stable=False, "
               f"sufficient lhs={lhs} (exact)")


def test_criterion_6_mean_speed_diffusion_band(fig1_ensemble):
    r = fig1_ensemble.n_runs
    lo_q = scipy_stats.chi2.ppf(0.005, r - 1) / (r - 1)
    hi_q = scipy_stats.chi2.ppf(0.995, r - 1) / (r - 1)
    results = []
    for t_probe in (25.0, 100.0):
        i = int(np.searchsorted(fig1_ensemble.times, t_probe))
        sample_var = fig1_ensemble.pbar[i].var(ddof=1)
        target = 1.0 * t_probe / 20.0
        assert lo_q * target <= sample_var <= hi_q * target, t_probe
        results.append(f"t={t_probe:g}: {sample_var:.3f} vs {target:.3f}")
    _passed(6, f"Var[pbar] inside the 99% chi-square band ({'; '.join(results)}; "
               f"{r} runs at dt=0.01, exact for the mean-speed recursion)")


def test_criterion_7_open_loop_relaxation():
    sc = preset("fig2")
    params = replace(sc.params, sigma=0.0)
    ts = simulate(params, sc.config)
    final_mean = ts.p[-1].mean()
    assert abs(final_mean - 2.05) <= 1e-3
    _passed(7, f"sigma=0 mean speed after 250 time units: {final_mean:.8f} (target 2.05)")


def test_criterion_8_ring_conservation(preset_series):
    worst = {}
    for name, ts in preset_series.items():
        err = max_gap_closure_error(ts)
        assert err <= 1e-6 * 141.0, name
        worst[name] = err
    _passed(8, "gap sums stay at L=141 to 1e-6*L; worst deviations " +
            ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_9_deviation_variance_dichotomy(fig1_ensemble):
    times = fig1_ensemble.times
    window = (times >= 50.0) & (times <= 250.0)
    sample_var = fig1_ensemble.pbar.var(axis=1, ddof=1)
    # Var[pbar(0)] = 0 exactly, so the law is a line through the origin;
    # the through-origin weighted fit is mean(S(t)/t)
    slope = float((sample_var[window] / times[window]).mean())
    target = 1.0 / 20.0
    assert slope > 0
    assert abs(slope - target) / target <= 0.15
    late = (times >= 200.0) & (times <= 250.0)
    t_late = times[late]
    per_run_slopes = np.polyfit(t_late, fig1_ensemble.speed_var[late], 1)[0]
    mean_slope = per_run_slopes.mean()
    half_width = 2.576 * per_run_slopes.std(ddof=1) / np.sqrt(len(per_run_slopes))
    assert mean_slope - half_width <= 0.0 <= mean_slope + half_width
    _passed(9, f"Var[pbar] slope {slope:.4f} within 15% of {target}; late V(t) trend "
               f"{mean_slope:.2e} +/- {half_width:.2e} (99% CI contains 0)")


def test_criterion_10_growth_rate_and_wave_speed(fig3_ensemble, preset_series):
    report = stability_report(preset("fig3").params)
    target = 2.0 * report.spectral_abscissa_nonzero
    mean_v = fig3_ensemble.speed_var.mean(axis=1)
    window = fig3_ensemble.times >= 150.0
    growth = np.polyfit(fig3_ensemble.times[window], np.log(mean_v[window]), 1)[0]
    assert abs(growth - target) / target <= 0.30
    _passed(10, f"V(t) growth rate {growth:.5f} vs 2*abscissa {target:.5f} "
                f"({fig3_ensemble.n_runs} runs)")

    # soft criterion, logged but not gating: backward wave speed from the
    # cross-correlation of adjacent vehicles' speed dips.  The lag is the
    # time the road-frame wave needs to cross one vehicle index while the
    # vehicles advance at vbar, so lag = gap/(vbar - c), i.e.
    # c = vbar - gap/lag.
    ts = preset_series["fig3"]
    sel = ts.times >= 150.0
    speeds = ts.speeds()[sel]
    vbar = float(speeds.mean())
    dt_sample = float(ts.times[1] - ts.times[0])
    n = ts.params.n_vehicles
    lags = []
    max_lag = int(round(5.0 / dt_sample))
    for v in range(n):
        a = speeds[:, v] - speeds[:, v].mean()
        b = speeds[:, (v + 1) % n] - speeds[:, (v + 1) % n].mean()
        corr = np.correlate(a, b, mode="full")
        center = len(a) - 1
        window_c = corr[center - max_lag:center + max_lag + 1]
        lags.append((np.argmax(window_c) - max_lag) * dt_sample)
    med_lag = float(np.median(lags))
    wave_speed = vbar - (141.0 / 20.0) / med_lag if med_lag != 0 else float("inf")
    in_band = -7.0 <= wave_speed <= -3.0
    print(f"[criterion 10] soft check: wave speed {wave_speed:.2f} "
          f"(median lag {med_lag:.2f}, mean speed {vbar:.2f}), target band [-7, -3] -> "
          f"{'PASS' if in_band else 'observed outside band (not gating)'}")


def test_criterion_11_manifest_reruns_byte_identical(tmp_path):
    sc = preset("fig1")
    sc = replace(sc, config=replace(sc.config, t_end=2.0, sample_stride=10))
    checked = []

    cmd_simulate(sc, tmp_path / "sim_a")
    replay = load_scenario(tmp_path / "sim_a" / "run_manifest.txt")
    cmd_simulate(replay, tmp_path / "sim_b")
    for name in ("trajectory.csv", "observables.csv", "run_manifest.txt"):
        a = (tmp_path / "sim_a" / name).read_bytes()
        assert a == (tmp_path / "sim_b" / name).read_bytes(), name
    checked.append("simulate")

    cmd_ensemble(replace(sc, n_runs=2), tmp_path / "ens_a")
    replay = load_scenario(tmp_path / "ens_a" / "run_manifest.txt")
    cmd_ensemble(replay, tmp_path / "ens_b")
    for name in ("observables_run000.csv", "ensemble_summary.csv", "run_manifest.txt"):
        assert (tmp_path / "ens_a" / name).read_bytes() == (tmp_path / "ens_b" / name).read_bytes()
    checked.append("ensemble")

    sc3 = preset("fig3")
    cmd_spectrum(sc3, tmp_path / "spec_a")
    replay = load_scenario(tmp_path / "spec_a" / "run_manifest.txt")
    cmd_spectrum(replay, tmp_path / "spec_b")
    assert (tmp_path / "spec_a" / "spectrum.csv").read_bytes() == (tmp_path / "spec_b" / "spectrum.csv").read_bytes()
    checked.append("spectrum")

    vary = [parse_vary("alpha=0.25:3:8"), parse_vary("gamma=0.25:3:8")]
    cmd_stability_map(sc3, vary, tmp_path / "map_a")
    replay = load_scenario(tmp_path / "map_a" / "run_manifest.txt")
    cmd_stability_map(replay, vary, tmp_path / "map_b")
    assert (tmp_path / "map_a" / "stability.csv").read_bytes() == (tmp_path / "map_b" / "stability.csv").read_bytes()
    checked.append("stability-map")

    _passed(11, f"manifest replays byte-identical for {', '.join(checked)}")
