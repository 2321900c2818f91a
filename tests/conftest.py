"""Shared fixtures: the heavy ensembles and preset runs are session-scoped
so the statistics tests and the acceptance suite reuse one computation."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from phcf import SimConfig, UniformZeroSpeed, observables, preset, run_ensemble, simulate
from oracles import report_at


def ensemble_observables(params, config, n_runs):
    """Run an ensemble and keep only the per-run observable matrices
    (samples x runs), which is what the moment tests consume."""
    obs = observables(run_ensemble(params, config, n_runs))
    return SimpleNamespace(times=obs.times, pbar=obs.mean_speed.T, speed_var=obs.speed_variance.T,
                           n_runs=n_runs)


@pytest.fixture(autouse=True)
def numpy_error_state_is_restored():
    """Every test leaves numpy's floating-point error handling, its modes
    and its callback, as it found it."""
    before = (np.geterr(), np.geterrcall())
    yield
    assert (np.geterr(), np.geterrcall()) == before


@pytest.fixture(scope="session")
def fig1_ensemble():
    """500 uncontrolled runs of the fig1 parameters.

    dt=0.01 is enough here: the mean-speed recursion telescopes exactly,
    so its moments do not depend on the step size.
    """
    sc = preset("fig1")
    config = SimConfig(dt=0.01, t_end=250.0, sample_stride=100, seed=42, initial=UniformZeroSpeed())
    return ensemble_observables(sc.params, config, 500)


@pytest.fixture(scope="session")
def fig2_ensemble():
    """300 open-loop runs of the fig2 parameters (dt=0.01, see above)."""
    sc = preset("fig2")
    config = SimConfig(dt=0.01, t_end=250.0, sample_stride=100, seed=7, initial=UniformZeroSpeed())
    return ensemble_observables(sc.params, config, 300)


@pytest.fixture(scope="session")
def fig3_ensemble():
    """60 gap-feedback runs of the full fig3 preset (dt=0.001)."""
    sc = preset("fig3")
    config = replace(sc.config, seed=11)
    return ensemble_observables(sc.params, config, 60)


@pytest.fixture(scope="session")
def preset_series():
    """One full trajectory per preset at the native dt=0.001."""
    out = {}
    for name in ("fig1", "fig2", "fig3"):
        sc = preset(name)
        out[name] = simulate(sc.params, sc.config)
    return out


@pytest.fixture(scope="session")
def stability_grid():
    """Gap-feedback verdicts on the 60x60 (alpha, gamma) grid over (0, 3]
    at resolution 0.05, with beta=1, t_gap=1, N=20."""
    values = np.linspace(0.05, 3.0, 60)
    report = report_at(20, values[:, None], 1.0, values[None, :], 1.0)
    return values, values, report.exact_stable, report.sufficient_stable, report.spectral_abscissa_nonzero
