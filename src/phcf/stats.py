"""Trajectory observables and the closed-form mean-speed moment law.

The ensemble mean speed pbar = (1/N) sum_n p_n decouples from the
interactions: the potential forces and the speed-difference friction
telescope over the ring, for any potential.  What is left is the control
relaxation and the aggregated noise, of effective volatility
sigma/sqrt(N).  Every regime's commanded speed averages to its value at
the mean gap L/N: it is 0 without control and x under open loop, and
under gap feedback the average of (gap_n - ell)/T is (L/N - ell)/T,
because the gaps sum to L.  So in all three regimes

    d pbar = gamma*(x - pbar) dt + (sigma/N) sum_n dW_n,   x = target_speed(L/N),

with gamma = 0 without control.  Var[pbar(t)] is sigma^2 t / N when
gamma = 0 (a diffusion) and (sigma^2/(2 gamma N)) (1 - exp(-2 gamma t))
otherwise.  Under gap feedback this holds even where the regime is
unstable: pbar is Fourier mode 0, which decouples from the growing modes
(its eigenvalues are 0 and -gamma).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .model import ModelParams, _require_finite, hamiltonian
from .sde import TimeSeries


@dataclass(frozen=True)
class ObservableSeries:
    """Per-sample scalars derived from a trajectory, (runs, samples)
    arrays for a batch; times is the shared sample clock."""

    times: np.ndarray
    mean_speed: np.ndarray
    speed_variance: np.ndarray
    single_vehicle_speed: np.ndarray
    hamiltonian: np.ndarray


def observables(ts: TimeSeries) -> ObservableSeries:
    """Mean speed, speed variance (1/(N-1) normalization), the first
    vehicle's speed, and the energy under the run's own potential at
    every sample; each reduces over the vehicles, the last axis.  An
    energy past the float range, as on a ring near the float range, is
    inf without a numpy warning.  In a batch, every observable of run r
    is NaN past its n_valid[r] samples, where its states are NaN, so a
    reduction over runs there is NaN too."""
    if len(ts.times) == 0:
        raise InvalidInputError("empty trajectory")
    speeds = ts.speeds()
    with np.errstate(over="ignore"):
        energy = hamiltonian(ts.positions(), speeds, ts.params)
    return ObservableSeries(
        ts.times.copy(), speeds.mean(axis=-1), speeds.var(axis=-1, ddof=1), speeds[..., 0].copy(), energy
    )


@dataclass(frozen=True)
class MomentLaw:
    """The mean speed's law, d pbar = gamma*(x - pbar) dt + sqrt(diffusion) dB
    from pbar(0) = initial_mean_speed, with diffusion = sigma^2/N; its mean
    and variance at times t."""

    x: float
    gamma: float
    diffusion: float
    initial_mean_speed: float

    def __post_init__(self):
        _require_finite(self, "initial_mean_speed")

    def mean_of_mean_speed(self, t):
        return self.x + (self.initial_mean_speed - self.x) * np.exp(-self.gamma * np.asarray(t, dtype=float))

    def variance_of_mean_speed(self, t):
        t = np.asarray(t, dtype=float)
        if self.gamma == 0:  # the integral of exp(-2 gamma s) over [0, t] is t
            return self.diffusion * t
        return self.stationary_variance * (1.0 - np.exp(-2.0 * self.gamma * t))

    @property
    def stationary_variance(self) -> Optional[float]:
        """sigma^2/(2 gamma N), or None when gamma = 0 (no stationary law)."""
        return None if self.gamma == 0 else self.diffusion / (2.0 * self.gamma)


def mean_speed_law(params: ModelParams, initial_mean_speed: float = 0.0) -> MomentLaw:
    """Closed-form moments of the mean speed in every regime and for any
    potential (see the module docstring)."""
    x = float(params.regime.target_speed(params.ring_length / params.n_vehicles))
    return MomentLaw(x, params.gamma, params.sigma**2 / params.n_vehicles, initial_mean_speed)


def deviation_process(ts: TimeSeries) -> np.ndarray:
    """Speeds with the per-sample mean removed, O(N) per sample.  Each
    sample's deviations sum to zero up to rounding; in a batch they are
    NaN past each run's n_valid samples, as the speeds are."""
    p = ts.speeds()
    return p - p.mean(axis=-1, keepdims=True)
