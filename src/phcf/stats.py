"""Trajectory observables and closed-form mean-speed moment laws.

The ensemble mean speed decouples from the interactions (they telescope
over the ring), leaving only the control relaxation and the aggregated
noise with effective volatility sigma/sqrt(N):

    uncontrolled:  d pbar = (sigma/N) sum_n dW_n          (diffusion)
    open loop:     d pbar = gamma*(x - pbar) dt + (sigma/N) sum_n dW_n

so Var[pbar(t)] = sigma^2 t / N without control and
(sigma^2/(2 gamma N)) (1 - exp(-2 gamma t)) under constant speed control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError, UnsupportedOperationError
from .model import ModelParams, hamiltonian
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
    inf without a numpy warning."""
    if len(ts.times) == 0:
        raise InvalidInputError("empty trajectory")
    speeds = ts.speeds()
    with np.errstate(over="ignore"):
        energy = hamiltonian(ts.positions(), speeds, ts.params)
    return ObservableSeries(
        times=ts.times.copy(),
        mean_speed=speeds.mean(axis=-1),
        speed_variance=speeds.var(axis=-1, ddof=1),
        single_vehicle_speed=speeds[..., 0].copy(),
        hamiltonian=energy,
    )


@dataclass(frozen=True)
class MomentLaw:
    """Mean and variance of the ensemble mean speed as functions of t."""

    mean_of_mean_speed: Callable
    variance_of_mean_speed: Callable
    stationary_variance: Optional[float]


def mean_speed_law(params: ModelParams, initial_mean_speed: float = 0.0) -> MomentLaw:
    """Closed-form moments of the mean speed (see the module docstring).

    Valid for any potential, since the interactions telescope; undefined
    under gap feedback, where the mean speed is not autonomous.
    """
    sig2n = params.sigma**2 / params.n_vehicles
    p0 = float(initial_mean_speed)
    if params.regime.t_gap is not None:
        raise UnsupportedOperationError("the mean speed is not autonomous under gap feedback")
    if not params.regime.controlled:
        return MomentLaw(
            mean_of_mean_speed=lambda t: p0 + 0.0 * np.asarray(t, dtype=float),
            variance_of_mean_speed=lambda t: sig2n * np.asarray(t, dtype=float),
            stationary_variance=None,
        )
    x = params.regime.x
    gam = params.gamma
    stationary = sig2n / (2.0 * gam)
    return MomentLaw(
        mean_of_mean_speed=lambda t: x + (p0 - x) * np.exp(-gam * np.asarray(t, dtype=float)),
        variance_of_mean_speed=lambda t: stationary
        * (1.0 - np.exp(-2.0 * gam * np.asarray(t, dtype=float))),
        stationary_variance=stationary,
    )


def deviation_process(ts: TimeSeries) -> np.ndarray:
    """Speeds with the per-sample mean removed, O(N) per sample.  Each
    sample's deviations sum to zero up to rounding."""
    p = ts.speeds()
    return p - p.mean(axis=-1, keepdims=True)
