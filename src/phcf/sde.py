"""Euler-Maruyama integration of the ring SDE.

Speeds update explicitly with the drift and the scaled noise increment;
positions then update with the fresh speeds (the position update is
implicit in the coupling), which keeps the mean-speed recursion exact
under discretization.  The state is the array pair (q, p): initial_state
builds it, and a TimeSeries records it as (samples, N) arrays, or as
(runs, samples, N) arrays for an ensemble.

Noise comes from counter-based Philox streams read in fixed blocks, so
the increment at a given step is a pure function of (seed, step, vehicle):
trajectories are bit-reproducible and ensemble members are independent of
each other and of how many of them run.  Block b of a run with seed s is
the first NOISE_BLOCK draws of Philox(key=s, counter=b << 64).  Each
thread keeps one Philox generator and sets its key, counter and buffer
for every block, which costs less than building a generator per block
and leaves no state behind between calls.

The integrator advances all runs of an ensemble as the rows of (runs, N)
arrays updated in place.  Every update is elementwise, in the order
p + dt*drift + sigma*sqrt(dt)*noise and then q + dt*p, so each row is
bit-identical to a run made alone.  A run is aborted when a speed exceeds
BLOWUP_LIMIT in magnitude or the state stops being finite; one whole-array
test per step decides whether any row needs that per-row check.  The
ensemble comes back as that one batch; simulate slices its only run out.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidInputError, NumericalBlowupError
from .model import ModelParams, _require_finite, acceleration_array, gaps_array

# Steps per Philox counter block; the block index is the stream counter.
NOISE_BLOCK = 256
# Speeds beyond this abort the run (gap-feedback runs genuinely diverge).
BLOWUP_LIMIT = 1e8
_WORD = 2**64 - 1
# Per-thread Philox generator that noise_block re-keys on every call.
_thread_noise = threading.local()


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class UniformStationary:
    """Evenly spaced vehicles at the regime's equilibrium speed."""


@dataclass(frozen=True)
class UniformZeroSpeed:
    """Evenly spaced vehicles at rest."""


@dataclass(frozen=True)
class Explicit:
    """Caller-supplied positions and speeds; positions must be strictly
    increasing within [0, ring_length)."""

    q: np.ndarray
    p: np.ndarray


InitialCondition = Union[UniformStationary, UniformZeroSpeed, Explicit]


@dataclass(frozen=True)
class SimConfig:
    """Integration window, sampling, seed and start state."""

    dt: float
    t_end: float
    sample_stride: int = 1
    seed: int = 0
    initial: InitialCondition = UniformZeroSpeed()

    def __post_init__(self):
        _require_finite(self, "dt", "t_end")
        if not self.dt > 0:
            raise InvalidInputError(f"dt must be positive, got {self.dt}")
        if not self.t_end >= self.dt:
            raise InvalidInputError("t_end must be at least dt")
        if self.sample_stride < 1:
            raise InvalidInputError(f"sample_stride must be >= 1, got {self.sample_stride}")
        if not 0 <= self.seed < 2**64:
            raise InvalidInputError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class TimeSeries:
    """Sampled trajectory of one run, or of a batch of runs.

    q and p are positions and speeds, one sample per entry of times:
    (samples, N) for one run, (runs, samples, N) for a batch, read-only
    when the integrator made them.  overtake_flag records whether a
    recorded sample had a non-positive gap (permitted by the quadratic
    potential, flagged as a diagnostic); blowup_step is the step at which
    the state left the finite range.

    One run ends at its last valid sample; its overtake_flag is a bool
    and its blowup_step None or an int.  In a batch both are per-run
    arrays, and blowup_step is 0 for a run that did not blow up (steps
    count from 1).  Run r has n_valid[r] valid samples, zeros after
    them, and the seed derive_run_seed(config.seed, r).
    """

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    params: ModelParams
    config: SimConfig
    overtake_flag: Union[bool, np.ndarray]
    blowup_step: Union[None, int, np.ndarray] = None
    n_valid: Optional[np.ndarray] = None

    def positions(self) -> np.ndarray:
        """Positions, samples by vehicles (runs first in a batch)."""
        return self.q

    def speeds(self) -> np.ndarray:
        """Speeds, samples by vehicles (runs first in a batch)."""
        return self.p


def initial_state(params: ModelParams, initial: InitialCondition):
    """Concrete start state (q, p) for a configuration, as new float arrays."""
    n = params.n_vehicles
    length = params.ring_length
    if isinstance(initial, Explicit):
        q = np.array(initial.q, dtype=float)
        p = np.array(initial.p, dtype=float)
        if q.shape != (n,) or p.shape != (n,):
            raise InvalidInputError(f"explicit initial state must have {n} entries")
        if not (q[0] >= 0 and q[-1] < length and np.all(np.diff(q) > 0)):
            raise InvalidInputError("positions must be strictly increasing within [0, ring_length)")
        return q, p
    q = np.arange(n) * (length / n)
    if isinstance(initial, UniformZeroSpeed):
        return q, np.zeros(n)
    return q, np.full(n, params.regime.target_speed(length / n), dtype=float)


# ---------------------------------------------------------------------------
# noise


def noise_block(seed: int, block_index: int, n_vehicles: int, block_steps: int = NOISE_BLOCK) -> np.ndarray:
    """Standard-normal draws for block_steps consecutive steps of one run.

    The draws are those of Generator(Philox(key=seed, counter=block_index
    << 64)).  Instead of building that generator, the calling thread's
    reusable one is re-keyed and re-positioned with its buffer emptied,
    so nothing carries over from an earlier call.
    """
    gen = getattr(_thread_noise, "generator", None)
    if gen is None:
        gen = _thread_noise.generator = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            # block_index << 64 as four little-endian 64-bit words; an
            # out-of-range key or counter overflows the uint64 conversion.
            "counter": np.array(
                [0, block_index & _WORD, (block_index >> 64) & _WORD, block_index >> 128],
                dtype=np.uint64,
            ),
            "key": np.array([seed & _WORD, seed >> 64], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen.standard_normal((block_steps, n_vehicles))


def derive_run_seed(seed: int, run_index: int) -> int:
    """Decorrelated 64-bit seed folded from (seed, run_index)."""
    return int(np.random.SeedSequence([seed, run_index]).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# integration


def _step_count(dt: float, t_end: float) -> int:
    # ceil(t_end/dt), robust to dt dividing t_end up to rounding
    exact = t_end / dt
    return int(math.ceil(exact * (1.0 - 1e-12)))


def _integrate(params: ModelParams, config: SimConfig, runs: int, run_seed):
    """Shared engine: advances runs trajectories in lockstep as the rows
    of (runs, N) arrays, row r under the seed run_seed(r).  All update
    arithmetic is elementwise, so each row is bit-identical to a single
    run with the same seed.  Returns the batch TimeSeries.

    Every buffer is allocated before the first seed is derived, so a run
    too large for memory fails with MemoryError at once.
    """
    n = params.n_vehicles
    length = params.ring_length
    dt = config.dt
    stride = config.sample_stride
    n_steps = _step_count(dt, config.t_end)
    n_samples = n_steps // stride + 1
    # run-major, so each run's samples are one C-contiguous block
    q_samples = np.empty((runs, n_samples, n))
    p_samples = np.empty((runs, n_samples, n))
    # one block of draws for all runs, refilled in place at each block start
    noise = np.empty((NOISE_BLOCK, runs, n))
    q0, p0 = initial_state(params, config.initial)
    q = np.tile(q0, (runs, 1))
    p = np.tile(p0, (runs, 1))
    seeds = [run_seed(r) for r in range(runs)]
    overtake = np.zeros(runs, dtype=bool)
    blow_step = np.zeros(runs, dtype=np.int64)
    valid = np.zeros(runs, dtype=np.int64)
    active = np.ones(runs, dtype=bool)

    sig_sqdt = params.sigma * math.sqrt(dt)
    k = 0
    for s in range(n_steps + 1):
        if s % stride == 0 and k < n_samples:
            q_samples[:, k] = q
            p_samples[:, k] = p
            overtake |= active & (gaps_array(q, length).min(axis=1) <= 0)
            valid[active] = k + 1
            k += 1
        if s == n_steps:
            break
        j = s % NOISE_BLOCK
        if j == 0:
            for r, seed in enumerate(seeds):
                noise[:, r] = noise_block(seed, s // NOISE_BLOCK, n)
            noise *= sig_sqdt
        # p + dt*acc + sigma*sqrt(dt)*noise, then q + dt*p, in that order
        acc = acceleration_array(q, p, params)
        acc *= dt
        p += acc
        p += noise[j]
        np.multiply(p, dt, out=acc)
        q += acc
        # NaN fails the comparison too; per-row masks only when this fires
        if not (np.abs(p).max() <= BLOWUP_LIMIT and np.isfinite(q).all()):
            bad = active & (
                ~np.isfinite(p).all(axis=1)
                | ~np.isfinite(q).all(axis=1)
                | (np.abs(p).max(axis=1) > BLOWUP_LIMIT)
            )
            blow_step[bad] = s + 1
            active &= ~bad
            if not active.any():
                break
            # freeze dead rows; their samples are zeroed after the loop
            q[~active] = 0.0
            p[~active] = 0.0

    # Zero what no valid sample wrote: rows left empty by the early break
    # and whatever dead rows recorded after they blew up.
    tail = np.arange(n_samples) >= valid[:, None]
    q_samples[tail] = p_samples[tail] = 0.0
    q_samples.setflags(write=False)
    p_samples.setflags(write=False)
    times = np.arange(n_samples) * (stride * dt)
    return TimeSeries(times, q_samples, p_samples, params, config, overtake, blow_step, n_valid=valid)


def simulate(params: ModelParams, config: SimConfig) -> TimeSeries:
    """Integrate one trajectory, sampling every sample_stride steps
    (including the start).  Deterministic in (params, config).

    Raises NumericalBlowupError with the partial series attached if the
    state leaves the finite range.
    """
    batch = _integrate(params, config, 1, lambda r: config.seed)
    v = int(batch.n_valid[0])
    step = int(batch.blowup_step[0]) or None
    overtake = bool(batch.overtake_flag[0])
    series = TimeSeries(batch.times[:v], batch.q[0, :v], batch.p[0, :v], params, config, overtake, step)
    if step is not None:
        time = step * config.dt
        raise NumericalBlowupError(
            f"state left the finite range at t={time:g} (step {step})", step=step, time=time, partial=series
        )
    return series


def run_ensemble(params: ModelParams, config: SimConfig, n_runs: int) -> TimeSeries:
    """n_runs independent trajectories as one batch TimeSeries, run r
    under the seed derive_run_seed(config.seed, r).

    A run that blows up ends at its n_valid samples with its blowup_step
    set; it does not abort the ensemble.
    """
    if n_runs < 1:
        raise InvalidInputError(f"n_runs must be >= 1, got {n_runs}")
    return _integrate(params, config, n_runs, lambda r: derive_run_seed(config.seed, r))


def max_gap_closure_error(ts: TimeSeries):
    """Largest |sum(gaps) - ring_length| over the recorded samples: a
    float for one run, one per run for a batch (zero tails add 0)."""
    g = gaps_array(ts.positions(), ts.params.ring_length)
    err = np.abs(g.sum(axis=-1) - ts.params.ring_length).max(axis=-1)
    return float(err) if err.ndim == 0 else err
