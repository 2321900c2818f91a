"""Euler-Maruyama integration of the ring SDE.

Speeds update explicitly with the drift and the scaled noise increment;
positions then update with the fresh speeds (the position update is
implicit in the coupling), which keeps the mean-speed recursion exact
under discretization.  The state is the array pair (q, p): initial_state
builds it, and a TimeSeries records it as (samples, N) arrays, or as
(runs, samples, N) arrays for an ensemble, NaN past each run's valid
samples.  The integrator keeps one per-run array while it runs, the step
that ended each run; a run's valid sample count and its overtake flag are
read from it, and from each sample's minimum gap, after the loop.

Noise comes from counter-based Philox streams read in fixed blocks, so
the increment at a given step is a pure function of (seed, step, vehicle):
trajectories are bit-reproducible and ensemble members are independent of
each other and of how many of them run.  Block b of a run with seed s is
the first NOISE_BLOCK draws of Philox(key=s, counter=b << 64); a run's
last block draws only the first rows, one per step it runs.  Each
thread keeps one Philox generator and sets its key, counter and buffer
for every block, which costs less than building a generator per block
and leaves no state behind between calls.  The integrator's noise buffer
is step-major, (NOISE_BLOCK, runs, N), so each step reads one contiguous
(runs, N) row.  A single run's block is then C-contiguous and is drawn
in place, so simulate never holds a block twice; a batch draws each
run's block anew and copies it into its column, a temporary of one
run's block.

The integrator advances all runs of an ensemble as the rows of (runs, N)
arrays updated in place.  Every update is elementwise, in the order
p + dt*drift + sigma*sqrt(dt)*noise and then q + dt*p, so each row is
bit-identical to a run made alone.  A run is aborted at the first step
after which a speed exceeds BLOWUP_LIMIT in magnitude or the state is not
finite; its row restarts from the start state, so the batch holds only
states a run alone can hold.  Steps run one noise block at a time, first
in a fast pass without that test; a block that fails the one test at its
end, or whose fast pass raises, is replayed from its start with the test
at every step (see _integrate), so the result is that of testing every
step, to the bit.  simulate slices the one run out of its batch.

At N = 20 a step costs numpy call overhead, not arithmetic, so the loop
allocates nothing per step.  Each integration builds one drift workspace
(model._DriftWork), which owns the (runs, N) state and every buffer of
the drift, and calls acceleration_array(q, p, params, work) with its q
and p through this module's binding once per step, and once more per
step that the fast pass of a replayed block ran: bench/tracer.py counts
run-steps from the calls to phcf.sde.acceleration_array.  No update is
spent on the blowup test: dt*p goes into the noise row the step has just
added to p, where the block-end test finds the dt*p of every step of the
block.  The noise rows and the block-start copy of the state are made
once per call too.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidInputError, NumericalBlowupError
from .model import (ModelParams, _DriftWork, _require_finite, _require_integer, _scalar, acceleration_array,
                    gaps_array)

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
    """Caller-supplied finite positions and speeds; positions must be
    strictly increasing within [0, ring_length)."""

    q: np.ndarray
    p: np.ndarray


InitialCondition = Union[UniformStationary, UniformZeroSpeed, Explicit]


@dataclass(frozen=True)
class SimConfig:
    """Integration window, sampling, seed and start state; a bool is
    refused where a number is expected."""

    dt: float
    t_end: float
    sample_stride: int = 1
    seed: int = 0
    initial: InitialCondition = UniformZeroSpeed()

    def __post_init__(self):
        _require_finite(self, "dt", "t_end")
        _require_integer("sample_stride", self.sample_stride)
        _require_integer("seed", self.seed)
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
    when the integrator made them.  blowup_step is the step after which a
    speed exceeded BLOWUP_LIMIT in magnitude or the state was not finite,
    the step that ended the run; overtake_flag records whether a valid
    sample's smallest gap was non-positive (permitted by the quadratic
    potential, flagged as a diagnostic).

    One run ends at its last valid sample; its overtake_flag is a bool
    and its blowup_step None or an int.  In a batch both are per-run
    arrays, and blowup_step is 0 for a run that did not blow up (steps
    count from 1).  Run r has n_valid[r] valid samples, NaN after them,
    and the seed derive_run_seed(config.seed, r): a reduction over the
    vehicles is NaN past n_valid[r] without a mask of its own.  The
    integrator derives n_valid from blowup_step (a run that blew up after
    step b holds the samples of steps 0..b-1) and overtake_flag from each
    valid sample's minimum gap.
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
        for name, values in (("q", q), ("p", p)):
            if not np.isfinite(values).all():
                raise InvalidInputError(f"explicit initial {name} must be finite")
        if not (q[0] >= 0 and q[-1] < length and np.all(np.diff(q) > 0)):
            raise InvalidInputError("positions must be strictly increasing within [0, ring_length)")
        return q, p
    q = np.arange(n) * (length / n)
    if isinstance(initial, UniformZeroSpeed):
        return q, np.zeros(n)
    return q, np.full(n, params.regime.target_speed(length / n), dtype=float)


# ---------------------------------------------------------------------------
# noise


def noise_block(seed: int, block_index: int, n_vehicles: int, steps: int = NOISE_BLOCK,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Standard-normal draws, (steps, n_vehicles), for the first steps
    steps of block block_index of one run: a new array, or out filled in
    place and returned.

    The draws are those of Generator(Philox(key=seed, counter=block_index
    << 64)).  Instead of building that generator, the calling thread's
    reusable one is re-keyed and re-positioned with its buffer emptied,
    so nothing carries over from an earlier call.  The normals come out
    in order, row after row, so a draw of k steps is the first k rows of
    the full (NOISE_BLOCK, n_vehicles) block: a run's last block draws
    only the steps it runs.

    out, if given, is a C-contiguous float64 array of shape (steps,
    n_vehicles); it gets the bytes of the new array.  Any other out
    raises before a draw is written: numpy would fill an F-ordered one
    in its memory order, column after column.
    """
    if out is not None and not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous array")
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
    return gen.standard_normal((steps, n_vehicles), out=out)


def derive_run_seed(seed: int, run_index: int) -> int:
    """Decorrelated 64-bit seed folded from (seed, run_index)."""
    return int(np.random.SeedSequence([seed, run_index]).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# integration


def _step_count(dt: float, t_end: float) -> int:
    # ceil(t_end/dt), robust to dt dividing t_end up to rounding
    exact = t_end / dt
    if exact == math.inf:
        raise MemoryError(f"t_end/dt = {t_end!r}/{dt!r} steps is past the float range")
    return int(math.ceil(exact * (1.0 - 1e-12)))


def _integrate(params: ModelParams, config: SimConfig, runs: int, run_seed):
    """Shared engine: advances runs trajectories in lockstep as the rows
    of (runs, N) arrays, row r under the seed run_seed(r).  All update
    arithmetic is elementwise, so each row is bit-identical to a single
    run with the same seed.  Returns the batch TimeSeries.

    Every buffer is allocated before the first seed is derived, so a run
    too large for memory, or for the address space, fails with
    MemoryError at once.

    Each noise block runs first in a fast pass without the per-step
    blowup test, under the caller's np.errstate with every kind it does
    not ignore set to "raise".  The block is accepted when the fast pass
    raised nothing, every dt*p it computed is strictly inside
    +-fl(dt*BLOWUP_LIMIT) and q is finite at its end: rounding is
    monotone, so |p| > BLOWUP_LIMIT implies |fl(dt*p)| >=
    fl(dt*BLOWUP_LIMIT), and a non-finite entry of q stays non-finite
    under q += dt*p.  In an accepted block the per-step test never fires
    and no step raises or warns.  Any other block is restored to its
    start, its noise drawn again, and replayed under the caller's
    settings with the per-step test, which gives the bits, blowup steps,
    sample counts, warnings and exceptions of testing every step.  A fast
    pass stops at its first exception, but it may still call the drift, a
    CustomDerivative too, on a diverged state: whatever that raises is
    discarded with the block.

    A row that fails the per-step test restarts from the start state, so
    the batch holds only states a run alone can hold.  blow_step, 0 while
    a run is alive, is the only per-run state, so a replayed block
    restores q and p alone; n_valid, the NaN tail and overtake_flag (from
    each sample's minimum gap) follow after the loop.
    """
    n = params.n_vehicles
    length = params.ring_length
    dt = config.dt
    stride = config.sample_stride
    n_steps = _step_count(dt, config.t_end)
    n_samples = n_steps // stride + 1
    try:
        # run-major, so each run's samples are one C-contiguous block
        q_samples = np.empty((runs, n_samples, n))
        p_samples = np.empty((runs, n_samples, n))
        # one block of draws for all runs, step-major so that each step
        # reads one contiguous row and a single run's block is one
        # C-contiguous slab; refilled in place at each block start, and
        # each step overwrites the row it used with dt*p
        noise = np.empty((NOISE_BLOCK, runs, n))
        min_gap = np.empty((runs, n_samples))
    except ValueError as exc:  # numpy's refusal of a size past the address space
        raise MemoryError(str(exc)) from exc
    q0, p0 = initial_state(params, config.initial)
    # the workspace owns the (runs, N) state, every per-step buffer and
    # view, all made once, before the loop
    work = _DriftWork(np.broadcast_to(q0, (runs, n)), np.broadcast_to(p0, (runs, n)), params)
    q, p = work.q, work.p
    noise_rows = list(noise)
    seeds = [run_seed(r) for r in range(runs)]
    blow_step = np.zeros(runs, dtype=np.int64)

    sig_sqdt = params.sigma * math.sqrt(dt)
    # fl(dt*BLOWUP_LIMIT), the bound on the dt*p of an accepted block
    dtp_limit = dt * BLOWUP_LIMIT
    dt_array = _scalar(dt)
    # the state at block start, which a replayed block restores
    qp_start = np.empty_like(work.qp)
    fast_errstate = {kind: "raise" for kind, mode in np.geterr().items() if mode != "ignore"}

    def draw_noise(block):
        """Fill and return the noise rows of the steps block runs."""
        rows = noise[: min(NOISE_BLOCK, n_steps - block * NOISE_BLOCK)]
        if runs == 1:
            # a single run's rows are C-contiguous: its draws go in place
            noise_block(seeds[0], block, n, len(rows), rows[:, 0])
        else:
            for r, seed in enumerate(seeds):
                rows[:, r] = noise_block(seed, block, n, len(rows))
        np.multiply(rows, sig_sqdt, rows)
        return rows

    def record(s):
        k = s // stride
        q_samples[:, k] = q
        p_samples[:, k] = p
        gaps_array(q, length).min(axis=1, out=min_gap[:, k])

    def advance(block, exact):
        """Run the steps of one noise block.  With exact, test every step
        for blowup and return False once every run has blown up."""
        start = block * NOISE_BLOCK
        for s, row in zip(range(start, min(start + NOISE_BLOCK, n_steps)), noise_rows):
            if s % stride == 0:
                record(s)
            # p + dt*acc + sigma*sqrt(dt)*noise, then q + dt*p, in that order
            acc = acceleration_array(q, p, params, work)
            np.multiply(acc, dt_array, acc)
            np.add(p, acc, p)
            np.add(p, row, p)
            np.multiply(p, dt_array, row)
            np.add(q, row, q)
            # NaN fails the comparison too; per-row masks only when this fires
            if exact and not (p.max() <= BLOWUP_LIMIT and p.min() >= -BLOWUP_LIMIT and np.isfinite(q).all()):
                bad = ~(np.isfinite(q).all(axis=1) & (np.abs(p).max(axis=1) <= BLOWUP_LIMIT))
                blow_step[bad & (blow_step == 0)] = s + 1
                if blow_step.all():
                    return False
                # failed rows restart from the start state; their samples become NaN
                q[bad] = q0
                p[bad] = p0
        return True

    for block in range(-(-n_steps // NOISE_BLOCK)):
        dtp = draw_noise(block)
        qp_start[...] = work.qp
        try:
            with np.errstate(**fast_errstate):
                advance(block, exact=False)
                accepted = dtp.max() < dtp_limit and dtp.min() > -dtp_limit and np.isfinite(q).all()
        except Exception:
            accepted = False
        if not accepted:
            work.qp[...] = qp_start
            draw_noise(block)
            if not advance(block, exact=True):
                break
    else:
        if n_steps % stride == 0:
            record(n_steps)

    # a run that blew up after step b recorded the samples of steps 0..b-1;
    # NaN what no valid sample wrote: rows left empty by the early break
    # and the restarted states dead rows recorded after they blew up
    valid = np.where(blow_step > 0, (blow_step - 1) // stride + 1, n_samples)
    tail = np.arange(n_samples) >= valid[:, None]
    q_samples[tail] = p_samples[tail] = min_gap[tail] = np.nan
    q_samples.setflags(write=False)
    p_samples.setflags(write=False)
    # a NaN gap compares false, so only valid samples flag an overtake
    overtake = (min_gap <= 0).any(axis=1)
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
    _require_integer("n_runs", n_runs)
    if n_runs < 1:
        raise InvalidInputError(f"n_runs must be >= 1, got {n_runs}")
    return _integrate(params, config, n_runs, lambda r: derive_run_seed(config.seed, r))


def max_gap_closure_error(ts: TimeSeries):
    """Largest |sum(gaps) - ring_length| over the valid samples: a float
    for one run, one per run for a batch (its NaN tail is skipped; step 0
    is always valid)."""
    g = gaps_array(ts.positions(), ts.params.ring_length)
    err = np.nanmax(np.abs(g.sum(axis=-1) - ts.params.ring_length), axis=-1)
    return float(err) if err.ndim == 0 else err
