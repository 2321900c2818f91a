"""Integrator contracts: determinism, equilibria, dissipation, moments."""

import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phcf import (
    ClosedLoop,
    CustomDerivative,
    Explicit,
    InvalidInputError,
    ModelParams,
    NumericalBlowupError,
    SimConfig,
    Uncontrolled,
    UniformStationary,
    UniformZeroSpeed,
    derive_run_seed,
    deviation_process,
    initial_state,
    max_gap_closure_error,
    observables,
    preset,
    run_ensemble,
    simulate,
)
import phcf.sde
from phcf.model import gaps_array
from phcf.sde import NOISE_BLOCK, noise_block
from oracles import reference_run, reference_step, step_noise


def fig_params(name):
    return preset(name).params


# ---------------------------------------------------------------------------
# initial conditions


def test_uniform_initial_spacing():
    params = fig_params("fig1")
    q, p = initial_state(params, UniformZeroSpeed())
    assert np.array_equal(q, np.arange(20) * (141.0 / 20.0))
    assert np.array_equal(p, np.zeros(20))


def test_stationary_speeds_per_regime():
    assert initial_state(fig_params("fig1"), UniformStationary())[1][0] == 0.0
    assert initial_state(fig_params("fig2"), UniformStationary())[1][0] == 2.05
    assert initial_state(fig_params("fig3"), UniformStationary())[1][0] == 2.05


def test_explicit_initial_validation():
    params = fig_params("fig1")
    q = np.arange(20) * 7.0
    with pytest.raises(InvalidInputError):
        initial_state(params, Explicit(q=q[::-1].copy(), p=np.zeros(20)))
    with pytest.raises(InvalidInputError):
        initial_state(params, Explicit(q=q + 141.0, p=np.zeros(20)))  # beyond [0, L)
    with pytest.raises(InvalidInputError):
        initial_state(params, Explicit(q=q[:5], p=np.zeros(5)))
    _, p = initial_state(params, Explicit(q=q, p=np.ones(20)))
    assert p.sum() == 20.0
    # a non-finite entry is refused by name, in q before the ordering test
    first = np.arange(20) == 0
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError, match="explicit initial q must be finite"):
            initial_state(params, Explicit(q=np.where(first, bad, q), p=np.zeros(20)))
        with pytest.raises(InvalidInputError, match="explicit initial p must be finite"):
            initial_state(params, Explicit(q=q, p=np.where(first, bad, 0.0)))


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SimConfig(dt=0.0, t_end=1.0)
    with pytest.raises(InvalidInputError):
        SimConfig(dt=0.1, t_end=0.01)
    with pytest.raises(InvalidInputError):
        SimConfig(dt=0.1, t_end=1.0, sample_stride=0)
    with pytest.raises(InvalidInputError):
        SimConfig(dt=0.1, t_end=1.0, seed=-1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_times(bad):
    with pytest.raises(InvalidInputError, match="dt"):
        SimConfig(dt=bad, t_end=1.0)
    with pytest.raises(InvalidInputError, match="t_end"):
        SimConfig(dt=0.1, t_end=bad)


@pytest.mark.parametrize("field", ["sample_stride", "seed"])
@pytest.mark.parametrize("bad", [2.5, 2.0, "2", None])
def test_config_rejects_non_integer_counts(field, bad):
    with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
        SimConfig(0.01, 0.5, **{field: bad})
    assert getattr(SimConfig(0.01, 0.5, **{field: np.uint64(2)}), field) == 2


@pytest.mark.parametrize("bad", [2.5, 2.0, "2", None])
def test_ensemble_rejects_non_integer_run_count(bad):
    with pytest.raises(InvalidInputError, match="n_runs must be an integer"):
        run_ensemble(fig_params("fig1"), SimConfig(0.01, 0.02), bad)
    assert run_ensemble(fig_params("fig1"), SimConfig(0.01, 0.02), np.int32(2)).q.shape == (2, 3, 20)


# ---------------------------------------------------------------------------
# single step


def test_step_rigid_rotation_at_equilibrium():
    # L = 40 makes the uniform spacing 2.0 exact in floats
    params = ModelParams(20, 40.0, 1.0, 1.0, 0.0, 0.0, Uncontrolled())
    q, p = np.arange(20) * 2.0, np.full(20, 3.0)
    config = SimConfig(dt=0.01, t_end=0.01, initial=Explicit(q=q, p=p))
    ts = simulate(params, config)
    assert np.array_equal(ts.p[1], p)
    assert np.array_equal(ts.q[1], q + 0.01 * p)


def test_step_bit_identical_with_same_noise():
    params = fig_params("fig1")
    q, p = initial_state(params, UniformZeroSpeed())
    noise = step_noise(99, 0, 20)
    a = reference_step(q, p, params, 0.001, noise)
    b = reference_step(q, p, params, 0.001, noise)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    ts = simulate(params, SimConfig(dt=0.001, t_end=0.001, seed=99))
    assert np.array_equal(ts.q[1], a[0]) and np.array_equal(ts.p[1], a[1])


def test_step_blowup_detection():
    params = replace(fig_params("fig1"), sigma=0.0)
    config = SimConfig(dt=0.001, t_end=0.01, initial=Explicit(q=np.arange(20) * 7.0, p=np.full(20, 1e9)))
    with pytest.raises(NumericalBlowupError) as info:
        simulate(params, config)
    assert info.value.step == 1
    assert len(info.value.partial.times) == 1


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "custom"])
def test_simulate_equals_repeated_steps(name):
    """The batch engine equals the reference one-step update, across a
    noise-block boundary (300 steps)."""
    if name == "custom":
        params = replace(preset("fig3").params, potential=CustomDerivative(lambda x: np.tanh(x - 5.0)))
    else:
        params = preset(name).params
    config = SimConfig(dt=0.01, t_end=3.0, sample_stride=1, seed=31)
    ts = simulate(params, config)
    q, p = initial_state(params, config.initial)
    for s in range(len(ts.times) - 1):
        q, p = reference_step(q, p, params, config.dt, step_noise(31, s, 20))
        assert np.array_equal(q, ts.q[s + 1])
        assert np.array_equal(p, ts.p[s + 1])


# ---------------------------------------------------------------------------
# trajectories


def test_simulate_deterministic():
    sc = preset("fig1")
    config = SimConfig(dt=0.01, t_end=2.0, sample_stride=10, seed=5)
    a = simulate(sc.params, config)
    b = simulate(sc.params, config)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p)


def test_sample_times_spacing():
    sc = preset("fig1")
    config = SimConfig(dt=0.01, t_end=1.0, sample_stride=25, seed=5)
    ts = simulate(sc.params, config)
    assert ts.q.shape == ts.p.shape == (5, 20)  # steps 0, 25, 50, 75, 100
    assert np.allclose(np.diff(ts.times), 0.25, rtol=0, atol=1e-12)
    assert ts.times[-1] == pytest.approx(1.0, abs=1e-12)


def test_zero_noise_equilibria_are_fixed_points():
    for name in ("fig1", "fig2", "fig3"):
        params = replace(fig_params(name), sigma=0.0)
        eq_speed = initial_state(params, UniformStationary())[1][0]
        config = SimConfig(dt=0.001, t_end=10.0, sample_stride=1000, seed=0, initial=UniformStationary())
        ts = simulate(params, config)
        drift_from_eq = abs(ts.p - eq_speed).max()
        assert drift_from_eq <= 1e-9, name
        gaps_err = max_gap_closure_error(ts)
        assert gaps_err <= 1e-9


@pytest.mark.parametrize(
    "potential",
    [None, CustomDerivative(lambda x: np.tanh(x - 3.0), value=lambda x: np.log(np.cosh(x - 3.0)))],
    ids=["quadratic", "log_cosh"],
)
def test_hamiltonian_dissipates_without_noise(potential):
    """sigma=0, uncontrolled, beta>0: energy is non-increasing along the
    trajectory, under the quadratic potential and under a convex custom
    one; halving dt must not break the per-step tolerance."""
    rng = np.random.default_rng(8)
    n = 10
    params = ModelParams(n, 30.0, 1.0, 0.8, 0.0, 0.0, Uncontrolled(), potential)
    q0 = np.sort(rng.uniform(0, 30.0, n))
    q0[0] = 0.0
    p0 = rng.normal(0, 1.0, n)
    for dt in (1e-3, 5e-4):
        config = SimConfig(dt=dt, t_end=20.0, sample_stride=1, seed=0, initial=Explicit(q=q0, p=p0))
        ts = simulate(params, config)
        energy = observables(ts).hamiltonian
        tol = 1e-9 * max(1.0, energy[0])
        assert np.diff(energy).max() <= tol
        assert energy[-1] < energy[0]


def test_open_loop_relaxation_to_commanded_speed():
    sc = preset("fig2")
    params = replace(sc.params, sigma=0.0)
    config = SimConfig(dt=0.01, t_end=250.0, sample_stride=2500, seed=0, initial=UniformZeroSpeed())
    ts = simulate(params, config)
    assert abs(ts.p[-1].mean() - 2.05) <= 1e-3


def test_self_convergence_first_order():
    """sigma=0 endpoint error against a dt=1e-5 reference halves with dt."""
    params = ModelParams(8, 40.0, 2.0, 1.0, 1.0, 0.0, ClosedLoop(ell=2.0, t_gap=1.0))
    rng = np.random.default_rng(5)
    q0 = np.sort(rng.uniform(0, 40.0, 8))
    q0[0] = 0.1
    p0 = rng.normal(2.0, 1.0, 8)

    def endpoint(dt):
        steps = int(round(2.0 / dt))
        config = SimConfig(dt=dt, t_end=2.0, sample_stride=steps, seed=0, initial=Explicit(q=q0, p=p0))
        ts = simulate(params, config)
        return np.concatenate([ts.q[-1], ts.p[-1]])

    ref = endpoint(1e-5)
    err_coarse = np.abs(endpoint(4e-3) - ref).max()
    err_fine = np.abs(endpoint(2e-3) - ref).max()
    assert 1.6 <= err_coarse / err_fine <= 2.4


def test_ring_conservation_quick():
    for name in ("fig1", "fig2", "fig3"):
        sc = preset(name)
        config = SimConfig(dt=0.01, t_end=10.0, sample_stride=10, seed=2)
        ts = simulate(sc.params, config)
        assert max_gap_closure_error(ts) <= 1e-6 * 141.0


def test_mean_speed_recursion_is_exact():
    """The discretized mean speed obeys
    pbar+ = pbar + dt*gamma*(x - pbar) + (sigma/N)*sqrt(dt)*sum(noise)
    to rounding (gamma term absent without control)."""
    for name, gamma_term in (("fig1", False), ("fig2", True)):
        sc = preset(name)
        params = sc.params
        config = SimConfig(dt=0.01, t_end=1.0, sample_stride=1, seed=17)
        ts = simulate(params, config)
        n = params.n_vehicles
        sqdt = np.sqrt(config.dt)
        for s in range(len(ts.times) - 1):
            pbar = ts.p[s].mean()
            noise_sum = step_noise(17, s, n).sum()
            expected = pbar + params.sigma / n * sqdt * noise_sum
            if gamma_term:
                expected += config.dt * params.gamma * (params.regime.x - pbar)
            assert abs(ts.p[s + 1].mean() - expected) <= 1e-12


# ---------------------------------------------------------------------------
# ensembles


def test_ensemble_base_case_matches_simulate():
    sc = preset("fig1")
    config = SimConfig(dt=0.01, t_end=1.0, sample_stride=10, seed=123)
    batch = run_ensemble(sc.params, config, 1)
    direct = simulate(sc.params, replace(config, seed=derive_run_seed(123, 0)))
    assert batch.config == config
    assert batch.q.shape == (1,) + direct.q.shape and batch.n_valid.tolist() == [len(direct.times)]
    assert np.array_equal(batch.q[0], direct.q) and np.array_equal(batch.p[0], direct.p)


def test_closed_loop_ensemble_rows_equal_simulate():
    """Each row of a batched gap-feedback ensemble is bit-identical to the
    same run made alone, across a noise-block boundary."""
    sc = preset("fig3")
    config = SimConfig(dt=0.01, t_end=3.0, sample_stride=7, seed=77)
    batch = run_ensemble(sc.params, config, 3)
    assert batch.q.flags.c_contiguous and batch.p.flags.c_contiguous
    assert not (batch.q.flags.writeable or batch.p.flags.writeable)
    assert batch.blowup_step.tolist() == [0, 0, 0]
    for r in range(3):
        direct = simulate(sc.params, replace(config, seed=derive_run_seed(77, r)))
        assert np.array_equal(batch.times, direct.times)
        assert np.array_equal(batch.positions()[r], direct.positions())
        assert np.array_equal(batch.speeds()[r], direct.speeds())
        assert batch.overtake_flag[r] == direct.overtake_flag


def test_ensemble_runs_are_decorrelated():
    sc = preset("fig1")
    config = SimConfig(dt=0.01, t_end=1.0, sample_stride=1, seed=123)
    speeds = run_ensemble(sc.params, config, 2).speeds()
    assert not np.array_equal(speeds[0, 1:], speeds[1, 1:])


def test_ensemble_rejects_zero_runs():
    sc = preset("fig1")
    with pytest.raises(InvalidInputError):
        run_ensemble(sc.params, SimConfig(dt=0.01, t_end=1.0), 0)


def test_ensemble_allocates_before_deriving_seeds(monkeypatch):
    """10^13 runs of a 2-vehicle ring with 1001 samples need 160 PB for
    the position samples alone, more than even a 57-bit address space
    holds, so that first allocation fails under any overcommit setting,
    before any buffer is written and before a single per-run seed is
    derived: an impossible ensemble fails at once."""
    import phcf.sde as sde_mod

    derived = []
    monkeypatch.setattr(sde_mod, "derive_run_seed", lambda seed, r: derived.append(r))
    params = ModelParams(2, 2.0, 1.0, 1.0, 0.0, 1.0, Uncontrolled())
    with pytest.raises(MemoryError):
        run_ensemble(params, SimConfig(dt=0.5, t_end=500.0), 10**13)
    assert derived == []


def test_ensemble_mean_speed_diffusion(fig1_ensemble):
    """Across-run variance of pbar(t) tracks sigma^2 t / N (15% at t=100)."""
    i = int(np.searchsorted(fig1_ensemble.times, 100.0))
    sample_var = fig1_ensemble.pbar[i].var(ddof=1)
    target = 1.0 * 100.0 / 20.0
    assert abs(sample_var - target) / target <= 0.15


# ---------------------------------------------------------------------------
# noise blocks


def philox_block(seed, block, n):
    """Reference: a fresh generator positioned at the block's counter."""
    gen = np.random.Generator(np.random.Philox(key=seed, counter=block << 64))
    return gen.standard_normal((NOISE_BLOCK, n))


@pytest.mark.parametrize("block", [0, 1, 2**40])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_noise_block_matches_fresh_philox(seed, block):
    assert np.array_equal(noise_block(seed, block, 3), philox_block(seed, block, 3))


@settings(deadline=None, database=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**40), st.integers(1, 25), st.integers(1, NOISE_BLOCK))
def test_noise_block_rows_are_a_prefix_of_the_block(seed, block, n, steps):
    """Philox normals come out in order, so a draw of steps rows is the
    first steps rows of the full block, to the bit.  A draw into out, here
    a slab of a larger buffer, has the same bytes, returns out itself and
    writes nothing else.  A strided or column-major out raises ValueError
    with nothing written: numpy would fill a column-major one column after
    column."""
    part = noise_block(seed, block, n, steps)
    assert part.shape == (steps, n)
    assert part.tobytes() == noise_block(seed, block, n)[:steps].tobytes()
    buffer = np.full((2, NOISE_BLOCK, n), np.nan)
    out = buffer[1, :steps]
    assert noise_block(seed, block, n, steps, out) is out
    assert out.tobytes() == part.tobytes()
    assert np.isnan(buffer[0]).all() and np.isnan(buffer[1, steps:]).all()
    for bad, width in ((np.zeros((NOISE_BLOCK, n + 1))[:, :n], n), (np.zeros((2, NOISE_BLOCK)).T, 2)):
        with pytest.raises(ValueError):
            noise_block(seed, block, width, NOISE_BLOCK, bad)
        assert not bad.any()


def test_last_block_draws_only_its_steps(monkeypatch):
    """300 steps are one full block and a last block of 44 steps, drawn
    as 44 rows for each run."""
    draw, shapes = phcf.sde.noise_block, []

    def recorded(*args):
        block = draw(*args)
        shapes.append(block.shape)
        return block

    monkeypatch.setattr(phcf.sde, "noise_block", recorded)
    run_ensemble(fig_params("fig1"), SimConfig(0.01, 3.0, 7, 5), 2)
    assert shapes == [(NOISE_BLOCK, 20)] * 2 + [(300 - NOISE_BLOCK, 20)] * 2


def test_simulate_holds_one_noise_block():
    """simulate on an N = 2000 ring of one full noise block and 44 more
    steps draws each block in place into its (256, 1, N) noise buffer,
    4.1 MB.  Its traced peak stays under 1.5 times that buffer plus its
    sample arrays (q, p and the minimum gaps): the rest is the drift
    workspace and per-step temporaries, a few hundred kB.  Drawing each
    block into a new array and copying it into the buffer holds the block
    twice, over 8 MB.  A one-step run first takes the one-off allocations
    of a first call out of the count."""
    import tracemalloc

    params = replace(fig_params("fig3"), n_vehicles=2000, ring_length=14100.0)
    config = SimConfig(dt=0.001, t_end=0.3, sample_stride=100, seed=3)
    simulate(params, replace(config, t_end=config.dt))
    tracemalloc.start()
    try:
        ts = simulate(params, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    noise_bytes = NOISE_BLOCK * 2000 * 8
    sample_bytes = ts.q.nbytes + ts.p.nbytes + 8 * len(ts.times)
    assert ts.q.shape == (4, 2000)
    assert peak < 1.5 * noise_bytes + sample_bytes


def test_noise_block_calls_share_no_state():
    """Interleaved calls, most of which leave the generator's buffer
    part-used, equal isolated reference draws."""
    keys = [(seed, block, n) for seed in (0, 5, 2**64 - 1) for block in (0, 3, 2**40) for n in (1, 3, 20)]
    expected = {key: philox_block(*key) for key in keys}
    for key in keys + keys[::-1] + keys[1::2]:
        assert np.array_equal(noise_block(*key), expected[key]), key


def test_noise_block_threads_share_no_state():
    """Each thread re-keys its own generator, so concurrent calls with
    frequent thread switches still return the reference draws."""
    keys = [(seed, block, 3) for seed in range(40) for block in (0, 1)]
    expected = [philox_block(*key) for key in keys]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(noise_block, *key) for key in keys]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(results, expected))


# ---------------------------------------------------------------------------
# blowup handling


BLOWING = ModelParams(5, 10.0, 0.0, 0.0, 10.0, 1.0, ClosedLoop(ell=1.0, t_gap=0.01))


def test_simulate_blowup_carries_partial():
    config = SimConfig(dt=0.001, t_end=5.0, sample_stride=10, seed=3)
    with pytest.raises(NumericalBlowupError) as exc_info:
        simulate(BLOWING, config)
    err = exc_info.value
    assert err.step is not None and err.time == pytest.approx(err.step * 0.001)
    partial = err.partial
    assert partial.blowup_step == err.step
    assert 0 < len(partial.times) < 5001
    assert np.isfinite(partial.speeds()).all()
    # pinned: the blowup step and the kept samples never move
    assert (err.step, len(partial.times)) == (1987, 199)


def test_ensemble_blowup_not_fatal():
    config = SimConfig(dt=0.001, t_end=5.0, sample_stride=10, seed=3)
    batch = run_ensemble(BLOWING, config, 3)
    assert batch.q.shape == (3, 501, 5)
    assert batch.blowup_step.tolist() == [1908, 1927, 2017]
    assert batch.n_valid.tolist() == [191, 193, 202]
    # every run blew up, so the loop ended early: the samples it never
    # reached are NaN, like those the dead rows recorded
    assert np.isnan(batch.q[0, 191:]).all() and np.isnan(batch.p[2, 202:]).all()


def no_zero_gap(g):
    """No force, like BLOWING's own potential, but a zero gap raises."""
    if (g == 0).any():
        raise ValueError("a zero gap")
    return 0.0 * g


# BLOWING under a potential that no state of a single run makes raise
ZERO_GAP_BLOWING = replace(BLOWING, potential=CustomDerivative(no_zero_gap, value=lambda g: 0.0 * g))


def batch_cases():
    """(params, config, n_runs): the blowing ring around its blowup times,
    where some runs blow up and others do not, under its own potential or
    one that raises on a zero gap, or a short gap-feedback run across a
    noise-block boundary."""
    seeds = st.integers(0, 2**64 - 1)

    def blowing(params):
        return st.builds(lambda t, stride, seed: (params, SimConfig(0.001, t, stride, seed)),
                         st.floats(1.85, 2.1), st.integers(1, 12), seeds)

    fig3 = st.builds(lambda t, stride, seed: (replace(fig_params("fig3"), n_vehicles=6),
                                             SimConfig(0.01, t, stride, seed)),
                     st.floats(0.01, 3.0), st.integers(1, 12), seeds)
    return st.tuples(st.one_of(blowing(BLOWING), blowing(ZERO_GAP_BLOWING), fig3), st.integers(1, 4))


@settings(max_examples=25, deadline=None, database=None)
@given(batch_cases())
@example(((ZERO_GAP_BLOWING, SimConfig(0.001, 5.0, 10, 3)), 3))
def test_batch_rows_equal_single_runs(case):
    """Row r of an ensemble, its mask fields and its row of every
    per-sample observable equal the single run under derive_run_seed(seed,
    r), bit for bit; past n_valid[r] the samples, every observable and
    the deviations are NaN, and the gap closure error skips them."""
    (params, config), n_runs = case
    batch = run_ensemble(params, config, n_runs)
    obs = observables(batch)
    deviations = deviation_process(batch)
    closure = max_gap_closure_error(batch)
    assert batch.config == config and closure.shape == (n_runs,)
    for r in range(n_runs):
        try:
            single, step = simulate(params, replace(config, seed=derive_run_seed(config.seed, r))), 0
        except NumericalBlowupError as exc:
            single, step = exc.partial, exc.step
        v = batch.n_valid[r]
        assert v == len(single.times) and np.array_equal(batch.times[:v], single.times)
        assert np.array_equal(batch.q[r, :v], single.q) and np.array_equal(batch.p[r, :v], single.p)
        assert batch.blowup_step[r] == step
        assert batch.overtake_flag[r] == single.overtake_flag
        assert np.isnan(batch.q[r, v:]).all() and np.isnan(batch.p[r, v:]).all()
        alone = observables(single)
        for field in ("mean_speed", "speed_variance", "single_vehicle_speed", "hamiltonian"):
            assert np.array_equal(getattr(obs, field)[r, :v], getattr(alone, field)), field
            assert np.isnan(getattr(obs, field)[r, v:]).all(), field
        assert np.array_equal(deviations[r, :v], deviation_process(single))
        assert np.isnan(deviations[r, v:]).all()
        assert closure[r] == max_gap_closure_error(single)


# A two-vehicle ring whose gap ahead of vehicle 0 starts at 50 and, without
# noise, closes by 0.02 per step (dt 0.01, speeds 1 and -1).  Its potential
# puts a force only on gaps within KICK_W of chosen centres, a window
# narrower than that step, so the gap falls in each at most once.
KICK_L, KICK_W, KICK = 100.0, 0.0075, 1e11


def kick_gap(step):
    """The gap ahead of vehicle 0 after step steps without noise."""
    return 50.0 - 0.02 * step


def kick_params(sigma, *windows):
    """The two-vehicle ring whose potential has derivative value on each
    gap within KICK_W of center, and 0 elsewhere."""

    def derivative(g):
        out = np.zeros_like(g)
        for center, value in windows:
            out[np.abs(g - center) < KICK_W] = value
        return out

    return ModelParams(2, KICK_L, 0.0, 0.0, 0.0, sigma, Uncontrolled(), CustomDerivative(derivative))


def kick_case(n_steps, step, back, sigma, stride, seed, n_runs):
    """(params, config, n_runs): the two-vehicle ring, kicked at step
    step (counting from 1) to a speed of 1e9, ten times BLOWUP_LIMIT.
    With back, the next step takes the kick back, so the speed is over
    the limit at that one step only.  With noise the gap wanders, and a
    run may miss the kick."""
    windows = [(kick_gap(step - 1), KICK)]
    if back:
        # the kick moves the gap by dt * 2e9 on top of its usual 0.02
        windows.append((kick_gap(step) - 2e7, -KICK))
    init = Explicit(q=np.array([0.0, 50.0]), p=np.array([1.0, -1.0]))
    return kick_params(sigma, *windows), SimConfig(0.01, n_steps * 0.01, stride, seed, init), n_runs


def kick_cases():
    """Kicks mid-block, at the last step of a block, at the first of the
    next, and at the last step of a run whose step count is not a
    multiple of NOISE_BLOCK."""
    n_steps = st.integers(257, 700).filter(lambda n: n % NOISE_BLOCK)
    return n_steps.flatmap(lambda n: st.builds(
        kick_case, st.just(n), st.sampled_from([100, 255, 256, 257, 400, n]), st.booleans(),
        st.sampled_from([0.0, 0.01]), st.integers(1, 12), st.integers(0, 2**64 - 1), st.integers(1, 4)))


@settings(max_examples=30, deadline=None, database=None)
@given(kick_cases())
@example(kick_case(300, 100, True, 0.0, 1, 0, 2))
@example(kick_case(600, 255, True, 0.0, 3, 0, 1))
@example(kick_case(600, 256, True, 0.0, 1, 0, 1))
@example(kick_case(600, 257, True, 0.0, 7, 0, 1))
@example(kick_case(300, 300, False, 0.0, 1, 0, 1))
@example(kick_case(600, 400, True, 0.01, 1, 1, 4))
@example(kick_case(600, 256, True, 0.01, 1, 3, 4))
@example((BLOWING, SimConfig(0.001, 2.0, 10, 3), 3))
def test_blowups_land_where_the_per_step_rule_puts_them(case):
    """Each run of an ensemble, and the single run, ends at the step,
    with the samples, sample count and overtake flag, of the reference
    loop that tests every step for blowup."""
    params, config, n_runs = case
    batch = run_ensemble(params, config, n_runs)
    for r in range(n_runs):
        q, p, overtake, step = reference_run(params, config, derive_run_seed(config.seed, r))
        v = len(q)
        assert (batch.blowup_step[r], batch.n_valid[r], batch.overtake_flag[r]) == (step, v, overtake)
        assert np.array_equal(batch.q[r, :v], q) and np.array_equal(batch.p[r, :v], p)
        assert np.isnan(batch.q[r, v:]).all() and np.isnan(batch.p[r, v:]).all()
    q, p, overtake, step = reference_run(params, config, config.seed)
    try:
        single, single_step = simulate(params, config), 0
    except NumericalBlowupError as exc:
        single, single_step = exc.partial, exc.step
    assert (single_step, single.overtake_flag) == (step, overtake)
    assert np.array_equal(single.q, q) and np.array_equal(single.p, p)


def test_kick_lands_on_its_step():
    """The kick taken back puts the speed over BLOWUP_LIMIT at step 257
    alone, and the reference run ends there."""
    params, config, _ = kick_case(600, 257, True, 0.0, 1, 0, 1)
    q, p = initial_state(params, config.initial)
    over = []
    for s in range(1, 300):
        q, p = reference_step(q, p, params, config.dt, np.zeros(2))
        if np.abs(p).max() > 1e8:
            over.append(s)
    assert over == [257]
    q, p, overtake, step = reference_run(params, config, 0)
    assert (step, len(q), overtake) == (257, 257, False)


def simulate_outcome(params, config):
    """What simulate did, and the warnings it emitted in order.  Whatever
    it did, it left numpy's floating-point modes and callback as it found
    them."""
    state = (np.geterr(), np.geterrcall())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            simulate(params, config)
            result = ("finished",)
        except NumericalBlowupError as exc:
            result = ("blowup", exc.step, len(exc.partial.times))
        except FloatingPointError as exc:
            result = ("raised", str(exc))
    assert (np.geterr(), np.geterrcall()) == state
    return result, [(w.category, str(w.message)) for w in caught]


OVERFLOW = [(RuntimeWarning, "overflow encountered in subtract")] * 2


def one_step_overflow():
    # alternating speeds of +-1e308: their differences overflow in the first drift
    p = np.where(np.arange(20) % 2 == 0, 1e308, -1e308)
    config = SimConfig(dt=0.001, t_end=0.01, initial=Explicit(q=np.arange(20) * 7.0, p=p))
    return replace(fig_params("fig1"), sigma=0.0), config


def mid_run_overflow():
    # at step 300 of 500 both gaps sit in windows of force +-1e308, and
    # their difference overflows
    gap = kick_gap(299)
    params, config, _ = kick_case(500, 300, False, 0.0, 1, 0, 1)
    return kick_params(0.0, (gap, 1e308), (KICK_L - gap, -1e308)), config


def mid_run_underflow():
    # at step 300 of 500 the force is gap * 1e-310, which underflows and
    # changes nothing else
    gap = kick_gap(299)
    params, config, _ = kick_case(500, 300, False, 0.0, 1, 0, 1)

    def derivative(g):
        return np.where(np.abs(g - gap) < KICK_W, g, 0.0) * 1e-310

    return replace(params, potential=CustomDerivative(derivative)), config


def position_overflow():
    # vehicle 1 moves 9.9e305 per step from 1e308, below the speed limit,
    # until its position overflows at step 81, the last: only q shows it
    params = ModelParams(2, 1.7e308, 0.0, 0.0, 0.0, 0.0, Uncontrolled())
    init = Explicit(q=np.array([0.0, 1e308]), p=np.array([0.0, 9.9e7]))
    return params, SimConfig(dt=1e298, t_end=8.1e299, initial=init)


FP_CASES = {
    "blowing": lambda: (BLOWING, SimConfig(dt=0.001, t_end=5.0, sample_stride=10, seed=3)),
    "one_step": one_step_overflow,
    "mid_run": mid_run_overflow,
    "underflow": mid_run_underflow,
    "position": position_overflow,
}
# the step whose update raises under np.errstate(all="raise")
RAISED_AT = {"one_step": 1, "mid_run": 300, "underflow": 300, "position": 81}
# what a callback under np.errstate(all="call") receives, in order, as
# it does from reference_run
CALLED = {"blowing": [], "one_step": ["overflow"] * 2, "mid_run": ["overflow"] * 2,
          "underflow": ["underflow"] * 2, "position": ["overflow"]}


@pytest.mark.parametrize("errstate, case, expected", [
    ("default", "blowing", (("blowup", 1987, 199), [])),
    ("raise", "blowing", (("blowup", 1987, 199), [])),
    ("ignore", "blowing", (("blowup", 1987, 199), [])),
    ("default", "one_step", (("blowup", 1, 1), OVERFLOW)),
    ("raise", "one_step", (("raised", "overflow encountered in subtract"), [])),
    ("ignore", "one_step", (("blowup", 1, 1), [])),
    ("default", "mid_run", (("blowup", 300, 300), OVERFLOW)),
    ("raise", "mid_run", (("raised", "overflow encountered in subtract"), [])),
    ("ignore", "mid_run", (("blowup", 300, 300), [])),
    ("default", "underflow", (("finished",), [])),
    ("raise", "underflow", (("raised", "underflow encountered in multiply"), [])),
    ("ignore", "underflow", (("finished",), [])),
    ("default", "position", (("blowup", 81, 81), [(RuntimeWarning, "overflow encountered in add")])),
    ("raise", "position", (("raised", "overflow encountered in add"), [])),
    ("ignore", "position", (("blowup", 81, 81), [])),
    ("call", "blowing", (("blowup", 1987, 199), [])),
    ("call", "one_step", (("blowup", 1, 1), [])),
    ("call", "mid_run", (("blowup", 300, 300), [])),
    ("call", "underflow", (("finished",), [])),
    ("call", "position", (("blowup", 81, 81), [])),
])
def test_floating_point_errors_reach_the_caller(errstate, case, expected, monkeypatch):
    """The warnings, exceptions, callback calls and blowup steps under the
    caller's np.errstate are those of testing every step, also when the
    error falls in a later noise block or is an underflow that changes
    nothing the block-end test looks at."""
    params, config = FP_CASES[case]()
    seen, called = [], []
    drift = phcf.sde.acceleration_array
    monkeypatch.setattr(phcf.sde, "acceleration_array", lambda q, *args: seen.append(q.copy()) or drift(q, *args))
    modes = {"default": {}, "raise": {"all": "raise"}, "ignore": {"all": "ignore"},
             "call": {"all": "call", "call": lambda kind, flag: called.append(kind)}}
    with np.errstate(**modes[errstate]):
        assert simulate_outcome(params, config) == expected
    assert called == (CALLED[case] if errstate == "call" else [])
    if errstate == "raise" and case in RAISED_AT:
        # the last drift evaluated the state the raising step started from
        with np.errstate(all="ignore"):
            q = reference_run(params, replace(config, sample_stride=1), config.seed)[0]
        assert np.array_equal(seen[-1][0], q[RAISED_AT[case] - 1])


def bounded_blowing(limit):
    """BLOWING under a potential that, like its own (alpha = 0), exerts no
    force, but whose derivative raises ValueError on a gap beyond limit,
    as one defined on a bounded domain does."""

    def derivative(g):
        if np.abs(g).max() > limit:
            raise ValueError("gap outside the potential's domain")
        return 0.0 * g

    return replace(BLOWING, potential=CustomDerivative(derivative))


def last_drift_state(run):
    """What run() returned or raised, and the q of its last drift call."""
    seen = []
    drift = phcf.sde.acceleration_array
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phcf.sde, "acceleration_array", lambda q, *args: seen.append(q.copy()) or drift(q, *args))
        try:
            return run(), seen[-1]
        except (ValueError, NumericalBlowupError) as exc:
            return exc, seen[-1]


@settings(max_examples=8, deadline=None, database=None)
@given(st.integers(0, 2**64 - 1), st.floats(0.5, 10.0), st.integers(1, 3))
@example(3, 1.5, 3)
@example(3, 0.9, 1)
def test_drift_exceptions_are_those_of_testing_every_step(seed, scale, n_runs):
    """A CustomDerivative that raises beyond a domain limit of scale times
    the largest gap of the seed's valid BLOWING states gives what testing
    every step gives: the blowup step and samples of reference_run when
    no valid state passes the limit, else the same ValueError, raised
    from the drift of the first valid state that does.  A batch raises
    when one of its runs alone does, from the first such state of any
    run, and otherwise equals its single runs row by row."""
    config = SimConfig(0.001, 5.0, 10, seed)
    every_step = replace(config, sample_stride=1)
    seeds = [seed] + [derive_run_seed(seed, r) for r in range(n_runs)]
    # each run's valid states, from the reference loop with no domain limit
    states = {s: reference_run(bounded_blowing(np.inf), every_step, s)[0] for s in seeds}
    widest = {s: np.abs(gaps_array(q, BLOWING.ring_length)).max(axis=1) for s, q in states.items()}
    limit = scale * widest[seed].max()
    params = bounded_blowing(limit)
    # the first valid state whose drift raises, or None
    raising = {s: np.argmax(w > limit) if (w > limit).any() else None for s, w in widest.items()}
    outcomes = {}
    for s in seeds:
        outcome, last = last_drift_state(lambda: simulate(params, replace(config, seed=s)))
        if raising[s] is None:
            q, p, overtake, step = reference_run(params, config, s)
            assert not isinstance(outcome, ValueError), outcome
            single = getattr(outcome, "partial", outcome)
            assert (single.blowup_step or 0, single.overtake_flag) == (step, overtake)
            assert np.array_equal(single.q, q) and np.array_equal(single.p, p)
            outcomes[s] = single
        else:
            with pytest.raises(ValueError) as expected:
                reference_run(params, config, s)
            assert type(outcome) is ValueError and str(outcome) == str(expected.value)
            assert np.array_equal(last[0], states[s][raising[s]])
    outcome, last = last_drift_state(lambda: run_ensemble(params, config, n_runs))
    first = [(raising[s], r) for r, s in enumerate(seeds[1:]) if raising[s] is not None]
    if first:
        step, r = min(first)
        assert type(outcome) is ValueError
        assert np.array_equal(last[r], states[seeds[r + 1]][step])
        return
    assert not isinstance(outcome, ValueError), outcome
    for r, s in enumerate(seeds[1:]):
        single, v = outcomes[s], outcome.n_valid[r]
        assert (v, outcome.blowup_step[r], outcome.overtake_flag[r]) == (
            len(single.times), single.blowup_step or 0, single.overtake_flag)
        assert np.array_equal(outcome.q[r, :v], single.q) and np.array_equal(outcome.p[r, :v], single.p)


def test_drift_runs_once_per_step(monkeypatch):
    """bench/tracer.py counts run-steps from the calls to
    phcf.sde.acceleration_array: one per step without a blowup, and a
    block that blows up adds the calls of its fast pass.  A fast pass
    that raises stops at once, so a block that raises adds only the
    calls up to the raise, which shrinks the tracer's over-count of
    run-steps for such blocks."""
    drift, draw = phcf.sde.acceleration_array, phcf.sde.noise_block
    drifts, draws = [], []
    monkeypatch.setattr(phcf.sde, "acceleration_array", lambda *args: drifts.append(1) or drift(*args))
    monkeypatch.setattr(phcf.sde, "noise_block", lambda *args: draws.append(1) or draw(*args))
    batch = run_ensemble(fig_params("fig3"), SimConfig(0.01, 10.0, 7, 5), 3)
    assert not batch.blowup_step.any()
    assert (len(drifts), len(draws)) == (1000, 4 * 3)
    drifts.clear()
    draws.clear()
    with pytest.raises(NumericalBlowupError) as info:
        simulate(BLOWING, SimConfig(dt=0.001, t_end=5.0, sample_stride=10, seed=3))
    # block 7 (steps 1792 to 2047) holds the blowup at step 1987: its fast
    # pass runs all 256 steps, then its replay draws its noise again and
    # runs to the blowup
    assert info.value.step // NOISE_BLOCK == 7
    assert (len(drifts), len(draws)) == (info.value.step + NOISE_BLOCK, 8 + 1)
    drifts.clear()
    draws.clear()
    # the fast pass overflows in its first drift and stops there; the
    # replay draws the noise again and blows up at step 1
    assert simulate_outcome(*one_step_overflow()) == (("blowup", 1, 1), OVERFLOW)
    assert (len(drifts), len(draws)) == (2, 2)


def test_overtake_flag_set_on_crossing():
    params = ModelParams(4, 20.0, 0.1, 0.0, 0.0, 0.0, Uncontrolled())
    init = Explicit(q=np.array([0.0, 0.05, 10.0, 15.0]), p=np.array([5.0, -5.0, 0.0, 0.0]))
    config = SimConfig(dt=0.01, t_end=1.0, sample_stride=1, seed=0, initial=init)
    ts = simulate(params, config)
    assert ts.overtake_flag
    quiet = simulate(params,
                     replace(config, initial=Explicit(q=np.arange(4) * 5.0, p=np.zeros(4))))
    assert not quiet.overtake_flag
