"""Uncontrolled ring: the mean speed diffuses, the speed spread does not.

Without control the interactions telescope over the ring, so the ensemble
mean speed feels only the aggregated noise and performs a Brownian motion
with variance sigma^2 t / N.  The spread of the speeds around that mean is
damped by the alignment and potential terms and settles at a finite level:
after a while the whole platoon drifts together in a random direction.

Writes trajectory and observable panels to demos/output/ and compares the
sampled mean-speed variance against the closed-form diffusion law.
"""

from pathlib import Path

from phcf import SimConfig, mean_speed_law, observables, preset, run_ensemble, simulate
from phcf.svgplot import observables_svg, trajectory_svg

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

scenario = preset("fig1")
print("single run at the native dt =", scenario.config.dt)
series = simulate(scenario.params, scenario.config)
obs = observables(series)
print(f"  mean speed drifted from 0 to {obs.mean_speed[-1]:+.2f}")
print(f"  speed variance settled near {obs.speed_variance[2000:].mean():.2f}")

(out_dir / "uncontrolled_trajectories.svg").write_text(
    trajectory_svg(series.times, series.positions(), scenario.params.ring_length)
)
(out_dir / "uncontrolled_observables.svg").write_text(
    observables_svg(obs.times, obs.mean_speed, obs.speed_variance, obs.single_vehicle_speed)
)

# a modest ensemble is enough to see Var[pbar] = sigma^2 t / N
config = SimConfig(dt=0.01, t_end=100.0, sample_stride=500, seed=1)
ensemble = observables(run_ensemble(scenario.params, config, 200))
law = mean_speed_law(scenario.params)
print("\n   t   Var[pbar] sampled   sigma^2 t / N")
for t, var in zip(ensemble.times[1:], ensemble.mean_speed[:, 1:].var(axis=0, ddof=1)):
    print(f"{t:6.0f}   {var:14.3f}   {law.variance_of_mean_speed(t):13.3f}")
print("\nSVG panels in", out_dir)
