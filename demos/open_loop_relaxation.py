"""Constant speed control: unconditional stability and evanescent waves.

Holding every vehicle to the commanded speed x = 2.05 with a weak rate
gamma = 0.1 turns the mean speed into a mean-reverting process: it relaxes
to x and fluctuates with the stationary variance sigma^2/(2 gamma N).
The drift spectrum has a single structural zero; everything else is
damped, whatever the parameters, so the waves visible at early times die
out.
"""

from pathlib import Path

from phcf import (
    eigenvalues,
    mean_speed_law,
    observables,
    preset,
    simulate,
    spectral_abscissa_nonzero,
)
from phcf.spectral import drift_matrix_norm
from phcf.svgplot import observables_svg, trajectory_svg

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

scenario = preset("fig2")
params = scenario.params
spectrum = eigenvalues(params)
# The drift matrix's Frobenius norm in closed form; no 2N x 2N matrix is built.
scale = drift_matrix_norm(params.n_vehicles, params.alpha, params.beta, params.gamma)
print(f"slowest damped mode: Re lambda = {spectral_abscissa_nonzero(spectrum, scale):.4f}")

series = simulate(params, scenario.config)
obs = observables(series)
law = mean_speed_law(params)

late = obs.times >= 200.0
print(f"mean speed at t=250: {obs.mean_speed[-1]:.3f} "
      "(one OU sample fluctuating around x = 2.05)")
print(f"stationary Var[pbar]: sampled {((obs.mean_speed[late] - 2.05) ** 2).mean():.4f}, "
      f"law {law.stationary_variance:.4f}")
print(f"late-time speed variance level: {obs.speed_variance[late].mean():.3f}")

(out_dir / "open_loop_trajectories.svg").write_text(
    trajectory_svg(series.times, series.positions(), params.ring_length)
)
(out_dir / "open_loop_observables.svg").write_text(
    observables_svg(obs.times, obs.mean_speed, obs.speed_variance, obs.single_vehicle_speed)
)
print("SVG panels in", out_dir)
