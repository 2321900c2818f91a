"""Gap feedback below the stability threshold: stop-and-go waves.

With u_n = (gap_n - ell)/t_gap the uniform flow at speed
(L/N - ell)/t_gap = 2.05 exists for every parameter set, but it is only
stable when gamma*T + 2*(alpha*T)^2 > 2 (sufficient) or, exactly, when
every Fourier mode passes the complex Hurwitz test.  The bundled fig3
parameters sit below the threshold: one mode pair grows, the speed
variance rises exponentially at twice the spectral abscissa, and the
trajectory fan develops a single wave running backward through the
platoon while the vehicles drive forward.  The mean speed is untouched by
the instability: it is Fourier mode 0, an OU process around 2.05 with
the stationary variance sigma^2/(2 gamma N).
"""

from pathlib import Path

import numpy as np

from phcf import mean_speed_law, observables, preset, simulate, stability_report
from phcf.svgplot import observables_svg, trajectory_svg

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

scenario = preset("fig3")
report = stability_report(scenario.params)
lhs, suff = report.sufficient_lhs, report.sufficient_stable
print(f"sufficient condition: gamma*T + 2*(alpha*T)^2 = {lhs} > 2 ? {suff}")
print(f"exact per-mode conditions hold: {report.exact_stable}")
print(f"spectral abscissa (excluding the structural zero): {report.spectral_abscissa_nonzero:+.5f}")
unstable = (np.flatnonzero(~report.mode_stable) + 1).tolist()  # entry i is mode i + 1
print(f"unstable modes: {unstable}")

series = simulate(scenario.params, scenario.config)
obs = observables(series)
late = obs.times >= 150.0
growth = np.polyfit(obs.times[late], np.log(obs.speed_variance[late] + 1e-12), 1)[0]
print(f"\nlate-time V(t) growth rate on this run: {growth:.5f} "
      f"(2 x abscissa = {2 * report.spectral_abscissa_nonzero:.5f})")
print(f"speed range at t=250: [{series.p[-1].min():.2f}, {series.p[-1].max():.2f}] "
      "- stop-and-go amplitudes")
law = mean_speed_law(scenario.params)
print(f"mean speed over t >= 150: {obs.mean_speed[late].mean():.3f} (law x = {law.x:.3f})")
print(f"stationary Var[pbar]: sampled {((obs.mean_speed[late] - law.x) ** 2).mean():.4f}, "
      f"law {law.stationary_variance:.4f}")

(out_dir / "closed_loop_trajectories.svg").write_text(
    trajectory_svg(series.times, series.positions(), scenario.params.ring_length)
)
(out_dir / "closed_loop_observables.svg").write_text(
    observables_svg(obs.times, obs.mean_speed, obs.speed_variance, obs.single_vehicle_speed)
)
print("SVG panels in", out_dir)
