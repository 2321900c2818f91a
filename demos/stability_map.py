"""Map the gap-feedback stability region in the (alpha, gamma) plane.

The exact region comes from the per-mode Hurwitz conditions; the
parameter-only sufficient condition gamma*T + 2*(alpha*T)^2 > 2 carves a
subset of it.  The sufficient region is strictly inside the exact one,
and the exact boundary is not monotone in gamma at small alpha: weak
control on a weak potential can be stable where moderate control is not.
"""

from pathlib import Path

import numpy as np

from phcf import preset, stability_report
from phcf.svgplot import stability_map_svg

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

params = preset("fig3").params  # the base point: N = 20, beta = 1, t_gap = 1
alphas = np.linspace(0.05, 3.0, 60)
gammas = np.linspace(0.05, 3.0, 60)
report = stability_report(params, alpha=alphas[:, None], gamma=gammas[None, :])
exact, sufficient = report.exact_stable, report.sufficient_stable

print(f"grid 60x60 at beta={params.beta}, t_gap={params.regime.t_gap}, N={params.n_vehicles}")
print(f"exactly stable cells:     {int(exact.sum())}")
print(f"sufficient-stable cells:  {int(sufficient.sum())} (all inside the exact region: "
      f"{bool(not (sufficient & ~exact).any())})")

row = exact[np.searchsorted(alphas, 0.3)]
flips = np.flatnonzero(row[:-1] != row[1:])
print(f"alpha = 0.30 row, stability flips at gamma = "
      f"{[round(float(gammas[k + 1]), 2) for k in flips]} (non-monotone in gamma)")

(out_dir / "stability_map.svg").write_text(
    stability_map_svg(alphas, gammas, exact, sufficient, "alpha", "gamma")
)
print("heatmap in", out_dir / "stability_map.svg")
