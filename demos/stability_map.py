"""Map the gap-feedback stability region in the (alpha, gamma) plane.

The exact region comes from the per-mode Hurwitz conditions; the
parameter-only sufficient condition gamma*T + 2*(alpha*T)^2 > 2 carves a
subset of it.  The sufficient region is strictly inside the exact one,
and the exact boundary is not monotone in gamma at small alpha: weak
control on a weak potential can be stable where moderate control is not.
"""

from pathlib import Path

import numpy as np

from phcf import stability_report
from phcf.svgplot import stability_map_svg

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

n, beta, t_gap = 20, 1.0, 1.0
alphas = np.linspace(0.05, 3.0, 60)
gammas = np.linspace(0.05, 3.0, 60)
report = stability_report(n, alphas[:, None], beta, gammas[None, :], t_gap)
exact, sufficient = report.exact_stable, report.sufficient_stable

print(f"grid 60x60 at beta={beta}, t_gap={t_gap}, N={n}")
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
