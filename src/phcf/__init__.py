"""Stochastic port-Hamiltonian car-following on a periodic ring.

N vehicles interact through a distance potential and speed alignment,
optionally steered by a constant commanded speed or a gap-feedback law,
and driven by independent Brownian noise.  The package integrates the
SDE, computes the drift spectrum in closed form through the circulant
block structure, evaluates exact and sufficient stability conditions for
the gap-feedback regime, and post-processes trajectories into the
standard observables (mean speed, speed variance, energy).
"""

from .errors import (
    EigenSolverError,
    InvalidInputError,
    NumericalBlowupError,
    UnsupportedOperationError,
)
from .model import (
    ClosedLoop,
    ControlRegime,
    CustomDerivative,
    ModelParams,
    OpenLoop,
    Uncontrolled,
    build_matrices,
    hamiltonian,
)
from .scenario import Scenario, load_scenario, preset, write_scenario
from .sde import (
    Explicit,
    SimConfig,
    TimeSeries,
    UniformStationary,
    UniformZeroSpeed,
    derive_run_seed,
    initial_state,
    max_gap_closure_error,
    run_ensemble,
    simulate,
)
from .spectral import (
    StabilityReport,
    dense_eigen_oracle,
    eigenvalues,
    match_distances,
    spectral_abscissa_nonzero,
    stability_report,
)
from .stats import MomentLaw, ObservableSeries, deviation_process, mean_speed_law, observables

__version__ = "0.1.0"

__all__ = [
    "ClosedLoop",
    "ControlRegime",
    "CustomDerivative",
    "EigenSolverError",
    "Explicit",
    "InvalidInputError",
    "ModelParams",
    "MomentLaw",
    "NumericalBlowupError",
    "ObservableSeries",
    "OpenLoop",
    "Scenario",
    "SimConfig",
    "StabilityReport",
    "TimeSeries",
    "Uncontrolled",
    "UniformStationary",
    "UniformZeroSpeed",
    "UnsupportedOperationError",
    "build_matrices",
    "dense_eigen_oracle",
    "derive_run_seed",
    "deviation_process",
    "eigenvalues",
    "hamiltonian",
    "initial_state",
    "load_scenario",
    "match_distances",
    "max_gap_closure_error",
    "mean_speed_law",
    "observables",
    "preset",
    "run_ensemble",
    "simulate",
    "spectral_abscissa_nonzero",
    "stability_report",
    "write_scenario",
]
