"""From-scratch explicit ODE solvers, conditional flow matching training,
and the diagnostics connecting the two: convergence orders, stability
regions, NFE/SWD benchmarks, Jacobian spectra and adaptive step traces."""

from .cfm import SolverSpec, TrainConfig, TrainedModel, load_model, sample, save_model, train
from .data import DatasetSpec, generate
from .numeric import Rng, cond2x2, eig2x2, gaussian_sample, wasserstein2_1d
from .ode import (
    DOPRI5,
    ButcherTableau,
    IntegrationError,
    SolveTrace,
    StepControlConfig,
    VectorField,
    integrate_dopri5,
    integrate_fixed,
    rk_step,
    stability_region_grid,
    stability_value,
)

__version__ = "0.1.0"

__all__ = [
    "Rng",
    "gaussian_sample",
    "eig2x2",
    "cond2x2",
    "wasserstein2_1d",
    "VectorField",
    "IntegrationError",
    "ButcherTableau",
    "DOPRI5",
    "SolveTrace",
    "StepControlConfig",
    "rk_step",
    "integrate_fixed",
    "integrate_dopri5",
    "stability_value",
    "stability_region_grid",
    "DatasetSpec",
    "generate",
    "TrainConfig",
    "TrainedModel",
    "SolverSpec",
    "train",
    "sample",
    "save_model",
    "load_model",
    "__version__",
]
