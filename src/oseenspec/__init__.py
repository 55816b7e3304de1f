"""Spectral and pseudospectral lower bounds for the radial Oseen-vortex mode family."""

__version__ = "0.1.0"

from .analysis import (
    BoundResult,
    FitResult,
    combined_bounds,
    numerical_range_bound,
    pseudospectral_bound,
    quasimode,
    scaling_sweep,
    spectral_bound,
)
from .grids import Field, ModeSpec, RadialGrid, default_grid, make_grid, quadrature
from .solver import SolverError
from .specfun import PoleError
from .verify import CheckReport, run_all, run_check

__all__ = [
    "BoundResult",
    "CheckReport",
    "Field",
    "FitResult",
    "ModeSpec",
    "PoleError",
    "RadialGrid",
    "SolverError",
    "__version__",
    "combined_bounds",
    "default_grid",
    "make_grid",
    "numerical_range_bound",
    "pseudospectral_bound",
    "quadrature",
    "quasimode",
    "run_all",
    "run_check",
    "scaling_sweep",
    "spectral_bound",
]
