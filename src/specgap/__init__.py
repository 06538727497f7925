"""Sharp diameter/Ricci lower bounds for the first Laplacian eigenvalue.

The package computes the optimal lower bound mu(D, kappa, n) on the first
nonzero Neumann eigenvalue as the eigenvalue of a one-dimensional weighted
problem, evolves the matching modulus-of-continuity comparison equation for
heat and p-Laplacian flows, and checks sharpness on warped-product model
geometries.
"""

from .bounds import BoundsReport, asymptotic_slope, classical_bounds, shi_zhang_bound
from .model import (
    CFLViolationError,
    DegenerateFluxError,
    InvalidParamsError,
    ModelParams,
    NonConvergenceError,
    PoleError,
    SpecgapError,
)
from .moc_pde import Flux, Grid1D, Profile, StepControls, evolve, flux_eval
from .specialfn import ck, sk, tk
from .sturm import (
    EigenResult,
    GridLevel,
    PhiTrajectory,
    first_eigenvalue,
    integrate_phi,
    seeded_odd_initial_data,
    sl_fd_oracle,
    sl_fd_oracle_extrapolated,
    sphere_limit_eigenvalue,
)
from .warped import (
    RadialSolution,
    RicciReport,
    ViolationReport,
    WarpedMetric,
    default_warp_amplitude,
    fit_decay,
    radial_flow,
    ricci_bounds,
    verify_moc,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "CFLViolationError",
    "DegenerateFluxError",
    "EigenResult",
    "Flux",
    "Grid1D",
    "GridLevel",
    "InvalidParamsError",
    "ModelParams",
    "NonConvergenceError",
    "PhiTrajectory",
    "PoleError",
    "Profile",
    "RadialSolution",
    "RicciReport",
    "SpecgapError",
    "StepControls",
    "ViolationReport",
    "WarpedMetric",
    "asymptotic_slope",
    "ck",
    "classical_bounds",
    "default_warp_amplitude",
    "evolve",
    "first_eigenvalue",
    "fit_decay",
    "flux_eval",
    "integrate_phi",
    "radial_flow",
    "ricci_bounds",
    "seeded_odd_initial_data",
    "shi_zhang_bound",
    "sk",
    "sl_fd_oracle",
    "sl_fd_oracle_extrapolated",
    "sphere_limit_eigenvalue",
    "tk",
    "verify_moc",
]
