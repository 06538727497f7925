"""Shared parameter types and the error taxonomy used across the package."""

from __future__ import annotations

import math
from dataclasses import dataclass

# Positive-curvature inputs are rejected when the diameter exceeds this
# fraction of the Bonnet-Myers ceiling pi/sqrt(kappa).  The ODE coefficient
# has a genuine pole at the ceiling, so computations need a strict margin.
BONNET_MYERS_MARGIN = 1e-10


class SpecgapError(Exception):
    """Base class for all package errors."""


class InvalidParamsError(SpecgapError, ValueError):
    """Raised when model parameters or operation inputs are out of range."""


class DegenerateFluxError(InvalidParamsError):
    """Raised when a flux coefficient is unbounded at the requested gradient."""


class PoleError(SpecgapError, ArithmeticError):
    """Raised when an evaluation point sits on (or numerically at) a pole."""


class NonConvergenceError(SpecgapError, RuntimeError):
    """Raised when an iterative solver fails to converge within its caps."""


class CFLViolationError(NonConvergenceError):
    """Raised when explicit time stepping cannot honour its stability bound."""


@dataclass(frozen=True)
class ModelParams:
    """The (dimension, curvature bound, diameter) triple behind every solve.

    ``kappa`` is a lower bound on Ricci curvature in units of 1/length^2;
    ``diameter`` is the diameter bound in length units.
    """

    n: int
    kappa: float
    diameter: float

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise InvalidParamsError(f"dimension n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise InvalidParamsError(f"dimension n must be >= 2, got {self.n}")
        if not math.isfinite(self.kappa):
            raise InvalidParamsError(f"curvature bound must be finite, got {self.kappa}")
        if not (math.isfinite(self.diameter) and self.diameter > 0):
            raise InvalidParamsError(f"diameter must be positive and finite, got {self.diameter}")
        if self.kappa > 0:
            ceiling = math.pi / math.sqrt(self.kappa)
            if self.diameter > (1.0 - BONNET_MYERS_MARGIN) * ceiling:
                raise InvalidParamsError(
                    "diameter %g exceeds the Bonnet-Myers bound pi/sqrt(kappa) = %g "
                    "(a strict margin of %g is required)"
                    % (self.diameter, ceiling, BONNET_MYERS_MARGIN)
                )

    @property
    def half_diameter(self) -> float:
        return 0.5 * self.diameter
