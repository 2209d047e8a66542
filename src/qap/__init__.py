"""Numerical realization of a quantum action principle for the harmonic
oscillator: the coefficient ODE flow, the action eigenvalue and its
initial-data constraint, extremization over initial data, and exact
classical-limit oracles.

The extremizer's names load ``qap.extremize``, and with it numpy, on
first access (PEP 562), so importing the package or running a command
that never searches loads no numpy."""

__version__ = "0.1.0"

from .action import EigenvalueReport, eigenvalue
from .classical import (
    ClassicalParams,
    lambda_classical,
    lambda_star,
    s1_closed,
    s2_closed,
    s10_star,
)
from .dynamics import (
    SolutionGrid,
    convergence_order,
    integrate,
)
from .errors import (
    BlowUpError,
    ConfigError,
    DegenerateProbeError,
    IncompleteGridError,
    QapError,
    ResonanceError,
    SingularityError,
    ValidationError,
    ZeroStiffnessError,
)
from .model import (
    InitialData,
    OscillatorSpec,
    omega0,
    resonant,
    t0_to_S20,
    validate,
    validation_errors,
)

__all__ = [
    "BlowUpError",
    "ClassicalParams",
    "ConfigError",
    "DegenerateProbeError",
    "EigenvalueReport",
    "ExtremumResult",
    "HessianSignature",
    "IncompleteGridError",
    "InitialData",
    "OscillatorSpec",
    "QapError",
    "ResonanceError",
    "SingularityError",
    "SolutionGrid",
    "StationarityReport",
    "ValidationError",
    "ZeroStiffnessError",
    "convergence_order",
    "eigenvalue",
    "integrate",
    "lambda_classical",
    "lambda_star",
    "omega0",
    "optimize",
    "resonant",
    "s10_star",
    "s1_closed",
    "s2_closed",
    "stationarity_check",
    "t0_to_S20",
    "validate",
    "validation_errors",
]

#: the names ``__getattr__`` loads from ``qap.extremize``
_EXTREMIZE = ("ExtremumResult", "HessianSignature", "StationarityReport",
              "optimize", "stationarity_check")


def __getattr__(name):
    if name in _EXTREMIZE:
        from . import extremize

        return getattr(extremize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
