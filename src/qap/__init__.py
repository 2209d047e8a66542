"""Numerical realization of a quantum action principle for the harmonic
oscillator: the coefficient ODE flow, the action eigenvalue and its
initial-data constraint, extremization over initial data, and exact
classical-limit oracles.

The extremizer's names load ``qap.extremize``, and with it numpy, on
first access (PEP 562), so importing the package or running a command
that never searches loads no numpy."""

__version__ = "0.1.0"

from .action import (
    EigenvalueReport,
    constraint_residual,
    eigenvalue,
)
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
    FDFailureError,
    IncompleteGridError,
    LengthMismatchError,
    QapError,
    ResonanceError,
    SingularityError,
    ValidationError,
    ZeroFrequencyError,
    ZeroStiffnessError,
)
from .model import (
    InitialData,
    OscillatorSpec,
    S20_to_t0,
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
    "FDFailureError",
    "HessianSignature",
    "IncompleteGridError",
    "InitialData",
    "LengthMismatchError",
    "OscillatorSpec",
    "QapError",
    "ResonanceError",
    "S20_to_t0",
    "SingularityError",
    "SolutionGrid",
    "StationarityReport",
    "ValidationError",
    "ZeroFrequencyError",
    "ZeroStiffnessError",
    "constraint_residual",
    "convergence_order",
    "eigenvalue",
    "integrate",
    "lambda_classical",
    "lambda_star",
    "objective",
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


def __getattr__(name):
    if name in ("ExtremumResult", "HessianSignature", "StationarityReport",
                "objective", "optimize", "stationarity_check"):
        from . import extremize

        return getattr(extremize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
