"""Exception types shared across the package."""

from __future__ import annotations


class QapError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QapError):
    """One or more problem-parameter invariants are violated.

    Carries the full list of violation codes so a caller sees every
    problem at once, not just the first.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ConfigError(QapError):
    """Malformed or inconsistent experiment configuration."""


class ResonanceError(QapError):
    """A closed form dividing by sin(omega0*T) was invoked at resonance."""


class SingularityError(QapError):
    """A trigonometric denominator is numerically zero.

    ``factor`` names the offending denominator so sweeps can report
    which guard tripped.
    """

    def __init__(self, factor: str):
        self.factor = factor
        super().__init__(f"singular denominator: {factor}")


class ZeroStiffnessError(QapError):
    """Classical closed forms are undefined at k = 0; use the ODE path."""


class BlowUpError(QapError):
    """A coefficient trajectory left the finite range before reaching T.

    ``t_last`` is the last grid time with a finite state; ``partial``
    holds the truncated solution grid up to that time.
    """

    def __init__(self, t_last: float, partial=None):
        self.t_last = t_last
        self.partial = partial
        super().__init__(f"coefficient blow-up after t = {t_last:.6g}")


class DegenerateProbeError(QapError):
    """Step-halving differences fell below resolvable size; order undefined."""


class IncompleteGridError(QapError):
    """Eigenvalue evaluation needs a grid that reaches t = T."""
