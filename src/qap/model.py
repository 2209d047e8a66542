"""Problem parameters, initial data, and the phase-offset map.

All quantities are dimensionless. ``OscillatorSpec`` fixes the physical
setup (mass, stiffness, quantum scale, horizon, boundary positions);
``InitialData`` holds the four coefficient values the action eigenvalue
is extremized over; ``COORD_NAMES`` names them and ``parse_active``
turns a selection of them into four flags. ``validate`` checks a spec's
invariants; the config loader and every integration call it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .errors import SingularityError, ValidationError, ZeroFrequencyError

#: |cos| or |sin| below this is treated as a vanishing denominator.
SINGULARITY_TOL = 1e-12

#: the four coordinates of ``InitialData``, in field order
COORD_NAMES = ("S10", "S20", "sigma10", "sigma20")


@dataclass(frozen=True)
class OscillatorSpec:
    """Harmonic-oscillator problem parameters (natural units)."""

    m: float = 1.0
    k: float = 1.0
    hbar_tilde: float = 0.0
    T: float = 1.0
    x0: float = 0.0
    xT: float = 1.0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "OscillatorSpec":
        return cls(**{f: float(d[f]) for f in d})


@dataclass(frozen=True)
class InitialData:
    """Initial values of the linear/quadratic phase and amplitude coefficients."""

    S10: float = 0.0
    S20: float = 0.0
    sigma10: float = 0.0
    sigma20: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "InitialData":
        return cls(**{f: float(d[f]) for f in d})

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.S10, self.S20, self.sigma10, self.sigma20)


def parse_active(active) -> tuple[bool, bool, bool, bool]:
    """Normalize an active-coordinate selection to a 4-tuple of flags.

    Accepts None (all four), a 4-sequence of bools, an iterable of
    coordinate names, or a comma-separated name string.
    """
    if active is None:
        return (True, True, True, True)
    if isinstance(active, str):
        items = [s.strip() for s in active.split(",") if s.strip()]
    else:
        items = list(active)
    # a numpy boolean mask yields numpy bools: boolean dtype, no numpy import
    if len(items) == 4 and all(
        isinstance(b, bool) or getattr(getattr(b, "dtype", None), "kind", None) == "b"
        for b in items
    ):
        mask = tuple(bool(b) for b in items)
    else:
        names = [str(s) for s in items]
        unknown = [n for n in names if n not in COORD_NAMES]
        if unknown:
            raise ValueError(f"unknown coordinate names {unknown}; expected {COORD_NAMES}")
        mask = tuple(n in names for n in COORD_NAMES)
    if not any(mask):
        raise ValueError("no active coordinates selected")
    return mask


def validation_errors(spec: OscillatorSpec) -> list[str]:
    """Return every violated parameter invariant (empty list when valid)."""
    errors = []
    values = (spec.m, spec.k, spec.hbar_tilde, spec.T, spec.x0, spec.xT)
    if not all(math.isfinite(v) for v in values):
        errors.append("NonFinite")
    else:
        if spec.m <= 0:
            errors.append("NonPositiveMass")
        if spec.T <= 0:
            errors.append("NonPositiveHorizon")
        if spec.k < 0:
            errors.append("NegativeStiffness")
        if spec.hbar_tilde < 0:
            errors.append("NegativeHbar")
    return errors


def validate(spec: OscillatorSpec) -> OscillatorSpec:
    """Check all invariants, returning the spec unchanged when they hold.

    Raises ``ValidationError`` carrying every violation. Resonance
    (sin(omega0*T) numerically zero) is not a violation: the ODE path is
    well-defined there, and only the classical closed forms, which divide
    by it, raise ``ResonanceError``.
    """
    errors = validation_errors(spec)
    if errors:
        raise ValidationError(errors)
    return spec


def omega0(spec: OscillatorSpec) -> float:
    """Natural frequency sqrt(k/m); zero for the free particle."""
    return math.sqrt(spec.k / spec.m)


def resonant(spec: OscillatorSpec) -> bool:
    """True when sin(omega0*T) vanishes numerically (for k > 0)."""
    if spec.k <= 0:
        return False
    return abs(math.sin(omega0(spec) * spec.T)) < SINGULARITY_TOL


def t0_to_S20(t0: float, spec: OscillatorSpec) -> float:
    """Map the classical phase offset t0 to the initial quadratic coefficient.

    S20 = sqrt(m*k) * tan(omega0*t0). Fails near cos(omega0*t0) = 0
    where the map has a pole.
    """
    w = omega0(spec)
    if abs(math.cos(w * t0)) < SINGULARITY_TOL:
        raise SingularityError("cos(omega0*t0)")
    return math.sqrt(spec.m * spec.k) * math.tan(w * t0)


def S20_to_t0(S20: float, spec: OscillatorSpec) -> float:
    """Invert ``t0_to_S20`` on the principal branch.

    Returns arctan(S20/sqrt(m*k))/omega0; requires omega0 > 0.
    """
    w = omega0(spec)
    if w == 0.0:
        raise ZeroFrequencyError("phase offset is undefined at omega0 = 0")
    return math.atan(S20 / math.sqrt(spec.m * spec.k)) / w
