"""Exact closed forms for the classical limit (hbar_tilde = 0).

With k > 0 and omega0 = sqrt(k/m), the phase coefficients admit the
closed solutions

    S1(t) = S10 * cos(omega0*t0) / cos(omega0*(t - t0))
    S2(t) = -sqrt(m*k) * tan(omega0*(t - t0))

parameterized by the initial linear coefficient S10 and a phase offset
t0. The eigenvalue restricted to this family, its stationary S10, and
the resulting degenerate value (the classical two-point action) are all
elementary; they serve as independent oracles for the ODE/quadrature
pipeline.

All trigonometric denominators are guarded at 1e-12: silently huge
values would poison extremization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ResonanceError, SingularityError, ZeroStiffnessError
from .model import SINGULARITY_TOL, OscillatorSpec, omega0


@dataclass(frozen=True)
class ClassicalParams:
    """Free parameters of the classical coefficient family."""

    S10: float
    t0: float


def _require_stiffness(spec: OscillatorSpec) -> float:
    if spec.k <= 0:
        raise ZeroStiffnessError(
            "classical closed forms need k > 0; use the ODE path for k = 0"
        )
    return omega0(spec)


def _guarded_cos(arg: float, name: str) -> float:
    c = math.cos(arg)
    if abs(c) < SINGULARITY_TOL:
        raise SingularityError(name)
    return c


def _guarded_sin_T(spec: OscillatorSpec, w: float) -> float:
    s = math.sin(w * spec.T)
    if abs(s) < SINGULARITY_TOL:
        raise ResonanceError(f"sin(omega0*T) = {s:.3e}")
    return s


def s1_closed(t: float, params: ClassicalParams, spec: OscillatorSpec) -> float:
    """Closed-form linear phase coefficient at time ``t``: the paper's
    classical solution S1(t) = S10*cos(omega0*t0)/cos(omega0*(t - t0)).

    No computation of the package calls it; it is public as the closed
    form the tests hold the coefficient flow to."""
    w = _require_stiffness(spec)
    c0 = math.cos(w * params.t0)
    ct = _guarded_cos(w * (t - params.t0), "cos(omega0*(t-t0))")
    return params.S10 * c0 / ct


def s2_closed(t: float, params: ClassicalParams, spec: OscillatorSpec) -> float:
    """Closed-form quadratic phase coefficient at time ``t``: the paper's
    classical solution S2(t) = -sqrt(m*k)*tan(omega0*(t - t0)).

    No computation of the package calls it; it is public as the closed
    form the tests hold the coefficient flow to."""
    w = _require_stiffness(spec)
    _guarded_cos(w * (t - params.t0), "cos(omega0*(t-t0))")
    return -math.sqrt(spec.m * spec.k) * math.tan(w * (t - params.t0))


def lambda_classical(params: ClassicalParams, spec: OscillatorSpec) -> float:
    """Eigenvalue of the classical coefficient family at (S10, t0)."""
    w = _require_stiffness(spec)
    smk = math.sqrt(spec.m * spec.k)
    c0 = _guarded_cos(w * params.t0, "cos(omega0*t0)")
    cT = _guarded_cos(w * (spec.T - params.t0), "cos(omega0*(T-t0))")
    tan0 = math.tan(w * params.t0)
    tanT = math.tan(w * (spec.T - params.t0))
    return (
        params.S10 * (spec.xT * c0 / cT - spec.x0)
        - 0.5 * smk * (spec.xT**2 * tanT + spec.x0**2 * tan0)
        - params.S10**2 * c0**2 / (2.0 * smk) * (tanT + tan0)
    )


def s10_star(t0: float, spec: OscillatorSpec) -> float:
    """Stationary value of S10 at fixed phase offset ``t0``."""
    w = _require_stiffness(spec)
    smk = math.sqrt(spec.m * spec.k)
    sT = _guarded_sin_T(spec, w)
    c0 = _guarded_cos(w * t0, "cos(omega0*t0)")
    return smk * (spec.xT * math.cos(w * t0) - spec.x0 * math.cos(w * (spec.T - t0))) / (c0 * sT)


def lambda_star(spec: OscillatorSpec) -> float:
    """Degenerate extremal eigenvalue: the classical two-point action."""
    w = _require_stiffness(spec)
    smk = math.sqrt(spec.m * spec.k)
    sT = _guarded_sin_T(spec, w)
    cT = math.cos(w * spec.T)
    return smk * ((spec.xT**2 + spec.x0**2) * cT - 2.0 * spec.xT * spec.x0) / (2.0 * sT)
