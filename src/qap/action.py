"""Action eigenvalue and initial-data constraint from a solution grid.

The eigenvalue decomposes into a boundary term (phase coefficients
weighted by the boundary positions), a kinetic term (-qS(T)/2m), and a
quantum term (hbar_tilde^2 * qSigma(T)/2m); the total is stored as the
exact floating-point sum of the three parts. The constraint residual is
the analogous amplitude-side expression; zero means the initial data
satisfies the algebraic compatibility condition. The residual is always
reported, never enforced (extremization may attach a quadratic penalty
to it, weight 0 by default). Both come from the first and last state
rows of a run (``endpoint_report``), which a grid stores as Python
tuples; nothing here imports numpy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .dynamics import SolutionGrid
from .errors import IncompleteGridError


@dataclass(frozen=True)
class EigenvalueReport:
    """Eigenvalue decomposition plus the constraint residual for one run."""

    lam: float
    boundary_term: float
    kinetic_term: float
    quantum_term: float
    constraint_residual: float

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "boundary_term": self.boundary_term,
            "kinetic_term": self.kinetic_term,
            "quantum_term": self.quantum_term,
            "constraint_residual": self.constraint_residual,
        }

    def to_json(self) -> str:
        """JSON with every field at 17 significant digits."""
        return json_17g(self.to_dict())


def json_17g(obj) -> str:
    """json.dumps with floats rendered at 17 significant digits, and
    non-finite ones as json.dumps writes them (Infinity, -Infinity, NaN)."""

    def render(v):
        if isinstance(v, float):
            return format(v, ".17g") if math.isfinite(v) else json.dumps(v)
        if isinstance(v, dict):
            return "{" + ", ".join(f"{json.dumps(k)}: {render(x)}" for k, x in v.items()) + "}"
        if isinstance(v, (list, tuple)):
            return "[" + ", ".join(render(x) for x in v) + "]"
        return json.dumps(v)

    return render(obj)


def _require_complete(grid: SolutionGrid) -> None:
    if not grid.complete:
        raise IncompleteGridError(
            f"grid ends at t = {grid._times[-1]:.6g} < T = {grid.spec.T:.6g}"
        )


def endpoint_report(spec, first, last) -> EigenvalueReport:
    """Eigenvalue report from the first/last state rows of a run.

    ``last`` is an eight-component state row (coefficients plus
    accumulators); of ``first`` only the four initial coefficients are
    read, so it may be the start row or ``InitialData.as_tuple()``.
    Shared by ``eigenvalue`` and the extremizer's storage-free fast path
    so both produce bit-identical reports.
    """
    boundary = float(
        last[0] * spec.xT + 0.5 * last[1] * spec.xT**2
        - first[0] * spec.x0 - 0.5 * first[1] * spec.x0**2
    )
    kinetic = float(-last[4] / (2.0 * spec.m))
    quantum = float(spec.hbar_tilde**2 * last[5] / (2.0 * spec.m))
    residual = float(
        last[2] * spec.xT + 0.5 * last[3] * spec.xT**2
        - first[2] * spec.x0 - 0.5 * first[3] * spec.x0**2
        - last[6] / spec.m
    )
    return EigenvalueReport(
        lam=boundary + kinetic + quantum,
        boundary_term=boundary,
        kinetic_term=kinetic,
        quantum_term=quantum,
        constraint_residual=residual,
    )


def constraint_residual(grid: SolutionGrid) -> float:
    """Amplitude-side compatibility residual of the run's initial data."""
    _require_complete(grid)
    return eigenvalue(grid).constraint_residual


def eigenvalue(grid: SolutionGrid) -> EigenvalueReport:
    """Evaluate the action eigenvalue of a complete run.

    The reported ``lam`` is by construction the exact sum of the three
    term fields.
    """
    _require_complete(grid)
    return endpoint_report(grid.spec, grid.row(0), grid.row(-1))
