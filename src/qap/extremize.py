"""Extremization of the action eigenvalue over initial coefficient data.

The eigenvalue's stationary point is not known to be a minimum: in the
classical regime it is a maximum along S10 (the quadratic coefficient
of the closed-form eigenvalue is negative) and exactly flat along the
phase-offset direction. Direct simplex minimization of the eigenvalue
would therefore diverge, and simplex collapse is meaningless in the
flat valley. The optimizer instead drives the gradient of the
objective to zero, and convergence is declared on the
max-norm of the gradient over all active coordinates, never on simplex
geometry.

Variable projection (Golub & Pereyra, 1973) removes the linear
coordinates from the search. Nothing in the (S2, sigma2) subsystem
depends on (S1, sigma1), which itself evolves linearly, and RK4
preserves that linearity; so at fixed (S20, sigma20) the discrete
eigenvalue and the constraint residual are both exact quadratics in
(S10, sigma10), at every hbar_tilde. One run at the current point
(``dynamics.propagator``, or ``dynamics.tangent`` when (S20, sigma20) are
searched) returns the end of the integrator's linear row, which does not
depend on (S10, sigma10), and ``endpoint_models`` turns it into the
value, gradient and Hessian of both quadratics, and so the objective's exact value, gradient and Hessian
along the active members of {S10, sigma10}. Those members are set to a
stationary point of the objective on these models, with no further
solves. Without a penalty that objective is the quadratic itself and
one minimum-norm Newton step solves it (so a direction the eigenvalue
does not depend on, such as sigma10 at hbar_tilde = 0, where its row of
the models is exactly zero, is left where it is). A penalty makes it
quartic, eigenvalue + weight * residual**2, and Newton iterates from the
current point, each step a minimum-norm solve on the two models; a
point where they do not settle is left unprojected. The models, the
objective on them and each step are scalar code on Python floats, at
most 2x2 (``_min_norm_step``: ``np.linalg.lstsq``'s solution and
cutoff, from one Jacobi rotation), so a point's projection makes no
numpy call. The extremizer always runs fixed-step rk4 and takes no
``method``: its gradient along
(S20, sigma20) is the derivative of the fixed-step map, and the
certificate's differences need a step sequence that does not move with
the point.
The ``extremize`` and ``classical-check`` commands exit 2 for
rk4_adaptive.

What is left is a root of the reduced gradient g, the gradient along
the active members of (S20, sigma20) at the projected point. Nelder-Mead
on the merit |g|**2 finds the basin: it is robust to blown-up regions,
but converges only linearly, so each run stops once its best merit
reaches ``HANDOFF_MERIT``. Powell's hybrid method (MINPACK's hybrd,
through ``scipy.optimize.root``) then solves g = 0 from that point, with
its default tolerances; its result is kept only if it lowers |g|. Both
are skipped when no search coordinate remains or the projected guess is
already stationary. A root needs a small gradient in the inverse
coordinates too (``_inverse_gradient``): g can decay toward infinity
along S20, below any tolerance, with no root there. A point that passes
only the first test is not a root, but it stays a candidate for the best
unconverged point.

Along (S10, sigma10) every derivative comes from the models. Along
(S20, sigma20) the gradient comes from the same run: ``dynamics.tangent``
steps the row with its derivatives along S20 and sigma20, and
``endpoint_report``, linear in its two rows, maps them to those of the
eigenvalue and the residual, exact for the discrete map (``_centre``).
Only the certificate's Hessian takes differences there, with steps of
sqrt(``FD_STEP``) times max(1, |coord|), on the models' value and
gradient (see ``stationarity_check``). Runs that blow up inside the
horizon, or whose tangents come out non-finite, map to a large finite
penalty so the simplex retreats; they are counted, not raised.

This is the one module of ``qap`` that imports numpy, for the records
the search and the certificate read (each point's gradient and Hessian
block, built once per point) and the certificate's ``eigvalsh``; the CLI
imports it only inside the two commands that search. ``scipy.optimize`` is
imported only when a search reaches Nelder-Mead. So the commands that
never search start and run without either.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .action import EigenvalueReport, eigenvalue, endpoint_report, json_17g
from .dynamics import DEFAULT_STEP, _state_tangent, final_state, integrate, propagator, tangent
from .errors import BlowUpError, FDFailureError
from .model import COORD_NAMES, InitialData, OscillatorSpec, flow_coefficients, parse_active

#: objective value substituted for runs that blow up
BLOWUP_PENALTY = 1e15

#: relative step of the certificate's differences along (S20, sigma20),
#: which take steps of sqrt(FD_STEP) * max(1, |coord|)
FD_STEP = 1e-5

#: eigenvalue cutoff of ``_min_norm_step``: ``np.linalg.lstsq``'s default
#: rcond, eps * max(M, N), for a 2x2 system
_CUTOFF = 2.0 * sys.float_info.epsilon

#: merit (squared reduced gradient) at which a Nelder-Mead run stops and
#: hands its best point to the root solve
HANDOFF_MERIT = 1e-2

log = logging.getLogger("qap")


@dataclass(frozen=True)
class HessianSignature:
    """Eigenvalue sign counts of ``stationarity_check``'s Hessian."""

    positive: int
    negative: int
    near_zero: int

    def to_dict(self) -> dict:
        return {
            "positive": self.positive,
            "negative": self.negative,
            "near_zero": self.near_zero,
        }


@dataclass(frozen=True)
class StationarityReport:
    """Gradient and Hessian of the objective at a point.

    The gradient is exact, from one run's models along (S10, sigma10) and
    its tangents along (S20, sigma20); the Hessian is exact along (S10,
    sigma10) and by differences along (S20, sigma20).
    """

    gradient: np.ndarray
    hessian: np.ndarray
    signature: HessianSignature


@dataclass(frozen=True)
class ExtremumResult:
    """Outcome of one extremization run.

    ``report`` is recomputed by a fresh integration at ``init``, never
    cached from a simplex vertex. ``hessian_signature`` is None when a
    probe of ``stationarity_check`` around the final point blew up.
    ``blowups`` counts the search's runs that blew up or gave non-finite
    tangents; the stationarity check and the final integration are not
    among them.
    """

    init: InitialData
    report: EigenvalueReport
    gradient_norm: float
    hessian_signature: HessianSignature | None
    iterations: int
    converged: bool
    active_mask: tuple[bool, bool, bool, bool]
    blowups: int
    seed: int

    def to_json(self) -> str:
        return json_17g(
            {
                "init": self.init.to_dict(),
                "report": self.report.to_dict(),
                "gradient_norm": self.gradient_norm,
                "hessian_signature": (
                    self.hessian_signature.to_dict() if self.hessian_signature else None
                ),
                "iterations": self.iterations,
                "converged": self.converged,
                "active_mask": list(self.active_mask),
                "active": [n for n, b in zip(COORD_NAMES, self.active_mask) if b],
                "blowups": self.blowups,
                "seed": self.seed,
            }
        )


def _embed(base, idx, z) -> InitialData:
    """``base`` with coordinates ``idx`` set to the active vector ``z``, as Python floats."""
    vals = [float(v) for v in base]
    for j, i in enumerate(idx):
        vals[i] = float(z[j])
    return InitialData(*vals)


def objective(
    init: InitialData,
    spec: OscillatorSpec,
    penalty_weight: float = 0.0,
    step: float = DEFAULT_STEP,
) -> float:
    """Eigenvalue plus optional quadratic constraint penalty.

    Deterministic scalar; blow-ups map to ``BLOWUP_PENALTY`` so a
    derivative-free search retreats from caustic regions.
    """
    try:
        return _value(spec, init, penalty_weight, step)
    except BlowUpError:
        return BLOWUP_PENALTY


def endpoint_models(spec, first, end):
    """Exact quadratic models of the eigenvalue and the residual in (S10, sigma10).

    ``end`` is the end row (u, p, C, St, Jcc, Jcs, Jss, I2) of
    ``dynamics.propagator`` from the initial data ``first``. With x =
    (S10, sigma10) and a2 = m*hh, the run's (S1, sigma1)(T) is P x, with
    P = [[C, a2*St], [-St, C]]/u, and its qS, qSigma and qCon are x.A x,
    x.B x + I2 and x.C x + 2*m*ln(u), with A, B and C built from Jcc, Jcs
    and Jss. Returns ((lam, gradient, Hessian), (residual, gradient,
    Hessian)) at x, on Python floats: each gradient a pair and each
    Hessian [[a, b], [b, c]] the triple (a, b, c). The two values are
    those of ``endpoint_report`` on the state row this rebuilds.
    """
    u, p, c, st, Jcc, Jcs, Jss, I2 = end
    m_inv, _, hh = flow_coefficients(spec)
    a2 = hh / m_inv
    m, h2 = spec.m, spec.hbar_tilde * spec.hbar_tilde
    IS = m * math.log(u)
    P00, P01, P10 = c / u, a2 * st / u, -st / u
    aJcs = a2 * Jcs
    A = (Jcc, aJcs, a2 * a2 * Jss)
    half = 0.5 * (Jcc - a2 * Jss)
    x0, x1 = first[0], first[2]
    row = (P00 * x0 + P01 * x1, p / u, P10 * x0 + P00 * x1, first[3] / u,
           _form(A, x0, x1), _form((Jss, -Jcs, Jcc), x0, x1) + I2,
           _form((-Jcs, half, aJcs), x0, x1) + 2.0 * IS, IS)
    report = endpoint_report(spec, first, row)
    H_lam = ((h2 * Jss - A[0]) / m, (-h2 * Jcs - aJcs) / m, (h2 * Jcc - A[2]) / m)
    H_res = (2.0 * Jcs / m, -2.0 * half / m, -2.0 * aJcs / m)
    xT = spec.xT
    g_lam = (xT * P00 - spec.x0 + (H_lam[0] * x0 + H_lam[1] * x1),
             xT * P01 + (H_lam[1] * x0 + H_lam[2] * x1))
    g_res = (xT * P10 + (H_res[0] * x0 + H_res[1] * x1),
             xT * P00 - spec.x0 + (H_res[1] * x0 + H_res[2] * x1))
    return (report.lam, g_lam, H_lam), (report.constraint_residual, g_res, H_res)


def _form(H, x0, x1):
    """x.H x for the symmetric triple ``H``."""
    a, b, c = H
    return (a * x0 + b * x1) * x0 + (b * x0 + c * x1) * x1


def _linear_models(spec: OscillatorSpec, init: InitialData, pos, step: float):
    """``endpoint_models`` at ``init``, restricted to its rows ``pos`` (``_restrict``).

    One propagator run; with ``pos`` empty, one plain solve gives the two
    values, with zero gradients and Hessians. Raises ``BlowUpError``.
    """
    if not pos:
        report = endpoint_report(spec, init.as_tuple(), final_state(spec, init, step))
        flat = ((0.0, 0.0), (0.0, 0.0, 0.0))
        return (report.lam, *flat), (report.constraint_residual, *flat)
    return _restrict(endpoint_models(spec, init.as_tuple(), propagator(spec, init, step)), pos)


def _value(spec: OscillatorSpec, init: InitialData, weight: float, step: float) -> float:
    """lam + weight * r**2 at ``init``, from one plain solve. Raises ``BlowUpError``."""
    (lam, _, _), (r, _, _) = _linear_models(spec, init, (), step)
    return lam + weight * r * r


def _restrict(models, pos):
    """``models`` along the active members ``pos`` of (S10, sigma10): the
    rows and columns of the others are zero, so they get no step."""
    if len(pos) == 2:
        return models
    on0, on1 = 0 in pos, 1 in pos
    return tuple((v, (g[0] if on0 else 0.0, g[1] if on1 else 0.0),
                  (H[0] if on0 else 0.0, H[1] if on0 and on1 else 0.0, H[2] if on1 else 0.0))
                 for v, g, H in models)


def _min_norm_step(H, g):
    """Minimum-norm x with H x = -g, for the symmetric triple ``H`` and the pair ``g``.

    ``np.linalg.lstsq`` with its default cutoff, on the eigenvalues of H
    (one Jacobi rotation): an eigenvalue with |lam| <= 2 eps max|lam|
    counts as zero, and its direction gets no step. None when an input is
    not finite.
    """
    a, b, c = H
    g0, g1 = g
    if not math.isfinite(a + b + c + g0 + g1):
        return None
    if b == 0.0:
        cut = _CUTOFF * max(abs(a), abs(c))
        return (-g0 / a if abs(a) > cut else 0.0), (-g1 / c if abs(c) > cut else 0.0)
    # eigenvectors (cs, -sn) and (sn, cs), eigenvalues a - t*b and c + t*b
    tau = (c - a) / (2.0 * b)
    t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
    cs = 1.0 / math.sqrt(1.0 + t * t)
    sn = t * cs
    l1, l2 = a - t * b, c + t * b
    cut = _CUTOFF * max(abs(l1), abs(l2))
    k1 = -(cs * g0 - sn * g1) / l1 if abs(l1) > cut else 0.0
    k2 = -(sn * g0 + cs * g1) / l2 if abs(l2) > cut else 0.0
    return k1 * cs + k2 * sn, k2 * cs - k1 * sn


def _objective_at(models, weight: float, u):
    """Value, gradient and Hessian of lam + weight * r**2 at offset ``u`` on
    ``models``, and the residual r there, on Python floats."""
    (lam, (gl0, gl1), (la, lb, lc)), (r0, (gr0, gr1), (ra, rb, rc)) = models
    u0, u1 = u
    dl0, dl1 = gl0 + (la * u0 + lb * u1), gl1 + (lb * u0 + lc * u1)
    dr0, dr1 = gr0 + (ra * u0 + rb * u1), gr1 + (rb * u0 + rc * u1)
    r = r0 + 0.5 * ((gr0 + dr0) * u0 + (gr1 + dr1) * u1)
    w2, wr = 2.0 * weight, 2.0 * weight * r
    value = lam + 0.5 * ((gl0 + dl0) * u0 + (gl1 + dl1) * u1) + weight * r * r
    gradient = (dl0 + wr * dr0, dl1 + wr * dr1)
    hessian = (la + w2 * dr0 * dr0 + wr * ra, lb + w2 * dr0 * dr1 + wr * rb,
               lc + w2 * dr1 * dr1 + wr * rc)
    return value, gradient, hessian, r


def _newton_quartic(models, weight: float):
    """Stationary offset of lam + weight * r**2 on ``models``, by Newton from u = 0.

    Each step is ``_min_norm_step``, like the penalty-free step, on Python
    floats. None when the iterates do not settle within a few dozen steps
    or overflow.
    """
    u0 = u1 = 0.0
    for _ in range(40):
        _, grad, hess, _ = _objective_at(models, weight, (u0, u1))
        du = _min_norm_step(hess, grad)
        if du is None:
            return None
        u0, u1 = u0 + du[0], u1 + du[1]
        if max(abs(du[0]), abs(du[1])) <= 1e-12 * max(1.0, abs(u0), abs(u1)):
            return u0, u1
    return None


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported at the call: only a search that
    reaches the simplex loads ``scipy.optimize``."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def _handoff(intermediate_result) -> None:
    """Nelder-Mead callback: stop once the best merit reaches ``HANDOFF_MERIT``."""
    if intermediate_result.fun <= HANDOFF_MERIT:
        raise StopIteration


def _inverse_gradient(gradient, z, free) -> float:
    """Largest |g|*max(1, z^2) over the searched coordinates: the gradient
    in 1/z where |z| > 1. A gradient that decays toward infinity along z
    falls below any tolerance without a root; this one does not."""
    return max((abs(float(gradient[j])) * max(1.0, float(z[j]) ** 2) for j in free), default=0.0)


def _signature(H: np.ndarray) -> HessianSignature:
    eigs = np.linalg.eigvalsh(H)
    scale = max(1.0, float(np.max(np.abs(eigs))) if len(eigs) else 0.0)
    thresh = 1e-6 * scale
    positive = int(np.sum(eigs > thresh))
    negative = int(np.sum(eigs < -thresh))
    return HessianSignature(positive, negative, len(eigs) - positive - negative)


def _split(idx):
    """Positions in the active vector ``idx``: along (S10, sigma10) and searched.

    The third list holds the rows of the active ones in
    ``endpoint_models``.
    """
    lin = [j for j, i in enumerate(idx) if i in (0, 2)]
    free = [j for j in range(len(idx)) if j not in lin]
    return lin, free, [idx[j] // 2 for j in lin]


def _centre(spec, base, idx, z, weight: float, step: float, project: bool):
    """The point ``z`` over the active coordinates ``idx`` of ``base``, and
    the objective there, from one run.

    With ``project`` the active members of (S10, sigma10) move to a
    stationary point of the objective on the run's models (see
    ``optimize``); Newton iterates that do not settle leave the point
    where it is. The models and the projection are Python floats
    (``endpoint_models``, ``_newton_quartic``); the objective is returned
    as its value, its gradient over ``idx`` and its Hessian along the
    members of (S10, sigma10), the two numpy arrays of the point's
    record, built once. The run is ``propagator``'s when no coordinate
    is searched, else ``tangent``'s, and the gradient along (S20,
    sigma20) is then exact for the discrete
    map: the row does not depend on (S10, sigma10), so its tangents hold
    at the moved point too, and ``endpoint_report`` is linear in its two
    rows, so it maps the tangent of the state row to those of the
    eigenvalue and the residual. Raises ``BlowUpError``, at T when the run
    completes but a tangent is not finite.
    """
    lin, free, pos = _split(idx)
    init = _embed(base, idx, z)
    if free:
        end, *slopes = tangent(spec, init, step)
    else:
        end = propagator(spec, init, step)
    models = _restrict(endpoint_models(spec, init.as_tuple(), end), pos)
    du = None
    if project and lin:
        # a direction the objective does not depend on gets no step
        du = (_newton_quartic(models, weight) if weight
              else _min_norm_step(models[0][2], models[0][1]))
    if du is None:
        du = (0.0, 0.0)
    else:
        z = z.copy()
        for j, k in zip(lin, pos):
            z[j] += du[k]
    value, g, H, r = _objective_at(models, weight, du)
    gradient = [0.0] * len(idx)
    for j, k in zip(lin, pos):
        gradient[j] = g[k]
    if free:
        first = _embed(base, idx, z).as_tuple()
        m_inv, _, hh = flow_coefficients(spec)
        for j in free:
            # the unit tangent of the initial data along this coordinate
            e = [0.0] * 4
            e[idx[j]] = 1.0
            dlast = _state_tangent(first, spec.m, hh / m_inv, end, slopes[idx[j] // 2], e[3])
            d = endpoint_report(spec, e, dlast)
            gradient[j] = d.lam + 2.0 * weight * r * d.constraint_residual
        if not all(math.isfinite(gradient[j]) for j in free):
            raise BlowUpError(spec.T)
    # entry (k, l) of the triple H is H[k + l]
    H_lin = np.array([[H[k + l] for l in pos] for k in pos]).reshape(len(pos), len(pos))
    return z, (value, np.array(gradient), H_lin)


def stationarity_check(
    init: InitialData,
    spec: OscillatorSpec,
    active=None,
    penalty_weight: float = 0.0,
    step: float = DEFAULT_STEP,
    *,
    centre: tuple[float, np.ndarray, np.ndarray] | None = None,
) -> StationarityReport:
    """Gradient and Hessian of the objective at ``init``, and the Hessian's signature.

    Along the active members of (S10, sigma10) the gradient and the
    Hessian block come exactly from the models of one run at ``init``.
    Along the searched coordinates (S20, sigma20) the gradient comes
    exactly from that run's tangents (a ``dynamics.tangent`` run; see
    ``_centre``), and the Hessian takes steps of hs = sqrt(FD_STEP) *
    max(1, |coord|): per coordinate, one
    model evaluation (a propagator run) at each of z +- hs gives the
    diagonal entry, a second difference of the objective, and the row's
    coupling to (S10, sigma10), a central difference of the exact model
    gradient; the S20-sigma20 entry takes four corner solves. With no
    member of (S10, sigma10) active each model evaluation is one plain
    solve. Every solve is fixed-step rk4: the models are exact only for
    it. Raises ``FDFailureError`` when the run at ``init`` or any probe
    blows up, or the tangents come out non-finite: a verification tool
    must not silently average over a caustic.

    A caller that already holds, at ``init``, the objective's value, its
    gradient over the active coordinates and its Hessian along the active
    members of (S10, sigma10) (no probe blown up) passes them as
    ``centre``; the report is the same up to roundoff, without the run at
    ``init``.
    """
    mask = parse_active(active)
    idx = [i for i in range(4) if mask[i]]
    lin, free, pos = _split(idx)
    base = init.as_tuple()
    z = np.array([base[i] for i in idx], dtype=float)
    n = len(idx)

    def f(z):
        try:
            return _value(spec, _embed(base, idx, z), penalty_weight, step)
        except BlowUpError:
            raise FDFailureError("finite-difference probe blew up") from None

    def at(z):
        try:
            models = _linear_models(spec, _embed(base, idx, z), pos, step)
        except BlowUpError:
            raise FDFailureError("finite-difference probe blew up") from None
        return _objective_at(models, penalty_weight, (0.0, 0.0))

    if centre is None:
        try:
            centre = _centre(spec, base, idx, z, penalty_weight, step, project=False)[1]
        except BlowUpError:
            raise FDFailureError("the run at the point blew up") from None
    v0, gradient, H_lin = centre
    # second differences use sqrt(FD_STEP) steps: FD_STEP itself would put
    # the quotient below the objective's evaluation precision
    hs = [math.sqrt(FD_STEP) * max(1.0, abs(v)) for v in z]
    H = np.empty((n, n))
    H[np.ix_(lin, lin)] = H_lin
    for i in free:
        zp = z.copy(); zp[i] += hs[i]
        zm = z.copy(); zm[i] -= hs[i]
        (vp, gp, _, _), (vm, gm, _, _) = at(zp), at(zm)
        H[i, i] = (vp - 2.0 * v0 + vm) / hs[i] ** 2
        H[i, lin] = H[lin, i] = [(gp[k] - gm[k]) / (2.0 * hs[i]) for k in pos]
    for a, i in enumerate(free):
        for j in free[a + 1:]:
            zpp = z.copy(); zpp[i] += hs[i]; zpp[j] += hs[j]
            zpm = z.copy(); zpm[i] += hs[i]; zpm[j] -= hs[j]
            zmp = z.copy(); zmp[i] -= hs[i]; zmp[j] += hs[j]
            zmm = z.copy(); zmm[i] -= hs[i]; zmm[j] -= hs[j]
            H[i, j] = H[j, i] = (f(zpp) - f(zpm) - f(zmp) + f(zmm)) / (4.0 * hs[i] * hs[j])
    return StationarityReport(gradient, H, _signature(H))


def optimize(
    spec: OscillatorSpec,
    guess: InitialData,
    active=None,
    grad_tol: float = 1e-6,
    max_iter: int = 2000,
    penalty_weight: float = 0.0,
    restarts: int = 5,
    seed: int = 42,
    step: float = DEFAULT_STEP,
) -> ExtremumResult:
    """Find a stationary point of the objective over the active coordinates.

    Every solve is fixed-step rk4. The active members of (S10, sigma10)
    are solved for at every point from the exact quadratic models of the
    eigenvalue and the constraint residual in them, which one run gives:
    one Newton step without a penalty, Newton iterations on the quartic
    objective with one (see the module docstring). The search runs over
    the active members of (S20, sigma20), and that run is then a tangent
    run, which also gives the exact gradient along them (``_centre``). It makes up to ``restarts`` attempts (the
    first from ``guess``, later ones from seeded perturbations of the best
    point); none when nothing is left to search or the projected guess is
    already stationary. Each attempt runs Nelder-Mead on the squared
    gradient along the searched coordinates until its
    best value falls to ``HANDOFF_MERIT``, then ``scipy.optimize.root``
    (method ``hybr``, default tolerances) on that gradient from the
    simplex's best vertex; the root is kept only if it lowers the squared
    gradient. Each simplex starts at scale 0.1 * max(1, |coord|) per
    coordinate. ``max_iter`` caps the Nelder-Mead iterations and the
    root solve's gradient evaluations of each attempt, and
    ``iterations`` counts both.
    Each point is solved once per call (its propagator or tangent run
    counts as its solve): its cached record serves the simplex, the root
    solve and the certificate. The record also holds the objective's
    value, its gradient over all active coordinates (from the same run's
    models and tangents) and its Hessian along (S10, sigma10) at
    the projected point: the certificate's gradient and
    ``stationarity_check``'s centre are read from it, so the returned
    point is solved only by the final ``integrate``.
    Convergence means the max-norm of the gradient over all active
    coordinates fell to ``grad_tol``, and so did the gradient in the
    inverse coordinates 1/z of the searched ones (``_inverse_gradient``);
    a ``qap`` INFO log line names an attempt that ends where only the
    first holds. Otherwise the best point found, by the merit, is still
    returned with ``converged=False``. If that best point
    itself blows up (no integrable point was found), the final
    ``integrate`` raises ``BlowUpError`` with its partial grid instead:
    the returned report needs a complete run.
    """
    mask = parse_active(active)
    idx = [i for i in range(4) if mask[i]]
    base = guess.as_tuple()
    free = _split(idx)[1]
    z0 = np.array([base[i] for i in idx], dtype=float)
    blowups = 0
    T = spec.T

    def full(z_free) -> np.ndarray:
        z = z0.copy()
        z[free] = z_free
        return z

    # records of the current attempt, keyed on z_free.tobytes(); the guess's
    # record starts the first attempt, and each attempt reads its best point
    seen = {}

    def reduced(z_free):
        """Projected point, merit, and the centre for the check.

        One run at the point (``_centre``) projects it and gives the
        gradient over all active coordinates there; along lin it vanishes
        at a projected point, so along the searched coordinates it is the
        reduced gradient. The projection moves only (S10, sigma10), and
        the row that blows up does not depend on them. The centre for the
        check is the objective's value, that gradient and its Hessian along
        lin; None when the run blew up, which leaves no projection and no
        gradient. The merit is the squared reduced gradient, except near
        the penalty: blown-up runs ramp it by how early they died, so the
        simplex has a slope back toward integrable initial data.
        """
        nonlocal blowups
        key = z_free.tobytes()
        if key not in seen:
            z = full(z_free)
            try:
                z, at = _centre(spec, base, idx, z, penalty_weight, step, project=True)
            except BlowUpError as err:
                blowups += 1
                frac = (T - min(max(float(err.t_last), 0.0), T)) / T
                seen[key] = z, BLOWUP_PENALTY * (1.0 + frac), None
            else:
                g = at[1][free]
                seen[key] = z, min(float(g @ g), 0.9 * BLOWUP_PENALTY), at
        return seen[key]

    def merit(z_free) -> float:
        return reduced(z_free)[1]

    def residual(z_free) -> np.ndarray:
        at = reduced(z_free)[2]
        return np.full(len(z_free), BLOWUP_PENALTY) if at is None else at[1][free]

    def verdict(z, at) -> tuple[float, bool]:
        """Gradient max-norm of a record, and whether its point is a root:
        that norm, and the gradient in 1/z along the searched coordinates,
        within ``grad_tol``."""
        norm = math.inf if at is None else float(np.max(np.abs(at[1])))
        return norm, norm <= grad_tol and _inverse_gradient(at[1], z, free) <= grad_tol

    rng = np.random.default_rng(seed)
    n = len(free)
    best_free = z0[free]
    best_z, best_merit, best_centre = reduced(best_free)
    gradient_norm, converged = verdict(best_z, best_centre)
    iterations = 0
    attempt = 0
    while n and not converged and attempt < max(1, restarts):
        if attempt == 0:
            start = best_free.copy()
        else:
            scales = 0.1 * np.maximum(1.0, np.abs(best_free))
            start = best_free + scales * rng.standard_normal(n)
        simplex = np.tile(start, (n + 1, 1))
        for j in range(n):
            simplex[j + 1, j] += 0.1 * max(1.0, abs(start[j]))
        res = minimize(
            merit,
            start,
            method="Nelder-Mead",
            callback=_handoff,
            options={
                "initial_simplex": simplex,
                "maxiter": max_iter,
                "maxfev": 8 * max_iter,
                "xatol": 1e-9,
                "fatol": 1e-15,
            },
        )
        iterations += int(res.nit)
        x, fx = np.asarray(res.x, dtype=float), float(res.fun)
        if fx <= HANDOFF_MERIT:
            from scipy.optimize import root

            sol = root(residual, x, method="hybr", options={"maxfev": max_iter})
            iterations += int(sol.nfev)
            if float(sol.fun @ sol.fun) < fx:
                x, fx = sol.x, float(sol.fun @ sol.fun)
        point, _, at = reduced(x)
        norm, root_found = verdict(point, at)
        if norm <= grad_tol and not root_found:
            # a small gradient, but no root: the point stays a candidate
            log.info("attempt %d: no root; the gradient decays toward infinity "
                     "(%.3g in the inverse coordinates)", attempt,
                     _inverse_gradient(at[1], point, free))
        if fx < best_merit:
            best_merit, best_free = fx, x
            best_z, best_centre = point, at
            if at is not None:
                gradient_norm, converged = norm, root_found
        seen.clear()
        attempt += 1

    final_init = _embed(base, idx, best_z)
    grid = integrate(spec, final_init, step=step)
    report = eigenvalue(grid)
    signature = None
    if best_centre is not None:
        try:
            signature = stationarity_check(
                final_init, spec, mask, penalty_weight, step, centre=best_centre,
            ).signature
        except FDFailureError:
            pass
    return ExtremumResult(
        init=final_init,
        report=report,
        gradient_norm=gradient_norm,
        hessian_signature=signature,
        iterations=iterations,
        converged=converged,
        active_mask=mask,
        blowups=blowups,
        seed=seed,
    )
