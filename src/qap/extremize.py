"""Extremization of the action eigenvalue over initial coefficient data.

The eigenvalue's stationary point is not a minimum over all four
coordinates: in the classical regime it is a maximum along S10 (the
quadratic coefficient of the closed-form eigenvalue is negative) and
exactly flat along the phase-offset direction. The optimizer seeks a
stationary point, and convergence is declared on the max-norm of the
gradient over all active coordinates.

Variable projection (Golub & Pereyra, 1973) removes the linear
coordinates from the search. Nothing in the (S2, sigma2) subsystem
depends on (S1, sigma1), which itself evolves linearly, and RK4
preserves that linearity; so at fixed (S20, sigma20) the discrete
eigenvalue and the constraint residual are both exact quadratics in
(S10, sigma10), at every hbar_tilde. One run at the current point
(``dynamics.propagator``, or, when (S20, sigma20) are searched,
``dynamics.taped``, or ``dynamics.tangent`` at sigma20 = 0 and past
``dynamics.TAPE_STEPS``) returns the end of the integrator's linear row,
which does not depend on (S10, sigma10), and ``endpoint_models`` turns it
into the value, gradient and Hessian of both quadratics, and so the
objective's exact value, gradient and Hessian along the active members of
{S10, sigma10}. Those members are set to a
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
``method``: the models, its gradient along (S20, sigma20) and the
certificate's Hessian are exact derivatives of the fixed-step map, and
of no other integrator's. The ``extremize`` and ``classical-check``
commands exit 2 for rk4_adaptive.

What is left is a root of the reduced gradient g, the gradient along
the active members of (S20, sigma20) at the projected point. At a
projected point the gradient along (S10, sigma10) vanishes, so g is
also the gradient of the projected objective, the record's value as a
function of (S20, sigma20) alone; at every measured root of the penalised
quantum search that function has a strict minimum (its Hessian, the
Schur complement of the (S10, sigma10) block, is positive definite). So
each search attempt descends on it: BFGS with the exact gradient and a
backtracking Armijo line search (Nocedal & Wright, *Numerical
Optimization*, 2nd ed., ch. 6), on Python floats and 2x2 numpy arrays. A
descent finds minima of the projected objective only; a saddle root is
found only by the pass at h alone below. Nothing runs when no search
coordinate remains or the projected guess is already stationary. A root
needs a small gradient in the inverse coordinates too
(``_inverse_gradient``): g can decay toward infinity along S20, below
any tolerance, with no root there. A point that passes only the first
test is not a root, but it stays a candidate for the best unconverged
point.

Only the last steps to the root need the requested step h, so the search
is nested iteration (Briggs, Henson & McCormick, *A Multigrid Tutorial*,
2nd ed., 2000, ch. 3): the descent runs on the map at the coarse step
``COARSE`` * h, whose runs take a quarter of the steps, and Newton steps
on the map at h, on the descent's inverse Hessian, polish its root,
which lies O((4h)**4) from the root at h. A descent that ends without a
small gradient (on a caustic wall, say) ends its attempt unpolished.
Near a caustic wall the two maps part, so an attempt whose start blows up
on the coarse map, or whose polish does not reach a small gradient at h,
runs at h alone: Nelder-Mead on the merit |g|**2, robust to blown-up
regions, until its best merit reaches ``HANDOFF_MERIT``, then Powell's
hybrid method (MINPACK's hybrd, through ``scipy.optimize.root``, default
tolerances) on g = 0 from that point, kept only if it lowers |g|. What
the search returns, and the certificate, are read from runs at h alone.

Along (S10, sigma10) the gradient comes from the models. Along (S20,
sigma20) it comes from the same run, exact for the discrete map, by one
formula (``_centre``): the gradient of the objective with respect to the
end row (the seed, ``endpoint_report`` and ``dynamics._state_row``
transposed) is pulled back to S20 and sigma20 by the run. A taped run
(``dynamics.taped``) sweeps it back over its steps, reverse mode, for
about the cost of one more row run. At sigma20 = 0, and past
``TAPE_STEPS``, ``dynamics.tangent`` steps the row and its first- and
second-order lines along the searched coordinates (along S20 alone only
the 7 live components at sigma20 = 0), and the seed's dot products
with the first-order lines are the pullback. The certificate's Hessian
is exact too (``_hessian``): every entry is the second derivative of
the state row (``dynamics._state_curvature``) read by the same seed,
from a tangent run's first- and second-order lines, the search's own
run's when it took one, else one tangent run at the returned point
(see ``stationarity_check``). No derivative takes a difference step.
Runs that blow up inside the horizon, or whose gradient along (S20,
sigma20) comes out non-finite, fail a line-search trial and map to a
large finite penalty so the simplex retreats; they are counted, not
raised.

This is the one module of ``qap`` that imports numpy, for the records
the search and the certificate read (each point's gradient, built once
per point) and the certificate's ``eigvalsh``; the CLI
imports it only inside the two commands that search. ``scipy.optimize`` is
imported only when a search reaches the pass at h alone, from a start
that blows up on the coarse map or a polish that does not settle. So the
commands that never search start and run without either, and most
searches without scipy.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import asdict, dataclass
from operator import mul

import numpy as np

from . import dynamics
from .action import EigenvalueReport, eigenvalue, endpoint_report, json_17g
from .dynamics import (DEFAULT_STEP, _state_cotangent, _state_curvature, _state_row,
                       _state_tangent, integrate, propagator, taped, tangent)
from .errors import BlowUpError
from .model import COORD_NAMES, InitialData, OscillatorSpec, flow_coefficients, parse_active

#: objective value substituted for runs that blow up
BLOWUP_PENALTY = 1e15

#: eigenvalue cutoff of ``_min_norm_step``: ``np.linalg.lstsq``'s default
#: rcond, eps * max(M, N), for a 2x2 system
_CUTOFF = 2.0 * sys.float_info.epsilon

#: merit (squared reduced gradient) at which a Nelder-Mead run stops and
#: hands its best point to the root solve
HANDOFF_MERIT = 1e-2

#: sufficient-decrease constant of the descent's Armijo line search
ARMIJO = 1e-4

#: the polish stops where the gradient's max-norm falls to TIGHT * grad_tol
TIGHT = 1e-6

#: trials of one line search before the descent gives up
LINE_SEARCH_TRIALS = 30

#: ratio of the coarse step to the requested one h: each search attempt
#: descends on the map at COARSE * h, then polishes on the map at h. On
#: the quantum-search tasks of seeds 1-25 (h = 1e-2, two in-process
#: passes) the search took 0.71-0.88x, 0.64-0.75x and 0.52-0.66x of the
#: time with COARSE = 1 at 2, 4 and 8, every search converged and lambda
#: moved by at most 6e-14. It is 4, not the faster 8: at h = 1e-2 a coarse
#: step of 8e-2 nears the step of about 0.1 at which fixed-step rk4 can
#: cross a caustic and still complete, and the map at 4h already has
#: false roots far out, where it under-resolves the S2 dynamics (near
#: S20 = 170 from test_root_beyond_unit_coordinates_converges's guess)
COARSE = 4

log = logging.getLogger("qap")


@dataclass(frozen=True)
class HessianSignature:
    """Eigenvalue sign counts of ``stationarity_check``'s Hessian."""

    positive: int
    negative: int
    near_zero: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class StationarityReport:
    """Gradient and Hessian of the objective at a point.

    Both are exact for the discrete map. The gradient comes from one run's
    models along (S10, sigma10) and, along (S20, sigma20), from the same
    run's pullback (a backward sweep, or the first-order lines of a
    tangent run); every entry of the Hessian from one formula on a
    tangent run's first- and second-order lines, with a zero line along
    (S10, sigma10), on which the run does not depend.
    """

    gradient: np.ndarray
    hessian: np.ndarray
    signature: HessianSignature


@dataclass(frozen=True)
class ExtremumResult:
    """Outcome of one extremization run.

    ``report`` is ``endpoint_report`` at ``init``, from the end row of
    the search's own run there, bit for bit the report of a fresh
    ``integrate`` at ``init``. ``hessian_signature`` is that of
    ``stationarity_check``'s exact Hessian at ``init``; it is None only
    when the point's run blew up (no search point integrated) or its
    gradient or second-order values are not finite.
    ``iterations`` counts the descent iterations and the Newton steps of
    every attempt, and the Nelder-Mead iterations and hybr evaluations of
    the passes at h alone (see ``optimize``).
    ``blowups`` counts the search's runs, at both steps, that blew up or
    gave a non-finite gradient; the stationarity check's runs are not
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


def _report(spec, first, end) -> EigenvalueReport:
    """``endpoint_report`` of the run from the start state ``first`` whose
    end row (u, p, C, St, Jcc, Jcs, Jss, I2) is ``end``: on
    ``dynamics._state_row``, the state row ``final_state`` returns for
    that run."""
    m_inv, _, hh = flow_coefficients(spec)
    return endpoint_report(spec, first, _state_row(first, float(spec.m), hh / m_inv, end))


def _report_cotangent(spec, wr):
    """The gradient of lam + wr * residual, linear in ``endpoint_report``'s
    two rows, with respect to its first row (the four initial
    coefficients) and its last (the state row at T). With wr = 2 * weight
    * r, it is that of the objective lam + weight * r**2 at residual r."""
    x0, xT, m = spec.x0, spec.xT, spec.m
    half0, halfT = 0.5 * x0 * x0, 0.5 * xT * xT
    return ((-x0, -half0, -wr * x0, -wr * half0),
            (xT, halfT, wr * xT, wr * halfT, -0.5 / m, 0.5 * spec.hbar_tilde**2 / m, -wr / m,
             0.0))


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
    those of ``_report``, the report of the same run.
    """
    u, _, c, st, Jcc, Jcs, Jss, _ = end
    m_inv, _, hh = flow_coefficients(spec)
    a2 = hh / m_inv
    report = _report(spec, first, end)
    m, h2 = spec.m, spec.hbar_tilde * spec.hbar_tilde
    P00, P01, P10 = c / u, a2 * st / u, -st / u
    aJcs = a2 * Jcs
    half = 0.5 * (Jcc - a2 * Jss)
    x0, x1 = first[0], first[2]
    H_lam = ((h2 * Jss - Jcc) / m, (-h2 * Jcs - aJcs) / m, (h2 * Jcc - a2 * a2 * Jss) / m)
    H_res = (2.0 * Jcs / m, -2.0 * half / m, -2.0 * aJcs / m)
    xT = spec.xT
    g_lam = (xT * P00 - spec.x0 + (H_lam[0] * x0 + H_lam[1] * x1),
             xT * P01 + (H_lam[1] * x0 + H_lam[2] * x1))
    g_res = (xT * P10 + (H_res[0] * x0 + H_res[1] * x1),
             xT * P00 - spec.x0 + (H_res[1] * x0 + H_res[2] * x1))
    return (report.lam, g_lam, H_lam), (report.constraint_residual, g_res, H_res)


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
    reaches the simplex, in a pass at h alone, loads ``scipy.optimize``."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def _handoff(intermediate_result) -> None:
    """Nelder-Mead callback: stop once the best merit reaches ``HANDOFF_MERIT``."""
    if intermediate_result.fun <= HANDOFF_MERIT:
        raise StopIteration


def _bfgs_update(H, s, y):
    """The BFGS update of the inverse Hessian ``H`` by the step ``s`` and
    the change ``y`` of the gradient along it (Nocedal & Wright, eq. 6.17);
    ``H`` None is first scaled to (s.y / y.y) I (eq. 6.20). A pair with
    s.y <= 0 would lose positive definiteness and leaves ``H`` as it is."""
    sy = float(s @ y)
    if not sy > 0.0:
        return H
    eye = np.eye(len(s))
    if H is None:
        H = eye * (sy / float(y @ y))
    v = eye - np.outer(s, y) / sy
    return v @ H @ v.T + np.outer(s, s) / sy


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
    """The point ``z`` over the active coordinates ``idx`` of ``base``, the
    objective there and the run, from one run.

    With ``project`` the active members of (S10, sigma10) move to a
    stationary point of the objective on the run's models (see
    ``optimize``); Newton iterates that do not settle leave the point
    where it is. The models and the projection are Python floats
    (``endpoint_models``, ``_newton_quartic``); the objective is returned
    as its value and its gradient over ``idx``, a numpy array built once.
    The run is returned as its end row and, from a tangent run, its
    first- and second-order rows along the searched coordinates (else
    None). The end row is ``propagator``'s, which does not depend on
    (S10, sigma10), so it is the end row of a run from the moved point
    too, and its derivatives along (S20, sigma20) hold there too.

    This is where a point's run is chosen: ``propagator``'s when no
    coordinate is searched; ``tangent``'s along the searched coordinates
    at sigma20 = 0 (along S20 alone its 7 live components cost less than
    a tape) and when the run is too long for a tape (``TAPE_STEPS``),
    whose rows the certificate then reads too; else ``taped``'s. Every
    run is read by one formula, exact for the discrete map: the seed, the
    gradient of the objective with respect to the end row at the moved
    point, is ``endpoint_report`` (``_report_cotangent``) and
    ``_state_row`` (``dynamics._state_cotangent``) transposed; the run's
    pullback takes it to the searched coordinates, a backward sweep over
    a tape or the seed's dot products with a tangent run's first-order
    rows; and the start data's own terms, those of ``endpoint_report``'s
    first row and of sigma2 = sigma20/u, are added.

    Raises ``BlowUpError``, at T when the run completes but the gradient
    is not finite.
    """
    lin, free, pos = _split(idx)
    init = _embed(base, idx, z)
    lines = None
    if not free:
        end = propagator(spec, init, step)
    elif init.sigma20 == 0.0 or float(spec.T) > dynamics.TAPE_STEPS * step:
        run = tangent(spec, init, step, [COORD_NAMES[idx[j]] for j in free])
        end, lines = run[0], run[1:]

        def pullback(seed):
            return [sum(map(mul, seed, row)) for row in lines[0]]
    else:
        end, sweep = taped(spec, init, step)

        def pullback(seed):
            along = sweep(seed)
            return [along[idx[j] // 2] for j in free]
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
    value, g, _, r = _objective_at(models, weight, du)
    gradient = [0.0] * len(idx)
    for j, k in zip(lin, pos):
        gradient[j] = g[k]
    if free:
        first = _embed(base, idx, z).as_tuple()
        m_inv, _, hh = flow_coefficients(spec)
        d_first, d_last = _report_cotangent(spec, 2.0 * weight * r)
        seed, d_sigma20 = _state_cotangent(first, spec.m, hh / m_inv, end, d_last)
        for j, d in zip(free, pullback(seed)):
            # plus the start data's own terms: the first row's, and sigma2 = sigma20/u
            gradient[j] = d + d_first[1] if idx[j] == 1 else d + d_sigma20 + d_first[3]
        if not all(math.isfinite(gradient[j]) for j in free):
            raise BlowUpError(spec.T)
    return z, (value, np.array(gradient)), (end, lines)


def _hessian(spec, first, idx, weight: float, end, lines) -> np.ndarray:
    """The objective's Hessian over the active coordinates ``idx`` at the
    point with start state ``first``, exact for the discrete map.

    ``end`` is the point's end row and ``lines`` the first- and
    second-order rows of a tangent run along the searched coordinates
    there. Every entry is that of lam + weight * r**2 with
    ``endpoint_report`` linear in its two rows: lam_XY + 2 * weight *
    (r_X * r_Y + r * r_XY), where the second derivative of the state row
    (``dynamics._state_curvature``) takes the run's second-order rows
    along two searched coordinates and a zero row tangent along each of
    (S10, sigma10), on which the row does not depend, and the residual's
    tangent along a searched coordinate its first-order row
    (``dynamics._state_tangent``), along (S10, sigma10) the models'
    gradient.
    """
    free = _split(idx)[1]
    m_inv, _, hh = flow_coefficients(spec)
    m, a2 = spec.m, hh / m_inv
    _, (r, g_res, _) = endpoint_models(spec, first, end)
    # the objective's gradient with respect to the state row at T
    seed = _report_cotangent(spec, 2.0 * weight * r)[1]
    slopes, curvatures = lines if free else ((), ())
    zero = (0.0,) * 8
    directions, d_res = [], []
    rows = iter(slopes)
    for i in idx:
        e = [0.0] * 4
        e[i] = 1.0
        if i in (0, 2):
            directions.append((e, zero))
            d_res.append(g_res[i // 2])
        else:
            dy = next(rows)
            directions.append((e, dy))
            dlast = _state_tangent(first, m, a2, end, dy, e[3])
            d_res.append(endpoint_report(spec, e, dlast).constraint_residual)
    n = len(idx)
    H = np.empty((n, n))
    # the pairs of searched coordinates come in the order of the run's rows
    rows = iter(curvatures)
    for a in range(n):
        for b in range(a, n):
            dXY = next(rows) if a in free and b in free else zero
            ds = _state_curvature(first, m, a2, end, directions[a], directions[b], dXY)
            H[a, b] = H[b, a] = (sum(map(mul, seed, ds))
                                 + 2.0 * weight * d_res[a] * d_res[b])
    return H


def stationarity_check(
    init: InitialData,
    spec: OscillatorSpec,
    active=None,
    penalty_weight: float = 0.0,
    step: float = DEFAULT_STEP,
    *,
    centre: tuple[tuple[float, np.ndarray], tuple[tuple, tuple | None]] | None = None,
) -> StationarityReport:
    """Gradient and Hessian of the objective at ``init``, and the Hessian's signature.

    Both are exact for the discrete map. The run at ``init`` that the
    search would make there (``_centre``) gives the gradient; every entry
    of the Hessian comes from one formula (``_hessian``) on that run's end
    row and a ``dynamics.tangent`` run's first- and second-order rows
    along the searched coordinates: the run's own when ``_centre`` took a
    tangent run, else one more run. Every run is fixed-step rk4: the rows
    are exact only for it. Raises ``BlowUpError``: the run's own, at its
    ``t_last``, when a run blows up, and one at T when the gradient or the
    Hessian comes out non-finite.

    A caller that already holds the record of ``_centre`` at ``init``, the
    objective (its value and its gradient over the active coordinates)
    and the run (its end row and, from a tangent run, its first- and
    second-order rows, else None), passes the pair ((value, gradient),
    (end row, rows)) as ``centre``, and the check makes no run but the
    tangent run a taped record needs.
    """
    mask = parse_active(active)
    idx = [i for i in range(4) if mask[i]]
    free = _split(idx)[1]
    base = init.as_tuple()
    along = [COORD_NAMES[idx[j]] for j in free]
    if centre is None:
        z = np.array([base[i] for i in idx], dtype=float)
        centre = _centre(spec, base, idx, z, penalty_weight, step, project=False)[1:]
    (_, gradient), (end, lines) = centre
    if free and lines is None:
        # the search took its gradient from a taped run
        lines = tangent(spec, init, step, along)[1:]
    H = _hessian(spec, tuple(map(float, base)), idx, penalty_weight, end, lines)
    if not np.all(np.isfinite(H)):
        raise BlowUpError(spec.T)
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
    the active members of (S20, sigma20), and that run then also gives
    the exact gradient along them (``_centre``): a taped run and one
    backward sweep of its adjoint, reverse mode, or a tangent run at
    sigma20 = 0 and past ``TAPE_STEPS``. It makes up to ``restarts``
    attempts (the first from ``guess``, later ones from seeded
    perturbations of the best point); none when nothing is left to search
    or the projected guess is already stationary. Each attempt descends
    on the map at the coarse step ``COARSE * step``: BFGS on the projected
    objective, whose gradient is the record's reduced gradient, with a
    backtracking Armijo line search in which a trial that blows up fails
    (Nocedal & Wright, *Numerical Optimization*, 2nd ed., ch. 6). The
    descent ends on a root of the coarse map; on a small gradient (within
    ``grad_tol``) whose gradient in the inverse coordinates, below, no
    longer halves from one iterate to the next, where it decays toward
    infinity with no root; or without a small gradient, when a line
    search fails, two in a row meet a blow-up, or ``max_iter`` iterations
    pass. An attempt whose descent ends without a small gradient ends
    there. Else Newton steps on the map at ``step``, on the descent's
    inverse Hessian and updated by BFGS, polish the point, each kept only
    while it lowers the squared reduced gradient at ``step``, until they
    reach a root with a gradient max-norm within 1e-6 * ``grad_tol``
    (``TIGHT``) or a small gradient with no root. A polish that ends
    without a small gradient at ``step``, and an attempt whose start blows
    up on the coarse map, are made again at ``step`` alone: near a caustic
    wall the two maps part. That pass runs Nelder-Mead on the squared
    reduced gradient until its best value falls to ``HANDOFF_MERIT``,
    then ``scipy.optimize.root`` (method ``hybr``, default tolerances) on
    the gradient from the simplex's best vertex, kept only if it lowers
    the squared gradient; the simplex starts at scale 0.1 * max(1,
    |coord|) per coordinate. Only that pass imports ``scipy.optimize``.
    The verdict, the best point, the restarts, the report and the
    certificate read only records at ``step``. ``max_iter`` caps each
    descent's iterations, each polish's Newton steps, each Nelder-Mead
    run's iterations and each root solve's gradient evaluations;
    ``iterations`` counts the descent iterations, the Newton steps, and the
    Nelder-Mead iterations and hybr evaluations of the passes at ``step``
    alone, and ``blowups`` the runs at both steps that blew up (line-search
    trials into a caustic wall among them).
    Each point is solved once per step per call (its propagator, taped or
    tangent run counts as its solve): its cached record serves the
    descent, the polish, the simplex, the root solve and the certificate.
    The record also holds the objective's
    value, its gradient over all active coordinates (from the same run's
    models and its pullback) at the projected point and the run's end row
    and tangent lines: the certificate's gradient,
    ``stationarity_check``'s centre and the returned report are read from
    it, so no point is solved twice at one step, the returned one included.
    Convergence means the max-norm of the gradient over all active
    coordinates fell to ``grad_tol``, and so did the gradient in the
    inverse coordinates 1/z of the searched ones (``_inverse_gradient``);
    a ``qap`` INFO log line names an attempt that ends where only the
    first holds. Otherwise the best point found, by the merit, is still
    returned with ``converged=False``. If that best point has no
    record (every run blew up or gave a non-finite gradient), its report
    comes from ``integrate``, which raises ``BlowUpError`` with its
    partial grid when the run blows up: the returned report needs a
    complete run.
    """
    mask = parse_active(active)
    idx = [i for i in range(4) if mask[i]]
    base = guess.as_tuple()
    free = _split(idx)[1]
    z0 = np.array([base[i] for i in idx], dtype=float)
    blowups = iterations = 0
    T = spec.T
    # the step of the descent
    coarse = COARSE * step

    def full(z_free) -> np.ndarray:
        z = z0.copy()
        z[free] = z_free
        return z

    # records of the current attempt at each step, keyed on z_free.tobytes();
    # the guess's record at ``step`` starts the first attempt, and each
    # attempt reads its best point there
    seen = {step: {}, coarse: {}}

    def reduced(z_free, at_step=step):
        """Projected point, merit, the centre for the check and the run at
        ``at_step``.

        One run at the point (``_centre``) projects it and gives the
        gradient over all active coordinates there; along lin it vanishes
        at a projected point, so along the searched coordinates it is the
        reduced gradient, the gradient of the projected objective, whose
        value the centre holds. The projection moves only (S10, sigma10),
        and the row that blows up does not depend on them. The centre for
        the check is the objective's value and that gradient; the run is
        its end row and, from a tangent run, its rows. Both are None when
        the run blew up, which leaves no projection and no gradient. The
        merit is the squared reduced gradient, except near the penalty:
        blown-up runs ramp it by how early they died, so the simplex has a
        slope back toward integrable initial data.
        """
        nonlocal blowups
        records = seen[at_step]
        key = z_free.tobytes()
        if key not in records:
            z = full(z_free)
            try:
                z, at, run = _centre(spec, base, idx, z, penalty_weight, at_step, project=True)
            except BlowUpError as err:
                blowups += 1
                frac = (T - min(max(float(err.t_last), 0.0), T)) / T
                records[key] = z, BLOWUP_PENALTY * (1.0 + frac), None, None
            else:
                g = at[1][free]
                records[key] = z, min(float(g @ g), 0.9 * BLOWUP_PENALTY), at, run
        return records[key]

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

    def ends(point, at, last, tol) -> tuple[bool, float]:
        """Whether a descent or a polish ends on a record, and the record's
        gradient in the inverse coordinates: it ends on a root whose
        gradient's max-norm is within ``tol``, or on a small gradient (within
        ``grad_tol``) whose inverse-coordinate gradient fell by less than
        half from ``last``, that of the iterate before: there the gradient
        decays toward infinity, with no root."""
        norm, root_found = verdict(point, at)
        inverse = _inverse_gradient(at[1], point, free)
        return (root_found and norm <= tol) or (norm <= grad_tol and inverse > 0.5 * last), inverse

    def descent(x):
        """BFGS on the projected objective on the coarse map from ``x``,
        with the records' exact gradient and a backtracking Armijo line
        search; a trial that blows up fails like one that does not lower
        the objective enough. The point it ends on, and its inverse
        Hessian (None before the first update)."""
        nonlocal iterations
        point, _, at, _ = reduced(x, coarse)
        f, g = at[0], at[1][free]
        H = None
        walled, last = False, math.inf
        for _ in range(max_iter):
            stop, last = ends(point, at, last, grad_tol)
            if stop:
                break
            if H is None:
                # the first step moves by at most the simplex's scale
                p = -g
                alpha = min(1.0, 0.1 * np.max(np.maximum(1.0, np.abs(x))) / np.max(np.abs(g)))
            else:
                p, alpha = -(H @ g), 1.0
            slope = float(g @ p)
            hit = False
            for _ in range(LINE_SEARCH_TRIALS):
                trial = x + alpha * p
                point, _, at, _ = reduced(trial, coarse)
                if at is None:
                    hit = True
                    alpha *= 0.5
                    continue
                excess = at[0] - f - alpha * slope
                if excess <= (ARMIJO - 1.0) * alpha * slope:
                    break
                # the minimum of the quadratic through f, slope and the trial,
                # kept within [0.1, 0.5] of the step
                alpha *= min(max(-0.5 * alpha * slope / excess, 0.1), 0.5)
            else:
                break
            iterations += 1
            H = _bfgs_update(H, trial - x, at[1][free] - g)
            x, f, g = trial, at[0], at[1][free]
            if hit and walled:
                # two line searches in a row met a blow-up: the descent
                # presses on a wall, where the objective has no minimum
                break
            walled = hit
        return x, H

    def polish(x, H):
        """Newton steps at ``step`` from the end ``x`` of a descent on its
        inverse Hessian ``H``, kept while they lower the merit at ``step``,
        and updated by BFGS, until they end (``ends``) on a root within
        ``TIGHT * grad_tol`` or on a small gradient with no root; none when
        the descent took no step (``H`` None). The point it ends on, and
        whether the gradient at ``step`` there is within ``grad_tol``."""
        nonlocal iterations
        point, fx, at, _ = reduced(x)
        if at is None:
            return x, False
        last = math.inf
        for _ in range(max_iter):
            stop, last = ends(point, at, last, TIGHT * grad_tol)
            if stop or H is None:
                break
            g = at[1][free]
            trial = x - H @ g
            iterations += 1
            trial_point, ft, trial_at, _ = reduced(trial)
            if not ft < fx:
                break
            H = _bfgs_update(H, trial - x, trial_at[1][free] - g)
            x, point, fx, at = trial, trial_point, ft, trial_at
        return x, verdict(point, at)[0] <= grad_tol

    def simplex_pass(start):
        """The pass at ``step`` alone from ``start``: Nelder-Mead on the
        merit, then hybr on the reduced gradient from its best vertex, kept
        only if it lowers the merit. The point it ends on."""
        nonlocal iterations
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
                x = sol.x
        return x

    rng = np.random.default_rng(seed)
    n = len(free)
    best_free = z0[free]
    best_z, best_merit, best_centre, best_run = reduced(best_free)
    gradient_norm, converged = verdict(best_z, best_centre)
    attempt = 0
    while n and not converged and attempt < max(1, restarts):
        if attempt == 0:
            start = best_free.copy()
        else:
            scales = 0.1 * np.maximum(1.0, np.abs(best_free))
            start = best_free + scales * rng.standard_normal(n)
        # near a caustic wall the two maps part: a start that blows up on
        # the coarse map gives the descent no gradient, and a coarse run may
        # cross a caustic that stops the run at ``step``; so an attempt whose
        # start blows up on the coarse map, or whose polish ends without a
        # small gradient, runs at ``step`` alone
        x, settled = start, False
        if reduced(start, coarse)[2] is not None:
            x, H = descent(start)
            point, _, at, _ = reduced(x, coarse)
            # a descent that ends without a small gradient ends its attempt
            settled = True
            if verdict(point, at)[0] <= grad_tol:
                x, settled = polish(x, H)
        if not settled:
            x = simplex_pass(start)
        point, fx, at, run = reduced(x)
        norm, root_found = verdict(point, at)
        if norm <= grad_tol and not root_found:
            # a small gradient, but no root: the point stays a candidate
            log.info("attempt %d: no root; the gradient decays toward infinity "
                     "(%.3g in the inverse coordinates)", attempt,
                     _inverse_gradient(at[1], point, free))
        if fx < best_merit:
            best_merit, best_free = fx, x
            best_z, best_centre, best_run = point, at, run
            if at is not None:
                gradient_norm, converged = norm, root_found
        for records in seen.values():
            records.clear()
        attempt += 1

    final_init = _embed(base, idx, best_z)
    if best_run is None:
        report = eigenvalue(integrate(spec, final_init, step=step))
    else:
        # the start state as ``dynamics._start`` builds it, -0.0 made 0.0
        report = _report(spec, tuple(v + 0.0 for v in final_init.as_tuple()), best_run[0])
    signature = None
    if best_centre is not None:
        try:
            signature = stationarity_check(
                final_init, spec, mask, penalty_weight, step, centre=(best_centre, best_run),
            ).signature
        except BlowUpError:
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
