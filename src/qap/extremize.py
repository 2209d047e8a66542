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
(S10, sigma10), at every hbar_tilde. One propagator run
(``dynamics.propagator``) at the current point carries the discrete
(S1, sigma1) flow from both unit starts, and ``endpoint_models``
turns its end row into the value, gradient and Hessian of both
quadratics, and so the objective's exact value, gradient and Hessian
along the active members of {S10, sigma10}. Those members are set to a
stationary point of the objective on these models, with no further
solves. Without a penalty that objective is the quadratic itself and
one least-squares Newton step solves it (so a direction the eigenvalue
does not depend on, such as sigma10 at hbar_tilde = 0, where its row of
the models is exactly zero, is left where it is). A penalty makes it
quartic, eigenvalue + weight * residual**2, and Newton iterates from the
current point, each step a least-squares solve on the two models; a
point where they do not settle is left unprojected. The models are exact
only for the fixed-step run (the adaptive step control sees S1), so the
extremizer always runs fixed-step rk4 and takes no ``method``; the
``extremize`` and ``classical-check`` commands exit 2 for rk4_adaptive.

What is left is a root of the reduced gradient g, the gradient along
the active members of (S20, sigma20) at the projected point. Nelder-Mead
on the merit |g|**2 finds the basin: it is robust to blown-up regions,
but converges only linearly, so each run stops once its best merit
reaches ``HANDOFF_MERIT``. Powell's hybrid method (MINPACK's hybrd,
through ``scipy.optimize.root``) then solves g = 0 from that point, with
its default tolerances; its result is kept only if it lowers |g|. Both
are skipped when no search coordinate remains or the projected guess is
already stationary.

Along (S10, sigma10) every derivative comes from the models. Along
(S20, sigma20) the gradient takes central differences with steps of
``FD_STEP`` times max(1, |coord|), and the certificate's Hessian steps
of its square root, on the models' value and gradient (see
``stationarity_check``). Runs that blow up inside the horizon map to a
large finite penalty so the simplex retreats; they are counted, not
raised.

This is the one module of ``qap`` that imports numpy; the CLI imports
it only inside the two commands that search. ``scipy.optimize`` is
imported only when a search reaches Nelder-Mead. So the commands that
never search start and run without either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import EigenvalueReport, eigenvalue, endpoint_report, json_17g
from .dynamics import final_state, integrate, propagator
from .errors import BlowUpError, FDFailureError
from .model import COORD_NAMES, InitialData, OscillatorSpec, parse_active

#: objective value substituted for runs that blow up
BLOWUP_PENALTY = 1e15

#: relative step of every finite-difference gradient
FD_STEP = 1e-5

#: merit (squared reduced gradient) at which a Nelder-Mead run stops and
#: hands its best point to the root solve
HANDOFF_MERIT = 1e-2

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

    Exact along the active members of (S10, sigma10), from the
    propagator run's models; by differences along (S20, sigma20).
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
    ``blowups`` counts the search's solves and propagator runs that blew
    up; the stationarity check and the final integration are not among
    them.
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
    step: float = 1e-3,
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

    ``end`` is the end row of ``dynamics.propagator`` from the initial
    data ``first``. With u = (S10, sigma10), the run's (S1, sigma1)(T) is
    P u, and its qS, qSigma and qCon are u.A u, u.B u + int(sigma2) and
    u.C u + 2 int(S2), with the row's propagator columns P and integral
    matrices A, B, C. Returns ((lam, gradient, Hessian), (residual,
    gradient, Hessian)) at u; the two values are those of
    ``endpoint_report`` on the state row this rebuilds.
    """
    S2, g2, p0, q0, p1, q1, A00, A01, A11, B00, B01, B11, C00, C01, C11, I2, IS = end
    P = np.array([[p0, p1], [q0, q1]])
    A = np.array([[A00, A01], [A01, A11]])
    B = np.array([[B00, B01], [B01, B11]])
    C = np.array([[C00, C01], [C01, C11]])
    u = np.array([first[0], first[2]], dtype=float)
    S1, g1 = P @ u
    row = (S1, S2, g1, g2, u @ A @ u, u @ B @ u + I2, u @ C @ u + 2.0 * IS, IS)
    report = endpoint_report(spec, first, row)
    H_lam = (spec.hbar_tilde**2 * B - A) / spec.m
    H_res = -2.0 * C / spec.m
    g_lam = spec.xT * P[0] - (spec.x0, 0.0) + H_lam @ u
    g_res = spec.xT * P[1] - (0.0, spec.x0) + H_res @ u
    return (report.lam, g_lam, H_lam), (report.constraint_residual, g_res, H_res)


def _linear_models(spec: OscillatorSpec, init: InitialData, pos, step: float):
    """``endpoint_models`` at ``init``, restricted to its rows ``pos``.

    One propagator run; with ``pos`` empty, one plain solve gives the two
    values. Raises ``BlowUpError``.
    """
    if not pos:
        report = endpoint_report(spec, init.as_tuple(), final_state(spec, init, step))
        flat, empty = np.zeros(0), np.zeros((0, 0))
        return (report.lam, flat, empty), (report.constraint_residual, flat, empty)
    block = np.ix_(pos, pos)
    models = endpoint_models(spec, init.as_tuple(), propagator(spec, init, step))
    return tuple((value, g[pos], H[block]) for value, g, H in models)


def _value(spec: OscillatorSpec, init: InitialData, weight: float, step: float) -> float:
    """lam + weight * r**2 at ``init``, from one plain solve. Raises ``BlowUpError``."""
    (lam, _, _), (r, _, _) = _linear_models(spec, init, (), step)
    return lam + weight * r**2


def _objective_at(models, weight: float, u: np.ndarray):
    """Value, gradient and Hessian of lam + weight * r**2 at offset ``u`` on ``models``."""
    (lam, gl, Hl), (r0, gr, Hr) = models
    dl, dr = gl + Hl @ u, gr + Hr @ u
    r = r0 + 0.5 * (gr + dr) @ u
    wr = 2.0 * weight * r
    value = lam + 0.5 * (gl + dl) @ u + weight * r**2
    return value, dl + wr * dr, Hl + 2.0 * weight * np.outer(dr, dr) + wr * Hr


def _newton_quartic(models, weight: float) -> np.ndarray | None:
    """Stationary offset of lam + weight * r**2 on ``models``, by Newton from u = 0.

    Each step is a least-squares solve, like the penalty-free step. None
    when the iterates do not settle within a few dozen steps.
    """
    u = np.zeros(len(models[0][1]))
    for _ in range(40):
        _, grad, hess = _objective_at(models, weight, u)
        # diverging iterates overflow, and lstsq fails on non-finite input
        if not math.isfinite(hess.sum() + grad.sum()):
            return None
        du = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        u = u + du
        if abs(du).max() <= 1e-12 * max(1.0, abs(u).max()):
            return u
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


def _central_gradient(f, z, axes):
    """Central differences of ``f`` at ``z`` along ``axes``.

    Returns the gradient and the largest probe value, so a caller can
    tell whether any probe hit the blow-up penalty.
    """
    g = np.empty(len(axes))
    worst = -math.inf
    for a, i in enumerate(axes):
        h = FD_STEP * max(1.0, abs(z[i]))
        zp = z.copy(); zp[i] += h
        zm = z.copy(); zm[i] -= h
        fp, fm = f(zp), f(zm)
        g[a] = (fp - fm) / (2.0 * h)
        worst = max(worst, fp, fm)
    return g, worst


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


def stationarity_check(
    init: InitialData,
    spec: OscillatorSpec,
    active=None,
    penalty_weight: float = 0.0,
    step: float = 1e-3,
    *,
    centre: tuple[float, np.ndarray, np.ndarray] | None = None,
) -> StationarityReport:
    """Gradient and Hessian of the objective at ``init``, and the Hessian's signature.

    Along the active members of (S10, sigma10) the gradient and the
    Hessian block come exactly from the propagator run's models. Along
    the searched coordinates (S20, sigma20) the gradient takes central
    differences with steps FD_STEP * max(1, |coord|), and the Hessian
    steps of hs = sqrt(FD_STEP) * max(1, |coord|): per coordinate, one
    model evaluation (a propagator run) at each of z +- hs gives the
    diagonal entry, a second difference of the objective, and the row's
    coupling to (S10, sigma10), a central difference of the exact model
    gradient; the S20-sigma20 entry takes four corner solves. With no
    member of (S10, sigma10) active each model evaluation is one plain
    solve. Every solve is fixed-step rk4: the models are exact only for
    it. Raises ``FDFailureError`` when any probe blows up: a verification
    tool must not silently average over a caustic.

    A caller that already holds, at ``init``, the objective's value, its
    gradient over the active coordinates and its Hessian along the active
    members of (S10, sigma10) (no probe blown up) passes them as
    ``centre``; the report is the same up to roundoff, without the
    centre's run and the gradient's solves.
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
        return _objective_at(models, penalty_weight, np.zeros(len(lin)))

    if centre is None:
        v0, g_lin, H_lin = at(z)
        gradient = np.empty(n)
        gradient[lin] = g_lin
        gradient[free] = _central_gradient(f, z, free)[0]
    else:
        v0, gradient, H_lin = centre
    # second differences use sqrt(FD_STEP) steps: FD_STEP itself would put
    # the quotient below the objective's evaluation precision
    hs = [math.sqrt(FD_STEP) * max(1.0, abs(v)) for v in z]
    H = np.empty((n, n))
    H[np.ix_(lin, lin)] = H_lin
    for i in free:
        zp = z.copy(); zp[i] += hs[i]
        zm = z.copy(); zm[i] -= hs[i]
        (vp, gp, _), (vm, gm, _) = at(zp), at(zm)
        H[i, i] = (vp - 2.0 * v0 + vm) / hs[i] ** 2
        H[i, lin] = H[lin, i] = (gp - gm) / (2.0 * hs[i])
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
    step: float = 1e-3,
) -> ExtremumResult:
    """Find a stationary point of the objective over the active coordinates.

    Every solve is fixed-step rk4. The active members of (S10, sigma10)
    are solved for at every point from the exact quadratic models of the
    eigenvalue and the constraint residual in them, which one propagator
    run gives (and which hold only for the fixed-step run): one Newton
    step without a penalty, Newton iterations on the quartic objective
    with one (see the module docstring); with neither active the point is
    one plain solve. The search runs over the active members of (S20,
    sigma20). It makes up to ``restarts`` attempts (the first from
    ``guess``, later ones from seeded perturbations of the best point);
    none when nothing is left to search or the projected guess is
    already stationary. Each attempt runs Nelder-Mead on the squared
    finite-difference gradient along the searched coordinates until its
    best value falls to ``HANDOFF_MERIT``, then ``scipy.optimize.root``
    (method ``hybr``, default tolerances) on that gradient from the
    simplex's best vertex; the root is kept only if it lowers the squared
    gradient. Each simplex starts at scale 0.1 * max(1, |coord|) per
    coordinate. ``max_iter`` caps the Nelder-Mead iterations and the
    root solve's gradient evaluations of each attempt, and
    ``iterations`` counts both.
    Each point is solved once per call (its propagator run counts as its
    solve): its cached record serves the simplex, the root solve and the
    certificate. The record also holds the objective's value, its
    gradient over all active coordinates (exact along (S10, sigma10),
    from the same run's models) and its Hessian along (S10, sigma10) at
    the projected point: the certificate's gradient and
    ``stationarity_check``'s centre are read from it, so the returned
    point is solved only by the final ``integrate``.
    Convergence means the max-norm of the gradient over all
    active coordinates fell to ``grad_tol``; otherwise the best point
    found is still returned with ``converged=False``. If that best point
    itself blows up (no integrable point was found), the final
    ``integrate`` raises ``BlowUpError`` with its partial grid instead:
    the returned report needs a complete run.
    """
    mask = parse_active(active)
    idx = [i for i in range(4) if mask[i]]
    base = guess.as_tuple()
    lin, free, pos = _split(idx)
    z0 = np.array([base[i] for i in idx], dtype=float)
    blowups = 0
    T = spec.T

    def f(z) -> float:
        nonlocal blowups
        try:
            return _value(spec, _embed(base, idx, z), penalty_weight, step)
        except BlowUpError:
            blowups += 1
            return BLOWUP_PENALTY

    def full(z_free) -> np.ndarray:
        z = z0.copy()
        z[free] = z_free
        return z

    def centre(z) -> tuple[float, np.ndarray, tuple | None]:
        """Last integrable time, projected point, and the objective there.

        The time is ``T`` when the run completed; the point is z
        projected along ``lin``; the objective is its value, gradient and
        Hessian along ``lin``, None when the run blew up. With no member
        of (S10, sigma10) active this is one plain solve. Otherwise one
        propagator run gives the exact quadratic models of the eigenvalue
        and the constraint residual along ``lin``, and the stationary point
        of the objective follows from them without further solves. Newton
        iterates that do not settle leave z unprojected.
        """
        nonlocal blowups
        try:
            models = _linear_models(spec, _embed(base, idx, z), pos, step)
        except BlowUpError as err:
            blowups += 1
            return float(err.t_last), z, None
        du = np.zeros(len(lin))
        if lin and penalty_weight == 0.0:
            # lstsq: a direction the objective does not depend on gets no step
            (_, gl, Hl), _ = models
            du = np.linalg.lstsq(Hl, -gl, rcond=None)[0]
        elif lin:
            du = _newton_quartic(models, penalty_weight)
        if du is None:
            return T, z, _objective_at(models, penalty_weight, np.zeros(len(lin)))
        out = z.copy()
        out[lin] += du
        return T, out, _objective_at(models, penalty_weight, du)

    # records of the current attempt, keyed on z_free.tobytes(); the guess's
    # record starts the first attempt, and each attempt reads its best point
    seen = {}

    def reduced(z_free):
        """Projected point, largest probe value, merit, and the centre for the check.

        The centre is run and projected, and the gradient is taken
        along the searched coordinates; at the projected point the
        gradient along lin vanishes, so this is the reduced gradient.
        The projected point is not solved again: the projection moves only
        (S10, sigma10), and the Riccati pair that blows up does not depend
        on them. The centre for the check is the objective's value, its
        gradient over all active coordinates (along lin from the models) and
        its Hessian along lin; None when the centre blew up, which leaves no
        projection and no gradient (largest probe inf). The merit is the
        squared reduced gradient, except for a plateau near the penalty:
        blown-up centres ramp it by how early the run died, so the simplex
        has a slope back toward integrable initial data; a blown probe
        around a fine centre sits just below.
        """
        key = z_free.tobytes()
        if key not in seen:
            t_last, z, at = centre(full(z_free))
            if t_last < T:
                frac = (T - min(max(t_last, 0.0), T)) / T
                seen[key] = z, math.inf, BLOWUP_PENALTY * (1.0 + frac), None
            else:
                g, worst = _central_gradient(f, z, free)
                gradient = np.empty(len(z))
                gradient[lin], gradient[free] = at[1], g
                value = (0.99 * BLOWUP_PENALTY if worst >= BLOWUP_PENALTY
                         else min(float(g @ g), 0.9 * BLOWUP_PENALTY))
                seen[key] = z, worst, value, (at[0], gradient, at[2])
        return seen[key]

    def merit(z_free) -> float:
        return reduced(z_free)[2]

    def residual(z_free) -> np.ndarray:
        _, worst, _, at = reduced(z_free)
        return np.full(len(z_free), BLOWUP_PENALTY) if worst >= BLOWUP_PENALTY else at[1][free]

    rng = np.random.default_rng(seed)
    n = len(free)
    best_free = z0[free]
    best_z, worst, best_merit, best_centre = reduced(best_free)
    gradient_norm = math.inf if best_centre is None else float(np.max(np.abs(best_centre[1])))
    converged = gradient_norm <= grad_tol
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
        if fx < best_merit:
            best_merit = fx
            best_free = x
            best_z, worst, _, best_centre = reduced(best_free)
            if best_centre is not None:
                gradient_norm = float(np.max(np.abs(best_centre[1])))
                converged = gradient_norm <= grad_tol
        seen.clear()
        attempt += 1

    final_init = _embed(base, idx, best_z)
    grid = integrate(spec, final_init, step=step)
    report = eigenvalue(grid)
    signature = None
    if best_centre is not None and worst < BLOWUP_PENALTY:
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
