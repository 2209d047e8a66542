"""Coefficient ODE system: time integration and its diagnostics.

The flow couples the phase coefficients (S1, S2) to the amplitude
coefficients (sigma1, sigma2):

    sigma1' = -(sigma1*S2 + sigma2*S1)/m
    sigma2' = -sigma2*S2/m
    S1'     = -S1*S2/m + (hbar_tilde^2/(2m)) * sigma1*sigma2
    S2'     = -S2^2/m - k + (hbar_tilde^2/m) * sigma2^2

Three quadrature accumulators ride inside the integration state so the
integrals entering the eigenvalue and the initial-data constraint
inherit the integrator's order:

    qS'     = S1^2
    qSigma' = sigma1^2 + sigma2
    qCon'   = sigma1*S1 + 2*S2

A fourth internal accumulator tracks the plain integral of S2; it is a
diagnostic used to verify the exponential identity
sigma2(t) = sigma20 * exp(-qIntS2(t)/m) and is not part of the CSV
contract.

One fixed-step loop drives two unrolled RK4 kernels. ``_rk4_step``
steps the eight-component state, for ``integrate(method="rk4")``,
which keeps the trajectory, and for ``final_state``, which keeps only
the endpoint. ``_propagator_step`` steps a 17-component row for
``propagator``: (S2, sigma2), the linear (S1, sigma1) flow from two unit
starts and the integrals of their products, from which
``extremize.endpoint_models`` builds the eigenvalue and the constraint
residual as exact quadratics in (S10, sigma10). The step-doubling loop
behind ``rk4_adaptive`` is separate and reuses ``_rk4_step``. All of
them share one entry (the input check, which hands the loop only
Python floats, since the unrolled step runs about three times slower
on numpy scalars) and one blow-up exit. Each kernel bounds its new row
itself, one chained comparison per component: a component outside
[-BLOWUP_LIMIT, BLOWUP_LIMIT], or NaN, makes it return None, and the
loop raises ``BlowUpError`` at the last good time.

A kept trajectory is a ``SolutionGrid`` of the rows the loop builds,
stored as tuples of Python floats. Its CSV writer and its readers in
``action`` and ``experiments`` use those rows; numpy arrays exist only
once a caller asks for ``times``, ``data`` or a column, so the commands
that never search run without numpy.

The S2 equation is of Riccati type and genuinely blows up in finite
time when a caustic falls inside the horizon; integration reports the
last good time rather than regularizing.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, replace
from typing import TextIO

from .errors import BlowUpError, DegenerateProbeError
from .model import InitialData, OscillatorSpec, validate

#: any state component beyond this magnitude counts as a blow-up
BLOWUP_LIMIT = 1e12

#: default fixed step
DEFAULT_STEP = 1e-3

#: per-component mixed error control for the adaptive variant
ADAPTIVE_ATOL = 1e-12
ADAPTIVE_RTOL = 1e-10

METHODS = ("rk4", "rk4_adaptive")

CSV_COLUMNS = ("t", "S1", "S2", "sigma1", "sigma2", "qS", "qSigma", "qCon")


def _stage(S1, S2, g1, g2, m_inv, k, hh):
    """Derivatives of all eight state components. ``hh`` = hbar_tilde^2/(2m)."""
    return (
        -S1 * S2 * m_inv + hh * g1 * g2,            # S1'
        -S2 * S2 * m_inv - k + 2.0 * hh * g2 * g2,  # S2'
        -(g1 * S2 + g2 * S1) * m_inv,               # sigma1'
        -g2 * S2 * m_inv,                           # sigma2'
        S1 * S1,                                    # qS'
        g1 * g1 + g2,                               # qSigma'
        g1 * S1 + 2.0 * S2,                         # qCon'
        S2,                                         # qIntS2'
    )


class SolutionGrid:
    """Time-ordered coefficient states from one integration run.

    Each row holds S1, S2, sigma1, sigma2, qS, qSigma, qCon, qIntS2 at
    one time point. The grid keeps its times and rows as the Python
    floats and tuples the stepping loop builds; ``times``, ``data`` and
    the column properties are read-only numpy arrays built on first
    access, and only they import numpy. A grid is ``complete`` when it
    reaches t = T; partial grids only occur inside ``BlowUpError``.
    Immutable: setting an attribute raises ``FrozenInstanceError``.
    """

    __slots__ = ("spec", "method", "step", "_times", "_rows", "_arrays")

    def __init__(self, spec: OscillatorSpec, times, data, method: str, step: float):
        put = object.__setattr__
        put(self, "spec", spec)
        put(self, "method", method)
        put(self, "step", step)
        put(self, "_times", tuple(map(float, times)))
        put(self, "_rows", tuple(r if type(r) is tuple else tuple(map(float, r)) for r in data))
        put(self, "_arrays", None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _array_pair(self):
        if self._arrays is None:
            import numpy as np

            times = np.array(self._times, dtype=float)
            data = np.array(self._rows, dtype=float)
            times.setflags(write=False)
            data.setflags(write=False)
            object.__setattr__(self, "_arrays", (times, data))
        return self._arrays

    @property
    def times(self):
        return self._array_pair()[0]

    @property
    def data(self):
        return self._array_pair()[1]

    @property
    def s1(self):
        return self.data[:, 0]

    @property
    def s2(self):
        return self.data[:, 1]

    @property
    def sigma1(self):
        return self.data[:, 2]

    @property
    def sigma2(self):
        return self.data[:, 3]

    @property
    def qS(self):
        return self.data[:, 4]

    @property
    def qSigma(self):
        return self.data[:, 5]

    @property
    def qCon(self):
        return self.data[:, 6]

    @property
    def qIntS2(self):
        return self.data[:, 7]

    @property
    def complete(self) -> bool:
        return self._times[-1] == self.spec.T

    def __len__(self) -> int:
        return len(self._times)

    def write_csv(self, out: TextIO, footer: str | None = None) -> None:
        """Emit the grid as CSV: '#' metadata lines, header, 17-digit rows."""
        s = self.spec
        out.write("# qap solution grid\n")
        out.write(
            "# m={} k={} hbar_tilde={} T={} x0={} xT={}\n".format(
                *(_g17(v) for v in (s.m, s.k, s.hbar_tilde, s.T, s.x0, s.xT))
            )
        )
        out.write(f"# method={self.method} step={_g17(self.step)} points={len(self)}\n")
        out.write(",".join(CSV_COLUMNS) + "\n")
        row = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"
        out.write("".join([row % (t, *y[:7]) for t, y in zip(self._times, self._rows)]))
        if footer:
            out.write(f"# {footer}\n")

    def to_csv(self, path, footer: str | None = None) -> None:
        with open(path, "w", newline="\n") as fh:
            self.write_csv(fh, footer=footer)


def _g17(x) -> str:
    return format(float(x), ".17g")


def _rk4_step(y, h, m_inv, k, hh):
    """One classic RK4 step of the eight-component state tuple.

    Unrolled scalar arithmetic: this is the hot loop of every
    finite-difference probe inside extremization, and tuple-of-stage
    indirection costs ~3x here. Each stage mirrors ``_stage`` exactly;
    a regression test pins the two against each other. Returns None
    when a component of the new state leaves [-BLOWUP_LIMIT,
    BLOWUP_LIMIT]; the chained comparisons are False for NaN too.
    """
    S1, S2, g1, g2, qS, qG, qC, qI = y
    hh2 = 2.0 * hh

    aS1 = -S1 * S2 * m_inv + hh * g1 * g2
    aS2 = -S2 * S2 * m_inv - k + hh2 * g2 * g2
    ag1 = -(g1 * S2 + g2 * S1) * m_inv
    ag2 = -g2 * S2 * m_inv
    aqS = S1 * S1
    aqG = g1 * g1 + g2
    aqC = g1 * S1 + 2.0 * S2
    aqI = S2

    h2 = 0.5 * h
    uS1 = S1 + h2 * aS1
    uS2 = S2 + h2 * aS2
    ug1 = g1 + h2 * ag1
    ug2 = g2 + h2 * ag2
    bS1 = -uS1 * uS2 * m_inv + hh * ug1 * ug2
    bS2 = -uS2 * uS2 * m_inv - k + hh2 * ug2 * ug2
    bg1 = -(ug1 * uS2 + ug2 * uS1) * m_inv
    bg2 = -ug2 * uS2 * m_inv
    bqS = uS1 * uS1
    bqG = ug1 * ug1 + ug2
    bqC = ug1 * uS1 + 2.0 * uS2
    bqI = uS2

    vS1 = S1 + h2 * bS1
    vS2 = S2 + h2 * bS2
    vg1 = g1 + h2 * bg1
    vg2 = g2 + h2 * bg2
    cS1 = -vS1 * vS2 * m_inv + hh * vg1 * vg2
    cS2 = -vS2 * vS2 * m_inv - k + hh2 * vg2 * vg2
    cg1 = -(vg1 * vS2 + vg2 * vS1) * m_inv
    cg2 = -vg2 * vS2 * m_inv
    cqS = vS1 * vS1
    cqG = vg1 * vg1 + vg2
    cqC = vg1 * vS1 + 2.0 * vS2
    cqI = vS2

    wS1 = S1 + h * cS1
    wS2 = S2 + h * cS2
    wg1 = g1 + h * cg1
    wg2 = g2 + h * cg2
    dS1 = -wS1 * wS2 * m_inv + hh * wg1 * wg2
    dS2 = -wS2 * wS2 * m_inv - k + hh2 * wg2 * wg2
    dg1 = -(wg1 * wS2 + wg2 * wS1) * m_inv
    dg2 = -wg2 * wS2 * m_inv
    dqS = wS1 * wS1
    dqG = wg1 * wg1 + wg2
    dqC = wg1 * wS1 + 2.0 * wS2
    dqI = wS2

    w6 = h / 6.0
    S1 += w6 * (aS1 + 2.0 * (bS1 + cS1) + dS1)
    S2 += w6 * (aS2 + 2.0 * (bS2 + cS2) + dS2)
    g1 += w6 * (ag1 + 2.0 * (bg1 + cg1) + dg1)
    g2 += w6 * (ag2 + 2.0 * (bg2 + cg2) + dg2)
    qS += w6 * (aqS + 2.0 * (bqS + cqS) + dqS)
    qG += w6 * (aqG + 2.0 * (bqG + cqG) + dqG)
    qC += w6 * (aqC + 2.0 * (bqC + cqC) + dqC)
    qI += w6 * (aqI + 2.0 * (bqI + cqI) + dqI)
    L = BLOWUP_LIMIT
    if (-L <= S1 <= L and -L <= S2 <= L and -L <= g1 <= L and -L <= g2 <= L
            and -L <= qS <= L and -L <= qG <= L and -L <= qC <= L and -L <= qI <= L):
        return S1, S2, g1, g2, qS, qG, qC, qI
    return None


def _propagator_step(y, h, m_inv, k, hh):
    """One classic RK4 step of the 17-component propagator row.

    (S2, sigma2) and the integral of S2 take exactly the arithmetic of
    ``_rk4_step``. The (S1, sigma1) solutions (p0, q0) and (p1, q1),
    started at (1, 0) and (0, 1), take its linear stages, and the
    integrals of their pairwise products take its quadrature weights; so
    the quadratic models built from the end row are those of the
    discrete run itself. Unrolled for the same reason as ``_rk4_step``.
    """
    S2, g2, p0, q0, p1, q1, A00, A01, A11, B00, B01, B11, C00, C01, C11, I2, IS = y
    hh2 = 2.0 * hh

    aS2 = -S2 * S2 * m_inv - k + hh2 * g2 * g2
    ag2 = -g2 * S2 * m_inv
    ap0 = -p0 * S2 * m_inv + hh * q0 * g2
    aq0 = -(q0 * S2 + g2 * p0) * m_inv
    ap1 = -p1 * S2 * m_inv + hh * q1 * g2
    aq1 = -(q1 * S2 + g2 * p1) * m_inv

    h2 = 0.5 * h
    uS2 = S2 + h2 * aS2
    ug2 = g2 + h2 * ag2
    up0 = p0 + h2 * ap0
    uq0 = q0 + h2 * aq0
    up1 = p1 + h2 * ap1
    uq1 = q1 + h2 * aq1
    bS2 = -uS2 * uS2 * m_inv - k + hh2 * ug2 * ug2
    bg2 = -ug2 * uS2 * m_inv
    bp0 = -up0 * uS2 * m_inv + hh * uq0 * ug2
    bq0 = -(uq0 * uS2 + ug2 * up0) * m_inv
    bp1 = -up1 * uS2 * m_inv + hh * uq1 * ug2
    bq1 = -(uq1 * uS2 + ug2 * up1) * m_inv

    vS2 = S2 + h2 * bS2
    vg2 = g2 + h2 * bg2
    vp0 = p0 + h2 * bp0
    vq0 = q0 + h2 * bq0
    vp1 = p1 + h2 * bp1
    vq1 = q1 + h2 * bq1
    cS2 = -vS2 * vS2 * m_inv - k + hh2 * vg2 * vg2
    cg2 = -vg2 * vS2 * m_inv
    cp0 = -vp0 * vS2 * m_inv + hh * vq0 * vg2
    cq0 = -(vq0 * vS2 + vg2 * vp0) * m_inv
    cp1 = -vp1 * vS2 * m_inv + hh * vq1 * vg2
    cq1 = -(vq1 * vS2 + vg2 * vp1) * m_inv

    wS2 = S2 + h * cS2
    wg2 = g2 + h * cg2
    wp0 = p0 + h * cp0
    wq0 = q0 + h * cq0
    wp1 = p1 + h * cp1
    wq1 = q1 + h * cq1
    dS2 = -wS2 * wS2 * m_inv - k + hh2 * wg2 * wg2
    dg2 = -wg2 * wS2 * m_inv
    dp0 = -wp0 * wS2 * m_inv + hh * wq0 * wg2
    dq0 = -(wq0 * wS2 + wg2 * wp0) * m_inv
    dp1 = -wp1 * wS2 * m_inv + hh * wq1 * wg2
    dq1 = -(wq1 * wS2 + wg2 * wp1) * m_inv

    w6 = h / 6.0
    A00 += w6 * (p0 * p0 + 2.0 * (up0 * up0 + vp0 * vp0) + wp0 * wp0)
    A01 += w6 * (p0 * p1 + 2.0 * (up0 * up1 + vp0 * vp1) + wp0 * wp1)
    A11 += w6 * (p1 * p1 + 2.0 * (up1 * up1 + vp1 * vp1) + wp1 * wp1)
    B00 += w6 * (q0 * q0 + 2.0 * (uq0 * uq0 + vq0 * vq0) + wq0 * wq0)
    B01 += w6 * (q0 * q1 + 2.0 * (uq0 * uq1 + vq0 * vq1) + wq0 * wq1)
    B11 += w6 * (q1 * q1 + 2.0 * (uq1 * uq1 + vq1 * vq1) + wq1 * wq1)
    C00 += w6 * (q0 * p0 + 2.0 * (uq0 * up0 + vq0 * vp0) + wq0 * wp0)
    C01 += 0.5 * w6 * (q0 * p1 + q1 * p0 + 2.0 * (uq0 * up1 + uq1 * up0 + vq0 * vp1 + vq1 * vp0)
                       + wq0 * wp1 + wq1 * wp0)
    C11 += w6 * (q1 * p1 + 2.0 * (uq1 * up1 + vq1 * vp1) + wq1 * wp1)
    I2 += w6 * (g2 + 2.0 * (ug2 + vg2) + wg2)
    IS += w6 * (S2 + 2.0 * (uS2 + vS2) + wS2)
    S2 += w6 * (aS2 + 2.0 * (bS2 + cS2) + dS2)
    g2 += w6 * (ag2 + 2.0 * (bg2 + cg2) + dg2)
    p0 += w6 * (ap0 + 2.0 * (bp0 + cp0) + dp0)
    q0 += w6 * (aq0 + 2.0 * (bq0 + cq0) + dq0)
    p1 += w6 * (ap1 + 2.0 * (bp1 + cp1) + dp1)
    q1 += w6 * (aq1 + 2.0 * (bq1 + cq1) + dq1)
    L = BLOWUP_LIMIT
    if (-L <= S2 <= L and -L <= g2 <= L and -L <= p0 <= L and -L <= q0 <= L
            and -L <= p1 <= L and -L <= q1 <= L and -L <= A00 <= L and -L <= A01 <= L
            and -L <= A11 <= L and -L <= B00 <= L and -L <= B01 <= L and -L <= B11 <= L
            and -L <= C00 <= L and -L <= C01 <= L and -L <= C11 <= L and -L <= I2 <= L
            and -L <= IS <= L):
        return S2, g2, p0, q0, p1, q1, A00, A01, A11, B00, B01, B11, C00, C01, C11, I2, IS
    return None


def _blow_up(spec, t_last, times, rows, method, step):
    """Raise ``BlowUpError`` at ``t_last``, with the partial grid if rows were kept."""
    partial = None if rows is None else SolutionGrid(spec, times, rows, method, step)
    raise BlowUpError(t_last, partial)


def _start(spec, init, step):
    """Shared input check, then, as Python floats, the start row, the flow
    coefficients (m_inv, k, hh), the step and the horizon."""
    validate(spec)
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step}")
    for name, v in zip(("S10", "S20", "sigma10", "sigma20"), init.as_tuple()):
        if not math.isfinite(v):
            raise ValueError(f"initial data {name} is not finite")
    y = tuple(float(v) for v in init.as_tuple()) + (0.0, 0.0, 0.0, 0.0)
    m_inv = 1.0 / float(spec.m)
    hb = float(spec.hbar_tilde)
    hh = hb * hb * 0.5 * m_inv
    return y, m_inv, float(spec.k), hh, float(step), float(spec.T)


def _n_steps(T, step):
    n = math.ceil(T / step)
    if n > 1 and (n - 1) * step >= T:
        n -= 1
    return n


def _fixed(spec, init, step, keep, propagate=False):
    """Fixed-step RK4 from 0 to T: the grid if ``keep``, else the endpoint row.

    The grid has ceil(T/step) intervals, the last one shortened to land
    on T exactly. A blow-up raises ``BlowUpError`` at the last good time,
    carrying the partial grid only if ``keep``. With ``propagate`` the
    kernel is ``_propagator_step``, from its own start row, after the
    same check of the initial data.
    """
    y, m_inv, k, hh, step, T = _start(spec, init, step)
    n = _n_steps(T, step)
    times = [0.0] if keep else None
    rows = [y] if keep else None
    t_prev = 0.0
    if not all(-BLOWUP_LIMIT <= v <= BLOWUP_LIMIT for v in y):
        _blow_up(spec, t_prev, times, rows, "rk4", step)
    kernel = _rk4_step
    if propagate:
        # (S2, sigma2), the (S1, sigma1) solutions from (1, 0) and (0, 1), zero integrals
        y = (y[1], y[3], 1.0, 0.0, 0.0, 1.0) + (0.0,) * 11
        kernel = _propagator_step
    for i in range(1, n + 1):
        # last step shortened so the grid lands on T exactly
        t = i * step if i < n else T
        y = kernel(y, t - t_prev, m_inv, k, hh)
        if y is None:
            _blow_up(spec, t_prev, times, rows, "rk4", step)
        if keep:
            times.append(t)
            rows.append(y)
        t_prev = t
    return SolutionGrid(spec, times, rows, "rk4", step) if keep else y


def final_state(spec: OscillatorSpec, init: InitialData, step: float = DEFAULT_STEP):
    """Fixed-step run keeping only the endpoint (t = T) state tuple.

    Identical arithmetic to ``integrate(..., method='rk4')`` without the
    trajectory storage; this is the hot path of extremization, where
    every finite-difference probe needs just the final coefficients and
    accumulators. Rejects the same inputs as ``integrate`` and raises
    ``BlowUpError`` (without a partial grid) on the same runs.
    """
    return _fixed(spec, init, step, keep=False)


def propagator(spec: OscillatorSpec, init: InitialData, step: float = DEFAULT_STEP):
    """Fixed-step propagator run: the end row of the linear (S1, sigma1) flow.

    At fixed (S20, sigma20), (S1, sigma1) evolve linearly, and RK4 keeps
    them linear; so one run carries everything the eigenvalue and the
    constraint residual need as functions of (S10, sigma10). The row
    holds, at t = T: S2, sigma2; the solutions (S1, sigma1) started at
    (1, 0) and at (0, 1); the integrals of S1_i S1_j, sigma1_i sigma1_j
    and (sigma1_i S1_j + sigma1_j S1_i)/2 for i <= j; and the integrals
    of sigma2 and S2. Its S2, sigma2 and integral of S2 are bit-equal to
    ``final_state``'s. ``extremize.endpoint_models`` turns the row into the
    models. Same input check and blow-up exit as ``final_state``; the
    bound applies to the row's own 17 components.
    """
    return _fixed(spec, init, step, keep=False, propagate=True)


def _integrate_adaptive(spec, init, step):
    y, m_inv, k, hh, step, T = _start(spec, init, step)
    times = [0.0]
    rows = [y]
    t = 0.0
    if not all(-BLOWUP_LIMIT <= v <= BLOWUP_LIMIT for v in y):
        _blow_up(spec, t, times, rows, "rk4_adaptive", step)
    h = min(step, T)
    h_min = 1e-12 * max(1.0, T)
    while t < T:
        h = min(h, T - t)
        if h < h_min:
            _blow_up(spec, t, times, rows, "rk4_adaptive", step)
        coarse = _rk4_step(y, h, m_inv, k, hh)
        half = _rk4_step(y, 0.5 * h, m_inv, k, hh)
        fine = None if half is None else _rk4_step(half, 0.5 * h, m_inv, k, hh)
        if coarse is None or fine is None:
            h *= 0.25
            continue
        # step-doubling error estimate for a 4th-order step
        ratio = 0.0
        for yc, yf in zip(coarse, fine):
            err = abs(yf - yc) / 15.0
            tol = ADAPTIVE_ATOL + ADAPTIVE_RTOL * max(abs(yc), abs(yf))
            ratio = max(ratio, err / tol)
        if ratio <= 1.0:
            t = t + h
            y = fine
            times.append(t)
            rows.append(y)
            grow = 0.9 * ratio ** -0.2 if ratio > 0.0 else 5.0
            h *= min(5.0, max(0.2, grow))
        else:
            h *= max(0.2, 0.9 * ratio ** -0.2)
    # floating accumulation may land within one ulp of T; pin it
    times[-1] = T
    return SolutionGrid(spec, times, rows, "rk4_adaptive", step)


def integrate(
    spec: OscillatorSpec,
    init: InitialData,
    step: float = DEFAULT_STEP,
    method: str = "rk4",
) -> SolutionGrid:
    """Integrate the coefficient system from 0 to T.

    ``rk4`` uses a fixed step (grid of ceil(T/step) intervals, the last
    one shortened to land on T exactly); ``rk4_adaptive`` uses classic
    step doubling with per-component mixed error control. Raises
    ``BlowUpError`` carrying the partial grid when any component exceeds
    ``BLOWUP_LIMIT`` or turns non-finite.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "rk4":
        return _fixed(spec, init, step, keep=True)
    return _integrate_adaptive(spec, init, step)


def convergence_order(
    spec: OscillatorSpec,
    init: InitialData,
    t_probe: float,
    step: float = 0.025,
) -> float:
    """Estimate the integrator's order by step halving at ``t_probe``.

    Runs the fixed-step integrator at step, step/2, step/4 over
    [0, t_probe] and returns log2 of the ratio of successive S2
    differences. Raises ``DegenerateProbeError`` when the differences
    fall below 1e-14 (probe too easy to resolve an order).
    """
    probe_spec = replace(spec, T=float(t_probe))
    values = []
    for s in (step, step / 2.0, step / 4.0):
        values.append(integrate(probe_spec, init, step=s, method="rk4")._rows[-1][1])
    d1 = values[0] - values[1]
    d2 = values[1] - values[2]
    if abs(d1) < 1e-14 or abs(d2) < 1e-14:
        raise DegenerateProbeError(
            f"successive S2 differences {d1:.3e}, {d2:.3e} below resolvable size"
        )
    return math.log2(abs(d1) / abs(d2))
