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

One fixed-step loop drives four unrolled RK4 kernels, which one
renderer, ``_render``, writes and compiles at import from tables of
right-hand-side rows. ``_rk4_step`` steps the eight-component state,
for ``integrate(method="rk4")``, which keeps the trajectory, and for
``final_state``, which keeps only the endpoint. ``_propagator_step``
steps a 17-component row for ``propagator``: (S2, sigma2), the linear
(S1, sigma1) flow from two unit starts and the integrals of their
products, from which ``extremize.endpoint_models`` builds the
eigenvalue and the constraint residual as exact quadratics in (S10,
sigma10). The step-doubling loop behind ``rk4_adaptive`` is separate
and steps the same state kernels. All of them share one entry (the
input check, which hands the loop only Python floats, since the
unrolled step runs about three times slower on numpy scalars) and one
blow-up exit. Each kernel bounds its new row itself, one chained
comparison per component: a component outside [-BLOWUP_LIMIT,
BLOWUP_LIMIT], or NaN, makes it return None, and the loop raises
``BlowUpError`` at the last good time. ``_stage`` is the hand-written
reference the tests pin every kernel against.

Zero amplitude is an invariant subspace of the flow: with sigma10 =
sigma20 = 0, sigma1 and sigma2 stay exactly 0 at every hbar_tilde, and
(S1, S2) follow the classical pair S1' = -S1*S2/m, S2' = -S2^2/m - k.
``_kernel_for`` sends such a run (sigma20 = 0 suffices for the
propagator, whose row does not depend on sigma10) to a kernel of five
live components: ``_zero_amplitude_step`` steps (S1, S2, qS, qCon,
qIntS2), ``_zero_amplitude_propagator_step`` steps S1, S2 and the
integrals of S1^2, S1^2/2 and S2. ``_state_row`` and
``_propagator_row`` rebuild the full rows, at the end of a run or at
each kept row, equal bit for bit to the general kernels' rows:

- The entry turns -0.0 into 0.0. A component that starts at +0.0 and
  gains only zeros stays +0.0, since x + (-0.0) is x; so sigma1,
  sigma2 and every integral of a product with them stay +0.0, and the
  hh terms they multiply add a zero, which can flip only the sign of a
  zero derivative. No state or stage value sees that sign: each is
  x + h*d, with x nonzero or +0.0.
- The propagator's solution from (0, 1) is (0, S1): its sigma1 obeys
  S1's equation from S1's start. So B11 has A00's integrand, and C01
  has S1^2/2 at every point.
- qCon and C01 are carried, not rebuilt as 2*qIntS2 and A00/2: each
  carried integrand is the value the general integrand takes at every
  point, while scaling an integral rounds otherwise once its
  increments are subnormal.
- The bounds cover the same values. The general kernels' extra
  components are zeros, NaN only where a stage of S1 or S2 is already
  infinite, which puts S1, S2 or qS out of bounds too; and the state
  kernel bounds qCon = 2*qIntS2 itself.

``model.validate`` keeps 1/m and hbar_tilde^2/m finite, so a dropped
hh term is exactly zero and not NaN.

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

import linecache
import math
from dataclasses import FrozenInstanceError, replace
from typing import TextIO

from .errors import BlowUpError, DegenerateProbeError
from .model import InitialData, OscillatorSpec, flow_coefficients, validate

#: any state component beyond this magnitude counts as a blow-up
BLOWUP_LIMIT = 1e12

#: default fixed step
DEFAULT_STEP = 1e-3

#: most steps a run may take over its horizon. RK4's truncation error at a
#: step of T/MAX_STEPS is far below the roundoff of that many steps, so a
#: smaller step buys nothing; ``_start`` rejects it before the first step.
MAX_STEPS = 10**7

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


def _render(name, flows, integrals):
    """Source of ``name(y, h, m_inv, k, hh)``, one unrolled RK4 step of the
    row ``flows + integrals``.

    A flow row is a component's name and its derivative, an integral row
    a name and its integrand; in both, ``{X}`` stands for flow component
    X at the point being evaluated. Derivatives a, b, c, d are taken at
    y, u = y + h/2*a, v = y + h/2*b and w = y + h*c. With w6 = h/6, each
    integral gains w6*(f(y) + 2*(f(u) + f(v)) + f(w)) of its integrand f,
    before the flow moves, and each flow component w6*(a + 2*(b + c) + d).
    The new row is returned if every component lies in [-BLOWUP_LIMIT,
    BLOWUP_LIMIT], which NaN does not, else None. Unrolled scalar code:
    a tuple-of-stages RK4 costs about 3x here, in the hot loop of every
    solve.
    """
    row = ", ".join(n for n, _ in flows + integrals)

    def at(stage, expr):
        return expr.format(**{n: stage + n for n, _ in flows})

    body = [f'"""One RK4 step of ({row}); rendered by ``_render``."""', f"{row} = y"]
    if any("hh2" in f for _, f in flows):
        body.append("hh2 = 2.0 * hh")
    body += ["h2 = 0.5 * h", "w6 = h / 6.0"]
    body += [f"a{n} = {at('', f)}" for n, f in flows]
    for prev, d, stage, step in (("a", "b", "u", "h2"), ("b", "c", "v", "h2"), ("c", "d", "w", "h")):
        body += [f"{stage}{n} = {n} + {step} * {prev}{n}" for n, _ in flows]
        body += [f"{d}{n} = {at(stage, f)}" for n, f in flows]
    for n, f in integrals:
        # a multi-term integrand is summed as one value at each point
        if " + " in f or " - " in f:
            f = f"({f})"
        body.append(f"{n} += w6 * ({at('', f)} + 2.0 * ({at('u', f)} + {at('v', f)}) + {at('w', f)})")
    body += [f"{n} += w6 * (a{n} + 2.0 * (b{n} + c{n}) + d{n})" for n, _ in flows]
    bounded = " and ".join(f"-L <= {n} <= L" for n, _ in flows + integrals)
    body += ["L = BLOWUP_LIMIT", f"if {bounded}:", f"    return {row}", "return None"]
    return f"def {name}(y, h, m_inv, k, hh):\n" + "".join(f"    {line}\n" for line in body)


def _linear(p, q):
    """Flow rows of one (S1, sigma1) solution, named p and q."""
    return ((p, "-{%s} * {S2} * m_inv + hh * {%s} * {g2}" % (p, q)),
            (q, "-({%s} * {S2} + {g2} * {%s}) * m_inv" % (q, p)))


# The kernels' tables. Each row reads as its line of ``_stage``, with
# hh2 = 2*hh. The propagator's (S2, sigma2) rows and its integral of S2
# are the state's own entries, so those three components of its run are
# bit-equal to ``final_state``'s; its two (S1, sigma1) solutions take
# the state's linear rows.
_S1, _SIGMA1 = _linear("S1", "g1")
_S2 = ("S2", "-{S2} * {S2} * m_inv - k + hh2 * {g2} * {g2}")
_SIGMA2 = ("g2", "-{g2} * {S2} * m_inv")
_INT_S1S1 = ("qS", "{S1} * {S1}")
_INT_S2 = ("qI", "{S2}")
# The zero-amplitude kernels' flow rows are the S1 and S2 rows with their
# hh terms, products with sigma1 and sigma2, dropped; each integrand is
# the one the general kernel evaluates on that subspace.
_ZERO_FLOWS = (("S1", "-{S1} * {S2} * m_inv"), ("S2", "-{S2} * {S2} * m_inv - k"))
_KERNEL_FILE = "<qap.dynamics kernels>"
_KERNEL_SOURCE = _render(
    "_rk4_step",
    (_S1, _S2, _SIGMA1, _SIGMA2),
    (_INT_S1S1, ("qG", "{g1} * {g1} + {g2}"), ("qC", "{g1} * {S1} + 2.0 * {S2}"), _INT_S2),
) + _render(
    "_propagator_step",
    (_S2, _SIGMA2, *_linear("p0", "q0"), *_linear("p1", "q1")),
    (("A00", "{p0} * {p0}"), ("A01", "{p0} * {p1}"), ("A11", "{p1} * {p1}"),
     ("B00", "{q0} * {q0}"), ("B01", "{q0} * {q1}"), ("B11", "{q1} * {q1}"),
     ("C00", "{q0} * {p0}"), ("C01", "0.5 * ({q0} * {p1} + {q1} * {p0})"), ("C11", "{q1} * {p1}"),
     ("I2", "{g2}"), _INT_S2),
) + _render(
    "_zero_amplitude_step", _ZERO_FLOWS, (_INT_S1S1, ("qC", "2.0 * {S2}"), _INT_S2),
) + _render(
    "_zero_amplitude_propagator_step", _ZERO_FLOWS,
    (_INT_S1S1, ("C01", "0.5 * ({S1} * {S1})"), _INT_S2),
)
# registered so that tracebacks, ``inspect.getsource`` and profilers show kernel lines
linecache.cache[_KERNEL_FILE] = (len(_KERNEL_SOURCE), None, _KERNEL_SOURCE.splitlines(True),
                                 _KERNEL_FILE)
_kernels = {}
exec(compile(_KERNEL_SOURCE, _KERNEL_FILE, "exec"), globals(), _kernels)
#: one RK4 step of the eight-component state tuple
_rk4_step = _kernels["_rk4_step"]
#: one RK4 step of the 17-component propagator row
_propagator_step = _kernels["_propagator_step"]
#: one RK4 step of (S1, S2, qS, qCon, qIntS2) on the zero-amplitude subspace
_zero_amplitude_step = _kernels["_zero_amplitude_step"]
#: one RK4 step of (S1, S2, A00, C01, qIntS2) of a propagator run with sigma20 = 0
_zero_amplitude_propagator_step = _kernels["_zero_amplitude_propagator_step"]


def _state_row(y):
    """The eight-component state row of a zero-amplitude kernel row."""
    S1, S2, qS, qC, qI = y
    return (S1, S2, 0.0, 0.0, qS, 0.0, qC, qI)


def _propagator_row(y):
    """The 17-component propagator row of a zero-amplitude kernel row: the
    solution from (1, 0) is (S1, 0), the one from (0, 1) is (0, S1)."""
    S1, S2, A00, C01, qI = y
    return (S2, 0.0, S1, 0.0, 0.0, S1, A00, 0.0, 0.0, 0.0, 0.0, A00, 0.0, C01, 0.0, 0.0, qI)


def _kernel_for(y, propagate):
    """The kernel a run from the start row ``y`` steps, the kernel's own
    start row, and the map from its rows to full ones (None if they are).

    Zero initial amplitude, which the flow keeps exactly zero, takes a
    zero-amplitude kernel: sigma10 = sigma20 = 0 for the state, sigma20 = 0
    for the propagator, whose row does not depend on sigma10. The kernels
    are looked up as module globals at call, so a test can swap one.
    """
    if propagate:
        if y[3] == 0.0:
            return _zero_amplitude_propagator_step, (1.0, y[1], 0.0, 0.0, 0.0), _propagator_row
        # (S2, sigma2), the (S1, sigma1) solutions from (1, 0) and (0, 1), zero integrals
        return _propagator_step, (y[1], y[3], 1.0, 0.0, 0.0, 1.0) + (0.0,) * 11, None
    if y[2] == 0.0 and y[3] == 0.0:
        return _zero_amplitude_step, (y[0], y[1], 0.0, 0.0, 0.0), _state_row
    return _rk4_step, y, None


def _grid(spec, times, rows, widen, method, step):
    return SolutionGrid(spec, times, rows if widen is None else list(map(widen, rows)),
                        method, step)


def _blow_up(spec, t_last, times, rows, widen, method, step):
    """Raise ``BlowUpError`` at ``t_last``, with the partial grid if rows were kept."""
    partial = None if rows is None else _grid(spec, times, rows, widen, method, step)
    raise BlowUpError(t_last, partial)


def _start(spec, init, step):
    """Shared input check, then, as Python floats, the start row, the flow
    coefficients (m_inv, k, hh), the step and the horizon. The step must
    be positive and finite, and take at most ``MAX_STEPS`` steps over T."""
    validate(spec)
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step}")
    step, T = float(step), float(spec.T)
    _check_step_count(T, step)
    for name, v in zip(("S10", "S20", "sigma10", "sigma20"), init.as_tuple()):
        if not math.isfinite(v):
            raise ValueError(f"initial data {name} is not finite")
    # + 0.0 turns -0.0 into 0.0: no kernel then ever sees a negative zero
    y = tuple(float(v) + 0.0 for v in init.as_tuple()) + (0.0, 0.0, 0.0, 0.0)
    return (y, *flow_coefficients(spec), step, T)


def _check_step_count(T, step):
    """Raise ``ValueError`` unless T/step is at most ``MAX_STEPS`` (so finite)."""
    if not T / step <= MAX_STEPS:
        raise ValueError(f"h = {step!r} gives T/h = {T / step:.6g} steps over T = {T!r}, "
                         f"more than MAX_STEPS = {MAX_STEPS}")


def _n_steps(T, step):
    n = math.ceil(T / step)
    if n > 1 and (n - 1) * step >= T:
        n -= 1
    return n


def _fixed(spec, init, step, keep, propagate=False):
    """Fixed-step RK4 from 0 to T: the grid if ``keep``, else the endpoint row.

    The grid has ceil(T/step) intervals, the last one shortened to land
    on T exactly. A blow-up raises ``BlowUpError`` at the last good time,
    carrying the partial grid only if ``keep``. ``_kernel_for`` picks the
    kernel from the initial data; with ``propagate`` it steps the
    propagator row, after the same check of the initial data.
    """
    y, m_inv, k, hh, step, T = _start(spec, init, step)
    n = _n_steps(T, step)
    kernel, start, widen = _kernel_for(y, propagate)
    times = [0.0] if keep else None
    rows = [start] if keep else None
    t_prev = 0.0
    if not all(-BLOWUP_LIMIT <= v <= BLOWUP_LIMIT for v in y):
        _blow_up(spec, t_prev, times, rows, widen, "rk4", step)
    y = start
    for i in range(1, n + 1):
        # last step shortened so the grid lands on T exactly
        t = i * step if i < n else T
        y = kernel(y, t - t_prev, m_inv, k, hh)
        if y is None:
            _blow_up(spec, t_prev, times, rows, widen, "rk4", step)
        if keep:
            times.append(t)
            rows.append(y)
        t_prev = t
    if keep:
        return _grid(spec, times, rows, widen, "rk4", step)
    return y if widen is None else widen(y)


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
    of sigma2 and S2. Its kernel's table shares the state kernel's rows
    for S2, sigma2 and the integral of S2, so those three are bit-equal
    to ``final_state``'s, and every integral is the RK4 quadrature of its
    own integrand. ``extremize.endpoint_models`` turns the row into the
    models. Same input check and blow-up exit as ``final_state``; the
    bound applies to the row's own 17 components.
    """
    return _fixed(spec, init, step, keep=False, propagate=True)


def _error_ratio(coarse, fine):
    """Step-doubling error of one trial step over its tolerance, the largest
    over the components; at most 1 accepts the step.

    Per component: |fine - coarse|/15 over ADAPTIVE_ATOL + ADAPTIVE_RTOL *
    max(|coarse|, |fine|). Comparisons stand in for ``abs`` and ``max``,
    five builtin calls per component on every trial, bit for bit: the rows
    are finite, ``max`` keeps its first argument on ties, and a -0.0 from
    ``x if x >= 0.0 else -x`` meets only ATOL + RTOL*(-0.0) = ATOL or a
    ratio of -0.0, which ``q > ratio`` never takes. The components a
    zero-amplitude row leaves out are exact zeros, which add 0.
    """
    ratio = 0.0
    for yc, yf in zip(coarse, fine):
        d = yf - yc
        a = yc if yc >= 0.0 else -yc
        b = yf if yf >= 0.0 else -yf
        q = (d if d >= 0.0 else -d) / 15.0 / (ADAPTIVE_ATOL + ADAPTIVE_RTOL * (a if a >= b else b))
        if q > ratio:
            ratio = q
    return ratio


def _integrate_adaptive(spec, init, step):
    y, m_inv, k, hh, step, T = _start(spec, init, step)
    kernel, y, widen = _kernel_for(y, False)
    times = [0.0]
    rows = [y]
    t = 0.0
    if not all(-BLOWUP_LIMIT <= v <= BLOWUP_LIMIT for v in y):
        _blow_up(spec, t, times, rows, widen, "rk4_adaptive", step)
    # no builtin call on this path: each clamp is min or max written as a comparison
    h_min = 1e-12 * (T if T > 1.0 else 1.0)
    h = T if T < step else step
    # a first step below h_min would read as step collapse
    if h < h_min:
        h = h_min
    while t < T:
        rest = T - t
        if rest < h:
            h = rest
        if h < h_min:
            _blow_up(spec, t, times, rows, widen, "rk4_adaptive", step)
        coarse = kernel(y, h, m_inv, k, hh)
        half = kernel(y, 0.5 * h, m_inv, k, hh)
        fine = None if half is None else kernel(half, 0.5 * h, m_inv, k, hh)
        if coarse is None or fine is None:
            h *= 0.25
            continue
        ratio = _error_ratio(coarse, fine)
        if ratio <= 1.0:
            t = t + h
            y = fine
            times.append(t)
            rows.append(y)
            # ratio <= 1 keeps the growth factor above 0.9, so only 5 caps it
            grow = 0.9 * ratio ** -0.2 if ratio > 0.0 else 5.0
            h *= grow if grow < 5.0 else 5.0
        else:
            shrink = 0.9 * ratio ** -0.2
            h *= shrink if shrink > 0.2 else 0.2
    # floating accumulation may land within one ulp of T; pin it
    times[-1] = T
    return _grid(spec, times, rows, widen, "rk4_adaptive", step)


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
