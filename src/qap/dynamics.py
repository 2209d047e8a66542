"""Coefficient ODE system: time integration and its diagnostics.

The flow couples the phase coefficients (S1, S2) to the amplitude
coefficients (sigma1, sigma2), with hh = hbar_tilde^2/(2m):

    sigma1' = -(sigma1*S2 + sigma2*S1)/m     S1' = -S1*S2/m + hh*sigma1*sigma2
    sigma2' = -sigma2*S2/m                   S2' = -S2^2/m - k + 2*hh*sigma2^2

The eigenvalue and the initial-data constraint read the integrals qS,
qSigma and qCon of S1^2, sigma1^2 + sigma2 and sigma1*S1 + 2*S2; qIntS2,
the integral of S2, is a diagnostic outside the CSV contract.

The integrator steps the flow's linear form. S2 is a Riccati variable,
and its pole, a caustic, is a plain zero of u = exp(qIntS2/m) (Radon's
lemma; Reid, *Riccati Differential Equations*, 1972). With p = u*S2:

    u' = p/m      p' = -k*u + c/u,      c = hbar_tilde^2*sigma20^2/m

and S2 = p/u, sigma2 = sigma20/u, qIntS2 = m*ln(u). The pair u*(S1,
sigma1) evolves by sigma2 times a constant matrix N with N^2 = -(hh/m)*I,
so the RK4 stage matrices commute and one step maps it by alpha*I +
beta*N exactly. One solution (C, St), with C' = -hh*sigma2*St and St' =
sigma2*C/m from (1, 0), then gives u*S1 = S10*C + a2*sigma10*St and
u*sigma1 = sigma10*C - S10*St (a2 = m*hh), and the integrals are
quadratic forms in (S10, sigma10) over Jcc, Jcs and Jss, the integrals
of C^2, C*St and St^2 over u^2, and I2, the integral of sigma2
(``_state_row``; ``extremize.endpoint_models`` reads them as exact
models). One kernel steps the row (u, p, C, St, Jcc, Jcs, Jss, I2), which
does not depend on (S10, sigma10), for ``final_state``, ``propagator``
and ``integrate`` (both methods); with sigma20 = 0, C = 1 and the other
three are 0, and the zero-amplitude kernel steps only (u, p, Jcc).
Every kernel is rendered on first use by one cached function,
``_kernel``, from one table (``_render``; ``_stage`` is the reference
the tests pin them against), so a command renders only the kernels it
runs. Two runs give the derivatives of the discrete map along S20 and
sigma20:

- ``tangent`` steps the row with its variational equations along the
  searched coordinates, S20, sigma20 or both, and, by the product rule
  once more, their second-order lines along each pair: forward mode, the
  first and second derivatives of every component. A kernel per searched
  set steps 24 components along one coordinate and 48 along both; along
  S20 alone at sigma20 = 0 it steps only the 7 that are not 0 there
  (``_ZERO_AMPLITUDE_TABLE``);
- ``taped`` steps the row with the row kernel's taped twin, which keeps
  r, a and b at each RK4 stage, and returns a pullback: for a seed, a
  covector on the end row, one backward sweep of the adjoint of (u, p,
  C, St) over the tape (``_sweep``), the transposed product rule on the
  row's table, gives the derivatives of seed . row along S20 and
  sigma20. That is reverse mode (Griewank & Walther, *Evaluating
  Derivatives*, 2nd ed., 2008, ch. 3-4), at about two thirds of the time
  of a 24-component first-order tangent run at h = 1e-2 (CPython 3.11).
  Its tape grows with the run, so it refuses more than ``TAPE_STEPS``
  steps.

``extremize._centre`` picks one of the two for each search point and
reads either through one cotangent formula: the seed's sweep, or its
dot products with ``tangent``'s first-order lines; the certificate reads
``tangent``'s second-order lines.

One input check hands the loop only Python floats (the unrolled step
runs about three times slower on numpy scalars).

A step fails, and the loop raises ``BlowUpError`` at the last good grid
time, unless its new row has every component in [-BLOWUP_LIMIT,
BLOWUP_LIMIT] (not NaN) and passes the sign test u > 0, and, when c > 0,
its start row passes the bounce guard: h*(-S2)/m <= FOCUS_GUARD (u,
falling at its rate there, keeps half its value over the step) and
h^2*c/(m*u^2) <= BOUNCE_GUARD (h is within the bounce's time scale
u*sqrt(m/c), which also bounds the turn of (C, St) per step). With c =
0, u is smooth through S2's pole, so the sign test stops a run at the
step that crosses a classical caustic. For c > 0 the exact flow
conserves E = p^2/(2m) + k*u^2/2 - c*ln(u), so u >= exp(-E/c) > 0 and a
blow-up is numerical: the guard refuses a step that could hop over a
sharp quantum bounce, whose stages would meet u near 0, and passes the
smooth runs that such a step resolves.

A kept trajectory is a ``SolutionGrid`` of the loop's rows. It builds the
state rows (S1, S2, sigma1, sigma2, qS, qSigma, qCon, qIntS2) only when
they are read: all of them for ``rows`` and the CSV, one for ``row``,
which the end-row readers use. Times and rows are Python floats, and
nothing here imports numpy.
"""

from __future__ import annotations

import linecache
import math
from dataclasses import FrozenInstanceError, replace
from functools import cache, partial
from itertools import chain
from typing import TextIO

from .errors import BlowUpError, DegenerateProbeError
from .model import InitialData, OscillatorSpec, flow_coefficients, validate

#: any row component beyond this magnitude counts as a blow-up
BLOWUP_LIMIT = 1e12

#: the bounce guard: with c > 0, a step of length h may start only where
#: h*(-S2)/m is at most FOCUS_GUARD (u, falling at its rate there, keeps
#: half its value over the step) and h^2*c/(m*u^2), the squared ratio of
#: h to the bounce's time scale u*sqrt(m/c), is at most BOUNCE_GUARD
FOCUS_GUARD = 0.5
BOUNCE_GUARD = 1.0

#: default fixed step
DEFAULT_STEP = 1e-3

#: most steps a run may take over its horizon. RK4's truncation error at a
#: step of T/MAX_STEPS is far below the roundoff of that many steps, so a
#: smaller step buys nothing; ``_start`` rejects it before the first step.
MAX_STEPS = 10**7

#: most steps a taped run keeps on its tape (13 floats each, about 0.5 kB);
#: ``taped`` refuses a longer run, and ``extremize._centre`` takes a tangent
#: run there, whose memory does not grow with its steps
TAPE_STEPS = 10**5

#: fewest steps the coarsest run of ``convergence_order`` may take
PROBE_STEPS = 4

#: per-component mixed error control for the adaptive variant
ADAPTIVE_ATOL = 1e-12
ADAPTIVE_RTOL = 1e-10

METHODS = ("rk4", "rk4_adaptive")

CSV_COLUMNS = ("t", "S1", "S2", "sigma1", "sigma2", "qS", "qSigma", "qCon")

#: most CSV rows formatted by one ``%``
CSV_BLOCK = 1024


def _coefficients(m_inv, k, hh, sigma20):
    """A run's kernel coefficients (m_inv, k, c, hs, ms, s, G, W, dc, dhs,
    ddc): c = 2*hh*sigma20^2, hs = -hh*sigma20, ms = sigma20/m, s =
    sigma20, the bounce guard's G = FOCUS_GUARD*m, or inf when c = 0, and W
    = c/(m*BOUNCE_GUARD), the derivatives dc = 4*hh*sigma20 and dhs = -hh of
    c and hs along sigma20 (those of ms and s are m_inv and 1), and ddc =
    4*hh, c's second derivative, the only coefficient's that is not 0."""
    c = 2.0 * hh * sigma20 * sigma20
    return (m_inv, k, c, -hh * sigma20, sigma20 * m_inv, sigma20,
            FOCUS_GUARD / m_inv if c > 0.0 else math.inf, c * m_inv / BOUNCE_GUARD,
            4.0 * hh * sigma20, -hh, 4.0 * hh)


def _stage(u, p, C, St, K):
    """Derivatives of the row (u, p, C, St, Jcc, Jcs, Jss, I2) at one
    point, with the coefficients K of ``_coefficients``."""
    m_inv, k, c, hs, ms, s = K[:6]
    r = 1.0 / u
    a, b = r * C, r * St
    # u', p', C' = -hh*sigma2*St, St' = sigma2*C/m, Jcc', Jcs', Jss', I2' = sigma2
    return m_inv * p, c * r - k * u, hs * b, ms * a, a * a, a * b, b * b, s * r


class SolutionGrid:
    """Time-ordered coefficient states from one integration run.

    Each state row holds S1, S2, sigma1, sigma2, qS, qSigma, qCon, qIntS2
    at one time point. ``times`` is a tuple of Python floats; the grid
    keeps the rows the stepping loop built, and ``widen`` maps one to its
    state row on first access: all rows for ``rows`` and the CSV writer,
    one for ``row``. Every value read is a Python float. A grid is
    ``complete`` when it reaches t = T; partial grids only occur inside
    ``BlowUpError``. Immutable: setting an attribute raises
    ``FrozenInstanceError``.
    """

    __slots__ = ("spec", "method", "step", "times", "_source", "_widen", "_state")

    def __init__(self, spec: OscillatorSpec, times, data, method: str, step: float, widen):
        put = object.__setattr__
        put(self, "spec", spec)
        put(self, "method", method)
        put(self, "step", step)
        put(self, "times", tuple(times))
        put(self, "_source", data)
        put(self, "_widen", widen)
        put(self, "_state", None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def rows(self):
        """Every state row, as tuples of Python floats."""
        if self._state is None:
            object.__setattr__(self, "_state", tuple(map(self._widen, self._source)))
        return self._state

    def row(self, i):
        """State row ``i``, built alone unless every row is built already."""
        if self._state is None:
            return self._widen(self._source[i])
        return self._state[i]

    @property
    def complete(self) -> bool:
        return self.times[-1] == self.spec.T

    def __len__(self) -> int:
        return len(self.times)

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
        # one % per block of rows, not per row; the bytes are the same
        values = [(t, *y[:7]) for t, y in zip(self.times, self.rows)]
        for i in range(0, len(values), CSV_BLOCK):
            block = values[i:i + CSV_BLOCK]
            out.write(row * len(block) % tuple(chain.from_iterable(block)))
        if footer:
            out.write(f"# {footer}\n")

    def to_csv(self, path, footer: str | None = None) -> None:
        with open(path, "w", newline="\n") as fh:
            self.write_csv(fh, footer=footer)


def _g17(x) -> str:
    return format(float(x), ".17g")


def _render(name, shared, flows, integrals, guards, bounded, tape=()):
    """Source of ``name(y, h, K)``, one unrolled RK4 step of the row
    ``flows + integrals`` with the coefficients K of ``_coefficients``.

    A flow row is a component's name and its derivative, an integral row
    a name and its integrand, a shared row a name and a value each point
    computes once, before the derivatives and integrands that read it. In
    all three, ``{X}`` stands for flow component or shared value X at the
    point being evaluated. Derivatives d1, d2, d3, d4 are taken at y,
    y2 = y + h/2*d1, y3 = y + h/2*d2 and y4 = y + h*d3. With w6 = h/6,
    each integral gains w6*(f(y) + 2*(f(y2) + f(y3)) + f(y4)) of its
    integrand f, before the flow moves, and each flow component
    w6*(d1 + 2*(d2 + d3) + d4). The step is not taken, and None
    returned, unless each of ``guards`` holds on y; the new row is
    returned if it has u > 0 and every component named in ``bounded``
    lies in [-BLOWUP_LIMIT, BLOWUP_LIMIT], which NaN does not, else None;
    None too when a point has u = 0.0. With ``tape``, K has one more
    entry, a callable, and a step that its guards let through passes it
    one tuple before the new row's tests: h, then the shared values named
    in ``tape`` at y, y2, y3 and y4. Unrolled scalar code: a tuple-of-stages RK4 costs about 3x here,
    in the hot loop of every solve.
    """
    row = ", ".join(n for n, _ in flows + integrals)
    names = [n for n, _ in flows + shared]

    def at(point, expr):
        return expr.format(**{n: point + n for n in names})

    body = [f'"""One RK4 step of ({row}); rendered by ``_render``."""', f"{row} = y",
            "m_inv, k, c, hs, ms, s, G, W, dc, dhs, ddc" + (", push" if tape else "") + " = K",
            "h2 = 0.5 * h", "w6 = h / 6.0"]
    if guards:
        body += [f"if not ({' and '.join(guards)}):", "    return None"]
    for point, d, prev, step in (("", "d1", None, None), ("y2", "d2", "d1", "h2"),
                                 ("y3", "d3", "d2", "h2"), ("y4", "d4", "d3", "h")):
        if prev:
            body += [f"{point}{n} = {n} + {step} * {prev}{n}" for n, _ in flows]
        body += [f"{point}{n} = {at(point, f)}" for n, f in shared]
        body += [f"{d}{n} = {at(point, f)}" for n, f in flows]
    for n, f in integrals:
        # each integrand whole, so that a sum in one is not regrouped with the next
        f0, f2, f3, f4 = (f"({at(point, f)})" for point in ("", "y2", "y3", "y4"))
        body.append(f"{n} += w6 * ({f0} + 2.0 * ({f2} + {f3}) + {f4})")
    body += [f"{n} += w6 * (d1{n} + 2.0 * (d2{n} + d3{n}) + d4{n})" for n, _ in flows]
    if tape:
        kept = [point + n for point in ("", "y2", "y3", "y4") for n in tape]
        body.append(f"push((h, {', '.join(kept)}))")
    test = " and ".join(["0.0 < u", *(f"-L <= {n} <= L" for n in bounded)])
    body += ["L = BLOWUP_LIMIT", f"if {test}:", f"    return {row}", "return None"]
    # u = 0.0 at a point raises in 1.0 / u; that step fails too
    body[2:] = ["try:", *("    " + line for line in body[2:]),
                "except ZeroDivisionError:", "    return None"]
    return f"def {name}(y, h, K):\n" + "".join(f"    {line}\n" for line in body)


# The row's table; each line reads as its line of ``_stage``.
_ROW_SHARED = (("r", "1.0 / {u}"), ("a", "{r} * {C}"), ("b", "{r} * {St}"))
_ROW_FLOWS = (("u", "m_inv * {p}"), ("p", "c * {r} - k * {u}"), ("C", "hs * {b}"),
              ("St", "ms * {a}"))
_ROW_INTEGRALS = (("Jcc", "{a} * {a}"), ("Jcs", "{a} * {b}"), ("Jss", "{b} * {b}"),
                  ("I2", "s * {r}"))
_ROW_GUARDS = ("-h * p <= G * u", "h * h * W <= u * u")

# The row's derivative along X, S20 (S) or sigma20 (G), by the product rule
# on each line of the row's table: rX = -r^2*uX, aX and bX the derivatives
# of a and b. Along sigma20 the coefficients move too (``_SIGMA20_TERMS``):
# c by dc, hs by dhs, ms by m_inv and s by 1.
_TANGENT_SHARED = (("rX", "-{r} * {r} * {uX}"), ("aX", "{rX} * {C} + {r} * {CX}"),
                   ("bX", "{rX} * {St} + {r} * {StX}"))
_TANGENT_FLOWS = (("uX", "m_inv * {pX}"), ("pX", "c * {rX} - k * {uX}"), ("CX", "hs * {bX}"),
                  ("StX", "ms * {aX}"))
_TANGENT_INTEGRALS = (("JccX", "2.0 * {a} * {aX}"), ("JcsX", "{aX} * {b} + {a} * {bX}"),
                      ("JssX", "2.0 * {b} * {bX}"), ("I2X", "s * {rX}"))
_SIGMA20_TERMS = {"pX": " + dc * {r}", "CX": " + dhs * {b}", "StX": " + m_inv * {a}",
                  "I2X": " + {r}"}

# The row's second derivative along X and Y, the product rule once more on
# the lines above: rXY = -r*(2*rY*uX + r*uXY), and aXY and bXY. Each of X
# and Y that is sigma20 adds that coefficient's term of ``_SIGMA20_TERMS``
# on the line's derivative along the other, and when both are, p's line
# gains ddc*r, c's second derivative.
_CURVATURE_SHARED = (("rXY", "-{r} * (2.0 * {rY} * {uX} + {r} * {uXY})"),
                     ("aXY", "{rXY} * {C} + {rX} * {CY} + {rY} * {CX} + {r} * {CXY}"),
                     ("bXY", "{rXY} * {St} + {rX} * {StY} + {rY} * {StX} + {r} * {StXY}"))
_CURVATURE_FLOWS = (("uXY", "m_inv * {pXY}"), ("pXY", "c * {rXY} - k * {uXY}"),
                    ("CXY", "hs * {bXY}"), ("StXY", "ms * {aXY}"))
_CURVATURE_INTEGRALS = (("JccXY", "2.0 * ({aX} * {aY} + {a} * {aXY})"),
                        ("JcsXY", "{aXY} * {b} + {aX} * {bY} + {aY} * {bX} + {a} * {bXY}"),
                        ("JssXY", "2.0 * ({bX} * {bY} + {b} * {bXY})"), ("I2XY", "s * {rXY}"))

# The zero-amplitude row and its lines along S20 alone, by order: at
# sigma20 = 0, c = 0, C = 1 and St = Jcs = Jss = I2 = 0, and the lines
# above that stay 0 are dropped. The row keeps u, p and Jcc; (u, p) is
# linear in S20, so uSS = 0, rSS = 2*rS^2/r and JccSS' = 6*rS^2. A run
# along sigma20 at sigma20 = 0 steps the full table.
_ZERO_AMPLITUDE_TABLE = {
    "": ((("r", "1.0 / {u}"),), (("u", "m_inv * {p}"), ("p", "-k * {u}")),
         (("Jcc", "{r} * {r}"),)),
    "S": ((("rS", "-{r} * {r} * {uS}"),), (("uS", "m_inv * {pS}"), ("pS", "-k * {uS}")),
          (("JccS", "2.0 * {r} * {rS}"),)),
    "SS": ((), (), (("JccSS", "6.0 * {rS} * {rS}"),)),
}

#: the row's components, in its order
_ROW_NAMES = tuple(n for n, _ in _ROW_FLOWS + _ROW_INTEGRALS)

#: the suffix of a coordinate's lines
_SUFFIX = {"S20": "S", "sigma20": "G"}


def _along(X, lines):
    """The tangent table's ``lines`` along X (S or G)."""
    return tuple((n.replace("X", X), (f + (_SIGMA20_TERMS.get(n, "") if X == "G" else ""))
                  .replace("X", X)) for n, f in lines)


def _along2(X, Y, lines):
    """The second-order table's ``lines`` along X and Y (each S or G)."""
    out = []
    for n, f in lines:
        # the first-order line's coefficient term, on the derivative along the other
        term = _SIGMA20_TERMS.get(n[:-1], "")
        if X == "G":
            f += term.replace("}", "Y}")
        if Y == "G":
            f += term.replace("}", "X}")
        if X == Y == "G" and n == "pXY":
            f += " + ddc * {r}"
        out.append((n.replace("X", X).replace("Y", Y), f.replace("X", X).replace("Y", Y)))
    return tuple(out)


def _levels(along):
    """The suffixes of a tangent run's rows: the row's own, each coordinate
    of ``along`` (S, G or SG), then each pair of them."""
    return ("", *along, *(X + Y for i, X in enumerate(along) for Y in along[i:]))


@cache
def _table(along, zero_amplitude):
    """The (shared, flows, integrals) lines of a run along ``along``: ""
    for the row alone, or S, G or SG for a tangent run, whose table holds
    the row's, its first-order lines and its second-order lines, level by
    level (``_levels``); with ``zero_amplitude`` (along "" or S), those of
    ``_ZERO_AMPLITUDE_TABLE``."""
    parts = []
    for level in _levels(along):
        if zero_amplitude:
            parts.append(_ZERO_AMPLITUDE_TABLE[level])
        elif not level:
            parts.append((_ROW_SHARED, _ROW_FLOWS, _ROW_INTEGRALS))
        elif len(level) == 1:
            parts.append(tuple(_along(level, t) for t in
                               (_TANGENT_SHARED, _TANGENT_FLOWS, _TANGENT_INTEGRALS)))
        else:
            parts.append(tuple(_along2(level[0], level[1], t) for t in
                               (_CURVATURE_SHARED, _CURVATURE_FLOWS, _CURVATURE_INTEGRALS)))
    return tuple(sum((part[i] for part in parts), ()) for i in range(3))


@cache
def _kernel(along, zero_amplitude, taped=False):
    """The RK4 step of the table ``_table(along, zero_amplitude)``,
    rendered by ``_render`` and compiled on first use, once per argument
    tuple, so that a command renders only the kernels it runs. ``_run``
    passes all three arguments, positionally; the cache keys on them as
    passed.

    ``along`` is "" for the row, or S, G or SG for a tangent run's row and
    its first- and second-order lines; ``zero_amplitude`` takes the
    zero-amplitude table, which steps the components that are not 0 at
    sigma20 = 0 and needs no bounce guard. Each kernel bound-checks only
    the row, so a tangent run blows up exactly where the row's run does; a
    non-finite tangent is the caller's to catch. With ``taped`` (the row
    alone), each step its guards let through also passes the tape, the
    last entry of its K, (h, r, a, b, then r, a and b at y2, y3 and y4):
    what ``_sweep`` reads of the step. The source is registered so that
    tracebacks, ``inspect.getsource`` and profilers show kernel lines.
    """
    shared, flows, integrals = _table(along, zero_amplitude)
    source = _render("_rk4_step", shared, flows, integrals,
                     () if zero_amplitude else _ROW_GUARDS,
                     [n for n, _ in flows + integrals if n in _ROW_NAMES],
                     ("r", "a", "b") if taped else ())
    filename = f"<qap.dynamics kernel {along=} {zero_amplitude=} {taped=}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace["_rk4_step"]


def _sweep(tape, K, seed):
    """The derivatives along S20 and sigma20 of seed . y(T), for the end row
    y(T) of the taped run that wrote ``tape`` with the coefficients K.

    One backward sweep of the adjoint of the flows (u, p, C, St) over the
    steps, the transposed product rule on each line of the row's table
    (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 3-4).
    The integrals do not act on the flows, so their adjoints stay the
    seed's. Every adjoint of a step is taken over w6 = h/6, which scales
    its stages' weights to 1, 2, 2, 1. At a stage of weight w with point
    values r, a, b, whose derivatives (u', p', C', St') have adjoint (du,
    dp, dC, dS), and whose integrands weight w times the seed's:

        a~ = ms*dS + w*(2*Jcc*a + Jcs*b)     b~ = hs*dC + w*(Jcs*a + 2*Jss*b)
        u~ = -k*dp - r*(r*(c*dp + w*s*I2) + a*a~ + b*b~)
        p~ = m_inv*du      C~ = r*a~      St~ = r*b~

    (r~ = -r^2*u~ and C = a/r, St = b/r fold the shared values into u~),
    and the coefficients' adjoint along sigma20 gains r*(dc*dp + w*I2) +
    dhs*b*dC + m_inv*a*dS. Stage 4's derivatives carry the step's
    adjoint X, stage 3's 2*X + h*(stage 4's point adjoint), stage 2's
    2*X + h/2*(stage 3's), stage 1's X + h/2*(stage 2's), and X gains w6
    times the four point adjoints. The start row is (1, S20, 1, 0, ...),
    so the adjoint of p there is the derivative along S20.
    """
    m_inv, k, c, hs, ms, s, _, _, dc, dhs, _ = K
    U, P, Cb, Sb, Jcc, Jcs, Jss, I2 = seed
    nk = -k
    # the integrands' weights at stages of weight 1 and of weight 2
    Jcc2, Jss2, sI, I2x2 = 2.0 * Jcc, 2.0 * Jss, s * I2, 2.0 * I2
    Jcc4, Jcs2, Jss4, sI2 = 4.0 * Jcc, 2.0 * Jcs, 4.0 * Jss, 2.0 * sI
    G = 0.0
    for h, r1, a1, b1, r2, a2, b2, r3, a3, b3, r4, a4, b4 in reversed(tape):
        h2 = 0.5 * h
        twoU, twoP, twoC, twoS = U + U, P + P, Cb + Cb, Sb + Sb
        # stage 4, weight 1
        ab = ms * Sb + (Jcc2 * a4 + Jcs * b4)
        bb = hs * Cb + (Jcs * a4 + Jss2 * b4)
        u4 = nk * P - r4 * (r4 * (c * P + sI) + a4 * ab + b4 * bb)
        p4, C4, S4 = m_inv * U, r4 * ab, r4 * bb
        g = r4 * (dc * P + I2) + dhs * b4 * Cb + m_inv * a4 * Sb
        # stage 3, weight 2
        du, dp, dC, dS = twoU + h * u4, twoP + h * p4, twoC + h * C4, twoS + h * S4
        ab = ms * dS + (Jcc4 * a3 + Jcs2 * b3)
        bb = hs * dC + (Jcs2 * a3 + Jss4 * b3)
        u3 = nk * dp - r3 * (r3 * (c * dp + sI2) + a3 * ab + b3 * bb)
        p3, C3, S3 = m_inv * du, r3 * ab, r3 * bb
        g += r3 * (dc * dp + I2x2) + dhs * b3 * dC + m_inv * a3 * dS
        # stage 2, weight 2
        du, dp, dC, dS = twoU + h2 * u3, twoP + h2 * p3, twoC + h2 * C3, twoS + h2 * S3
        ab = ms * dS + (Jcc4 * a2 + Jcs2 * b2)
        bb = hs * dC + (Jcs2 * a2 + Jss4 * b2)
        u2 = nk * dp - r2 * (r2 * (c * dp + sI2) + a2 * ab + b2 * bb)
        p2, C2, S2 = m_inv * du, r2 * ab, r2 * bb
        g += r2 * (dc * dp + I2x2) + dhs * b2 * dC + m_inv * a2 * dS
        # stage 1, weight 1
        du, dp, dC, dS = U + h2 * u2, P + h2 * p2, Cb + h2 * C2, Sb + h2 * S2
        ab = ms * dS + (Jcc2 * a1 + Jcs * b1)
        bb = hs * dC + (Jcs * a1 + Jss2 * b1)
        u1 = nk * dp - r1 * (r1 * (c * dp + sI) + a1 * ab + b1 * bb)
        g += r1 * (dc * dp + I2) + dhs * b1 * dC + m_inv * a1 * dS
        w6 = h / 6.0
        U += w6 * (u1 + u2 + u3 + u4)
        P += w6 * (m_inv * du + p2 + p3 + p4)
        Cb += w6 * (r1 * ab + C2 + C3 + C4)
        Sb += w6 * (r1 * bb + S2 + S3 + S4)
        G += w6 * g
    return P, G


def _tangent_rows(along, zero_amplitude, y):
    """The end row (u, p, C, St, Jcc, Jcs, Jss, I2) of the kernel row ``y``
    of a tangent run along ``along`` (S, G or SG), its first-order rows,
    one per coordinate, and its second-order rows, one per pair, in the
    order of ``_levels``. A component the kernel does not step is 0, but
    the row's C, 1, at sigma20 = 0."""
    _, flows, integrals = _table(along, zero_amplitude)
    at = dict(zip([n for n, _ in flows + integrals], y))
    rows = [tuple(at.get(n + level, 1.0 if n + level == "C" else 0.0) for n in _ROW_NAMES)
            for level in _levels(along)]
    return rows[0], tuple(rows[1:1 + len(along)]), tuple(rows[1 + len(along):])


def _u_row(y):
    """The eight-component row of a kernel row: a zero-amplitude row widened."""
    return y if len(y) == 8 else (y[0], y[1], 1.0, 0.0, y[2], 0.0, 0.0, 0.0)


def _state_row(first, m, a2, y):
    """The state row (S1, S2, sigma1, sigma2, qS, qSigma, qCon, qIntS2) at
    the kernel row ``y`` of a run from the start state ``first``.

    ``a2`` is m*hh. At the start row this gives ``first`` exactly, and
    four zeros, each +0.0.
    """
    S10, _, g10, g20 = first[:4]
    u, p, C, St, Jcc, Jcs, Jss, I2 = _u_row(y)
    r = 1.0 / u
    qI = m * math.log(u)
    S11, g11, a2g = S10 * S10, g10 * g10, a2 * g10
    return (
        (S10 * C + a2g * St) * r,
        p * r,
        (g10 * C - S10 * St) * r,
        g20 * r,
        S11 * Jcc + a2g * (2.0 * S10 * Jcs + a2g * Jss),
        S11 * Jss - 2.0 * S10 * g10 * Jcs + g11 * Jcc + I2,
        2.0 * qI + (S10 * g10 * (Jcc - a2 * Jss) + (a2 * g11 - S11) * Jcs),
        qI,
    )


def _state_tangent(first, m, a2, y, dy, dg20):
    """The derivative of ``_state_row(first, m, a2, y)`` along the tangent
    ``dy`` of the eight-component row ``y`` and ``dg20`` of sigma20, at
    fixed (S10, sigma10)."""
    S10, _, g10, g20 = first[:4]
    u, p, C, St = y[:4]
    du, dp, dC, dSt, dJcc, dJcs, dJss, dI2 = dy
    r = 1.0 / u
    dr = -r * r * du
    dqI = m * du * r
    S11, g11, a2g = S10 * S10, g10 * g10, a2 * g10
    return (
        (S10 * dC + a2g * dSt) * r + (S10 * C + a2g * St) * dr,
        dp * r + p * dr,
        (g10 * dC - S10 * dSt) * r + (g10 * C - S10 * St) * dr,
        dg20 * r + g20 * dr,
        S11 * dJcc + a2g * (2.0 * S10 * dJcs + a2g * dJss),
        S11 * dJss - 2.0 * S10 * g10 * dJcs + g11 * dJcc + dI2,
        2.0 * dqI + (S10 * g10 * (dJcc - a2 * dJss) + (a2 * g11 - S11) * dJcs),
        dqI,
    )


def _state_curvature(first, m, a2, y, X, Y, dXY):
    """The second derivative of ``_state_row(first, m, a2, y)`` along two
    directions X and Y, each a pair (e, dy): a tangent e of the initial
    data (S10, S20, sigma10, sigma20) and the tangent dy of the
    eight-component row ``y`` that comes with it, with ``dXY`` the row's
    second derivative along them. The initial data enter linearly, so
    they have no second derivative of their own; (S10, sigma10) enter
    ``_state_row`` as x in the quadratic forms x.M x of qS, qSigma and
    qCon, with M linear in (Jcc, Jcs, Jss), and through (S1, sigma1)."""
    S10, _, g10, g20 = first[:4]
    u, p, C, St, Jcc, Jcs, Jss, _ = y
    (sX, _, gX, qX), (uX, pX, CX, StX, *JX) = X
    (sY, _, gY, qY), (uY, pY, CY, StY, *JY) = Y
    uXY, pXY, CXY, StXY, *JXY = dXY
    r = 1.0 / u
    rX, rY = -r * r * uX, -r * r * uY
    rXY = -r * (2.0 * rY * uX + r * uXY)

    def over_u(f, fX, fY, fXY):
        """The second derivative of f*r."""
        return fXY * r + fX * rY + fY * rX + f * rXY

    def forms(a, b, J):
        """The bilinear forms a.M b of qS, qSigma and qCon for J = (Jcc, Jcs, Jss, I2)."""
        jcc, jcs, jss = J[:3]
        ab, cross, ab1 = a[0] * b[0], a[0] * b[1] + a[1] * b[0], a[1] * b[1]
        return (ab * jcc + a2 * (cross * jcs + a2 * ab1 * jss), ab * jss - cross * jcs + ab1 * jcc,
                -ab * jcs + 0.5 * cross * (jcc - a2 * jss) + a2 * ab1 * jcs)

    x, xX, xY = (S10, g10), (sX, gX), (sY, gY)
    J = (Jcc, Jcs, Jss)
    # the second derivative of x.M x: 2 xX.M xY + 2 xX.M_Y x + 2 xY.M_X x + x.M_XY x
    q = [2.0 * (f1 + f2 + f3) + f4 for f1, f2, f3, f4 in
         zip(forms(xX, xY, J), forms(xX, x, JY), forms(xY, x, JX), forms(x, x, JXY))]
    dqI = m * (uXY * r + uX * rY)
    return (
        over_u(S10 * C + a2 * g10 * St, sX * C + S10 * CX + a2 * (gX * St + g10 * StX),
               sY * C + S10 * CY + a2 * (gY * St + g10 * StY),
               sX * CY + sY * CX + S10 * CXY + a2 * (gX * StY + gY * StX + g10 * StXY)),
        over_u(p, pX, pY, pXY),
        over_u(g10 * C - S10 * St, gX * C + g10 * CX - sX * St - S10 * StX,
               gY * C + g10 * CY - sY * St - S10 * StY,
               gX * CY + gY * CX + g10 * CXY - sX * StY - sY * StX - S10 * StXY),
        over_u(g20, qX, qY, 0.0),
        q[0],
        q[1] + JXY[3],
        2.0 * dqI + q[2],
        dqI,
    )


def _state_cotangent(first, m, a2, y, w):
    """The transpose of ``_state_tangent``: for a covector ``w`` on the
    state row, the gradient of w . ``_state_row(first, m, a2, y)`` with
    respect to the eight-component row ``y`` and, separately, to sigma20,
    at fixed (S10, sigma10)."""
    S10, _, g10, g20 = first[:4]
    u, p, C, St = y[:4]
    w0, w1, w2, w3, w4, w5, w6, w7 = w
    r = 1.0 / u
    S11, g11, a2g = S10 * S10, g10 * g10, a2 * g10
    # the first four entries are (S10*C + a2g*St, p, g10*C - S10*St, g20) * r
    # with dr = -r^2 du, and qCon and qIntS2 read qI = m*ln(u) with dqI = m*r du
    lift = (w0 * ((S10 * C + a2g * St) * r) + w1 * (p * r) + w2 * ((g10 * C - S10 * St) * r)
            + w3 * (g20 * r))
    return (
        r * (m * (2.0 * w6 + w7)) - r * lift,
        w1 * r,
        (w0 * S10 + w2 * g10) * r,
        (w0 * a2g - w2 * S10) * r,
        w4 * S11 + w5 * g11 + w6 * S10 * g10,
        2.0 * S10 * (w4 * a2g - w5 * g10) + w6 * (a2 * g11 - S11),
        w4 * a2g * a2g + w5 * S11 - w6 * S10 * g10 * a2,
        w5,
    ), w3 * r


def _blow_up(spec, t_last, times, rows, widen, method, step):
    """Raise ``BlowUpError`` at ``t_last``, with the partial grid if rows were kept."""
    raise BlowUpError(t_last, rows and SolutionGrid(spec, times, rows, method, step, widen))


def _start(spec, init, step):
    """Shared input check, then, as Python floats, the start state, the flow
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


def _run(spec, init, step, keep, method, end="state", along=""):
    """``_start``, then the kernel for the start state, its start row and
    coefficients, the map from its rows to what the run returns, the
    step and T.

    The map gives the state row (``end="state"``), the eight-component row
    (``"row"``), that row and its first- and second-order rows along
    ``along`` (S, G or SG; ``"tangent"``, through ``_tangent_rows``), or
    that row and its pullback (``"taped"``): the taped kernel passes each
    step's stage values to a tape, and ``_sweep`` reads it back. A start
    state beyond ``BLOWUP_LIMIT`` blows up at t = 0. sigma20 = 0 takes a
    zero-amplitude kernel, except in a taped run and in a tangent run
    along sigma20. The kernel is looked up at call, as ``_kernel``, so a
    test can swap one.
    """
    first, m_inv, k, hh, step, T = _start(spec, init, step)
    if not all(-BLOWUP_LIMIT <= v <= BLOWUP_LIMIT for v in first):
        # the start row is a state row already; ``tuple`` passes it through
        _blow_up(spec, 0.0, [0.0], [first] if keep else None, tuple, method, step)
    K = _coefficients(m_inv, k, hh, first[3])
    taped = end == "taped"
    zero = first[3] == 0.0 and along in ("", "S") and not taped
    # the row starts at (1, S20, 1, 0, ...), and a tangent run's lines at
    # dp = 1 along S20, and at 0 along sigma20 and at second order
    start = {"u": 1.0, "p": first[1], "C": 1.0, "pS": 1.0}
    _, flows, integrals = _table(along, zero)
    y = tuple([start.get(n, 0.0) for n, _ in flows + integrals])
    kernel = _kernel(along, zero, taped)
    if taped:
        tape = []
        return kernel, y, K + (tape.append,), lambda y: (y, partial(_sweep, tape, K)), step, T
    if along:
        widen = partial(_tangent_rows, along, zero)
    elif end == "row":
        widen = _u_row
    else:
        widen = partial(_state_row, first, float(spec.m), hh / m_inv)
    return kernel, y, K, widen, step, T


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


def _fixed(spec, init, step, keep, end="state", along=""):
    """Fixed-step RK4 from 0 to T: the grid if ``keep``, else what the run
    returns at its end row, by ``end`` and ``along`` (see ``_run``).

    The grid has ceil(T/step) intervals, the last one shortened to land
    on T exactly. A blow-up raises ``BlowUpError`` at the last good time,
    carrying the partial grid only if ``keep``; a taped run with T >
    ``TAPE_STEPS`` * step raises ``ValueError`` before its first step.
    """
    kernel, y, K, widen, step, T = _run(spec, init, step, keep, "rk4", end, along)
    if end == "taped" and T > TAPE_STEPS * step:
        raise ValueError(f"a taped run keeps at most TAPE_STEPS = {TAPE_STEPS} steps; "
                         f"h = {step!r} takes more over T = {T!r}")
    n = _n_steps(T, step)
    times = [0.0] if keep else None
    rows = [y] if keep else None
    t_prev = 0.0
    for i in range(1, n + 1):
        # last step shortened so the grid lands on T exactly
        t = i * step if i < n else T
        y = kernel(y, t - t_prev, K)
        if y is None:
            _blow_up(spec, t_prev, times, rows, widen, "rk4", step)
        if keep:
            times.append(t)
            rows.append(y)
        t_prev = t
    if keep:
        return SolutionGrid(spec, times, rows, "rk4", step, widen)
    return widen(y)


def final_state(spec: OscillatorSpec, init: InitialData, step: float = DEFAULT_STEP):
    """Fixed-step run keeping only the endpoint (t = T) state tuple.

    Identical arithmetic to ``integrate(..., method='rk4')`` without the
    trajectory storage, for callers that need just the final
    coefficients and accumulators, such as ``convergence_order``.
    Rejects the same inputs as ``integrate``
    and raises ``BlowUpError`` (without a partial grid) on the same runs.
    """
    return _fixed(spec, init, step, keep=False)


def propagator(spec: OscillatorSpec, init: InitialData, step: float = DEFAULT_STEP):
    """Fixed-step run returning the end row (u, p, C, St, Jcc, Jcs, Jss, I2).

    The row does not depend on (S10, sigma10); the state at T is a
    quadratic form in them over it, so ``extremize.endpoint_models``
    turns it into the eigenvalue and the constraint residual as exact
    quadratics in (S10, sigma10). A zero-amplitude run's row is widened
    with C = 1 and St = Jcs = Jss = I2 = 0. The same run as
    ``final_state``: same kernel, input check and blow-up exit.
    """
    return _fixed(spec, init, step, keep=False, end="row")


def tangent(spec: OscillatorSpec, init: InitialData, step: float = DEFAULT_STEP,
            along=("S20", "sigma20")):
    """Fixed-step run returning ``propagator``'s end row, its derivatives
    along the coordinates ``along`` names (S20, sigma20 or both) and its
    second derivatives along each pair of them, as eight-component rows:
    (row, (first-order rows), (second-order rows)), in the order S20,
    sigma20 and SS, SG, GG.

    RK4 on the row and its variational equations is the derivative of the
    discrete RK4 map (Hairer, Norsett & Wanner I, section I.14), and the
    product rule once more gives its second derivative (Griewank &
    Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 13), so both are
    exact for ``propagator``'s row, up to roundoff: no difference step.
    The base row is ``propagator``'s, bit for bit, and so are the
    first-order rows of every choice of ``along``; the run blows up
    exactly where ``propagator``'s does, and only the derivatives may come
    out non-finite.
    """
    if not along or any(n not in _SUFFIX for n in along):
        raise ValueError(f"along must name S20, sigma20 or both, got {along!r}")
    along = "".join(X for n, X in _SUFFIX.items() if n in along)
    return _fixed(spec, init, step, keep=False, end="tangent", along=along)


def taped(spec: OscillatorSpec, init: InitialData, step: float = DEFAULT_STEP):
    """Fixed-step run returning ``propagator``'s end row and its pullback.

    The pullback maps a seed, a covector on the end row, to the
    derivatives of seed . row along S20 and sigma20, by one backward sweep
    over the run's tape (``_sweep``): the derivatives of ``tangent``, up to
    roundoff, for about the cost of one more row run, where ``tangent``
    steps 24 components. The row is ``propagator``'s, bit for bit (the
    taped kernel is the row's kernel rendered from the same table), and the
    run blows up exactly where ``propagator``'s does; only the pullback's
    values may come out non-finite. The tape holds 13 floats a step, so a
    run of more than ``TAPE_STEPS`` steps raises ``ValueError``; a
    ``tangent`` run's memory does not grow with its steps.
    """
    return _fixed(spec, init, step, keep=False, end="taped")


def _error_ratio(coarse, fine):
    """Step-doubling error of one trial step over its tolerance, the largest
    over the components; at most 1 accepts the step.

    Per component: |fine - coarse|/15 over ADAPTIVE_ATOL + ADAPTIVE_RTOL *
    max(|coarse|, |fine|). Comparisons stand in for ``abs`` and ``max``,
    five builtin calls per component on every trial, bit for bit: the rows
    are finite, ``max`` keeps its first argument on ties, and a -0.0 from
    ``x if x >= 0.0 else -x`` meets only ATOL + RTOL*(-0.0) = ATOL or a
    ratio of -0.0, which ``q > ratio`` never takes.
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
    kernel, y, K, widen, step, T = _run(spec, init, step, True, "rk4_adaptive")
    times = [0.0]
    rows = [y]
    t = 0.0
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
        coarse = kernel(y, h, K)
        half = None if coarse is None else kernel(y, 0.5 * h, K)
        fine = None if half is None else kernel(half, 0.5 * h, K)
        if fine is None:
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
    return SolutionGrid(spec, times, rows, "rk4_adaptive", step, widen)


def integrate(
    spec: OscillatorSpec,
    init: InitialData,
    step: float = DEFAULT_STEP,
    method: str = "rk4",
) -> SolutionGrid:
    """Integrate the coefficient system from 0 to T.

    ``rk4`` uses a fixed step (grid of ceil(T/step) intervals, the last
    one shortened to land on T exactly); ``rk4_adaptive`` uses classic
    step doubling with per-component mixed error control on the kernel
    row. Raises ``BlowUpError`` carrying the partial grid when a step
    fails the kernel's tests (see the module docstring).
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
    differences. Raises ``DegenerateProbeError`` when the coarsest run
    takes fewer than ``PROBE_STEPS`` steps (runs of one, two and four
    steps show one step's error, not the integrator's convergence), or
    when the differences fall below 1e-14 (probe too easy to resolve an
    order).
    """
    n = _n_steps(float(t_probe), step)
    if n < PROBE_STEPS:
        raise DegenerateProbeError(
            f"step {step:.6g} takes {n} step(s) over t_probe = {t_probe:.6g}; "
            f"an order needs at least {PROBE_STEPS}"
        )
    probe_spec = replace(spec, T=float(t_probe))
    values = []
    for s in (step, step / 2.0, step / 4.0):
        values.append(final_state(probe_spec, init, step=s)[1])
    d1 = values[0] - values[1]
    d2 = values[1] - values[2]
    if abs(d1) < 1e-14 or abs(d2) < 1e-14:
        raise DegenerateProbeError(
            f"successive S2 differences {d1:.3e}, {d2:.3e} below resolvable size"
        )
    return math.log2(abs(d1) / abs(d2))
