"""Composite Simpson quadrature: an oracle for the in-state accumulators.

Recomputing the accumulated integrals qS, qSigma and qCon by Simpson's
rule from a kept grid's times and state rows gives a quadrature
independent of the integrator's own accumulation. Only the tests read it.
"""


def composite_simpson(values, times) -> float:
    """Composite Simpson over consecutive interval pairs.

    Handles non-uniform spacing via the three-point quadratic rule; a
    leftover final interval falls back to the trapezoid rule.
    """
    y = [float(v) for v in values]
    x = [float(t) for t in times]
    if len(y) != len(x):
        raise ValueError(f"{len(y)} values vs {len(x)} times")
    total = 0.0
    n = len(x) - 1
    i = 0
    while i + 2 <= n:
        h0 = x[i + 1] - x[i]
        h1 = x[i + 2] - x[i + 1]
        span = h0 + h1
        total += (span / 6.0) * (
            (2.0 - h1 / h0) * y[i]
            + span**2 / (h0 * h1) * y[i + 1]
            + (2.0 - h0 / h1) * y[i + 2]
        )
        i += 2
    if i < n:
        total += 0.5 * (x[i + 1] - x[i]) * (y[i] + y[i + 1])
    return total


def simpson_accumulators(times, rows) -> dict[str, float]:
    """Recompute the three accumulated integrals by Simpson on a grid's
    times and state rows.

    Independent of the in-state accumulators; the oracle for qS, qSigma
    and qCon at t = T.
    """
    return {
        "qS": composite_simpson([r[0] ** 2 for r in rows], times),
        "qSigma": composite_simpson([r[2] ** 2 + r[3] for r in rows], times),
        "qCon": composite_simpson([r[2] * r[0] + 2.0 * r[1] for r in rows], times),
    }
