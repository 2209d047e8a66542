"""Composite Simpson quadrature: an oracle for the in-state accumulators.

Recomputing the accumulated integrals qS, qSigma and qCon by Simpson's
rule from a kept grid's stored coefficient columns gives a quadrature
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


def simpson_accumulators(grid) -> dict[str, float]:
    """Recompute the three accumulated integrals by Simpson on the grid.

    Independent of the in-state accumulators; the oracle for qS, qSigma
    and qCon at t = T.
    """
    t = grid.times
    return {
        "qS": composite_simpson(grid.s1**2, t),
        "qSigma": composite_simpson(grid.sigma1**2 + grid.sigma2, t),
        "qCon": composite_simpson(grid.sigma1 * grid.s1 + 2.0 * grid.s2, t),
    }
