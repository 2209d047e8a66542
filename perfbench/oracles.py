"""Reference answers owned by the benchmark.

Nothing here imports ``qap``: every expected value is recomputed from
the problem statement, either in closed form (classical limit) or with
a tight-tolerance ``scipy.integrate.solve_ivp`` run of the coefficient
system. The benchmark compares the program's files against these.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

# Reference integrator tolerances: several orders below the RK4 error
# at the steps the workloads use.
REF_RTOL = 1e-12
REF_ATOL = 1e-13


def omega(m: float, k: float) -> float:
    return math.sqrt(k / m)


def s20_from_t0(t0: float, m: float, k: float) -> float:
    """Initial quadratic coefficient of the classical family with offset t0."""
    return math.sqrt(m * k) * math.tan(omega(m, k) * t0)


def two_point_action(m, k, T, x0, xT) -> float:
    """Classical action of the oscillator between (0, x0) and (T, xT)."""
    w = omega(m, k)
    return m * w * ((x0 * x0 + xT * xT) * math.cos(w * T) - 2.0 * x0 * xT) / (
        2.0 * math.sin(w * T)
    )


def classical_s1_s2(t, m, k, S10, t0):
    """Closed-form (S1, S2) at time t of the classical flow from (S10, S20(t0))."""
    w = omega(m, k)
    s1 = S10 * math.cos(w * t0) / math.cos(w * (t - t0))
    s2 = -math.sqrt(m * k) * math.tan(w * (t - t0))
    return s1, s2


def classical_lambda(m, k, T, x0, xT, S10, t0) -> float:
    """Eigenvalue of the classical coefficient family at (S10, t0).

    Boundary term from the closed-form coefficients at T, minus the
    kinetic integral of S1^2 done in closed form:
    int_0^T sec^2(w(t - t0)) dt = (tan(w(T - t0)) + tan(w t0)) / w.
    """
    w = omega(m, k)
    s1T, s2T = classical_s1_s2(T, m, k, S10, t0)
    s20 = s20_from_t0(t0, m, k)
    c0 = math.cos(w * t0)
    qS = (S10 * c0) ** 2 * (math.tan(w * (T - t0)) + math.tan(w * t0)) / w
    boundary = s1T * xT + 0.5 * s2T * xT * xT - S10 * x0 - 0.5 * s20 * x0 * x0
    return boundary - qS / (2.0 * m)


def stationary_s10(m, k, T, x0, xT, t0) -> float:
    """S10 at which classical_lambda is stationary for fixed t0."""
    w = omega(m, k)
    return math.sqrt(m * k) * (xT * math.cos(w * t0) - x0 * math.cos(w * (T - t0))) / (
        math.cos(w * t0) * math.sin(w * T)
    )


def caustic_time(m, k, S20) -> float:
    """First positive zero of cos(w t) + S20/(m w) sin(w t) (S2's pole).

    Valid for the classical flow (or sigma20 = 0); ``inf`` when there is
    none for k = 0 and S20 >= 0.
    """
    if k == 0.0:
        return -m / S20 if S20 < 0.0 else math.inf
    w = omega(m, k)
    # cot(w t) = -S20/(m w); the first positive root lies in (0, pi/w)
    t = (math.pi / 2.0 + math.atan(S20 / (m * w))) / w
    return t


def _rhs(m, k, hb):
    m_inv = 1.0 / m
    hh = hb * hb * 0.5 * m_inv

    def f(_t, y):
        S1, S2, g1, g2 = y[0], y[1], y[2], y[3]
        return [
            -S1 * S2 * m_inv + hh * g1 * g2,
            -S2 * S2 * m_inv - k + 2.0 * hh * g2 * g2,
            -(g1 * S2 + g2 * S1) * m_inv,
            -g2 * S2 * m_inv,
            S1 * S1,
            g1 * g1 + g2,
            g1 * S1 + 2.0 * S2,
            S2,
        ]

    return f


def reference_final(m, k, hb, T, init) -> np.ndarray:
    """State (S1, S2, sigma1, sigma2, qS, qSigma, qCon, qIntS2) at T.

    ``init`` is (S10, S20, sigma10, sigma20). Raises ``ArithmeticError``
    when the reference solver cannot reach T.
    """
    y0 = [init[0], init[1], init[2], init[3], 0.0, 0.0, 0.0, 0.0]
    sol = solve_ivp(
        _rhs(m, k, hb), (0.0, T), y0, method="DOP853",
        rtol=REF_RTOL, atol=REF_ATOL,
    )
    if sol.status != 0:
        raise ArithmeticError(f"reference solver stopped: {sol.message}")
    return sol.y[:, -1]


def reference_report(m, k, hb, T, x0, xT, init) -> tuple[float, float]:
    """(eigenvalue, constraint residual) from the reference integrator."""
    y = reference_final(m, k, hb, T, init)
    boundary = y[0] * xT + 0.5 * y[1] * xT * xT - init[0] * x0 - 0.5 * init[1] * x0 * x0
    lam = boundary - y[4] / (2.0 * m) + hb * hb * y[5] / (2.0 * m)
    residual = (
        y[2] * xT + 0.5 * y[3] * xT * xT - init[2] * x0 - 0.5 * init[3] * x0 * x0
        - y[6] / m
    )
    return float(lam), float(residual)


def reference_objective(m, k, hb, T, x0, xT, init, penalty_weight) -> float:
    lam, residual = reference_report(m, k, hb, T, x0, xT, init)
    return lam + penalty_weight * residual * residual


def reference_gradient(m, k, hb, T, x0, xT, init, penalty_weight, rel_step=1e-4):
    """Central-difference gradient of the reference objective."""
    grad = []
    for i in range(4):
        h = rel_step * max(1.0, abs(init[i]))
        up = list(init); up[i] += h
        dn = list(init); dn[i] -= h
        grad.append(
            (reference_objective(m, k, hb, T, x0, xT, up, penalty_weight)
             - reference_objective(m, k, hb, T, x0, xT, dn, penalty_weight)) / (2.0 * h)
        )
    return np.array(grad)
