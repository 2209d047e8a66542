"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import contextlib
import math
from dataclasses import replace

import numpy as np
import pytest

from qap import (
    ClassicalParams,
    InitialData,
    OscillatorSpec,
    eigenvalue,
    integrate,
    lambda_classical,
    lambda_star,
    optimize,
    s1_closed,
    s2_closed,
    s10_star,
    t0_to_S20,
)
from qap.cli import main
from simpson import simpson_accumulators

DEFAULT = OscillatorSpec(m=1.0, k=1.0, hbar_tilde=0.0, T=1.0, x0=0.0, xT=1.0)
T0_SCAN = [0.1 * i for i in range(1, 10)]


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({title}): PASS")


def test_criterion_1_classical_action_reproduction():
    with criterion(1, "classical action reproduction"):
        s20 = t0_to_S20(0.5, DEFAULT)  # phase-offset map seeds the guess
        result = optimize(
            DEFAULT, InitialData(S10=0.0, S20=s20), active=("S10", "S20"), step=1e-3
        )
        assert result.converged
        assert abs(result.report.lam - lambda_star(DEFAULT)) <= 1e-6
        assert result.report.lam == pytest.approx(0.3210463079671654, abs=1e-6)


def test_criterion_2_degeneracy_scan():
    with criterion(2, "degeneracy scan over the phase offset"):
        target = lambda_star(DEFAULT)
        closed, ode = [], []
        for t0 in T0_SCAN:
            s10 = s10_star(t0, DEFAULT)
            closed.append(lambda_classical(ClassicalParams(s10, t0), DEFAULT))
            init = InitialData(S10=s10, S20=t0_to_S20(t0, DEFAULT))
            ode.append(eigenvalue(integrate(DEFAULT, init, step=1e-3)).lam)
        assert max(closed) - min(closed) <= 1e-6
        assert max(ode) - min(ode) <= 1e-6
        for value in closed:
            assert abs(value - target) <= 1e-8
        for value in ode:
            assert abs(value - target) <= 1e-6


def test_criterion_3_closed_form_ode_oracle():
    with criterion(3, "closed-form ODE oracle and fourth-order refinement"):
        for t0 in (0.0, 0.3, 0.5):
            params = ClassicalParams(1.0, t0)
            init = InitialData(S10=1.0, S20=t0_to_S20(t0, DEFAULT))
            grid = integrate(DEFAULT, init, step=1e-3)
            for t, row in zip(grid.times, grid.rows):
                assert abs(row[0] - s1_closed(t, params, DEFAULT)) <= 1e-8
                assert abs(row[1] - s2_closed(t, params, DEFAULT)) <= 1e-8

            # order-4 refinement: measured where truncation still towers
            # over roundoff (at h = 1e-3 the error floor is ~1e-14)
            def max_error(h):
                g = integrate(DEFAULT, init, step=h)
                err = 0.0
                for t, row in zip(g.times, g.rows):
                    err = max(
                        err,
                        abs(row[0] - s1_closed(t, params, DEFAULT)),
                        abs(row[1] - s2_closed(t, params, DEFAULT)),
                    )
                return err

            ratio = max_error(0.02) / max_error(0.01)
            assert 16.0 * 0.7 <= ratio <= 16.0 * 1.3


def test_criterion_4_free_particle_limit():
    with criterion(4, "free-particle limit of the pipeline"):
        spec = replace(DEFAULT, k=1e-12)
        target = spec.m * (spec.xT - spec.x0) ** 2 / (2.0 * spec.T)
        s20 = t0_to_S20(0.5, spec)
        result = optimize(
            spec, InitialData(S10=0.0, S20=s20), active=("S10", "S20"), step=1e-3
        )
        assert result.converged
        assert abs(result.report.lam - target) <= 1e-5


def test_criterion_5_stationarity_of_extremal_s10():
    with criterion(5, "stationarity of the closed-form extremal S10"):
        h = 1e-6
        for t0 in T0_SCAN:
            star = s10_star(t0, DEFAULT)
            up = lambda_classical(ClassicalParams(star + h, t0), DEFAULT)
            down = lambda_classical(ClassicalParams(star - h, t0), DEFAULT)
            assert abs((up - down) / (2.0 * h)) <= 1e-8


def test_criterion_6_constraint_diagnostics():
    with criterion(6, "constraint residual diagnostics"):
        # symmetric offset: the residual integrand integrates to zero
        mid = integrate(
            DEFAULT, InitialData(S10=1.0, S20=t0_to_S20(0.5, DEFAULT)), step=1e-3
        )
        assert abs(eigenvalue(mid).constraint_residual) <= 1e-9

        # zero offset: -(2/m) * int(-tan) = -2*ln(cos 1)
        zero = integrate(DEFAULT, InitialData(S10=1.0, S20=0.0), step=1e-3)
        expected = -2.0 * math.log(math.cos(1.0))
        assert abs(eigenvalue(zero).constraint_residual - expected) <= 1e-7

        # accumulators vs independent Simpson recomputation
        quantum = integrate(
            replace(DEFAULT, hbar_tilde=0.5),
            InitialData(1.0, 0.2, 0.3, 0.8),
            step=1e-3,
        )
        for grid in (zero, quantum):
            recomputed = simpson_accumulators(grid.times, grid.rows)
            end = grid.row(-1)
            assert abs(recomputed["qS"] - end[4]) <= 1e-9
            assert abs(recomputed["qSigma"] - end[5]) <= 1e-9
            assert abs(recomputed["qCon"] - end[6]) <= 1e-9


def test_criterion_7_quantum_correction_scaling():
    with criterion(7, "quadratic quantum-correction scaling"):
        init = InitialData(S10=1.0, S20=0.0, sigma10=0.3, sigma20=1.0)
        lam0 = eigenvalue(integrate(DEFAULT, init, step=1e-3)).lam
        hbars = [0.02, 0.04, 0.08, 0.16]
        deltas = []
        for hb in hbars:
            spec = replace(DEFAULT, hbar_tilde=hb)
            deltas.append(abs(eigenvalue(integrate(spec, init, step=1e-3)).lam - lam0))
        slope = float(np.polyfit(np.log(hbars), np.log(deltas), 1)[0])
        assert abs(slope - 2.0) <= 0.05
        assert deltas[0] <= 1e-2  # continuity at zero


def test_criterion_8_structural_invariants_randomized():
    with criterion(8, "structural invariants on randomized initial data"):
        # S20 >= -0.5 keeps the classical pole outside the horizon: a draw
        # that squeezes past a near-caustic spike is under-resolved at
        # h = 1e-3 and cannot attest a 1e-8 identity either way
        rng = np.random.default_rng(20240817)
        checked = 0
        for _ in range(500):
            if checked >= 50:
                break
            s10, g1, g2 = (float(v) for v in rng.uniform(-1.5, 1.5, size=3))
            s20 = float(rng.uniform(-0.5, 1.5))
            hbar = float(rng.uniform(0.0, 1.0))
            spec = replace(DEFAULT, hbar_tilde=hbar)
            init = InitialData(s10, s20, g1, g2)
            try:
                grid = integrate(spec, init, step=1e-3)
            except Exception:
                continue  # caustic draw: excluded, not an invariant failure
            data = np.asarray(grid.rows)
            if float(np.max(np.abs(data[:, :4]))) > 50.0:
                continue  # resolvable-run guard

            # sigma2 exponential identity, pointwise
            predicted = init.sigma20 * np.exp(-data[:, 7] / spec.m)
            assert float(np.max(np.abs(data[:, 3] - predicted))) <= 1e-8

            # amplitude sign flip leaves the phase sector untouched
            flipped = integrate(
                spec,
                InitialData(init.S10, init.S20, -init.sigma10, -init.sigma20),
                step=1e-3,
            )
            phase = data[:, :2] - np.asarray(flipped.rows)[:, :2]
            assert float(np.max(np.abs(phase))) <= 1e-12

            # silent amplitude sector stays exactly silent; zeroing sigma
            # removes the quantum term that props up S2, so this run may
            # end early at a caustic -- persistence must hold either way
            try:
                silent = integrate(
                    spec, InitialData(init.S10, init.S20, 0.0, 0.0), step=1e-3
                )
            except Exception as err:
                silent = err.partial
            assert all(row[2] == 0.0 and row[3] == 0.0 for row in silent.rows)

            # eigenvalue decomposition identity is exact
            report = eigenvalue(grid)
            assert report.lam == (
                report.boundary_term + report.kinetic_term + report.quantum_term
            )
            checked += 1
        assert checked == 50


ACCEPTANCE_INI = """\
[spec]
m = 1.0
k = 1.0
hbar_tilde = 0.0
T = 1.0
x0 = 0.0
xT = 1.0

[init]
S10 = 1.0
t0 = 0.0

[grid]
h = 1e-3

[optimize]
seed = 42

[sweep]
t0_grid = 0.1:0.9:9
"""


def test_criterion_9_deterministic_csv_output(tmp_path):
    with criterion(9, "byte-identical CSV under identical config and seed"):
        config = tmp_path / "exp.ini"
        config.write_text(ACCEPTANCE_INI)
        for command, artifact in (("integrate", "solution.csv"), ("scan-t0", "scan_t0.csv")):
            out_a, out_b = tmp_path / f"{command}-a", tmp_path / f"{command}-b"
            assert main([command, "--config", str(config), "--out", str(out_a)]) == 0
            assert main([command, "--config", str(config), "--out", str(out_b)]) == 0
            assert (out_a / artifact).read_bytes() == (out_b / artifact).read_bytes()
