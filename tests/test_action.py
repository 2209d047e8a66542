import json
import math
from dataclasses import replace

import numpy as np
import pytest

import qap
from qap import (
    IncompleteGridError,
    InitialData,
    LengthMismatchError,
    OscillatorSpec,
    constraint_residual,
    eigenvalue,
    integrate,
    lambda_star,
    s10_star,
    t0_to_S20,
)
from qap.action import endpoint_report
from qap.dynamics import SolutionGrid
from simpson import composite_simpson, simpson_accumulators


class TestEigenvalue:
    def test_trivial_zero(self):
        spec = OscillatorSpec(x0=0.0, xT=0.0)
        report = eigenvalue(integrate(spec, InitialData(), step=1e-2))
        assert report.lam == 0.0
        assert report.quantum_term == 0.0

    def test_classical_pipeline_matches_degenerate_value(self, spec):
        t0 = 0.5
        init = InitialData(S10=s10_star(t0, spec), S20=t0_to_S20(t0, spec))
        report = eigenvalue(integrate(spec, init, step=1e-3))
        assert report.lam == pytest.approx(lambda_star(spec), abs=1e-6)
        assert report.lam == pytest.approx(0.3210463079671654, abs=1e-6)

    def test_decomposition_identity_is_exact(self, spec):
        s = replace(spec, hbar_tilde=0.5)
        report = eigenvalue(integrate(s, InitialData(1.0, 0.2, 0.3, 0.8), step=1e-2))
        assert report.lam == report.boundary_term + report.kinetic_term + report.quantum_term

    def test_quantum_term_zero_without_quantum_scale(self, spec):
        report = eigenvalue(integrate(spec, InitialData(1.0, 0.2, 0.3, 0.8), step=1e-2))
        assert report.quantum_term == 0.0

    def test_quantum_term_zero_with_silent_amplitude(self, spec):
        s = replace(spec, hbar_tilde=0.5)
        report = eigenvalue(integrate(s, InitialData(1.0, 0.2), step=1e-2))
        assert report.quantum_term == 0.0

    def test_quantum_term_positive_for_positive_sigma2(self, spec):
        # sigma2 keeps its sign, so the quantum integrand stays positive
        s = replace(spec, hbar_tilde=0.5)
        report = eigenvalue(integrate(s, InitialData(1.0, 0.0, 0.0, 1.0), step=1e-3))
        assert report.quantum_term > 0.0

    def test_incomplete_grid_rejected(self, spec):
        grid = integrate(spec, InitialData(S10=1.0), step=1e-2)
        truncated = SolutionGrid(
            spec=spec,
            times=np.array(grid.times[:-5]),
            data=np.array(grid.data[:-5]),
            method="rk4",
            step=1e-2,
        )
        with pytest.raises(IncompleteGridError):
            eigenvalue(truncated)
        with pytest.raises(IncompleteGridError):
            constraint_residual(truncated)

    def test_json_serialization_17_digits(self, spec):
        report = eigenvalue(integrate(spec, InitialData(S10=1.0), step=1e-2))
        payload = json.loads(report.to_json())
        assert set(payload) == {
            "lambda", "boundary_term", "kinetic_term", "quantum_term",
            "constraint_residual",
        }
        assert payload["lambda"] == report.lam  # 17 digits round-trip exactly

    def test_endpoint_report_matches_grid_route(self, spec):
        s = replace(spec, hbar_tilde=0.3)
        init = InitialData(0.7, -0.2, 0.4, 0.9)
        grid = integrate(s, init, step=1e-2)
        direct = endpoint_report(s, grid.data[0], grid.data[-1])
        assert direct == eigenvalue(grid)


class TestConstraintResidual:
    def test_zero_at_symmetric_offset(self, spec):
        # with a silent amplitude sector the integrand reduces to 2*S2;
        # -tan is antisymmetric about t0 = T/2, so the integral cancels
        init = InitialData(S10=1.0, S20=t0_to_S20(0.5, spec))
        assert constraint_residual(integrate(spec, init, step=1e-3)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_zero_offset_analytic_value(self, spec, classical_init):
        # oracle: -(2/m) * int_0^1 (-tan t) dt = -2*ln(cos 1)
        expected = -2.0 * math.log(math.cos(1.0))
        residual = constraint_residual(integrate(spec, classical_init, step=1e-3))
        assert residual == pytest.approx(expected, abs=1e-7)
        assert residual == pytest.approx(1.2312529407720283, abs=1e-7)

    def test_accumulator_agrees_with_simpson_oracle(self, spec):
        s = replace(spec, hbar_tilde=0.5)
        grid = integrate(s, InitialData(1.0, 0.2, 0.3, 0.8), step=1e-3)
        recomputed = simpson_accumulators(grid)
        assert recomputed["qS"] == pytest.approx(float(grid.qS[-1]), abs=1e-9)
        assert recomputed["qSigma"] == pytest.approx(float(grid.qSigma[-1]), abs=1e-9)
        assert recomputed["qCon"] == pytest.approx(float(grid.qCon[-1]), abs=1e-9)


class TestQuadratureConsistency:
    def test_eigenvalue_inherits_fourth_order(self, spec):
        s = replace(spec, hbar_tilde=0.5)
        init = InitialData(1.0, 0.2, 0.3, 0.8)
        h = 0.02
        lams = [
            eigenvalue(integrate(s, init, step=hh)).lam for hh in (h, h / 2, h / 4)
        ]
        ratio = (lams[0] - lams[1]) / (lams[1] - lams[2])
        assert 16.0 * 0.7 <= ratio <= 16.0 * 1.3


class TestHbarContinuity:
    def test_eigenvalue_continuous_at_zero(self, spec):
        init = InitialData(1.0, 0.0, 0.3, 1.0)
        lam0 = eigenvalue(integrate(spec, init, step=1e-3)).lam
        deltas = []
        for hb in (0.16, 0.08, 0.04, 0.02):
            s = replace(spec, hbar_tilde=hb)
            deltas.append(abs(eigenvalue(integrate(s, init, step=1e-3)).lam - lam0))
        assert deltas[-1] <= 1e-2
        assert all(a > b for a, b in zip(deltas, deltas[1:]))


class TestSignFlipEffect:
    def test_phase_terms_invariant_quantum_term_not(self, spec):
        s = replace(spec, hbar_tilde=0.5)
        a = integrate(s, InitialData(1.0, 0.2, 0.3, 0.8), step=1e-3)
        b = integrate(s, InitialData(1.0, 0.2, -0.3, -0.8), step=1e-3)
        ra, rb = eigenvalue(a), eigenvalue(b)
        assert rb.kinetic_term == ra.kinetic_term
        assert rb.boundary_term == ra.boundary_term
        # qSigma shifts by -2*int(sigma2): sigma1^2 is even, sigma2 odd
        shift = float(b.qSigma[-1] - a.qSigma[-1])
        assert shift == pytest.approx(
            -2.0 * composite_simpson(a.sigma2, a.times), abs=1e-8
        )
        assert rb.lam != ra.lam


class TestCompositeSimpson:
    def test_exact_on_cubics(self):
        x = np.linspace(0.0, 2.0, 9)
        y = x**3 - 2.0 * x**2 + 0.5
        assert composite_simpson(y, x) == pytest.approx(4.0 - 16.0 / 3.0 + 1.0, abs=1e-13)

    def test_trapezoid_tail_on_odd_interval_count(self):
        x = np.linspace(0.0, 1.0, 4)  # three intervals: one pair + tail
        y = np.ones_like(x)
        assert composite_simpson(y, x) == pytest.approx(1.0, abs=1e-15)

    def test_non_uniform_spacing(self):
        x = np.array([0.0, 0.4, 0.5, 0.8, 1.0])
        y = x**2
        assert composite_simpson(y, x) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            composite_simpson([1.0, 2.0], [0.0, 0.5, 1.0])


class TestJson17g:
    def test_nested_structures(self):
        text = qap.action.json_17g({"a": 1.0 / 3.0, "b": [1.0, None, True], "c": "x"})
        parsed = json.loads(text)
        assert parsed["a"] == 1.0 / 3.0
        assert parsed["b"] == [1.0, None, True]
        assert parsed["c"] == "x"

    def test_non_finite_floats_are_json(self):
        text = qap.action.json_17g({"a": math.inf, "b": [-math.inf, math.nan]})
        assert text == '{"a": Infinity, "b": [-Infinity, NaN]}'
        parsed = json.loads(text)
        assert parsed["a"] == math.inf and parsed["b"][0] == -math.inf
        assert math.isnan(parsed["b"][1])
