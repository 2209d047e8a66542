import inspect
import math
from dataclasses import FrozenInstanceError, replace
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qap import (
    BlowUpError,
    DegenerateProbeError,
    InitialData,
    OscillatorSpec,
    convergence_order,
    integrate,
    t0_to_S20,
)
import qap.dynamics as dynamics
from qap.action import endpoint_report
from qap.config import load_config
from qap.dynamics import (
    ADAPTIVE_ATOL,
    ADAPTIVE_RTOL,
    BLOWUP_LIMIT,
    BOUNCE_GUARD,
    FOCUS_GUARD,
    MAX_STEPS,
    METHODS,
    _coefficients,
    _error_ratio,
    _row_step,
    _stage,
    _start,
    _state_row,
    final_state,
    propagator,
    tangent,
)
from qap.extremize import endpoint_models

ROOT = Path(__file__).resolve().parent.parent


class TestRhs:
    def test_all_zero_state(self, spec, derivatives):
        d = derivatives(spec)
        assert (d.sigma1, d.sigma2, d.S1, d.S2) == (0.0, 0.0, 0.0, -1.0)
        assert (d.qS, d.qSigma, d.qCon) == (0.0, 0.0, 0.0)

    def test_unit_state_classical(self, spec, derivatives):
        d = derivatives(spec, 1.0, 1.0, 1.0, 1.0)
        assert (d.sigma1, d.sigma2, d.S1, d.S2) == (-2.0, -1.0, -1.0, -2.0)

    def test_unit_state_quantum(self, spec, derivatives):
        d = derivatives(replace(spec, hbar_tilde=1.0), 1.0, 1.0, 1.0, 1.0)
        assert d.S1 == -0.5
        assert d.S2 == -1.0

    def test_accumulator_integrands(self, spec, derivatives):
        d = derivatives(spec, 2.0, 3.0, 0.5, -1.0)
        assert d.qS == 4.0
        assert d.qSigma == 0.25 - 1.0
        assert d.qCon == 0.5 * 2.0 + 2.0 * 3.0

    @given(
        row=st.tuples(st.floats(0.1, 3), *[st.floats(-3, 3)] * 7),
        hbar=st.floats(0, 2),
        sigma20=st.floats(-2, 2),
    )
    @settings(max_examples=100)
    def test_unrolled_step_matches_stage_reference(self, row, hbar, sigma20):
        # the rendered RK4 body must equal a generic RK4 over _stage, bit for bit
        K = coefficients(OscillatorSpec(m=1.3, k=0.8, hbar_tilde=hbar), sigma20)
        assert _row_step(row, 0.01, K) == generic_rk4(row_rhs(K), row, 0.01)

    def test_rendered_kernels_show_their_source(self):
        kernels = {**dynamics._kernels, **dynamics._tangent_kernels()}
        assert len(kernels) == 4
        for name, kernel in kernels.items():
            assert inspect.getsource(kernel).startswith(f"def {name}(")


def coefficients(spec, sigma20):
    """The kernel coefficients of a run of ``spec`` with this sigma20."""
    m_inv = 1.0 / spec.m
    return _coefficients(m_inv, spec.k, spec.hbar_tilde**2 * 0.5 * m_inv, sigma20)


def generic_rk4(rhs, y, h):
    """One classic RK4 step of ``y' = rhs(y)``, component-generic over tuples."""
    def at(w, d):
        return tuple(y[i] + w * d[i] for i in range(len(y)))
    k1 = rhs(y)
    k2 = rhs(at(0.5 * h, k1))
    k3 = rhs(at(0.5 * h, k2))
    k4 = rhs(at(h, k3))
    return tuple(
        y[i] + h / 6.0 * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]) for i in range(len(y))
    )


def row_rhs(K):
    """The right-hand side of the row (u, p, C, St, Jcc, Jcs, Jss, I2), from ``_stage``."""
    return lambda y: _stage(y[0], y[1], y[2], y[3], K)


class TestIntegrate:
    def test_matches_closed_form_tangent_flow(self, spec, classical_init):
        # oracle: S2(t) = -tan(t), S1(t) = 1/cos(t) for t0 = 0, S10 = 1
        grid = integrate(spec, classical_init, step=1e-3)
        assert float(grid.s2[500]) == pytest.approx(-math.tan(0.5), abs=1e-8)
        assert float(grid.s1[500]) == pytest.approx(1.0 / math.cos(0.5), abs=1e-8)
        assert float(grid.s2[500]) == pytest.approx(-0.5463024898437905, abs=1e-8)
        assert float(grid.s1[500]) == pytest.approx(1.139493927324549, abs=1e-8)

    def test_grid_structure(self, spec, classical_init):
        grid = integrate(spec, classical_init, step=0.3)
        assert grid.times[0] == 0.0
        assert grid.times[-1] == spec.T
        assert len(grid) == 5  # ceil(1/0.3) = 4 steps
        assert np.all(np.diff(grid.times) > 0)
        assert grid.complete
        # read-only float arrays, built once; the grid itself is immutable
        assert grid.data.shape == (5, 8) and grid.times is grid.times
        for column in (grid.times, grid.data, grid.s2):
            assert column.dtype == float and not column.flags.writeable
        with pytest.raises(FrozenInstanceError):
            grid.step = 0.1

    def test_accumulators_start_at_zero(self, spec, classical_init):
        grid = integrate(spec, classical_init, step=0.1)
        assert (grid.qS[0], grid.qSigma[0], grid.qCon[0]) == (0.0, 0.0, 0.0)

    def test_qS_non_decreasing(self, spec):
        grid = integrate(spec, InitialData(S10=1.0, S20=0.5, sigma10=0.2, sigma20=0.4),
                         step=1e-3)
        assert np.all(np.diff(grid.qS) >= 0)

    def test_silent_amplitude_sector_stays_exactly_zero(self, spec, classical_init):
        grid = integrate(replace(spec, hbar_tilde=0.7), classical_init, step=1e-2)
        assert np.all(grid.sigma1 == 0.0)
        assert np.all(grid.sigma2 == 0.0)

    def test_sigma2_exponential_identity(self, spec):
        # sigma2(t) = sigma20 * exp(-int S2 / m), any hbar
        s = replace(spec, hbar_tilde=0.5, m=1.7)
        grid = integrate(s, InitialData(1.0, 0.2, 0.3, 0.8), step=1e-3)
        predicted = 0.8 * np.exp(-grid.qIntS2 / s.m)
        assert np.max(np.abs(grid.sigma2 - predicted)) < 1e-8

    def test_sigma2_never_changes_sign(self, spec):
        s = replace(spec, hbar_tilde=0.3)
        grid = integrate(s, InitialData(0.5, -0.4, 0.1, -0.6), step=1e-3)
        assert np.all(grid.sigma2 < 0)

    def test_amplitude_sign_flip_leaves_phase_untouched(self, spec):
        s = replace(spec, hbar_tilde=0.8)
        a = integrate(s, InitialData(1.0, 0.3, 0.4, 0.6), step=1e-3)
        b = integrate(s, InitialData(1.0, 0.3, -0.4, -0.6), step=1e-3)
        assert np.max(np.abs(a.s1 - b.s1)) <= 1e-12
        assert np.max(np.abs(a.s2 - b.s2)) <= 1e-12
        assert np.array_equal(a.sigma1, -b.sigma1)
        assert np.array_equal(a.sigma2, -b.sigma2)

    def test_classical_phase_decouples_from_amplitude(self, spec):
        a = integrate(spec, InitialData(1.0, 0.3, 0.0, 0.0), step=1e-3)
        b = integrate(spec, InitialData(1.0, 0.3, 0.9, -1.1), step=1e-3)
        assert np.max(np.abs(a.s1 - b.s1)) <= 1e-12
        assert np.max(np.abs(a.s2 - b.s2)) <= 1e-12

    def test_halving_step_cuts_error_sixteenfold(self, spec, classical_init):
        # asymptotic-regime steps: at h <= 1e-3 truncation sits below roundoff
        def max_error(h):
            grid = integrate(spec, classical_init, step=h)
            exact = -np.tan(grid.times)
            return float(np.max(np.abs(grid.s2 - exact)))

        ratio = max_error(0.02) / max_error(0.01)
        assert 16.0 * 0.7 <= ratio <= 16.0 * 1.3

    def test_rejects_bad_step_and_method(self, spec, classical_init):
        with pytest.raises(ValueError):
            integrate(spec, classical_init, step=0.0)
        with pytest.raises(ValueError):
            integrate(spec, classical_init, step=1e-3, method="euler")
        with pytest.raises(ValueError):
            integrate(spec, InitialData(S10=math.nan), step=1e-3)


@pytest.mark.parametrize("solve", [integrate, final_state])
class TestSharedInputCheck:
    @pytest.mark.parametrize("step", [0.0, -0.1, math.inf, math.nan])
    def test_rejects_bad_step(self, solve, spec, classical_init, step):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            solve(spec, classical_init, step)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_init(self, solve, spec, bad):
        with pytest.raises(ValueError, match="sigma10 is not finite"):
            solve(spec, InitialData(S10=1.0, sigma10=bad), 1e-3)


class TestStepCount:
    # T/h overflows at 1e-320; the others ask for 1e300, 1e13 and just
    # over MAX_STEPS steps
    @pytest.mark.parametrize("step", [1e-320, 1e-300, 1e-13, 1.0 / MAX_STEPS * (1 - 1e-15)])
    def test_every_entry_rejects_before_stepping(self, spec, classical_init, monkeypatch, step):
        # no kernel may run: at the smaller steps the run would never end
        def fail(*args):
            raise AssertionError("stepped")

        for name in ("_row_step", "_zero_amplitude_step"):
            monkeypatch.setattr(dynamics, name, fail)
        runs = [lambda: final_state(spec, classical_init, step),
                lambda: propagator(spec, classical_init, step)]
        runs += [lambda m=m: integrate(spec, classical_init, step, m) for m in METHODS]
        for run in runs:
            with pytest.raises(ValueError, match=rf"^h = {step!r} gives T/h = .* steps over "
                                                 rf"T = 1.0, more than MAX_STEPS = 10000000$"):
                run()

    def test_max_steps_itself_is_accepted(self):
        assert _start(OscillatorSpec(T=0.5), InitialData(), 0.5 / MAX_STEPS)[-2] == 0.5 / MAX_STEPS


class TestFloatEntry:
    """The shared entry hands the RK4 loop Python floats, whatever the caller passes."""

    VALUES = dict(m=1.3, k=0.7, hbar_tilde=0.4, T=1.0, x0=0.2, xT=1.1)
    INIT = InitialData(1.0, 0.2, 0.3, 0.8)

    def numpy_inputs(self, **values):
        spec = OscillatorSpec(**{k: np.float64(v) for k, v in values.items()})
        return spec, InitialData(*(np.float64(v) for v in self.INIT.as_tuple()))

    def test_start_hands_loop_python_floats(self):
        spec, init = self.numpy_inputs(**self.VALUES)
        y, *coefficients = _start(spec, init, np.float64(0.15))
        assert len(y) == 8 and len(coefficients) == 5
        assert all(type(v) is float for v in (*y, *coefficients))

    @pytest.mark.parametrize("hbar", [0.0, 0.4])
    @pytest.mark.parametrize("step", [1e-3, 0.15])
    def test_numpy_scalar_inputs_give_bit_equal_floats(self, hbar, step):
        values = dict(self.VALUES, hbar_tilde=hbar)
        spec = OscillatorSpec(**values)
        np_spec, np_init = self.numpy_inputs(**values)
        fast = final_state(np_spec, np_init, np.float64(step))
        assert all(type(v) is float for v in fast)
        assert fast == final_state(spec, self.INIT, step)
        for method in METHODS:
            grid = integrate(np_spec, np_init, np.float64(step), method)
            assert np.array_equal(grid.data, integrate(spec, self.INIT, step, method).data)


class TestBlowUp:
    def test_caustic_inside_horizon_reports_last_good_time(self):
        # pole of -tan(t - t0) at t = t0 + pi/2 ~ 1.4138
        spec = OscillatorSpec(T=1.5)
        init = InitialData(S10=1.0, S20=t0_to_S20(-0.157, spec))
        with pytest.raises(BlowUpError) as exc:
            integrate(spec, init, step=1e-3)
        caustic = -0.157 + math.pi / 2.0
        assert exc.value.t_last == pytest.approx(caustic, abs=5e-3)
        partial = exc.value.partial
        assert partial is not None
        assert not partial.complete
        assert float(partial.times[-1]) == exc.value.t_last
        assert np.all(np.isfinite(partial.data))

    def test_final_state_fast_path_blows_up_identically(self):
        spec = OscillatorSpec(T=1.5)
        init = InitialData(S10=1.0, S20=t0_to_S20(-0.157, spec))
        for step in (1e-3, 1e-2, 5e-2):
            with pytest.raises(BlowUpError) as a:
                integrate(spec, init, step=step)
            with pytest.raises(BlowUpError) as b:
                final_state(spec, init, step=step)
            assert a.value.t_last == b.value.t_last, step
            assert b.value.partial is None


#: where each component of a zero-amplitude kernel row lands in the eight-component row
ZERO_AT = (0, 1, 4)
QUANTUM, SILENT = InitialData(1.0, 0.2, 0.3, 0.8), InitialData(1.0, 0.2, 0.0, 0.0)


def fixed_run(s, i):
    return final_state(s, i, step=0.25)


def adaptive_run(s, i):
    return integrate(s, i, step=0.25, method="rk4_adaptive").data[-1]


def propagator_run(s, i):
    return propagator(s, i, step=0.25)


#: each kernel with a run it drives, that run's initial data, and, for a
#: run that returns the kernel row, where each component of the kernel's
#: row lands in it
KERNELS = [
    ("_row_step", fixed_run, QUANTUM, None),
    ("_row_step", adaptive_run, QUANTUM, None),
    ("_row_step", propagator_run, QUANTUM, range(8)),
    ("_zero_amplitude_step", fixed_run, SILENT, None),
    ("_zero_amplitude_step", adaptive_run, SILENT, None),
    ("_zero_amplitude_step", propagator_run, SILENT, ZERO_AT),
    # the row does not depend on sigma10
    ("_zero_amplitude_step", propagator_run, replace(SILENT, sigma10=0.3), ZERO_AT),
]
WIDTH = {"_row_step": 8, "_zero_amplitude_step": 3}
PAST_LIMIT = [math.nan, math.inf, -math.inf, math.nextafter(BLOWUP_LIMIT, math.inf),
              -math.nextafter(BLOWUP_LIMIT, math.inf)]


@pytest.mark.parametrize("kernel, run, init, at", KERNELS, ids=[
    "fixed", "adaptive", "propagator", "zero-amplitude-fixed", "zero-amplitude-adaptive",
    "zero-amplitude-propagator", "zero-amplitude-propagator-sigma10"])
class TestBoundCheck:
    """Each kernel bounds every component of its new row by BLOWUP_LIMIT,
    and u, its first, from below by 0.

    The kernel is wrapped so that its new row is its input with one
    component replaced (a step of length 0): values past the limit, NaN
    and +-inf must blow the run up, +-BLOWUP_LIMIT itself must not, except
    that u must be positive.
    """

    @staticmethod
    def inject(monkeypatch, kernel, component, value):
        inner = getattr(dynamics, kernel)

        def stepped(y, h, *args):
            y = list(y)
            y[component] = value
            return inner(tuple(y), 0.0, *args)

        monkeypatch.setattr(dynamics, kernel, stepped)

    @pytest.mark.parametrize("value", PAST_LIMIT)
    def test_past_limit_blows_up(self, monkeypatch, spec, kernel, run, init, at, value):
        for component in range(WIDTH[kernel]):
            self.inject(monkeypatch, kernel, component, value)
            with pytest.raises(BlowUpError):
                run(spec, init)
            monkeypatch.undo()

    @pytest.mark.parametrize("value", [BLOWUP_LIMIT, -BLOWUP_LIMIT])
    def test_limit_itself_is_kept(self, monkeypatch, spec, kernel, run, init, at, value):
        for component in range(WIDTH[kernel]):
            self.inject(monkeypatch, kernel, component, value)
            if component == 0 and value < 0:
                # the sign test
                with pytest.raises(BlowUpError):
                    run(spec, init)
            else:
                result = run(spec, init)
                if at is not None:
                    assert result[at[component]] == value
            monkeypatch.undo()

    @pytest.mark.parametrize("value", [0.0, -0.0, -5e-324])
    def test_non_positive_u_blows_up(self, monkeypatch, spec, kernel, run, init, at, value):
        self.inject(monkeypatch, kernel, 0, value)
        with pytest.raises(BlowUpError):
            run(spec, init)


def pin_cases():
    """Seeded specs, initial data and steps (some not dividing T) that stay integrable."""
    rng = np.random.default_rng(20240611)
    for _ in range(12):
        # omega0 * T <= 1.12 and S20 >= -0.3 keep every caustic past T
        m, k = rng.uniform(0.8, 2.0), rng.uniform(0.0, 1.0)
        hbar = float(rng.choice([0.0, rng.uniform(0.1, 0.8)]))
        spec = OscillatorSpec(m=m, k=k, hbar_tilde=hbar, T=rng.uniform(0.5, 1.0),
                              x0=rng.uniform(-1.0, 1.0), xT=rng.uniform(-1.0, 1.0))
        init = InitialData(rng.uniform(-2.0, 2.0), rng.uniform(-0.3, 1.0),
                           rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
        yield spec, init, float(rng.choice([1e-3, 1e-2, 0.15]))


def symmetric(H):
    """The 2x2 matrix of the symmetric triple (a, b, c)."""
    a, b, c = H
    return np.array([[a, b], [b, c]])


def reference_models(spec, first, end):
    """``endpoint_models`` as numpy matrix formulas: x = (S10, sigma10),
    (S1, sigma1)(T) = P x, qS = x.A x, qSigma = x.B x + I2 and
    qCon = x.C x + 2 m ln(u)."""
    u, p, c, st, Jcc, Jcs, Jss, I2 = end
    m_inv, _, hh = dynamics.flow_coefficients(spec)
    a2 = hh / m_inv
    IS = spec.m * math.log(u)
    P = np.array([[c, a2 * st], [-st, c]]) / u
    A = np.array([[Jcc, a2 * Jcs], [a2 * Jcs, a2 * a2 * Jss]])
    B = np.array([[Jss, -Jcs], [-Jcs, Jcc]])
    half = 0.5 * (Jcc - a2 * Jss)
    C = np.array([[-Jcs, half], [half, a2 * Jcs]])
    x = np.array([first[0], first[2]], dtype=float)
    S1, g1 = P @ x
    row = (S1, p / u, g1, first[3] / u, x @ A @ x, x @ B @ x + I2, x @ C @ x + 2.0 * IS, IS)
    report = endpoint_report(spec, first, row)
    H_lam = (spec.hbar_tilde**2 * B - A) / spec.m
    H_res = -2.0 * C / spec.m
    g_lam = spec.xT * P[0] - (spec.x0, 0.0) + H_lam @ x
    g_res = spec.xT * P[1] - (0.0, spec.x0) + H_res @ x
    return (report.lam, g_lam, H_lam), (report.constraint_residual, g_res, H_res)


def generic_run(spec, init, step):
    """The end row of a fixed-step run, by ``generic_rk4`` over ``_stage``."""
    K = coefficients(spec, init.sigma20)
    y, t_prev = (1.0, init.S20, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0.0
    n = dynamics._n_steps(spec.T, step)
    for i in range(1, n + 1):
        t = i * step if i < n else spec.T
        y, t_prev = generic_rk4(row_rhs(K), y, t - t_prev), t
    return y


class TestPropagator:
    def test_step_matches_generic_reference(self):
        # a whole run, the shortened last step included
        for spec, init, step in pin_cases():
            if init.sigma20 != 0.0:
                assert propagator(spec, init, step) == generic_run(spec, init, step)

    def test_riccati_pair_bit_equal_to_final_state(self):
        # one run: final_state's row, (S2, sigma2) among it, is the state row
        # of propagator's
        for spec, init, step in pin_cases():
            m_inv, _, hh = dynamics.flow_coefficients(spec)
            want = _state_row(init.as_tuple(), spec.m, hh / m_inv, propagator(spec, init, step))
            assert final_state(spec, init, step) == want

    def test_models_match_the_solve_at_and_around_the_point(self):
        # the models are exact: at the point, and at displaced (S10, sigma10)
        # through their gradient and Hessian, they give the solve's report
        for spec, init, step in pin_cases():
            first = init.as_tuple()
            lam, res = endpoint_models(spec, first, propagator(spec, init, step))
            for du in ((0.0, 0.0), (0.5, 0.0), (0.0, -0.5), (0.7, 0.4)):
                moved = replace(init, S10=init.S10 + du[0], sigma10=init.sigma10 + du[1])
                report = endpoint_report(spec, moved.as_tuple(), final_state(spec, moved, step))
                for (value, grad, hess), want in ((lam, report.lam),
                                                  (res, report.constraint_residual)):
                    du = np.asarray(du)
                    model = value + np.asarray(grad) @ du + 0.5 * du @ symmetric(hess) @ du
                    assert abs(model - want) <= 1e-12 * abs(want), (spec, init, step, du)

    def test_models_match_the_numpy_formulas(self):
        # the float models against the matrix formulas they replaced
        for spec, init, step in pin_cases():
            first, end = init.as_tuple(), propagator(spec, init, step)
            for model, want in zip(endpoint_models(spec, first, end),
                                   reference_models(spec, first, end)):
                value, grad, hess = model[0], np.asarray(model[1]), symmetric(model[2])
                for got, ref in ((value, want[0]), (grad, want[1]), (hess, want[2])):
                    scale = np.max(np.abs(ref))
                    assert np.max(np.abs(got - ref)) <= 1e-13 * scale, (spec, init, step)

    def test_caustic_blows_up_where_final_state_does(self):
        cfg = load_config(ROOT / "configs" / "caustic.ini")
        with pytest.raises(BlowUpError) as a:
            final_state(cfg.spec, cfg.init, cfg.step)
        with pytest.raises(BlowUpError) as b:
            propagator(cfg.spec, cfg.init, cfg.step)
        assert b.value.t_last == a.value.t_last < cfg.spec.T
        assert b.value.partial is None


def tangent_rhs(K):
    """The right-hand side of a tangent kernel row: ``_stage`` on the row and
    its variational equations along S20 and along sigma20, where the
    coefficients move too, in the kernel's order (12 flows, 12 integrands)."""
    m_inv, k, c, hs, ms, s, _, _, dc, dhs = K

    def rhs(y):
        u, p, C, St = y[:4]
        *flows, dJcc, dJcs, dJss, dI2 = _stage(u, p, C, St, K)
        integrands = [dJcc, dJcs, dJss, dI2]
        r = 1.0 / u
        a, b = r * C, r * St
        for uX, pX, CX, StX, along_sigma20 in (y[4:8] + (False,), y[8:12] + (True,)):
            rX = -r * r * uX
            aX = rX * C + r * CX
            bX = rX * St + r * StX
            dpX, dCX, dStX, dI2X = c * rX - k * uX, hs * bX, ms * aX, s * rX
            if along_sigma20:
                dpX, dCX, dStX, dI2X = dpX + dc * r, dCX + dhs * b, dStX + m_inv * a, dI2X + r
            flows += [m_inv * pX, dpX, dCX, dStX]
            integrands += [2.0 * a * aX, aX * b + a * bX, 2.0 * b * bX, dI2X]
        return tuple(flows + integrands)

    return rhs


#: where each component of a zero-amplitude tangent kernel row lands in the
#: 24-component one; of the others, C is 1 and the rest 0 at sigma20 = 0
TANGENT_ZERO_AT = (0, 1, 4, 5, 11, 12, 16, 21, 23)

#: TestCausticOracle's draws: c = 0 runs whose caustic may lie inside T
CAUSTIC_DRAWS = dict(
    m=st.floats(0.5, 2.0),
    k=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
    S20=st.floats(-5.0, -0.1),
    step=st.floats(1e-3, 0.2),
    T=st.floats(0.5, 2.0),
    zero_amplitude=st.booleans(),
)


def caustic_case(m, k, S20, T, zero_amplitude):
    """A c = 0 run: sigma20 = 0 (the zero-amplitude row), or hbar_tilde = 0
    (the full row)."""
    spec = OscillatorSpec(m=m, k=k, T=T, hbar_tilde=0.7 if zero_amplitude else 0.0)
    return spec, InitialData(1.0, S20, 0.3, 0.0 if zero_amplitude else 0.8)


def base_row(spec, init, step):
    return tangent(spec, init, step)[0]


class TestTangent:
    """``tangent`` steps the row with its derivatives along S20 and sigma20:
    the base row is ``propagator``'s, and the derivatives are those of its
    discrete map."""

    @given(
        row=st.tuples(st.floats(0.1, 3), *[st.floats(-3, 3)] * 23),
        hbar=st.floats(0, 2),
        sigma20=st.floats(-2, 2),
    )
    @settings(max_examples=100)
    def test_step_matches_generic_reference(self, row, hbar, sigma20):
        K = coefficients(OscillatorSpec(m=1.3, k=0.8, hbar_tilde=hbar), sigma20)
        step = dynamics._tangent_kernels()["_tangent_step"]
        assert step(row, 0.01, K) == generic_rk4(tangent_rhs(K), row, 0.01)

    def test_base_row_is_propagators(self, spec):
        # whole runs, the shortened last step and sigma20 = 0 included, and
        # TestBoundCheck's inputs
        cases = [(s, i, h) for s, init, h in pin_cases() for i in (init, replace(init, sigma20=0.0))]
        cases += [(spec, i, 0.25) for i in (QUANTUM, SILENT, replace(SILENT, sigma10=0.3))]
        for s, i, h in cases:
            assert outcome(base_row, s, i, h) == outcome(propagator, s, i, h), (s, i, h)

    @given(**CAUSTIC_DRAWS)
    @settings(max_examples=60, deadline=None)
    def test_blows_up_where_propagator_does(self, m, k, S20, step, T, zero_amplitude):
        spec, init = caustic_case(m, k, S20, T, zero_amplitude)
        assert outcome(base_row, spec, init, step) == outcome(propagator, spec, init, step)

    @pytest.mark.parametrize("init, name, row_at", [
        (QUANTUM, "_tangent_step", (0, 1, 2, 3, 12, 13, 14, 15)),
        (SILENT, "_zero_amplitude_tangent_step", (0, 1, 5)),
    ])
    def test_bound_check_reads_only_the_row(self, monkeypatch, spec, init, name, row_at):
        # as in TestBoundCheck, a step of length 0 that puts inf in one
        # component: in the row it blows the run up; in a tangent it
        # comes out as it is
        kernels = dynamics._tangent_kernels()
        inner = kernels[name]
        width = 24 if name == "_tangent_step" else 9
        for component in range(width):
            def stepped(y, h, K, component=component):
                y = list(y)
                y[component] = math.inf
                return inner(tuple(y), 0.0, K)

            monkeypatch.setitem(kernels, name, stepped)
            if component in row_at:
                with pytest.raises(BlowUpError) as err:
                    tangent(spec, init, 0.25)
                assert err.value.t_last == 0.0
            else:
                row, *slopes = tangent(spec, init, 0.25)
                assert all(map(math.isfinite, row))
                assert not all(map(math.isfinite, slopes[0] + slopes[1])), component
            monkeypatch.undo()

    def test_zero_amplitude_table_equals_the_full_one(self, monkeypatch):
        kernels = dynamics._tangent_kernels()
        full = kernels["_tangent_step"]

        def widened(y, h, K):
            wide = [0.0] * 24
            wide[2] = 1.0
            for i, v in zip(TANGENT_ZERO_AT, y):
                wide[i] = v
            row = full(tuple(wide), h, K)
            if row is None:
                return None
            rest = [v for i, v in enumerate(row) if i not in TANGENT_ZERO_AT]
            if all(map(math.isfinite, row)):
                assert rest == [1.0] + [0.0] * 14, row
            return tuple(row[i] for i in TANGENT_ZERO_AT)

        def non_finite(text):
            return "nan" in text or "inf" in text

        blowups = 0
        for spec, init, step in zero_amplitude_cases():
            got = [outcome(run, spec, init, step) for run in (tangent, base_row)]
            with monkeypatch.context() as patch:
                patch.setitem(kernels, "_zero_amplitude_tangent_step", widened)
                want = [outcome(run, spec, init, step) for run in (tangent, base_row)]
            if non_finite(got[0]):
                # m = 1e-308: the tangents overflow, to other non-finite values
                assert non_finite(want[0]) and got[1] == want[1], (spec, init, step)
            else:
                assert got == want, (spec, init, step)
            blowups += got[0].startswith("('blowup'")
        assert blowups >= 5

    def test_tangents_match_differences_of_the_run(self):
        # fourth-order central differences of whole propagator runs, at
        # steps of 2e-4 * max(1, |coord|), sigma20 = 0 included
        for spec, init, step in pin_cases():
            for start in (init, replace(init, sigma20=0.0)):
                _, *slopes = tangent(spec, start, step)
                for name, slope in zip(("S20", "sigma20"), slopes):
                    x = getattr(start, name)
                    d = 2e-4 * max(1.0, abs(x))
                    runs = [propagator(spec, replace(start, **{name: x + j * d}), step)
                            for j in (-2, -1, 1, 2)]
                    diff = [(a - 8.0 * b + 8.0 * c - e) / (12.0 * d) for a, b, c, e in zip(*runs)]
                    assert np.allclose(slope, diff, rtol=1e-9, atol=1e-9), (spec, start, step, name)


def general_kernel(y, h, K):
    """The full row's step of a zero-amplitude row; C = 1 and St = Jcs =
    Jss = I2 = 0 must hold after every step."""
    row = dynamics._row_step(dynamics._u_row(y), h, K)
    if row is None:
        return None
    assert repr(row[2:4] + row[5:]) == repr((1.0, 0.0, 0.0, 0.0, 0.0)), row
    return row[0], row[1], row[4]


def zero_amplitude_cases():
    """Seeded zero-amplitude inputs: +-0.0 in every coordinate, hbar_tilde = 0
    and > 0, steps that do and do not divide T, and caustics inside T."""
    rng = np.random.default_rng(20261019)
    for i in range(40):
        m, k = rng.uniform(0.5, 2.0), float(rng.choice([0.0, rng.uniform(0.1, 2.0)]))
        T = rng.uniform(0.5, 2.0)
        spec = OscillatorSpec(m=m, k=k, hbar_tilde=float(rng.choice([0.0, rng.uniform(0.1, 1.0)])),
                              T=T, x0=rng.uniform(-1.0, 1.0), xT=rng.uniform(-1.0, 1.0))
        # S20 < -m/T puts the caustic inside T, at k = 0 and earlier at k > 0
        S10, S20 = rng.uniform(-2.0, 2.0), rng.uniform(-4.0, 1.0) * m / T
        if i % 4 == 0:
            S10 = float(rng.choice([0.0, -0.0]))
        if i % 4 == 1:
            S20 = float(rng.choice([0.0, -0.0]))
        sigma10, sigma20 = (float(v) for v in rng.choice([0.0, -0.0], 2))
        if i % 8 == 2:
            sigma10 = rng.uniform(-1.0, 1.0)
        step = T / 8 if i % 2 else float(rng.choice([1e-2, 0.07, 0.15]))
        yield spec, InitialData(S10, S20, sigma10, sigma20), step
    # subnormal steps
    yield OscillatorSpec(T=6e-319), InitialData(1.0, 0.3), 3e-320
    yield OscillatorSpec(m=1e-308, k=0.0, T=2e-307), InitialData(1.0, 0.2), 1e-308


def outcome(run, *args):
    """repr of a run's result, or of its blow-up time and partial grid."""
    try:
        result = run(*args)
    except BlowUpError as err:
        partial = err.partial and (err.partial._times, err.partial._rows)
        return repr(("blowup", err.t_last, partial))
    if isinstance(result, dynamics.SolutionGrid):
        return repr((result._times, result._rows))
    return repr(result)


class TestZeroAmplitude:
    """sigma20 = 0 steps only (u, p, Jcc), and its runs equal the full
    row's, bit for bit."""

    @given(
        vals=st.tuples(st.floats(0.1, 3), st.floats(-3, 3), st.floats(-3, 3)),
        hbar=st.floats(0, 2),
    )
    @settings(max_examples=100)
    def test_step_matches_generic_reference(self, vals, hbar):
        # the kernel's right-hand side is the full row's on the widened row
        K = coefficients(OscillatorSpec(m=1.3, k=0.8, hbar_tilde=hbar), 0.0)
        rhs = row_rhs(K)
        want = generic_rk4(lambda z: tuple(rhs(dynamics._u_row(z))[i] for i in ZERO_AT), vals, 0.01)
        assert dynamics._zero_amplitude_step(vals, 0.01, K) == want

    def test_runs_equal_the_general_kernels_bit_for_bit(self, monkeypatch):
        runs = {
            "final_state": final_state,
            "propagator": propagator,
            "rk4": lambda s, i, h: integrate(s, i, h, "rk4"),
            "rk4_adaptive": lambda s, i, h: integrate(s, i, h, "rk4_adaptive"),
        }
        blowups = 0
        for spec, init, step in zero_amplitude_cases():
            got = {name: outcome(run, spec, init, step) for name, run in runs.items()}
            with monkeypatch.context() as patch:
                patch.setattr(dynamics, "_zero_amplitude_step", general_kernel)
                want = {name: outcome(run, spec, init, step) for name, run in runs.items()}
            assert got == want, (spec, init, step)
            blowups += got["rk4"].startswith("('blowup'")
        assert 5 <= blowups <= 35


class TestFinalStateFastPath:
    def test_bitwise_equal_to_grid_endpoint(self, spec):
        # steps 0.15 and 0.3 do not divide T, so the last step is shortened
        init = InitialData(1.0, 0.2, 0.3, 0.8)
        for step in (1e-3, 0.15, 0.3):
            for hbar in (0.0, 0.4):
                s = replace(spec, hbar_tilde=hbar)
                grid = integrate(s, init, step=step)
                fast = final_state(s, init, step=step)
                assert tuple(float(v) for v in grid.data[-1]) == fast, (step, hbar)


def caustic_time(m, k, S20):
    """First positive zero of u = cos(w t) + S20/(m w) sin(w t), or of
    u = 1 + S20 t / m at k = 0 (S20 < 0)."""
    if k == 0.0:
        return -m / S20
    w = math.sqrt(k / m)
    return math.atan(m * w / -S20) / w


class TestCausticOracle:
    """With c = 0 the sign test u > 0 is exact about a classical caustic:
    a run never steps past the pole of S2."""

    @given(**CAUSTIC_DRAWS)
    @settings(max_examples=200, deadline=None)
    def test_no_step_past_the_caustic(self, m, k, S20, step, T, zero_amplitude):
        spec, init = caustic_case(m, k, S20, T, zero_amplitude)
        t_c = caustic_time(m, k, S20)
        try:
            final_state(spec, init, step)
        except BlowUpError as err:
            assert err.t_last <= t_c
        else:
            assert T < t_c

    @pytest.mark.parametrize("step", [0.1, 0.15, 0.2])
    def test_coarse_caustic_config_blows_up(self, step):
        # the Riccati kernel stepped over this pole at these steps and
        # returned complete grids (lambda = -3.56e4, -2.90 and -197)
        cfg = load_config(ROOT / "configs" / "caustic.ini")
        t_c = caustic_time(cfg.spec.m, cfg.spec.k, cfg.init.S20)
        assert 1.41 < t_c < cfg.spec.T
        for run in (final_state, integrate):
            with pytest.raises(BlowUpError) as err:
                run(cfg.spec, cfg.init, step)
            assert t_c - step <= err.value.t_last <= t_c


class TestRowOracles:
    def test_zero_amplitude_row_matches_closed_form(self):
        # c = 0, k > 0: u = cos(w t) + b sin(w t) with b = S20/(m w),
        # p = m u', C = 1, St = 0 and Jcc = sin(w t)/(w u)
        m, k, T = 1.3, 0.8, 1.2
        w = math.sqrt(k / m)
        for S20 in (-0.5, 0.0, 0.7):
            b = S20 / (m * w)
            u = math.cos(w * T) + b * math.sin(w * T)
            p = m * w * (b * math.cos(w * T) - math.sin(w * T))
            row = propagator(OscillatorSpec(m=m, k=k, hbar_tilde=0.5, T=T),
                             InitialData(0.4, S20, 0.3, 0.0), 1e-3)
            assert row[2:4] + row[5:] == (1.0, 0.0, 0.0, 0.0, 0.0)
            for got, want in zip((row[0], row[1], row[4]), (u, p, math.sin(w * T) / (w * u))):
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("S20, sigma20", [(0.2, 0.9), (-0.4, 1.5), (0.0, 3.0)])
    def test_rotation_invariant_drift_is_fourth_order(self, S20, sigma20):
        # C^2 + m*hh*St^2 = 1 exactly; RK4's drift falls about 16x per halving
        spec = OscillatorSpec(m=1.3, k=0.8, hbar_tilde=0.6, T=1.0)
        m_inv, _, hh = dynamics.flow_coefficients(spec)

        def drift(step):
            _, _, C, St, *_ = propagator(spec, InitialData(0.5, S20, 0.3, sigma20), step)
            return C * C + hh / m_inv * St * St - 1.0

        for step in (0.05, 0.025):
            assert 16.0 * 0.75 <= drift(step) / drift(step / 2) <= 16.0 * 1.1

    def test_bounce_guard_only_with_c_positive(self):
        # k = 0 and S20 = -6: u = 1 - 6t without the quantum term, so a
        # step of 0.1 from t = 0 has h*(-S2)/m = 0.6 > FOCUS_GUARD
        spec = OscillatorSpec(m=1.0, k=0.0, hbar_tilde=0.5, T=0.1)
        init = InitialData(1.0, -6.0, 0.3, 1.0)
        assert 0.1 * 6.0 > FOCUS_GUARD
        # S20 = 0 and sigma20 = 30: h^2*c/(m*u^2) = 2.25 > BOUNCE_GUARD at t = 0
        spread = replace(init, S20=0.0, sigma20=30.0)
        assert 0.1**2 * 0.5**2 * 30.0**2 > BOUNCE_GUARD
        for start in (init, spread):
            with pytest.raises(BlowUpError) as err:
                final_state(spec, start, 0.1)
            assert err.value.t_last == 0.0
            # c = 0: no guard, and u stays positive up to T
            final_state(replace(spec, hbar_tilde=0.0), start, 0.1)
            final_state(spec, replace(start, sigma20=0.0), 0.1)
            # a step that resolves the focusing and the bounce passes
            final_state(spec, start, 0.02)


class TestAdaptive:
    def test_matches_fixed_step_result(self, spec, classical_init):
        fixed = integrate(spec, classical_init, step=1e-3)
        adaptive = integrate(spec, classical_init, step=1e-2, method="rk4_adaptive")
        assert adaptive.complete
        assert float(adaptive.times[0]) == 0.0
        assert np.all(np.diff(adaptive.times) > 0)
        assert float(adaptive.s2[-1]) == pytest.approx(float(fixed.s2[-1]), abs=1e-8)

    def test_quantum_run(self, spec):
        s = replace(spec, hbar_tilde=0.5)
        init = InitialData(1.0, 0.0, 0.3, 0.7)
        fixed = integrate(s, init, step=5e-4)
        adaptive = integrate(s, init, step=1e-2, method="rk4_adaptive")
        assert float(adaptive.s2[-1]) == pytest.approx(float(fixed.s2[-1]), abs=1e-8)
        assert float(adaptive.qSigma[-1]) == pytest.approx(float(fixed.qSigma[-1]), abs=1e-8)

    def test_blow_up_detected(self):
        spec = OscillatorSpec(T=1.5)
        init = InitialData(S10=1.0, S20=t0_to_S20(-0.157, spec))
        with pytest.raises(BlowUpError):
            integrate(spec, init, step=1e-2, method="rk4_adaptive")

    def test_non_finite_trial_step_is_retried_smaller(self, monkeypatch):
        # k = m = 1 and S20 = -5 put the caustic at t = atan(0.2); the first
        # trial step of 0.5 jumps across it and overflows, so it is rejected
        # and cut, and the shorter steps close in on the pole. The input has
        # zero amplitude, so the zero-amplitude kernel takes the steps.
        rejected = []
        rk4_step = dynamics._zero_amplitude_step

        def counted(y, *args):
            row = rk4_step(y, *args)
            if row is None:
                rejected.append(y)
            return row

        monkeypatch.setattr(dynamics, "_zero_amplitude_step", counted)
        with pytest.raises(BlowUpError) as exc:
            integrate(OscillatorSpec(T=1.5), InitialData(S10=1.0, S20=-5.0), step=0.5,
                      method="rk4_adaptive")
        assert len(rejected) == 1
        assert abs(exc.value.t_last - math.atan(0.2)) <= 1e-8

    def test_first_step_below_h_min_starts_at_h_min(self):
        # T/h = 1e7 passes the step bound, and the step lies below h_min =
        # 1e-12; the run starts at h_min instead of reading it as collapse
        spec = OscillatorSpec(T=1e-6)
        init = InitialData(1.0, 0.2, 0.3, 0.8)
        grid = integrate(spec, init, step=1e-13, method="rk4_adaptive")
        assert grid.complete
        assert grid._times[1] >= 1e-12
        assert grid._rows[-1] == integrate(spec, init, step=1e-12, method="rk4_adaptive")._rows[-1]


def reference_ratio(coarse, fine):
    """The step-doubling ratio as the builtin formula writes it."""
    ratio = 0.0
    for yc, yf in zip(coarse, fine):
        ratio = max(ratio, abs(yf - yc) / 15.0 / (ADAPTIVE_ATOL + ADAPTIVE_RTOL * max(abs(yc), abs(yf))))
    return ratio


BOUNDED = st.one_of(st.floats(-BLOWUP_LIMIT, BLOWUP_LIMIT), st.sampled_from([0.0, -0.0]))


@st.composite
def trial_rows(draw):
    """A coarse and a fine row of 5 or 8 bounded components: equal rows,
    rows a tiny error apart, or independent rows."""
    n = draw(st.sampled_from([5, 8]))
    coarse = draw(st.tuples(*[BOUNDED] * n))
    kind = draw(st.sampled_from(["equal", "near", "free"]))
    if kind == "equal":
        return coarse, coarse
    if kind == "near":
        errors = draw(st.tuples(*[st.floats(-1e-9, 1e-9)] * n))
        return coarse, tuple(c + e for c, e in zip(coarse, errors))
    return coarse, draw(st.tuples(*[BOUNDED] * n))


class TestErrorRatio:
    @given(rows=trial_rows())
    @example(rows=((0.0, -0.0, 1.0, -1.0, 0.0), (-0.0, 0.0, 1.0, -1.0, 0.0)))
    @example(rows=((-0.0,) * 8, (-0.0,) * 8))
    @example(rows=((0.0,) * 8, (-0.0,) * 8))
    @example(rows=((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0),) * 2)
    @example(rows=((BLOWUP_LIMIT, -BLOWUP_LIMIT, 0.0, 5e-324, -5e-324),
                   (-BLOWUP_LIMIT, BLOWUP_LIMIT, -0.0, -5e-324, 5e-324)))
    @settings(max_examples=200)
    def test_equals_builtin_formula_bitwise(self, rows):
        coarse, fine = rows
        assert repr(_error_ratio(coarse, fine)) == repr(reference_ratio(coarse, fine))

    def test_adaptive_loop_calls_no_builtin_per_trial(self):
        # abs, max and min do not appear in the loop or the ratio
        for fn in (_error_ratio, dynamics._integrate_adaptive):
            names = set(fn.__code__.co_names)
            assert not names & {"abs", "max", "min"}, fn.__name__


class TestConvergenceOrder:
    def test_classical_probe(self, spec, classical_init):
        order = convergence_order(spec, classical_init, t_probe=0.5)
        assert order == pytest.approx(4.0, abs=0.3)

    def test_quantum_probe(self, spec):
        s = replace(spec, hbar_tilde=0.5)
        order = convergence_order(s, InitialData(1.0, 0.0, 0.3, 0.7), t_probe=0.7)
        assert order == pytest.approx(4.0, abs=0.3)

    def test_zero_init_probe_still_fourth_order(self, spec):
        # S2 still evolves (as -tan) from the stiffness term
        order = convergence_order(spec, InitialData(), t_probe=0.5)
        assert order == pytest.approx(4.0, abs=0.3)

    def test_unresolvable_probe_is_degenerate(self):
        # free particle with zero init: S2 stays identically zero
        spec = OscillatorSpec(k=0.0)
        with pytest.raises(DegenerateProbeError):
            convergence_order(spec, InitialData(), t_probe=0.5)

    @pytest.mark.parametrize("step", [0.5, 0.2])
    def test_probe_of_few_steps_is_degenerate(self, spec, classical_init, step):
        # one or three steps over the probe: no order is read
        with pytest.raises(DegenerateProbeError, match="an order needs at least 4"):
            convergence_order(spec, classical_init, t_probe=0.5, step=step)
        convergence_order(spec, classical_init, t_probe=0.5, step=0.125)

    def test_blow_up_propagates(self):
        spec = OscillatorSpec(T=1.5)
        init = InitialData(S10=1.0, S20=t0_to_S20(-0.157, spec))
        with pytest.raises(BlowUpError):
            convergence_order(spec, init, t_probe=1.5)


class TestCsvExport:
    def test_format_and_determinism(self, spec, classical_init):
        grid = integrate(spec, classical_init, step=0.25)
        buf1, buf2 = StringIO(), StringIO()
        grid.write_csv(buf1)
        grid.write_csv(buf2)
        text = buf1.getvalue()
        assert text == buf2.getvalue()
        lines = text.splitlines()
        header_meta = [ln for ln in lines if ln.startswith("#")]
        assert len(header_meta) == 3
        assert lines[3] == "t,S1,S2,sigma1,sigma2,qS,qSigma,qCon"
        rows = lines[4:]
        assert len(rows) == len(grid)
        assert rows[0] == "0,1,0,0,0,0,0,0"
        # 17 significant digits round-trip exactly
        for token, expected in zip(rows[-1].split(","), [1.0, *grid.data[-1][:7]]):
            assert float(token) == float(expected)

    def test_footer_comment(self, spec, classical_init, tmp_path):
        grid = integrate(spec, classical_init, step=0.5)
        path = tmp_path / "grid.csv"
        grid.to_csv(path, footer="BLOWUP last_good_t=0.5")
        assert path.read_text().rstrip().endswith("# BLOWUP last_good_t=0.5")
        assert "\r" not in path.read_text()
