import inspect
import math
from collections import Counter
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
    _stage,
    _start,
    _state_cotangent,
    _state_curvature,
    _state_row,
    _state_tangent,
    final_state,
    propagator,
    taped,
    tangent,
)
import qap.extremize as extremize
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
        assert ROW_STEP(row, 0.01, K) == generic_rk4(row_rhs(K), row, 0.01)

    def test_rendered_kernels_show_their_source(self):
        keys = [ROW_KERNEL, ZERO_KERNEL, ("", False, True), ("S", True, False)]
        keys += [(along, False, False) for along in ALONG]
        kernels = {dynamics._kernel(*key) for key in keys}
        assert len(kernels) == 7
        for kernel in kernels:
            assert inspect.getsource(kernel).startswith(f"def {kernel.__name__}(")


#: the keys (along, zero_amplitude, taped) of the row's kernel and of the
#: zero-amplitude row's, as ``_run`` asks ``_kernel`` for them
ROW_KERNEL, ZERO_KERNEL = ("", False, False), ("", True, False)

#: the row's kernel
ROW_STEP = dynamics._kernel(*ROW_KERNEL)


def swap_kernel(patch, key, make):
    """Patch ``dynamics._kernel`` with ``patch`` (a ``MonkeyPatch``) so that
    the kernel a run asks for by ``key`` is ``make`` of the real one."""
    real = dynamics._kernel

    def kernel(*args):
        return make(real(*args)) if args == key else real(*args)

    patch.setattr(dynamics, "_kernel", kernel)


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
        s1, s2 = integrate(spec, classical_init, step=1e-3).row(500)[:2]
        assert s2 == pytest.approx(-math.tan(0.5), abs=1e-8)
        assert s1 == pytest.approx(1.0 / math.cos(0.5), abs=1e-8)
        assert s2 == pytest.approx(-0.5463024898437905, abs=1e-8)
        assert s1 == pytest.approx(1.139493927324549, abs=1e-8)

    def test_grid_structure(self, spec, classical_init):
        grid = integrate(spec, classical_init, step=0.3)
        assert grid.times[0] == 0.0
        assert grid.times[-1] == spec.T
        assert len(grid) == 5  # ceil(1/0.3) = 4 steps
        assert np.all(np.diff(grid.times) > 0)
        assert grid.complete
        # tuples of Python floats, the rows built once; the grid itself is immutable
        assert np.asarray(grid.rows).shape == (5, 8) and grid.rows is grid.rows
        assert type(grid.times) is tuple and type(grid.rows) is tuple
        assert all(type(v) is float for v in grid.times)
        assert all(type(v) is float for row in grid.rows for v in row)
        with pytest.raises(FrozenInstanceError):
            grid.step = 0.1

    def test_accumulators_start_at_zero(self, spec, classical_init):
        grid = integrate(spec, classical_init, step=0.1)
        assert grid.row(0)[4:7] == (0.0, 0.0, 0.0)

    def test_qS_non_decreasing(self, spec):
        grid = integrate(spec, InitialData(S10=1.0, S20=0.5, sigma10=0.2, sigma20=0.4),
                         step=1e-3)
        assert np.all(np.diff(np.asarray(grid.rows)[:, 4]) >= 0)

    def test_silent_amplitude_sector_stays_exactly_zero(self, spec, classical_init):
        data = np.asarray(integrate(replace(spec, hbar_tilde=0.7), classical_init, step=1e-2).rows)
        assert np.all(data[:, 2] == 0.0)
        assert np.all(data[:, 3] == 0.0)

    def test_sigma2_exponential_identity(self, spec):
        # sigma2(t) = sigma20 * exp(-int S2 / m), any hbar
        s = replace(spec, hbar_tilde=0.5, m=1.7)
        data = np.asarray(integrate(s, InitialData(1.0, 0.2, 0.3, 0.8), step=1e-3).rows)
        predicted = 0.8 * np.exp(-data[:, 7] / s.m)
        assert np.max(np.abs(data[:, 3] - predicted)) < 1e-8

    def test_sigma2_never_changes_sign(self, spec):
        s = replace(spec, hbar_tilde=0.3)
        grid = integrate(s, InitialData(0.5, -0.4, 0.1, -0.6), step=1e-3)
        assert np.all(np.asarray(grid.rows)[:, 3] < 0)

    def test_amplitude_sign_flip_leaves_phase_untouched(self, spec):
        s = replace(spec, hbar_tilde=0.8)
        a = np.asarray(integrate(s, InitialData(1.0, 0.3, 0.4, 0.6), step=1e-3).rows)
        b = np.asarray(integrate(s, InitialData(1.0, 0.3, -0.4, -0.6), step=1e-3).rows)
        assert np.max(np.abs(a[:, 0] - b[:, 0])) <= 1e-12
        assert np.max(np.abs(a[:, 1] - b[:, 1])) <= 1e-12
        assert np.array_equal(a[:, 2], -b[:, 2])
        assert np.array_equal(a[:, 3], -b[:, 3])

    def test_classical_phase_decouples_from_amplitude(self, spec):
        a = np.asarray(integrate(spec, InitialData(1.0, 0.3, 0.0, 0.0), step=1e-3).rows)
        b = np.asarray(integrate(spec, InitialData(1.0, 0.3, 0.9, -1.1), step=1e-3).rows)
        assert np.max(np.abs(a[:, 0] - b[:, 0])) <= 1e-12
        assert np.max(np.abs(a[:, 1] - b[:, 1])) <= 1e-12

    def test_halving_step_cuts_error_sixteenfold(self, spec, classical_init):
        # asymptotic-regime steps: at h <= 1e-3 truncation sits below roundoff
        def max_error(h):
            grid = integrate(spec, classical_init, step=h)
            exact = -np.tan(np.asarray(grid.times))
            return float(np.max(np.abs(np.asarray(grid.rows)[:, 1] - exact)))

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

        monkeypatch.setattr(dynamics, "_kernel", lambda *key: fail)
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
            assert grid.rows == integrate(spec, self.INIT, step, method).rows


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
        assert partial.times[-1] == exc.value.t_last
        assert np.all(np.isfinite(np.asarray(partial.rows)))

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
    return integrate(s, i, step=0.25, method="rk4_adaptive").row(-1)


def propagator_run(s, i):
    return propagator(s, i, step=0.25)


#: each kernel with a run it drives, that run's initial data, and, for a
#: run that returns the kernel row, where each component of the kernel's
#: row lands in it
KERNELS = [
    (ROW_KERNEL, fixed_run, QUANTUM, None),
    (ROW_KERNEL, adaptive_run, QUANTUM, None),
    (ROW_KERNEL, propagator_run, QUANTUM, range(8)),
    (ZERO_KERNEL, fixed_run, SILENT, None),
    (ZERO_KERNEL, adaptive_run, SILENT, None),
    (ZERO_KERNEL, propagator_run, SILENT, ZERO_AT),
    # the row does not depend on sigma10
    (ZERO_KERNEL, propagator_run, replace(SILENT, sigma10=0.3), ZERO_AT),
]
WIDTH = {ROW_KERNEL: 8, ZERO_KERNEL: 3}
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
        def make(inner):
            def stepped(y, h, *args):
                y = list(y)
                y[component] = value
                return inner(tuple(y), 0.0, *args)

            return stepped

        swap_kernel(monkeypatch, kernel, make)

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
        # of propagator's, and the models' values are endpoint_report's on
        # it, bit for bit (sigma20 = 0 included)
        for spec, init, step in pin_cases():
            m_inv, _, hh = dynamics.flow_coefficients(spec)
            for point in (init, replace(init, sigma20=0.0)):
                first, end = point.as_tuple(), propagator(spec, point, step)
                last = final_state(spec, point, step)
                assert last == _state_row(first, spec.m, hh / m_inv, end)
                report = endpoint_report(spec, first, last)
                (lam, _, _), (r, _, _) = endpoint_models(spec, first, end)
                assert (lam, r) == (report.lam, report.constraint_residual), (spec, point, step)

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

    def test_unit_start_solution_is_a_rotation(self):
        # in the exact flow (C, a*St), a = sqrt(m*hh), turns by
        # theta = sqrt(hh/m)*I2 from (1, 0); RK4's departure from that
        # falls about 16x per halving of h
        rng = np.random.default_rng(20261019)
        points = []
        for _ in range(50):
            m, k = rng.uniform(0.8, 1.25, 2)
            spec = OscillatorSpec(m=float(m), k=float(k), hbar_tilde=float(rng.uniform(0.05, 0.6)))
            points.append((spec, InitialData(0.0, rng.uniform(0.1, 0.4), 0.0, rng.uniform(0.1, 0.8))))
        errors = []
        for step in (2e-2, 1e-2, 5e-3):
            worst = 0.0
            for spec, init in points:
                _, _, C, St, _, _, _, I2 = propagator(spec, init, step)
                hh = dynamics.flow_coefficients(spec)[2]
                theta = math.sqrt(hh / spec.m) * I2
                a = math.sqrt(spec.m * hh)
                worst = max(worst, abs(C - math.cos(theta)), abs(a * St - math.sin(theta)))
            errors.append(worst)
        assert errors[0] <= 5e-10, errors
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 <= coarse / fine <= 20.0, errors

    def test_caustic_blows_up_where_final_state_does(self):
        cfg = load_config(ROOT / "configs" / "caustic.ini")
        with pytest.raises(BlowUpError) as a:
            final_state(cfg.spec, cfg.init, cfg.step)
        with pytest.raises(BlowUpError) as b:
            propagator(cfg.spec, cfg.init, cfg.step)
        assert b.value.t_last == a.value.t_last < cfg.spec.T
        assert b.value.partial is None


def tangent_rhs(K, along):
    """The right-hand side of a tangent kernel row along ``along`` (S, G or
    SG): ``_stage`` on the row, its variational equations along each
    coordinate, where along sigma20 the coefficients move too, and those of
    second order along each pair, in the kernel's order."""
    m_inv, k, c, hs, ms, s, _, _, dc, dhs, ddc = K
    _, flows, integrals = dynamics._table(along, False)
    names = [n for n, _ in flows + integrals]

    def rhs(y):
        v = dict(zip(names, y))
        u, p, C, St = (v[n] for n in ROW[:4])
        d = dict(zip(ROW, _stage(u, p, C, St, K)))
        r = 1.0 / u
        a, b = r * C, r * St
        shared = {}
        for X in along:
            uX, pX, CX, StX = (v[n + X] for n in ROW[:4])
            rX = -r * r * uX
            aX = rX * C + r * CX
            bX = rX * St + r * StX
            shared[X] = rX, aX, bX, uX, CX, StX
            dpX, dCX, dStX, dI2X = c * rX - k * uX, hs * bX, ms * aX, s * rX
            if X == "G":
                dpX, dCX, dStX, dI2X = dpX + dc * r, dCX + dhs * b, dStX + m_inv * a, dI2X + r
            d.update(zip([n + X for n in ROW], [m_inv * pX, dpX, dCX, dStX, 2.0 * a * aX,
                                                aX * b + a * bX, 2.0 * b * bX, dI2X]))
        for i, X in enumerate(along):
            for Y in along[i:]:
                (rX, aX, bX, uX, CX, StX), (rY, aY, bY, _, CY, StY) = shared[X], shared[Y]
                uXY, pXY, CXY, StXY = (v[n + X + Y] for n in ROW[:4])
                rXY = -r * (2.0 * rY * uX + r * uXY)
                aXY = rXY * C + rX * CY + rY * CX + r * CXY
                bXY = rXY * St + rX * StY + rY * StX + r * StXY
                dp, dC, dSt, dI2 = c * rXY - k * uXY, hs * bXY, ms * aXY, s * rXY
                if X == "G":
                    dp, dC, dSt, dI2 = dp + dc * rY, dC + dhs * bY, dSt + m_inv * aY, dI2 + rY
                if Y == "G":
                    dp, dC, dSt, dI2 = dp + dc * rX, dC + dhs * bX, dSt + m_inv * aX, dI2 + rX
                if X == Y == "G":
                    dp = dp + ddc * r
                d.update(zip([n + X + Y for n in ROW], [
                    m_inv * pXY, dp, dC, dSt, 2.0 * (aX * aY + a * aXY),
                    aXY * b + aX * bY + aY * bX + a * bXY, 2.0 * (bX * bY + b * bXY), dI2]))
        return tuple(d[n] for n in names)

    return rhs


#: the row's components, in the order of the eight-component rows
ROW = ("u", "p", "C", "St", "Jcc", "Jcs", "Jss", "I2")

#: the searched sets a tangent run takes: S20 (S), sigma20 (G) or both
ALONG = ("S", "G", "SG")

#: the coordinates of each searched set, as ``tangent`` takes them
ALONG_NAMES = {"S": ("S20",), "G": ("sigma20",), "SG": ("S20", "sigma20")}

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


def kernel_names(along, zero_amplitude):
    """The components of a tangent kernel row, in its order."""
    _, flows, integrals = dynamics._table(along, zero_amplitude)
    return [n for n, _ in flows + integrals]


class TestTangent:
    """``tangent`` steps the row with its first- and second-order lines
    along the searched coordinates: the base row is ``propagator``'s, and
    the lines are the derivatives of its discrete map."""

    @given(
        row=st.tuples(st.floats(0.1, 3), *[st.floats(-3, 3)] * 47),
        hbar=st.floats(0, 2),
        sigma20=st.floats(-2, 2),
        along=st.sampled_from(ALONG),
    )
    @settings(max_examples=100)
    def test_step_matches_generic_reference(self, row, hbar, sigma20, along):
        K = coefficients(OscillatorSpec(m=1.3, k=0.8, hbar_tilde=hbar), sigma20)
        row = row[:len(kernel_names(along, False))]
        step = dynamics._kernel(along, False)
        assert step(row, 0.01, K) == generic_rk4(tangent_rhs(K, along), row, 0.01)

    def test_base_row_is_propagators(self, spec):
        # whole runs, the shortened last step and sigma20 = 0 included, and
        # TestBoundCheck's inputs
        cases = [(s, i, h) for s, init, h in pin_cases() for i in (init, replace(init, sigma20=0.0))]
        cases += [(spec, i, 0.25) for i in (QUANTUM, SILENT, replace(SILENT, sigma10=0.3))]
        for s, i, h in cases:
            assert outcome(base_row, s, i, h) == outcome(propagator, s, i, h), (s, i, h)

    def test_every_searched_set_gives_the_same_rows(self):
        # the end row, propagator's, and each coordinate's first-order row,
        # bit for bit whatever else the run follows
        for spec, init, step in pin_cases():
            for start in (init, replace(init, sigma20=0.0)):
                runs = {along: tangent(spec, start, step, ALONG_NAMES[along]) for along in ALONG}
                row = propagator(spec, start, step)
                for along, (end, slopes, curvatures) in runs.items():
                    assert repr(end) == repr(row), (spec, start, step, along)
                    assert len(slopes) == len(along)
                    assert len(curvatures) == len(along) * (len(along) + 1) // 2
                both = runs["SG"][1]
                assert repr(runs["S"][1]) == repr(both[:1]) and repr(runs["G"][1]) == repr(both[1:])

    def test_along_names_S20_or_sigma20(self, spec):
        for along in ((), ("S10",), ("S20", "S10"), "S20"):
            with pytest.raises(ValueError, match="along"):
                tangent(spec, QUANTUM, 0.25, along)
        # the order of the names does not matter
        assert tangent(spec, QUANTUM, 0.25, ("sigma20", "S20")) == tangent(spec, QUANTUM, 0.25)

    @given(**CAUSTIC_DRAWS)
    @settings(max_examples=60, deadline=None)
    def test_blows_up_where_propagator_does(self, m, k, S20, step, T, zero_amplitude):
        spec, init = caustic_case(m, k, S20, T, zero_amplitude)
        assert outcome(base_row, spec, init, step) == outcome(propagator, spec, init, step)

    @pytest.mark.parametrize("init", [QUANTUM, SILENT], ids=["full", "zero-amplitude"])
    @pytest.mark.parametrize("along", ALONG)
    def test_bound_check_reads_only_the_row(self, monkeypatch, spec, init, along):
        # as in TestBoundCheck, a step of length 0 that puts inf in one
        # component: in the row it blows the run up; in a line it comes out
        # as it is. At sigma20 = 0 only a run along S20 alone takes the
        # zero-amplitude table
        zero = init.sigma20 == 0.0 and along == "S"
        for component, n in enumerate(kernel_names(along, zero)):
            def make(inner, component=component):
                def stepped(y, h, K):
                    y = list(y)
                    y[component] = math.inf
                    return inner(tuple(y), 0.0, K)

                return stepped

            swap_kernel(monkeypatch, (along, zero, False), make)
            if n in ROW:
                with pytest.raises(BlowUpError) as err:
                    tangent(spec, init, 0.25, ALONG_NAMES[along])
                assert err.value.t_last == 0.0
            else:
                row, slopes, curvatures = tangent(spec, init, 0.25, ALONG_NAMES[along])
                assert all(map(math.isfinite, row))
                assert not all(map(math.isfinite, sum(slopes + curvatures, ()))), n
            monkeypatch.undo()

    def test_zero_amplitude_table_equals_the_full_one(self, monkeypatch):
        # along S20, the full table from a zero-amplitude kernel row, with C
        # = 1 and the rest 0, keeps the components the zero-amplitude table
        # drops as they are, and steps the row and the first-order line bit
        # for bit as the zero-amplitude table does; the second-order line it
        # steps within roundoff (the zero-amplitude table's JccSS' = 6*rS^2
        # is 2*rS^2 + 2*r*rSS there)
        along = "S"
        full = dynamics._kernel(along, False)
        names, wide_names = kernel_names(along, True), kernel_names(along, False)
        at = [wide_names.index(n) for n in names]
        rest = [i for i in range(len(wide_names)) if i not in at]

        def widened(y, h, K):
            wide = [0.0] * len(wide_names)
            wide[wide_names.index("C")] = 1.0
            for i, v in zip(at, y):
                wide[i] = v
            row = full(tuple(wide), h, K)
            if row is None:
                return None
            if all(map(math.isfinite, row)):
                assert [row[i] for i in rest] == [wide[i] for i in rest], row
            return tuple(row[i] for i in at)

        def run(spec, init, step):
            """The end row and the first-order rows by repr, and the
            second-order rows; or the blow-up."""
            try:
                end, slopes, curvatures = tangent(spec, init, step, ALONG_NAMES[along])
            except BlowUpError as err:
                return repr(("blowup", err.t_last)), None, None
            return repr(end), repr(slopes), curvatures

        blowups = 0
        for spec, init, step in zero_amplitude_cases():
            got = run(spec, init, step)
            with monkeypatch.context() as patch:
                swap_kernel(patch, (along, True, False), lambda inner: widened)
                want = run(spec, init, step)
            assert got[0] == want[0], (spec, init, step)
            blowups += got[1] is None
            if got[1] is None:
                continue
            if "nan" in got[1] or "inf" in got[1]:
                # m = 1e-308: the lines overflow, to other non-finite values
                assert "nan" in want[1] or "inf" in want[1], (spec, init, step)
            else:
                assert got[1] == want[1], (spec, init, step)
                assert np.allclose(got[2], want[2], rtol=1e-12, atol=0.0), (spec, init, step)
        assert blowups >= 5

    def test_tangents_match_differences_of_the_run(self):
        # fourth-order central differences of whole propagator runs, at
        # steps of 2e-4 * max(1, |coord|), sigma20 = 0 included
        for spec, init, step in pin_cases():
            for start in (init, replace(init, sigma20=0.0)):
                _, slopes, _ = tangent(spec, start, step)
                for name, slope in zip(("S20", "sigma20"), slopes):
                    x = getattr(start, name)
                    d = 2e-4 * max(1.0, abs(x))
                    runs = [propagator(spec, replace(start, **{name: x + j * d}), step)
                            for j in (-2, -1, 1, 2)]
                    diff = [(a - 8.0 * b + 8.0 * c - e) / (12.0 * d) for a, b, c, e in zip(*runs)]
                    assert np.allclose(slope, diff, rtol=1e-9, atol=1e-9), (spec, start, step, name)

    @pytest.mark.parametrize("step", [2e-2, 1e-2])
    @pytest.mark.parametrize("along", ALONG)
    def test_second_order_rows_match_differences_of_the_first(self, step, along):
        # the SS, SG and GG rows against fourth-order central differences of
        # tangent's first-order rows, at steps of 1e-4 * max(1, |coord|):
        # each pair's row is the derivative of its first coordinate's row
        # along its second. At sigma20 = 0 the differences along sigma20
        # run the full table on either side. A line of the tables scaled by
        # 1 + 1e-5, or a sum with its last term dropped, fails at both
        # steps wherever it fails at 1e-3, a run of ten times the steps
        names = ALONG_NAMES[along]
        pairs = [(i, j) for i in range(len(names)) for j in range(i, len(names))]
        for spec, init, _ in pin_cases():
            for start in (init, replace(init, sigma20=0.0)):
                _, _, curvatures = tangent(spec, start, step, names)
                for (i, j), curvature in zip(pairs, curvatures):
                    x = getattr(start, names[j])
                    d = 1e-4 * max(1.0, abs(x))
                    rows = [tangent(spec, replace(start, **{names[j]: x + k * d}), step,
                                    names)[1][i] for k in (-2, -1, 1, 2)]
                    diff = [(a - 8.0 * b + 8.0 * c - e) / (12.0 * d) for a, b, c, e in zip(*rows)]
                    assert np.allclose(curvature, diff, rtol=1e-8, atol=1e-8), (spec, start, i, j)

    def test_state_curvature_matches_differences_of_the_state_row(self):
        # along the path first + t1*eX + t2*eY, y + t1*dX + t2*dY + t1*t2*dXY,
        # whose mixed second derivative at 0 is the curvature, by central
        # differences at steps of 1e-4
        rng = np.random.default_rng(10)
        for _ in range(100):
            first = tuple(map(float, rng.uniform(-2.0, 2.0, 4)))
            m, a2 = rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)
            y = (rng.uniform(0.5, 3.0), *rng.uniform(-2.0, 2.0, 7))
            eX, eY = (tuple(rng.uniform(-1.0, 1.0, 4)) for _ in range(2))
            dX, dY, dXY = (tuple(rng.uniform(-1.0, 1.0, 8)) for _ in range(3))

            def state(t1, t2):
                start = [v + t1 * a + t2 * b for v, a, b in zip(first, eX, eY)]
                row = [v + t1 * a + t2 * b + t1 * t2 * c for v, a, b, c in zip(y, dX, dY, dXY)]
                return np.array(_state_row(start, m, a2, row))

            d = 1e-4
            want = (state(d, d) - state(d, -d) - state(-d, d) + state(-d, -d)) / (4.0 * d * d)
            got = _state_curvature(first, m, a2, y, (eX, dX), (eY, dY), dXY)
            assert np.all(np.abs(got - want) <= 1e-6 * np.maximum(1.0, np.abs(want)))


def taped_row(spec, init, step):
    return taped(spec, init, step)[0]


def seeded_steps():
    """Seeded (row, h, K) for one step of the row: smooth rows, rows whose
    start the bounce guard refuses (c > 0, -h*p > G*u or h^2*W > u^2),
    rows whose step crosses u = 0 (c = 0, no guard) and rows next to
    BLOWUP_LIMIT."""
    rng = np.random.default_rng(20261020)
    for i in range(400):
        kind = i % 4
        spec = OscillatorSpec(m=rng.uniform(0.5, 2.0), k=rng.uniform(0.0, 2.0),
                              hbar_tilde=0.0 if kind == 2 else rng.uniform(0.1, 1.0))
        K = coefficients(spec, 0.0 if i % 8 == 0 else rng.uniform(-3.0, 3.0))
        h = float(rng.choice([1e-2, 0.1, 0.3]))
        y = [rng.uniform(0.3, 3.0), *rng.uniform(-1.0, 1.0, 7)]
        if kind == 1:
            if rng.uniform() < 0.5:
                y[1] = -rng.uniform(1.1, 3.0) * dynamics.FOCUS_GUARD * spec.m * y[0] / h
            else:
                y[0] = h * math.sqrt(K[7]) / rng.uniform(1.1, 3.0)
        elif kind == 2:
            y[1] = -rng.uniform(1.5, 4.0) * spec.m * y[0] / h
        elif kind == 3:
            y[int(rng.integers(1, 8))] = float(rng.choice([-1.0, 1.0])) * BLOWUP_LIMIT * (1.0 - 1e-15)
        yield tuple(map(float, y)), h, K


class TestTaped:
    """``taped`` runs the row with a taped twin of the row's kernel and returns
    its end row, ``propagator``'s, with a pullback: one backward sweep
    gives the derivatives along S20 and sigma20 of a seed times the row."""

    def test_step_equals_row_step_bit_for_bit(self):
        step = dynamics._kernel("", False, True)
        outcomes = Counter()
        for y, h, K in seeded_steps():
            tape = []
            got = step(y, h, K + (tape.append,))
            assert repr(got) == repr(ROW_STEP(y, h, K)), (y, h, K)
            if tape:
                # h, then r, a and b at the four stages
                assert len(tape) == 1 and len(tape[0]) == 13 and tape[0][0] == h
                r = 1.0 / y[0]
                assert tape[0][1:4] == (r, r * y[2], r * y[3])
            outcomes["refused" if not tape else "taken" if got else "blown up"] += 1
        assert min(outcomes[k] for k in ("taken", "refused", "blown up")) >= 50, outcomes

    def test_row_is_propagators(self, spec):
        # whole runs, the shortened last step, sigma20 = 0 (the full row's
        # kernel, where propagator steps the zero-amplitude one), guarded
        # and blown-up runs
        cases = [(s, i, h) for s, init, h in pin_cases() for i in (init, replace(init, sigma20=0.0))]
        cases += [(spec, i, 0.25) for i in (QUANTUM, SILENT, replace(SILENT, sigma10=0.3))]
        cases += list(zero_amplitude_cases())
        guarded = OscillatorSpec(m=1.0, k=0.0, hbar_tilde=0.5, T=0.1)
        for start in (InitialData(1.0, -6.0, 0.3, 1.0), InitialData(1.0, 0.0, 0.3, 30.0)):
            cases += [(guarded, start, 0.1), (guarded, start, 0.02)]
        blowups = 0
        for s, i, h in cases:
            got = outcome(taped_row, s, i, h)
            assert got == outcome(propagator, s, i, h), (s, i, h)
            blowups += got.startswith("('blowup'")
        assert blowups >= 5

    @given(**CAUSTIC_DRAWS)
    @settings(max_examples=60, deadline=None)
    def test_blows_up_where_propagator_does(self, m, k, S20, step, T, zero_amplitude):
        spec, init = caustic_case(m, k, S20, T, zero_amplitude)
        assert outcome(taped_row, spec, init, step) == outcome(propagator, spec, init, step)

    def test_pullback_matches_the_tangents(self):
        # the seed times tangent's rows, within 1e-12 of the largest product
        rng = np.random.default_rng(8)
        for spec, init, step in pin_cases():
            for start in (init, replace(init, sigma20=0.0)):
                row, slopes, _ = tangent(spec, start, step)
                end, pullback = taped(spec, start, step)
                assert end == row
                seed = tuple(map(float, rng.uniform(-1.0, 1.0, 8)))
                for got, slope in zip(pullback(seed), slopes):
                    terms = [a * b for a, b in zip(seed, slope)]
                    want = math.fsum(terms)
                    assert abs(got - want) <= 1e-12 * max(map(abs, terms)), (spec, start, step)

    def test_long_run_takes_a_tangent_run(self, monkeypatch):
        # past TAPE_STEPS no tape is kept: ``taped`` refuses the run, and the
        # search point takes one tangent run along the searched coordinates,
        # whose gradient is the taped run's within 1e-12 and whose rows the
        # check reads without a further run
        spec, init, step = next(c for c in pin_cases() if c[0].hbar_tilde > 0.0)
        base, idx, weight = init.as_tuple(), [0, 1], 0.5
        z = np.array([base[i] for i in idx])
        _, (_, want), _ = extremize._centre(spec, base, idx, z, weight, step, True)
        monkeypatch.setattr(dynamics, "TAPE_STEPS", 3)
        with pytest.raises(ValueError, match="TAPE_STEPS = 3"):
            taped(spec, init, step)
        runs = []

        def counted(*args):
            runs.append(args[3])
            return tangent(*args)

        def refuse(*args):
            raise AssertionError("a run other than the tangent one")

        monkeypatch.setattr(extremize, "tangent", counted)
        for name in ("taped", "propagator", "integrate"):
            monkeypatch.setattr(extremize, name, refuse)
        z, at, run = extremize._centre(spec, base, idx, z, weight, step, True)
        assert runs == [["S20"]] and len(run[1][0]) == 1
        assert np.all(np.abs(at[1] - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        point = extremize._embed(base, idx, z)
        extremize.stationarity_check(point, spec, ("S10", "S20"), weight, step, centre=(at, run))
        assert runs == [["S20"]]

    def test_state_cotangent_is_the_transpose_of_the_state_tangent(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            first = tuple(map(float, rng.uniform(-2.0, 2.0, 4)))
            m, a2 = rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)
            y = (rng.uniform(0.2, 3.0), *rng.uniform(-2.0, 2.0, 7))
            dy, dg20 = tuple(rng.uniform(-1.0, 1.0, 8)), rng.uniform(-1.0, 1.0)
            w = tuple(rng.uniform(-1.0, 1.0, 8))
            forward = [a * b for a, b in zip(w, _state_tangent(first, m, a2, y, dy, dg20))]
            row_bar, g20_bar = _state_cotangent(first, m, a2, y, w)
            backward = [a * b for a, b in zip(row_bar, dy)] + [g20_bar * dg20]
            scale = max(map(abs, forward + backward))
            assert abs(math.fsum(forward) - math.fsum(backward)) <= 1e-13 * scale


def general_kernel(y, h, K):
    """The full row's step of a zero-amplitude row; C = 1 and St = Jcs =
    Jss = I2 = 0 must hold after every step."""
    row = ROW_STEP(dynamics._u_row(y), h, K)
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
        partial = err.partial and (err.partial.times, err.partial.rows)
        return repr(("blowup", err.t_last, partial))
    if isinstance(result, dynamics.SolutionGrid):
        return repr((result.times, result.rows))
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
        assert dynamics._kernel(*ZERO_KERNEL)(vals, 0.01, K) == want

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
                swap_kernel(patch, ZERO_KERNEL, lambda inner: general_kernel)
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
                assert grid.rows[-1] == fast, (step, hbar)


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
        assert adaptive.times[0] == 0.0
        assert np.all(np.diff(adaptive.times) > 0)
        assert adaptive.row(-1)[1] == pytest.approx(fixed.row(-1)[1], abs=1e-8)

    def test_quantum_run(self, spec):
        s = replace(spec, hbar_tilde=0.5)
        init = InitialData(1.0, 0.0, 0.3, 0.7)
        fixed = integrate(s, init, step=5e-4)
        adaptive = integrate(s, init, step=1e-2, method="rk4_adaptive")
        assert adaptive.row(-1)[1] == pytest.approx(fixed.row(-1)[1], abs=1e-8)
        assert adaptive.row(-1)[5] == pytest.approx(fixed.row(-1)[5], abs=1e-8)

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

        def count(rk4_step):
            def counted(y, *args):
                row = rk4_step(y, *args)
                if row is None:
                    rejected.append(y)
                return row

            return counted

        swap_kernel(monkeypatch, ZERO_KERNEL, count)
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
        assert grid.times[1] >= 1e-12
        assert grid.rows[-1] == integrate(spec, init, step=1e-12, method="rk4_adaptive").rows[-1]


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

    @pytest.mark.parametrize("hbar_tilde, init, t_probe", [
        (0.0, InitialData(S10=1.0), 0.5),
        (0.5, InitialData(1.0, 0.0, 0.3, 0.7), 0.7),
    ])
    def test_order_from_end_rows_of_kept_grids(self, spec, hbar_tilde, init, t_probe):
        # the probe reads the end state of plain runs: bit for bit the last
        # row of the fixed-step trajectory at each step
        s = replace(spec, hbar_tilde=hbar_tilde, T=t_probe)
        v = [integrate(s, init, step=h, method="rk4").row(-1)[1] for h in (0.025, 0.0125, 0.00625)]
        want = math.log2(abs(v[0] - v[1]) / abs(v[1] - v[2]))
        assert convergence_order(replace(s, T=1.0), init, t_probe=t_probe) == want

    def test_blow_up_propagates(self):
        spec = OscillatorSpec(T=1.5)
        init = InitialData(S10=1.0, S20=t0_to_S20(-0.157, spec))
        with pytest.raises(BlowUpError) as exc:
            convergence_order(spec, init, t_probe=1.5)
        # where the coarsest kept grid stops
        with pytest.raises(BlowUpError) as grid:
            integrate(spec, init, step=0.025)
        assert exc.value.t_last == grid.value.t_last


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
        for token, expected in zip(rows[-1].split(","), [1.0, *grid.rows[-1][:7]]):
            assert float(token) == float(expected)

    def test_footer_comment(self, spec, classical_init, tmp_path):
        grid = integrate(spec, classical_init, step=0.5)
        path = tmp_path / "grid.csv"
        grid.to_csv(path, footer="BLOWUP last_good_t=0.5")
        assert path.read_text().rstrip().endswith("# BLOWUP last_good_t=0.5")
        assert "\r" not in path.read_text()

    def test_blocks_equal_the_per_row_formula(self):
        # grids of 1 row (a start past BLOWUP_LIMIT), of CSV_BLOCK rows and
        # one more, and a partial caustic grid of more than one block
        spec, init = OscillatorSpec(hbar_tilde=0.4), InitialData(1.0, 0.2, 0.3, 0.8)
        with pytest.raises(BlowUpError) as one:
            integrate(spec, InitialData(S10=2e12), 0.25)
        caustic = OscillatorSpec(T=1.5)
        with pytest.raises(BlowUpError) as cut:
            integrate(caustic, InitialData(S10=1.0, S20=t0_to_S20(-0.157, caustic)), 1e-3)
        grids = [one.value.partial, integrate(spec, init, 1.0 / (dynamics.CSV_BLOCK - 1)),
                 integrate(spec, init, 1.0 / dynamics.CSV_BLOCK), cut.value.partial]
        assert [len(g) for g in grids[:3]] == [1, dynamics.CSV_BLOCK, dynamics.CSV_BLOCK + 1]
        assert len(grids[3]) > dynamics.CSV_BLOCK and not grids[3].complete
        row = ",".join(["%.17g"] * 8) + "\n"
        for grid in grids:
            buf = StringIO()
            grid.write_csv(buf, footer="end")
            lines = buf.getvalue().splitlines(True)
            # the oracle: one % per row
            want = [row % (t, *y[:7]) for t, y in zip(grid.times, grid.rows)]
            assert lines[4:] == want + ["# end\n"], len(grid)
