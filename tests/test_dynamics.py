import math
from dataclasses import FrozenInstanceError, replace
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
from qap.dynamics import BLOWUP_LIMIT, METHODS, _rk4_step, _stage, _start, final_state, propagator
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
        vals=st.lists(st.floats(-3, 3), min_size=4, max_size=4),
        hbar=st.floats(0, 2),
    )
    @settings(max_examples=100)
    def test_unrolled_step_matches_stage_reference(self, vals, hbar):
        # the hand-unrolled RK4 body must stay in lockstep with _stage
        s = OscillatorSpec(m=1.3, k=0.8, hbar_tilde=hbar)
        m_inv = 1.0 / s.m
        hh = s.hbar_tilde**2 * 0.5 * m_inv
        y = (*vals, 0.1, 0.2, 0.3, 0.4)
        h = 0.01

        def ref_step(y, h):
            # generic tuple-based RK4 over all eight components
            def at(y0, w, d):
                return tuple(y0[i] + w * d[i] for i in range(8))
            def full(yy):
                return _stage(yy[0], yy[1], yy[2], yy[3], m_inv, s.k, hh)
            k1 = full(y)
            k2 = full(at(y, 0.5 * h, k1))
            k3 = full(at(y, 0.5 * h, k2))
            k4 = full(at(y, h, k3))
            return tuple(
                y[i] + h / 6.0 * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i])
                for i in range(8)
            )

        fast = _rk4_step(y, h, m_inv, s.k, hh)
        slow = ref_step(y, h)
        for a, b in zip(fast, slow):
            assert a == pytest.approx(b, rel=1e-15, abs=1e-15)


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


#: each kernel with a run it drives and the length of its row
KERNELS = [
    ("_rk4_step", lambda s, i: final_state(s, i, step=0.25), 8),
    ("_rk4_step", lambda s, i: integrate(s, i, step=0.25, method="rk4_adaptive").data[-1], 8),
    ("_propagator_step", lambda s, i: propagator(s, i, step=0.25), 17),
]
PAST_LIMIT = [math.nan, math.inf, -math.inf, math.nextafter(BLOWUP_LIMIT, math.inf),
              -math.nextafter(BLOWUP_LIMIT, math.inf)]


@pytest.mark.parametrize("kernel, run, width", KERNELS, ids=["fixed", "adaptive", "propagator"])
class TestBoundCheck:
    """Each kernel bounds every component of its new row by BLOWUP_LIMIT.

    The kernel is wrapped so that its new row is its input with one
    component replaced (a step of length 0): values past the limit, NaN
    and +-inf must blow the run up, +-BLOWUP_LIMIT itself must not.
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
    def test_past_limit_blows_up(self, monkeypatch, spec, kernel, run, width, value):
        for component in range(width):
            self.inject(monkeypatch, kernel, component, value)
            with pytest.raises(BlowUpError):
                run(spec, InitialData(1.0, 0.2, 0.3, 0.8))
            monkeypatch.undo()

    @pytest.mark.parametrize("value", [BLOWUP_LIMIT, -BLOWUP_LIMIT])
    def test_limit_itself_is_kept(self, monkeypatch, spec, kernel, run, width, value):
        for component in range(width):
            self.inject(monkeypatch, kernel, component, value)
            assert run(spec, InitialData(1.0, 0.2, 0.3, 0.8))[component] == value
            monkeypatch.undo()


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


class TestPropagator:
    def test_riccati_pair_bit_equal_to_final_state(self):
        for spec, init, step in pin_cases():
            row, state = propagator(spec, init, step), final_state(spec, init, step)
            # S2, sigma2 and the integral of S2
            assert (row[0], row[1], row[16]) == (state[1], state[3], state[7])

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
                    model = value + grad @ du + 0.5 * np.asarray(du) @ hess @ du
                    assert abs(model - want) <= 1e-12 * abs(want), (spec, init, step, du)

    def test_caustic_blows_up_where_final_state_does(self):
        cfg = load_config(ROOT / "configs" / "caustic.ini")
        with pytest.raises(BlowUpError) as a:
            final_state(cfg.spec, cfg.init, cfg.step)
        with pytest.raises(BlowUpError) as b:
            propagator(cfg.spec, cfg.init, cfg.step)
        assert b.value.t_last == a.value.t_last < cfg.spec.T
        assert b.value.partial is None


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
        # and cut, and the shorter steps close in on the pole
        rejected = []
        rk4_step = dynamics._rk4_step

        def counted(y, *args):
            row = rk4_step(y, *args)
            if row is None:
                rejected.append(y)
            return row

        monkeypatch.setattr(dynamics, "_rk4_step", counted)
        with pytest.raises(BlowUpError) as exc:
            integrate(OscillatorSpec(T=1.5), InitialData(S10=1.0, S20=-5.0), step=0.5,
                      method="rk4_adaptive")
        assert len(rejected) == 1
        assert abs(exc.value.t_last - math.atan(0.2)) <= 1e-8


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
