import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qap import (
    ClassicalParams,
    InitialData,
    OscillatorSpec,
    ResonanceError,
    SingularityError,
    ZeroStiffnessError,
    eigenvalue,
    integrate,
    lambda_classical,
    lambda_star,
    s1_closed,
    s2_closed,
    s10_star,
    t0_to_S20,
)


class TestClosedForms:
    def test_s2_vanishes_at_offset(self, spec):
        assert s2_closed(0.5, ClassicalParams(1.0, 0.5), spec) == 0.0

    def test_s2_tangent_value(self, spec):
        val = s2_closed(0.5, ClassicalParams(1.0, 0.0), spec)
        assert val == pytest.approx(-math.tan(0.5), abs=1e-15)
        assert val == pytest.approx(-0.5463024898437905, abs=1e-12)

    def test_s1_value(self, spec):
        # 2*cos(0.3)/cos(0.4)
        val = s1_closed(0.7, ClassicalParams(2.0, 0.3), spec)
        assert val == pytest.approx(2.0 * math.cos(0.3) / math.cos(0.4), rel=1e-15)
        assert val == pytest.approx(2.0744261136795323, abs=1e-12)

    def test_s2_initial_value_matches_offset_map(self, spec):
        for t0 in (-0.8, -0.3, 0.0, 0.2, 0.45, 0.9):
            assert s2_closed(0.0, ClassicalParams(1.0, t0), spec) == pytest.approx(
                t0_to_S20(t0, spec), abs=1e-12
            )

    def test_singular_near_quarter_period(self, spec):
        with pytest.raises(SingularityError):
            s2_closed(math.pi / 2.0, ClassicalParams(1.0, 0.0), spec)

    def test_zero_stiffness_routed_to_ode_path(self):
        free = OscillatorSpec(k=0.0)
        with pytest.raises(ZeroStiffnessError):
            s1_closed(0.5, ClassicalParams(1.0, 0.0), free)
        with pytest.raises(ZeroStiffnessError):
            lambda_star(free)

    def test_closed_forms_solve_the_flow(self, spec, derivatives):
        # substitute into the phase equations: residual of central-difference
        # derivatives against the right-hand side stays below 1e-9
        params = ClassicalParams(1.3, 0.35)
        h = 1e-6
        for t in [0.05 * i for i in range(1, 20)]:
            s1p = (s1_closed(t + h, params, spec) - s1_closed(t - h, params, spec)) / (2 * h)
            s2p = (s2_closed(t + h, params, spec) - s2_closed(t - h, params, spec)) / (2 * h)
            d = derivatives(spec, s1_closed(t, params, spec), s2_closed(t, params, spec))
            assert abs(s1p - d.S1) <= 1e-9
            assert abs(s2p - d.S2) <= 1e-9


class TestEigenvalueClosedForm:
    def test_trivial_zero(self):
        spec = OscillatorSpec(x0=0.0, xT=0.0)
        assert lambda_classical(ClassicalParams(0.0, 0.3), spec) == 0.0

    def test_reference_point(self, spec):
        val = lambda_classical(ClassicalParams(1.188395, 0.5), spec)
        assert val == pytest.approx(0.321046, abs=1e-6)
        assert val == pytest.approx(0.3210463079671607, abs=1e-12)

    def test_agrees_with_ode_quadrature_path(self, spec):
        t0 = 0.5
        s10 = s10_star(t0, spec)
        closed = lambda_classical(ClassicalParams(s10, t0), spec)
        init = InitialData(S10=s10, S20=t0_to_S20(t0, spec))
        ode = eigenvalue(integrate(spec, init, step=1e-3)).lam
        assert ode == pytest.approx(closed, abs=1e-6)

    def test_singularity_guards(self, spec):
        with pytest.raises(SingularityError):
            lambda_classical(ClassicalParams(1.0, math.pi / 2.0), spec)
        with pytest.raises(SingularityError):
            lambda_classical(ClassicalParams(1.0, 1.0 - math.pi / 2.0), spec)


class TestStationaryS10:
    def test_zero_boundary(self):
        spec = OscillatorSpec(x0=0.0, xT=0.0)
        assert s10_star(0.3, spec) == 0.0

    def test_reference_value(self, spec):
        assert s10_star(0.5, spec) == pytest.approx(1.0 / math.sin(1.0), rel=1e-15)
        assert s10_star(0.5, spec) == pytest.approx(1.1883951057781212, abs=1e-12)

    def test_is_stationary_point_of_closed_form(self, spec):
        h = 1e-6
        for t0 in (0.1, 0.3, 0.5, 0.7, 0.9):
            star = s10_star(t0, spec)
            up = lambda_classical(ClassicalParams(star + h, t0), spec)
            down = lambda_classical(ClassicalParams(star - h, t0), spec)
            assert abs((up - down) / (2 * h)) <= 1e-8

    def test_resonance_rejected(self):
        with pytest.raises(ResonanceError):
            s10_star(0.5, OscillatorSpec(T=math.pi))


class TestDegenerateEigenvalue:
    def test_zero_boundary(self):
        assert lambda_star(OscillatorSpec(x0=0.0, xT=0.0)) == 0.0

    def test_reference_value(self, spec):
        # cos(1)/(2 sin(1))
        assert lambda_star(spec) == pytest.approx(
            math.cos(1.0) / (2.0 * math.sin(1.0)), rel=1e-15
        )
        assert lambda_star(spec) == pytest.approx(0.3210463079671654, abs=1e-14)

    def test_small_stiffness_approaches_free_particle_action(self):
        # independent oracle: m*(xT-x0)^2/(2T)
        spec = OscillatorSpec(k=1e-12)
        assert lambda_star(spec) == pytest.approx(0.5, abs=1e-5)

    def test_degeneracy_across_offsets(self, spec):
        target = lambda_star(spec)
        for i in range(17):
            t0 = 0.1 + i * 0.05
            val = lambda_classical(ClassicalParams(s10_star(t0, spec), t0), spec)
            assert val == pytest.approx(target, abs=1e-10)

    def test_resonance_rejected(self):
        with pytest.raises(ResonanceError):
            lambda_star(OscillatorSpec(T=math.pi))

    @given(
        x0=st.floats(-3, 3),
        xT=st.floats(-3, 3),
        m=st.floats(0.1, 10),
        k=st.floats(0.1, 10),
        T=st.floats(0.2, 2.5),
    )
    @settings(max_examples=150)
    def test_boundary_swap_symmetry(self, x0, xT, m, k, T):
        assume(abs(math.sin(math.sqrt(k / m) * T)) > 1e-6)
        a = lambda_star(OscillatorSpec(m=m, k=k, T=T, x0=x0, xT=xT))
        b = lambda_star(OscillatorSpec(m=m, k=k, T=T, x0=xT, xT=x0))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
