import json
import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qap import (
    InitialData,
    OscillatorSpec,
    S20_to_t0,
    SingularityError,
    ValidationError,
    ZeroFrequencyError,
    omega0,
    resonant,
    t0_to_S20,
    validate,
    validation_errors,
)


class TestValidate:
    def test_default_spec_is_valid(self, spec):
        assert validate(spec) == spec
        assert validation_errors(spec) == []

    def test_zero_mass_rejected(self):
        with pytest.raises(ValidationError) as exc:
            validate(OscillatorSpec(m=0.0))
        assert "NonPositiveMass" in exc.value.violations

    def test_all_violations_reported_at_once(self):
        bad = OscillatorSpec(m=-1.0, k=-1.0, hbar_tilde=-0.5, T=0.0)
        errors = validation_errors(bad)
        assert set(errors) == {
            "NonPositiveMass",
            "NonPositiveHorizon",
            "NegativeStiffness",
            "NegativeHbar",
        }

    def test_non_finite_rejected(self):
        assert validation_errors(OscillatorSpec(x0=math.nan)) == ["NonFinite"]
        assert validation_errors(OscillatorSpec(T=math.inf)) == ["NonFinite"]

    def test_resonance_is_warning_not_error(self):
        res = OscillatorSpec(T=math.pi)
        assert resonant(res)
        assert validate(res) == res

    def test_free_particle_not_resonant(self):
        assert not resonant(OscillatorSpec(k=0.0))

    def test_validate_idempotent(self, spec):
        assert validate(validate(spec)) == validate(spec)


class TestOmega0:
    @pytest.mark.parametrize(
        "m,k,expected", [(1.0, 1.0, 1.0), (1.0, 4.0, 2.0), (2.0, 0.0, 0.0)]
    )
    def test_values(self, m, k, expected):
        assert omega0(OscillatorSpec(m=m, k=k)) == expected

    @given(
        m=st.floats(1e-3, 1e3),
        k=st.floats(0.0, 1e3),
        c=st.floats(1e-3, 1e3),
    )
    def test_scaling_in_stiffness(self, m, k, c):
        # sqrt of a subnormal radicand has lost digits already, so the
        # property is false in floating point there
        for radicand in (k / m, c * c * k / m):
            assume(radicand == 0.0 or radicand >= sys.float_info.min)
        lhs = omega0(OscillatorSpec(m=m, k=c * c * k))
        rhs = c * omega0(OscillatorSpec(m=m, k=k))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


class TestPhaseOffsetMap:
    def test_zero_offset(self, spec):
        assert t0_to_S20(0.0, spec) == 0.0

    def test_half_offset_closed_form(self, spec):
        # oracle: sqrt(m*k)*tan(omega0*t0) = tan(0.5)
        assert t0_to_S20(0.5, spec) == pytest.approx(math.tan(0.5), abs=1e-15)
        assert t0_to_S20(0.5, spec) == pytest.approx(0.5463024898437905, abs=1e-12)

    def test_round_trip(self, spec):
        assert S20_to_t0(t0_to_S20(0.3, spec), spec) == pytest.approx(0.3, abs=1e-12)

    def test_round_trip_on_grid(self, spec):
        # principal branch: t0 in (-pi/2, pi/2) for omega0 = 1
        half = math.pi / 2.0
        for i in range(100):
            t0 = -0.99 * half + i * (1.98 * half) / 99
            assert S20_to_t0(t0_to_S20(t0, spec), spec) == pytest.approx(t0, abs=1e-12)

    @given(t0=st.floats(-1.5, 1.5))
    @settings(max_examples=200)
    def test_round_trip_property(self, t0):
        s = OscillatorSpec()
        back = S20_to_t0(t0_to_S20(t0, s), s)
        assert back == pytest.approx(t0, abs=1e-12)

    def test_forward_singular_at_quarter_period(self):
        s = OscillatorSpec(m=1.0, k=1.0)
        with pytest.raises(SingularityError):
            t0_to_S20(math.pi / 2.0, s)

    def test_inverse_needs_positive_frequency(self):
        with pytest.raises(ZeroFrequencyError):
            S20_to_t0(1.0, OscillatorSpec(k=0.0))

    def test_scaled_oscillator(self):
        # sqrt(m*k) = 2, omega0 = 2/2... m=4, k=1: omega0 = 0.5, sqrt(mk) = 2
        s = OscillatorSpec(m=4.0, k=1.0)
        assert t0_to_S20(0.8, s) == pytest.approx(2.0 * math.tan(0.4), rel=1e-14)


class TestSerialization:
    def test_spec_json_round_trip(self, spec):
        loaded = OscillatorSpec.from_dict(json.loads(spec.to_json()))
        assert loaded == spec

    def test_init_json_round_trip(self):
        init = InitialData(S10=1.25, S20=-0.5, sigma10=0.3, sigma20=0.7)
        loaded = InitialData.from_dict(json.loads(init.to_json()))
        assert loaded == init

    def test_init_as_tuple_order(self):
        init = InitialData(1.0, 2.0, 3.0, 4.0)
        assert init.as_tuple() == (1.0, 2.0, 3.0, 4.0)
