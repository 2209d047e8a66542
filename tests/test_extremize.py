import hashlib
import inspect
import json
import logging
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

from qap import (
    BlowUpError,
    FDFailureError,
    InitialData,
    OscillatorSpec,
    eigenvalue,
    integrate,
    lambda_star,
    objective,
    optimize,
    s10_star,
    stationarity_check,
    t0_to_S20,
)
import qap.extremize as extremize
from qap.action import endpoint_report
from qap.dynamics import _n_steps, _state_tangent, propagator, tangent
from qap.extremize import BLOWUP_PENALTY, endpoint_models, parse_active
from qap.model import COORD_NAMES, flow_coefficients

#: relative step of the difference oracles: first differences take steps of
#: FD_STEP, second differences steps of sqrt(FD_STEP) * max(1, |coord|)
FD_STEP = 1e-5


class TestParseActive:
    def test_default_all_four(self):
        assert parse_active(None) == (True, True, True, True)

    def test_names(self):
        assert parse_active(("S10", "S20")) == (True, True, False, False)
        assert parse_active(["sigma20"]) == (False, False, False, True)

    def test_comma_string(self):
        assert parse_active("S10, sigma10") == (True, False, True, False)

    def test_bool_tuple(self):
        assert parse_active((True, False, True, False)) == (True, False, True, False)
        assert parse_active(np.array([True, False, True, False])) == (True, False, True, False)

    def test_rejects_unknown_and_empty(self):
        with pytest.raises(ValueError):
            parse_active(("S10", "S99"))
        with pytest.raises(ValueError):
            parse_active("")
        with pytest.raises(ValueError):
            parse_active((False, False, False, False))


class TestObjective:
    def test_classical_reference_point(self, spec):
        init = InitialData(S10=1.188395, S20=math.tan(0.5))
        assert objective(init, spec) == pytest.approx(0.321046, abs=1e-6)

    def test_trivial_zero(self):
        spec = OscillatorSpec(x0=0.0, xT=0.0)
        assert objective(InitialData(), spec) == 0.0

    def test_penalty_inert_when_residual_vanishes(self, spec):
        # at t0 = T/2 the constraint residual is ~0, so the penalty term
        # is far below double resolution
        init = InitialData(S10=1.0, S20=t0_to_S20(0.5, spec))
        assert objective(init, spec, penalty_weight=0.0) == objective(
            init, spec, penalty_weight=10.0
        )

    def test_penalty_active_otherwise(self, spec):
        init = InitialData(S10=1.0, S20=0.0)
        base = objective(init, spec, penalty_weight=0.0)
        penalized = objective(init, spec, penalty_weight=1.0)
        assert penalized > base

    def test_blow_up_maps_to_penalty(self):
        spec = OscillatorSpec(T=1.5)
        init = InitialData(S10=1.0, S20=t0_to_S20(-0.157, spec))
        assert objective(init, spec) == BLOWUP_PENALTY

    def test_adaptive_route_agrees(self, spec):
        init = InitialData(S10=1.0, S20=0.2, sigma10=0.1, sigma20=0.4)
        s = replace(spec, hbar_tilde=0.3)
        a = objective(init, s, step=1e-3)
        b = eigenvalue(integrate(s, init, step=1e-2, method="rk4_adaptive")).lam
        assert b == pytest.approx(a, abs=1e-8)


class TestOptimizeClassical:
    def test_from_origin_reaches_degenerate_value(self, spec):
        res = optimize(spec, InitialData(), active=("S10", "S20"))
        assert res.converged
        assert res.gradient_norm <= 1e-6
        assert res.report.lam == pytest.approx(lambda_star(spec), abs=1e-6)
        assert res.hessian_signature is not None
        # maximum along S10, exactly flat along the offset direction
        assert res.hessian_signature.negative == 1
        assert res.hessian_signature.near_zero == 1

    def test_random_guesses_land_on_same_eigenvalue(self, spec):
        # the offset direction is degenerate: endpoints spread out while
        # the eigenvalue collapses to one number
        rng = np.random.default_rng(7)
        lams, s20s = [], []
        for _ in range(5):
            g = rng.uniform(-2.0, 2.0, size=2)
            res = optimize(
                spec, InitialData(S10=g[0], S20=g[1]), active=("S10", "S20"), step=5e-3
            )
            assert res.converged
            lams.append(res.report.lam)
            s20s.append(res.init.S20)
        assert max(lams) - min(lams) <= 1e-5
        assert max(s20s) - min(s20s) > 0.1

    def test_zero_boundary_trivial_extremum(self):
        spec = OscillatorSpec(x0=0.0, xT=0.0)
        res = optimize(spec, InitialData(), active=("S10", "S20"))
        assert res.converged
        assert res.iterations == 0  # already stationary at the guess
        assert res.report.lam == 0.0
        assert abs(res.init.S10) <= 1e-9

    def test_escapes_blow_up_plateau(self, spec):
        # guess sits beyond the caustic wall; the ramped penalty steers
        # the simplex back into integrable territory
        res = optimize(spec, InitialData(S10=0.0, S20=-2.0), active=("S10", "S20"),
                       step=1e-2)
        assert res.converged
        assert res.blowups > 0
        assert res.report.lam == pytest.approx(lambda_star(spec), abs=1e-5)

    @pytest.mark.parametrize("t0", [0.3, 0.7])
    def test_frozen_offset_matches_closed_form_stationary_point(self, spec, t0):
        guess = InitialData(S10=0.0, S20=t0_to_S20(t0, spec))
        res = optimize(spec, guess, active=("S10",))
        assert res.converged
        assert res.init.S20 == guess.S20  # frozen coordinate untouched
        assert res.init.S10 == pytest.approx(s10_star(t0, spec), abs=1e-6)
        assert res.report.lam == pytest.approx(lambda_star(spec), abs=1e-8)

    def test_not_converged_returned_not_raised(self, spec):
        # S10 alone is solved exactly; away from the classical limit S20
        # is not flat, and one simplex iteration does not reach stationarity
        res = optimize(
            replace(spec, hbar_tilde=0.5), InitialData(S10=-3.0, sigma20=1.0),
            active=("S10", "S20"), max_iter=1, restarts=1, step=1e-2,
        )
        assert not res.converged
        assert res.report is not None

    def test_blown_up_best_point_raises_with_partial_grid(self, spec):
        # behind the caustic wall, one iteration finds no integrable point,
        # so no record holds the report; it needs a complete run, so the
        # integrate for it raises
        with pytest.raises(BlowUpError) as exc:
            optimize(spec, InitialData(S20=-2.0), active=("S10", "S20"),
                     max_iter=1, restarts=1)
        partial = exc.value.partial
        assert partial is not None
        assert not partial.complete
        assert float(partial.times[-1]) == exc.value.t_last < spec.T

    def test_determinism_bit_identical_json(self, spec):
        kwargs = dict(active=("S10",), step=5e-3, seed=123)
        a = optimize(spec, InitialData(S10=-1.0), **kwargs)
        b = optimize(spec, InitialData(S10=-1.0), **kwargs)
        assert a.to_json() == b.to_json()

    def test_json_payload_fields(self, spec):
        res = optimize(spec, InitialData(), active=("S10",), step=1e-2)
        payload = json.loads(res.to_json())
        assert payload["seed"] == 42
        assert payload["active"] == ["S10"]
        assert payload["converged"] is True
        assert set(payload["report"]) == {
            "lambda", "boundary_term", "kinetic_term", "quantum_term",
            "constraint_residual",
        }


@pytest.fixture
def solves(monkeypatch):
    """List that grows by one entry per ODE solve, propagator, taped or
    tangent run the extremizer makes: the run's step. ``len`` counts the
    runs, ``steps`` their RK4 steps."""
    calls = []
    for name in ("final_state", "integrate", "propagator", "tangent", "taped"):
        inner = getattr(extremize, name)

        def counted(*args, _inner=inner, **kwargs):
            bound = inspect.signature(_inner).bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments["step"])
            return _inner(*args, **kwargs)

        monkeypatch.setattr(extremize, name, counted)
    return calls


def steps(spec, solves) -> int:
    """RK4 steps of the runs ``solves`` recorded over ``spec``'s horizon."""
    return sum(_n_steps(spec.T, step) for step in solves)


#: where the penalised search at hbar_tilde = 0.3, weight 0.5, h = 2e-2 from
#: (1.0, 0.5, 0.1, 0.4) converged with the plain four-coordinate Nelder-Mead
#: search (371 iterations, 5766 solves); lambda on the linear row (it was
#: 0.28461699919073352 on the Riccati kernel, 1.9e-9 away at this step)
PENALISED_LAMBDA = 0.28461699726197
PENALISED_INIT = (1.1527523364744867, 0.4368528249248399, -0.47347624342850492,
                  -1.7964455363771274)


def penalised_search(spec, guess, max_iter, restarts):
    return optimize(
        replace(spec, hbar_tilde=0.3), InitialData(*guess), penalty_weight=0.5,
        step=2e-2, max_iter=max_iter, restarts=restarts,
    )


#: entries of at most 1e3 and, but for 0, at least 1e-6, so no solution overflows
ENTRY = st.floats(-1e3, 1e3).map(lambda v: v if abs(v) >= 1e-6 else 0.0)


@st.composite
def symmetric_systems(draw):
    """A symmetric system of order 1 or 2 and its right-hand side, as the
    triple and the pair ``_min_norm_step`` takes (a 1x1 system has a zero
    second row and column): regular, zero, exactly rank 1, or with its
    small eigenvalue a fixed ratio of its large one, on either side of
    lstsq's cutoff."""
    g = draw(st.tuples(ENTRY, ENTRY))
    kind = draw(st.sampled_from(["1x1", "regular", "zero", "rank1", "diagonal", "rotated"]))
    if kind == "1x1":
        return (draw(ENTRY), 0.0, 0.0), (g[0], 0.0)
    if kind == "regular":
        return draw(st.tuples(ENTRY, ENTRY, ENTRY)), g
    if kind == "zero":
        return (0.0, 0.0, 0.0), g
    if kind == "rank1":
        # integer entries: the matrix is exactly singular
        lam = draw(st.integers(1, 1000)) * draw(st.sampled_from([-1.0, 1.0]))
        p, q = draw(st.integers(-64, 64)), draw(st.integers(-64, 64))
        return (lam * p * p, lam * p * q, lam * q * q), g
    lam = draw(st.floats(1e-3, 1e3)) * draw(st.sampled_from([-1.0, 1.0]))
    small = lam * draw(st.sampled_from([0.0, 1e-18, 1e-17, 2e-16, 1e-15, 1e-12, -1e-12, 1e-6]))
    if kind == "diagonal":
        return ((lam, 0.0, small) if draw(st.booleans()) else (small, 0.0, lam)), g
    theta = draw(st.floats(0.0, math.pi))
    c, s = math.cos(theta), math.sin(theta)
    return (lam * c * c + small * s * s, (lam - small) * c * s, lam * s * s + small * c * c), g


class TestScalarProjection:
    @given(system=symmetric_systems())
    @example(system=((0.0, 0.0, 0.0), (1.0, -2.0)))
    @example(system=((0.0, 0.0, 0.0), (3.0, 0.0)))  # h = 0 in 1x1
    @example(system=((-2.5, 0.0, 0.0), (1.0, 0.7)))  # the classical flat valley
    @example(system=((4.0, 2.0, 1.0), (1.0, 1.0)))  # rank 1
    @example(system=((1.0, 0.0, 1e-17), (1.0, 1.0)))  # below the cutoff
    @example(system=((1.0, 0.0, 1e-15), (1.0, 1.0)))  # above it
    @settings(max_examples=300)
    def test_min_norm_step_matches_lstsq(self, system):
        # the same minimum-norm solution as lstsq with its default cutoff,
        # within the roundoff the system's conditioning allows
        (a, b, c), g = system
        order = 1 if b == c == g[1] == 0.0 else 2
        H = np.array([[a, b], [b, c]])[:order, :order]
        rhs = -np.asarray(g)[:order]
        sv = np.linalg.svd(H, compute_uv=False)
        cut = 2.0 * np.finfo(float).eps * sv[0]
        # a singular value within a factor 4 of the cutoff may round to either side
        assume(not np.any((sv > cut / 4.0) & (sv < 4.0 * cut)))
        ref = np.linalg.lstsq(H, rhs, rcond=None)[0]
        x = np.asarray(extremize._min_norm_step((a, b, c), g))
        if order == 1:
            assert x[1] == 0.0
        kept = sv[sv > cut]
        if len(kept) == 0:
            assert np.all(x == 0.0)
            return
        kappa = kept[0] / kept[-1]
        scale = np.abs(ref).max() + np.abs(rhs).max() / kept[-1]
        tol = 64.0 * np.finfo(float).eps * kappa * scale
        assert np.abs(x[:order] - ref).max() <= tol

    def test_min_norm_step_refuses_non_finite_input(self):
        for H, g in (((math.inf, 0.0, 1.0), (1.0, 1.0)), ((1.0, 0.0, 1.0), (math.nan, 0.0))):
            assert extremize._min_norm_step(H, g) is None

    @pytest.mark.parametrize("case", ["penalised", "flat-sigma10", "classical-guess"])
    def test_no_linear_algebra_call_per_point(self, spec, monkeypatch, case):
        # the projection runs on Python floats: only the certificate's
        # eigvalsh is left of numpy's linear algebra
        def refuse(*args, **kwargs):
            raise AssertionError("linear-algebra call")

        for name in ("lstsq", "solve", "pinv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        if case == "penalised":
            res = penalised_search(spec, (1.0, 0.5, 0.1, 0.4), 400, 3)
        elif case == "flat-sigma10":
            guess = InitialData(S10=0.0, S20=t0_to_S20(0.3, spec), sigma10=0.7)
            res = optimize(spec, guess, active=("S10", "sigma10"))
        else:
            res = optimize(spec, InitialData(S10=0.0, S20=t0_to_S20(0.5, spec)),
                           active=("S10", "S20"), step=1e-3)
        assert res.converged


class TestVariableProjection:
    def test_eigenvalue_exactly_quadratic_in_linear_coordinates(self, spec):
        # the invariant the projection rests on: RK4 keeps the (S1, sigma1)
        # block linear, so the discrete eigenvalue is quadratic in
        # (S10, sigma10) at every hbar_tilde
        s = replace(spec, hbar_tilde=0.4, x0=0.2)
        base = InitialData(S10=0.5, S20=0.3, sigma10=0.2, sigma20=0.8)
        d = 0.3

        def lam(a, b, c=0):
            return objective(
                replace(base, S10=base.S10 + a * d, sigma10=base.sigma10 + b * d,
                        S20=base.S20 + c * d),
                s, step=1e-2,
            )

        cubic = (1.0, -3.0, 3.0, -1.0)
        along_s10 = sum(w * lam(3 - i, 0) for i, w in enumerate(cubic))
        along_sigma10 = sum(w * lam(0, 3 - i) for i, w in enumerate(cubic))
        # mixed third differences: second along one coordinate, first along the other
        second = (1.0, -2.0, 1.0)
        mixed_a = sum(w * (lam(2 - i, 1) - lam(2 - i, 0)) for i, w in enumerate(second))
        mixed_b = sum(w * (lam(1, 2 - i) - lam(0, 2 - i)) for i, w in enumerate(second))
        for third in (along_s10, along_sigma10, mixed_a, mixed_b):
            assert abs(third) <= 1e-12
        # S20 carries the Riccati nonlinearity: far from quadratic
        along_s20 = sum(w * lam(0, 0, 3 - i) for i, w in enumerate(cubic))
        assert abs(along_s20) > 1e-4

    def test_constraint_residual_exactly_quadratic_in_linear_coordinates(self, spec):
        # the penalised projection fits the constraint residual from the same
        # stencil, so it must be an exact quadratic in (S10, sigma10) too
        s = replace(spec, hbar_tilde=0.4, x0=0.2)
        base = InitialData(S10=0.5, S20=0.3, sigma10=0.2, sigma20=0.8)
        d = 0.3

        def res(a, b, c=0):
            init = replace(base, S10=base.S10 + a * d, sigma10=base.sigma10 + b * d,
                           S20=base.S20 + c * d)
            return eigenvalue(integrate(s, init, step=1e-2)).constraint_residual

        cubic = (1.0, -3.0, 3.0, -1.0)
        along_s10 = sum(w * res(3 - i, 0) for i, w in enumerate(cubic))
        along_sigma10 = sum(w * res(0, 3 - i) for i, w in enumerate(cubic))
        second = (1.0, -2.0, 1.0)
        mixed_a = sum(w * (res(2 - i, 1) - res(2 - i, 0)) for i, w in enumerate(second))
        mixed_b = sum(w * (res(1, 2 - i) - res(0, 2 - i)) for i, w in enumerate(second))
        for third in (along_s10, along_sigma10, mixed_a, mixed_b):
            assert abs(third) <= 1e-12
        along_s20 = sum(w * res(0, 0, 3 - i) for i, w in enumerate(cubic))
        assert abs(along_s20) > 1e-4

    def test_classical_guess_needs_no_simplex(self, spec, solves):
        guess = InitialData(S10=0.0, S20=t0_to_S20(0.5, spec))
        res = optimize(spec, guess, active=("S10", "S20"), step=1e-3)
        assert res.converged
        assert res.iterations == 0
        # 1 run: the guess's tangent run, which gives its gradient along S20,
        # the report and the certificate's Hessian from its second-order
        # row (3 when the check took two propagator runs at S20 +- hs for
        # its second differences; 4 with a final integrate for the report;
        # 3 solves and 3 propagator runs when the gradient took central
        # differences; 14 solves and 1 run when the check did too; 17
        # solves with the projection stencil)
        assert len(solves) <= 1
        assert res.report.lam == pytest.approx(lambda_star(spec), abs=1e-6)

    def test_classical_guess_is_certified_flat_along_the_offset(self):
        # task c00 of the classical-certify workload at seed 1: second
        # differences at S20 +- hs put the flat eigenvalue at +2.5e-6, past
        # the near-zero threshold, and reported (positive 1, negative 1);
        # the exact Hessian puts it at roundoff
        spec = OscillatorSpec(m=1.1158950989169694, k=0.4300923087269364, hbar_tilde=0.0,
                              T=1.0, x0=-0.9016356443965037, xT=0.4276259747151367)
        guess = InitialData(S10=0.8081419828233455, S20=t0_to_S20(0.5395523660384054, spec))
        res = optimize(spec, guess, active=("S10", "S20"), step=1e-3, seed=100)
        assert res.converged
        assert res.hessian_signature.to_dict() == {"positive": 0, "negative": 1, "near_zero": 1}
        rep = stationarity_check(res.init, spec, ("S10", "S20"), step=1e-3)
        flat, curved = sorted(np.linalg.eigvalsh(rep.hessian), key=abs)
        assert abs(flat) <= 1e-12
        assert curved == pytest.approx(-1.49848743, rel=1e-8)

    def test_flat_sigma10_in_classical_limit(self, spec):
        # at hbar_tilde = 0 the eigenvalue does not depend on sigma10: the
        # S1 solution started from sigma10 stays exactly 0, so the sigma10
        # row of the models is exactly zero and the minimum-norm step leaves
        # sigma10 where it is
        t0 = 0.3
        guess = InitialData(S10=0.0, S20=t0_to_S20(t0, spec), sigma10=0.7)
        res = optimize(spec, guess, active=("S10", "sigma10"))
        assert res.converged
        assert res.iterations == 0
        assert res.init.sigma10 == guess.sigma10
        assert res.init.S10 == pytest.approx(s10_star(t0, spec), abs=1e-6)
        assert res.report.lam == pytest.approx(lambda_star(spec), abs=1e-8)
        assert res.hessian_signature.negative == 1
        assert res.hessian_signature.near_zero == 1

    def test_penalty_free_search_unchanged(self, spec, solves, caplog):
        # without a penalty the projection is one minimum-norm step on the exact
        # quadratic. Along S20 this objective has no root: its gradient
        # decays like S20**-2 toward S20 = +inf (a 1e-13 reference gives
        # -5.6e-5 at S20 = 90.3, -9.9e-8 at 3000). The Riccati kernel's
        # under-resolution made a local minimum of |g| near S20 = 90.3, where
        # the search used to stop. Each attempt's descent walks out toward
        # S20 = +inf and stops where |g| < grad_tol but |g| * S20**2, the
        # gradient in 1/S20, no longer halves; Newton steps at h take the
        # point on to a gradient within grad_tol there (the 4h map
        # under-resolves this far out: at S20 = 511 its gradient is a third
        # of the one at h). No attempt finds a root, and the best of their
        # points, near S20 = 2.6e3, is returned unconverged. The search takes
        # 1,800 RK4 steps: 36 runs at h = 4e-2 and 9 at 1e-2, the check's
        # tangent run at the returned point among them, whose second-order
        # row gives the signature (17,325 in 219 runs when Nelder-Mead and
        # hybr walked out past S20 = 1e11 on the 4h map and hybr polished at
        # 1e-2; 18,700 steps, 187 runs, when every run was at 1e-2; with
        # second differences the check's first probe, at S20 + 3e9, blew up:
        # no signature; 184 runs with tangent runs; 185 with a final
        # integrate for the report; 189 runs, a signature and 11 blow-ups on
        # the numpy projection; 420 solves and propagator runs with central
        # differences along S20)
        caplog.set_level(logging.INFO, logger="qap")
        res = optimize(
            replace(spec, hbar_tilde=0.5), InitialData(S10=-3.0, sigma20=1.0),
            active=("S10", "S20"), step=1e-2,
        )
        work = steps(spec, solves)
        assert res.converged is False
        assert 1e3 < res.init.S20 < 1e4 and res.gradient_norm <= 1e-6
        gradient = stationarity_check(res.init, replace(spec, hbar_tilde=0.5), ("S10", "S20"),
                                      step=1e-2).gradient
        assert extremize._inverse_gradient(gradient, res.init.as_tuple()[:2], [1]) > 1e-6
        assert [r.getMessage().split(";")[0] for r in caplog.records] == [
            f"attempt {i}: no root" for i in range(5)]
        assert work <= 1_800
        # a maximum along S10 and flat along S20, where the gradient decays
        assert res.hessian_signature.to_dict() == {"positive": 0, "negative": 1, "near_zero": 1}
        assert (hashlib.sha256(res.to_json().encode()).hexdigest()
                == "9d5e984296d81b0505f522c9e9b7ef067d89dae21bdc28be12429c0725a29f80")

    def test_small_gradient_at_infinity_is_not_a_root(self, spec, caplog):
        # the same objective at h = 1e-3: the attempt ends near S20 ~ 1.4e3,
        # with |g| ~ 4e-7 but |g| * S20**2 ~ 0.8
        caplog.set_level(logging.INFO, logger="qap")
        s = replace(spec, hbar_tilde=0.5)
        res = optimize(s, InitialData(S10=-3.0, sigma20=1.0), active=("S10", "S20"), step=1e-3,
                       restarts=1)
        assert res.converged is False
        assert res.init.S20 > 1e3 and res.gradient_norm <= 1e-6
        gradient = stationarity_check(res.init, s, ("S10", "S20"), step=1e-3).gradient
        assert extremize._inverse_gradient(gradient, res.init.as_tuple()[:2], [1]) > 1e-6
        assert [r.getMessage().split(";")[0] for r in caplog.records] == ["attempt 0: no root"]

    def test_root_beyond_unit_coordinates_converges(self):
        # a penalised quantum root at S20 ~ 9.34, sigma20 ~ 11.30: the
        # gradient in 1/z does not refuse it, and it stays put when h is
        # halved. It is a saddle of the projected objective (reduced
        # eigenvalues -0.0115 and 0.053), which no descent converges to:
        # from this guess the descent walks out to S20 ~ 170 (at h = 1e-2),
        # a near-root of the 4h map where the Newton steps at h do not
        # reach a small gradient, so the attempt is made again at h alone,
        # whose Nelder-Mead and hybr find the saddle root
        spec = OscillatorSpec(m=1.79, k=0.266, hbar_tilde=0.578, x0=-0.818, xT=-0.637)
        guess = InitialData(0.63, 13.95, 0.21, 11.75)
        roots = []
        for step in (1e-2, 5e-3):
            res = optimize(spec, guess, penalty_weight=0.5, step=step, restarts=2)
            assert res.converged
            assert res.init.S20 > 5.0 and res.init.sigma20 > 5.0
            roots.append(np.array(res.init.as_tuple()))
        assert np.max(np.abs(roots[0] - roots[1])) < 1e-4
        assert res.report.lam == pytest.approx(1.3933833, abs=1e-6)

    def test_descent_from_near_a_saddle_root_finds_a_minimum(self):
        # from (0.222, 2.51, -0.320, 2.55), whose search converged to the
        # saddle root above when Nelder-Mead and hybr ran on the 4h map, the
        # descent finds the minimum at (S20, sigma20) ~ (-0.014, -1.243)
        spec = OscillatorSpec(m=1.79, k=0.266, hbar_tilde=0.578, x0=-0.818, xT=-0.637)
        res = optimize(spec, InitialData(0.222, 2.51, -0.320, 2.55), penalty_weight=0.5,
                       step=1e-2, restarts=2)
        assert res.converged
        assert (res.init.S20, res.init.sigma20) == (pytest.approx(-0.0138, abs=1e-3),
                                                   pytest.approx(-1.2434, abs=1e-3))
        assert res.report.lam == pytest.approx(-0.09984086, abs=1e-7)

    def test_newton_on_quartic_settles_or_gives_up(self):
        # lam = 2u - u^2 and r = u^2 / 2 at weight 1 give the gradient
        # u^3 - 2u + 2, whose Newton iterates from 0 cycle between 0 and 1
        # (the second member is inactive: its row is zero)
        models = (0.0, (2.0, 0.0), (-2.0, 0.0, 0.0)), (0.0, (0.0, 0.0), (1.0, 0.0, 0.0))
        assert extremize._newton_quartic(models, 1.0) is None
        # lam = u1 - u2 + u1 u2 and r = u1 + u2 - 1: Newton lands where the
        # model gradient vanishes
        gl, Hl = (1.0, -1.0), (0.0, 1.0, 0.0)
        gr, Hr = (1.0, 1.0), (0.0, 0.0, 0.0)
        u = extremize._newton_quartic(((0.0, gl, Hl), (-1.0, gr, Hr)), 0.5)
        r = -1.0 + np.dot(gr, u)
        assert np.max(np.abs(gl + symmetric(Hl) @ u + r * np.asarray(gr))) <= 1e-12
        # lam = u + 1e-200 u^2 / 2 and r = u^2 / 2: the near-flat start sends
        # the first step to u ~ -1e200, where the models overflow
        flat = (0.0, (1.0, 0.0), (1e-200, 0.0, 0.0)), (0.0, (0.0, 0.0), (1.0, 0.0, 0.0))
        assert extremize._newton_quartic(flat, 1.0) is None

    def test_penalised_search_projects_linear_coordinates(self, spec, solves):
        # the penalty makes the objective quartic in (S10, sigma10); Newton
        # on the exact models solves them, and the search runs over
        # (S20, sigma20) only. It takes 584 RK4 steps: 18 taped runs at
        # h = 8e-2 and 6 at 2e-2, and the check's tangent run at the returned
        # point (844 steps, 38 runs at 8e-2 and 7 at 2e-2, when Nelder-Mead
        # and hybr ran on the 8e-2 map and hybr polished at 2e-2; 1950
        # steps, 39 runs of 50, when every run was at 2e-2; 46
        # runs when the check took
        # 4 propagator runs and 4 corner runs for second differences; 47
        # with a final integrate for the report; 204 solves and propagator
        # runs with central differences along (S20, sigma20); 179 on the Riccati
        # kernel, whose O(h**4) difference at this step moves the simplex's
        # path; 212 when the certificate took central differences along
        # (S10, sigma10), 392 solves with the projection stencil;
        # Nelder-Mead alone: 2332)
        res = penalised_search(spec, (1.0, 0.5, 0.1, 0.4), 400, 3)
        assert res.converged
        assert np.max(np.abs(np.subtract(res.init.as_tuple(), PENALISED_INIT))) <= 1e-6
        assert res.report.lam == pytest.approx(PENALISED_LAMBDA, abs=1e-9)
        assert steps(spec, solves) <= 600

    def test_negative_x0_stall_ends_fast(self, solves):
        # the reduced gradient has a local minimum without a root here
        # (|g| of a few 1e-3); Nelder-Mead alone spent 238,132 solves before giving
        # up. The search still finds no root, but now says so quickly: 12,400
        # RK4 steps, 136 taped runs at h = 4e-2 and 89 at 1e-2, most of them
        # in the pass at h alone of an attempt whose start blows up at 4h, and
        # the check's tangent run (12,550 steps, 274 runs at 4e-2 and 56 at
        # 1e-2, when Nelder-Mead and hybr ran on the 4h map; 27,500 steps,
        # 275 runs, when every run was at 1e-2; 282 with the
        # check's 8 difference runs; 283 with a final integrate for the
        # report; 1334 solves and propagator runs with central differences
        # along (S20, sigma20), 1390 when the certificate took them along
        # (S10, sigma10) too, 2722 with the projection stencil)
        spec = OscillatorSpec(m=0.9, k=0.86, hbar_tilde=0.42, T=1, x0=-0.73, xT=0.89)
        res = optimize(spec, InitialData(0.3, 0.2, 0.08, 0.4), penalty_weight=0.25,
                       step=1e-2, seed=104)
        assert res.converged is False
        assert steps(spec, solves) <= 27_500

    def test_unsettled_newton_records_model_gradient(self, spec, monkeypatch):
        # a point where Newton does not settle stays unprojected; its gradient
        # along (S10, sigma10) is then the models' gradient of the objective
        # at that point, which is not zero
        monkeypatch.setattr(extremize, "_newton_quartic", lambda models, weight: None)
        s = replace(spec, hbar_tilde=0.3, x0=0.2)
        guess = InitialData(S10=0.4, S20=0.2, sigma10=0.1, sigma20=0.6)
        res = optimize(s, guess, active=("S10", "sigma10"), penalty_weight=0.5, step=1e-2)
        assert res.init == guess
        assert not res.converged
        (_, gl, _), (r, gr, _) = endpoint_models(s, guess.as_tuple(), propagator(s, guess, 1e-2))
        g = np.asarray(gl) + 2.0 * 0.5 * r * np.asarray(gr)
        assert res.gradient_norm == pytest.approx(np.max(np.abs(g)), rel=1e-12)
        for name, g_i in zip(("S10", "sigma10"), g):
            up, down = (objective(replace(guess, **{name: getattr(guess, name) + d}), s, 0.5, 1e-2)
                        for d in (FD_STEP, -FD_STEP))
            assert (up - down) / (2.0 * FD_STEP) == pytest.approx(g_i, abs=1e-7)
        assert res.gradient_norm > 1e-3

    def test_root_solve_kept_only_if_it_lowers_the_gradient(self, spec, monkeypatch):
        # the guess behind the caustic wall blows up on the 4h map, so its
        # attempt runs at h alone: Nelder-Mead, then hybr from its best
        # vertex. A root solve that ends on the blow-up wall must leave the
        # search at the Nelder-Mead point it started from
        nm_runs, starts = [], []
        minimize = extremize.minimize

        def recorded_minimize(*args, **kwargs):
            nm_runs.append(minimize(*args, **kwargs))
            return nm_runs[-1]

        def wall(fun, x0, method, options):
            starts.append(np.array(x0))
            return OptimizeResult(x=x0 + 1.0, fun=np.full(len(x0), BLOWUP_PENALTY), nfev=7)

        monkeypatch.setattr(extremize, "minimize", recorded_minimize)
        monkeypatch.setattr(scipy.optimize, "root", wall)
        res = penalised_search(spec, (0.0, -2.0, 0.1, 0.4), 400, 1)
        assert len(nm_runs) == len(starts) == 1
        assert np.array_equal(starts[0], nm_runs[0].x)
        assert nm_runs[0].fun <= extremize.HANDOFF_MERIT
        assert (res.init.S20, res.init.sigma20) == tuple(nm_runs[0].x)
        assert not res.converged
        assert res.iterations == nm_runs[0].nit + 7

    def test_failed_descent_is_not_polished(self, solves, monkeypatch):
        # task q06 of the seed-1 quantum-search panel with x0 scaled by
        # -10/3, which has no root: every attempt's descent presses on the
        # caustic wall and ends without a small gradient, so no Newton step
        # runs at h and no run at h blows up (when the polish at h ran from
        # every coarse point with hybr, it met 5 blow-ups there). Its runs at
        # h are the guess's, each attempt's end point's and the check's
        # tangent run; its blow-ups are line-search trials into the wall
        blown = Counter()
        centre = extremize._centre

        def counted(spec, base, idx, z, weight, step, project):
            try:
                return centre(spec, base, idx, z, weight, step, project)
            except BlowUpError:
                blown[step] += 1
                raise

        monkeypatch.setattr(extremize, "_centre", counted)
        spec = OscillatorSpec(m=0.8194587043610034, k=0.8661237507502332,
                              hbar_tilde=0.5403108072930367, T=1.0, x0=-0.2894706796040376,
                              xT=0.9946156370789563)
        guess = InitialData(0.5419121628891159, 0.19292704916950118, 0.13033986212887394,
                            0.5947200024492644)
        res = optimize(spec, guess, penalty_weight=0.25, step=1e-2, seed=106)
        assert not res.converged
        assert blown[1e-2] == 0 and res.blowups == blown[4e-2] > 0
        assert solves.count(1e-2) == 1 + 5 + 1
        assert steps(spec, solves) <= 5_425

    @pytest.mark.parametrize("guess, max_iter, restarts", [
        ((1.0, 0.5, 0.1, 0.4), 400, 3),  # in front of the caustic wall
        ((0.0, -2.0, 0.1, 0.4), 60, 2),  # behind it
    ])
    def test_each_point_solved_once(self, spec, monkeypatch, guess, max_iter, restarts):
        # one cached record per point and step serves the simplex, the root
        # solves, the certificate, whose centre comes from the record's
        # models, and the returned report, from the record's end row. A
        # propagator run counts as a solve of its point
        points = Counter()
        for name in ("final_state", "integrate", "propagator", "tangent", "taped"):
            inner = getattr(extremize, name)

            def recorded(spec, init, step, *args, _inner=inner, **kwargs):
                points[init.as_tuple(), step] += 1
                return _inner(spec, init, step, *args, **kwargs)

            monkeypatch.setattr(extremize, name, recorded)
        res = penalised_search(spec, guess, max_iter, restarts)
        assert res.report == eigenvalue(integrate(replace(spec, hbar_tilde=0.3), res.init,
                                                  step=2e-2))
        assert [p for p, count in points.items() if count > 1] == []

    @pytest.mark.parametrize("case", ["classical guess", "penalised", "nothing searched",
                                      "negative zero"])
    def test_report_read_from_the_search_record(self, spec, monkeypatch, case):
        # the returned report is endpoint_report on the end row of the
        # search's own run at the returned point: bit for bit a fresh
        # integrate's, with no integrate call. The classical guess takes a
        # zero-amplitude tangent run, the penalised search tangent runs over
        # (S20, sigma20), and a search over S10 or sigma10 alone propagator
        # runs. At x0 = -0.0 the boundary term's sign of zero follows S10's:
        # the report must start from the 0.0 the run starts from
        integrations = []
        run = extremize.integrate

        def counted(*args, **kwargs):
            integrations.append(1)
            return run(*args, **kwargs)

        monkeypatch.setattr(extremize, "integrate", counted)
        if case == "classical guess":
            s, step = spec, 1e-3
            res = optimize(s, InitialData(S10=0.0, S20=t0_to_S20(0.5, spec)),
                           active=("S10", "S20"), step=step)
        elif case == "penalised":
            s, step = replace(spec, hbar_tilde=0.3), 2e-2
            res = penalised_search(spec, (1.0, 0.5, 0.1, 0.4), 400, 3)
        elif case == "nothing searched":
            s, step = replace(spec, hbar_tilde=0.4, x0=0.3), 1e-2
            res = optimize(s, InitialData(S10=0.6, S20=0.2, sigma10=0.1, sigma20=0.5),
                           active=("S10",), step=step)
        else:
            s, step = replace(spec, hbar_tilde=0.4, x0=-0.0, xT=0.0), 1e-2
            res = optimize(s, InitialData(S10=-0.0, sigma10=-0.0), active=("sigma10",),
                           step=step)
            assert math.copysign(1.0, res.init.S10) == -1.0
        assert res.converged
        assert integrations == []
        want = eigenvalue(integrate(s, res.init, step=step))
        assert res.report == want
        assert res.report.to_json() == want.to_json()

    def test_penalised_search_from_behind_caustic_wall(self, spec):
        # the four-coordinate search ended unconverged here (gradient norm
        # 0.135). The guess blows up on the coarse map too, whose blow-up
        # ramp, in steps of 8e-2, left the simplex stuck at the penalty, so
        # its attempt runs at h = 2e-2 alone
        res = penalised_search(spec, (0.0, -2.0, 0.1, 0.4), 60, 2)
        assert res.converged
        assert res.blowups > 0
        assert np.max(np.abs(np.subtract(res.init.as_tuple(), PENALISED_INIT))) <= 1e-6
        assert res.report.lam == pytest.approx(PENALISED_LAMBDA, abs=1e-9)


class TestTwoLevelSearch:
    def test_penalised_search_runs_mostly_on_the_coarse_map(self, spec, solves, monkeypatch):
        # the descent runs at 4h = 8e-2, the Newton polish at h = 2e-2, and
        # the answer is the root at h; no Nelder-Mead, so no scipy
        def refuse(*args, **kwargs):
            raise AssertionError("Nelder-Mead")

        monkeypatch.setattr(extremize, "minimize", refuse)
        res = penalised_search(spec, (1.0, 0.5, 0.1, 0.4), 400, 3)
        assert res.converged
        assert np.max(np.abs(np.subtract(res.init.as_tuple(), PENALISED_INIT))) <= 1e-6
        assert res.report.lam == pytest.approx(PENALISED_LAMBDA, abs=1e-9)
        # 18 runs at 8e-2; at 2e-2 the guess's, the coarse root's, 4 Newton
        # steps and the check's tangent run
        assert set(solves) == {8e-2, 2e-2}
        assert solves.count(8e-2) == 18 and solves.count(2e-2) == 7

    def test_coarse_step_past_caustic_overshoot_keeps_the_root(self, spec, solves, monkeypatch):
        # at h = 0.1 the coarse map takes 2.5 steps of 0.4 over T, past the
        # step of about 0.1 at which fixed-step rk4 can cross a caustic and
        # still complete; the search descends at 0.4, polishes at 0.1 and
        # converges to the root that the search at h alone finds
        def search():
            return optimize(replace(spec, hbar_tilde=0.3), InitialData(1.0, 0.5, 0.1, 0.4),
                            penalty_weight=0.5, step=0.1, max_iter=400, restarts=3)

        res = search()
        assert set(solves) == {0.4, 0.1}
        monkeypatch.setattr(extremize, "COARSE", 1)
        want = search()
        assert want.converged and res.converged
        assert np.max(np.abs(np.subtract(res.init.as_tuple(), want.init.as_tuple()))) <= 1e-9
        assert res.report.lam == pytest.approx(want.report.lam, abs=1e-12)

    def test_coarse_root_that_blows_up_at_h_is_searched_again_at_h(self, spec, monkeypatch):
        # a coarse run may cross a caustic that stops the run at h: here the
        # map at h = 2e-2 blows up wherever the map at 8e-2 has a gradient
        # within grad_tol. No Newton step can start from the coarse root, so
        # the attempt is made again at h alone, Nelder-Mead from its start,
        # and finds the root at h
        centre, minimize = extremize._centre, extremize.minimize
        starts = []

        def walled(spec, base, idx, z, weight, step, project):
            if step == 2e-2:
                try:
                    at = centre(spec, base, idx, z, weight, 8e-2, project)[1]
                except BlowUpError:
                    pass
                else:
                    if np.max(np.abs(at[1])) <= 1e-6:
                        raise BlowUpError(0.5)
            return centre(spec, base, idx, z, weight, step, project)

        def recorded_minimize(fun, x0, **kwargs):
            starts.append(np.array(x0))
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(extremize, "_centre", walled)
        monkeypatch.setattr(extremize, "minimize", recorded_minimize)
        res = penalised_search(spec, (1.0, 0.5, 0.1, 0.4), 400, 3)
        assert len(starts) == 1 and np.array_equal(starts[0], [0.5, 0.4])
        assert res.converged and res.blowups > 0
        assert np.max(np.abs(np.subtract(res.init.as_tuple(), PENALISED_INIT))) <= 1e-6
        assert res.report.lam == pytest.approx(PENALISED_LAMBDA, abs=1e-9)

    def test_coarse_point_with_no_root_is_not_polished(self, spec, solves, monkeypatch):
        # with the gradient in the inverse coordinates held at 1, every
        # point is one where the gradient decays toward infinity: each
        # attempt's descent ends on the first coarse point with a gradient
        # within grad_tol, and the polish at h = 2e-2 stops on the first point
        # with one there, off the root at h; every attempt ends there, with
        # no root
        monkeypatch.setattr(extremize, "_inverse_gradient", lambda gradient, z, free: 1.0)
        res = penalised_search(spec, (1.0, 0.5, 0.1, 0.4), 400, 3)
        assert not res.converged and res.gradient_norm <= 1e-6
        assert 1e-9 < np.max(np.abs(np.subtract(res.init.as_tuple(), PENALISED_INIT))) <= 1e-4
        # no Newton step goes on below grad_tol: the guess, one or two runs
        # per attempt and the check's tangent run
        assert solves.count(2e-2) <= 1 + 2 * 3 + 1


class TestProjectedObjective:
    """The descent's premise: once (S10, sigma10) are projected, the record's
    gradient along (S20, sigma20) is the gradient of the record's value, the
    projected objective, and that objective has a strict minimum at the root."""

    @pytest.mark.parametrize("sigma20", [0.4, 0.0])
    def test_reduced_gradient_is_the_gradient_of_the_projected_objective(self, spec, sigma20):
        # fourth-order central differences of the projected value, at steps
        # of 2e-4 * max(1, |coord|), agree within 1e-8; sigma20 = 0 runs the
        # tangent table, else the taped run
        s = replace(spec, hbar_tilde=0.3)
        base = (1.0, 0.5, 0.1, sigma20)
        idx = [0, 1, 2, 3]

        def centre(z):
            return extremize._centre(s, base, idx, np.array(z), 0.5, 2e-2, project=True)[1]

        _, gradient = centre(base)
        for i in (1, 3):
            d = 2e-4 * max(1.0, abs(base[i]))
            f = []
            for k in (-2, -1, 1, 2):
                z = list(base)
                z[i] += k * d
                f.append(centre(z)[0])
            want = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * d)
            assert abs(gradient[i] - want) <= 1e-8, i

    def test_penalised_root_is_a_strict_minimum_of_the_projected_objective(self, spec):
        # the reduced Hessian, the Schur complement of the (S10, sigma10)
        # block in the certificate's Hessian, is positive definite
        H = stationarity_check(InitialData(*PENALISED_INIT), replace(spec, hbar_tilde=0.3),
                               penalty_weight=0.5, step=2e-2).hessian
        lin, free = [0, 2], [1, 3]
        reduced = (H[np.ix_(free, free)]
                   - H[np.ix_(free, lin)] @ np.linalg.solve(H[np.ix_(lin, lin)],
                                                            H[np.ix_(lin, free)]))
        low, high = np.linalg.eigvalsh(reduced)
        assert low == pytest.approx(0.0223, abs=1e-3) and high == pytest.approx(4.33, abs=1e-2)


class TestOptimizeQuantum:
    def test_four_coordinate_search_runs(self, spec):
        # coarse step keeps this a smoke-level check of the full search
        s = replace(spec, hbar_tilde=0.3)
        res = optimize(s, InitialData(1.0, 0.5, 0.1, 0.4), step=2e-2, restarts=2)
        assert res.active_mask == (True, True, True, True)
        assert res.report.lam == res.report.boundary_term + res.report.kinetic_term + res.report.quantum_term
        assert res.gradient_norm < math.inf


class TestStationarityCheck:
    def test_stationary_at_closed_form_point(self, spec):
        t0 = 0.5
        init = InitialData(S10=s10_star(t0, spec), S20=t0_to_S20(t0, spec))
        rep = stationarity_check(init, spec, active=("S10", "S20"))
        assert abs(rep.gradient[0]) <= 1e-8
        assert abs(rep.gradient[1]) <= 1e-6
        assert rep.signature.negative == 1
        assert rep.signature.near_zero == 1

    def test_gradient_at_origin_matches_linear_coefficient(self, spec):
        # d(objective)/dS10 at S10=0, t0=0 equals xT/cos(omega0*T)
        rep = stationarity_check(InitialData(), spec, active=("S10", "S20"))
        assert rep.gradient[0] == pytest.approx(1.0 / math.cos(1.0), abs=1e-6)
        assert rep.gradient[0] == pytest.approx(1.8508157176809255, abs=1e-6)

    def test_zero_boundary_zero_gradient(self):
        spec = OscillatorSpec(x0=0.0, xT=0.0)
        rep = stationarity_check(InitialData(), spec, active=("S10", "S20"))
        assert np.max(np.abs(rep.gradient)) <= 1e-10

    # the centre's run blows up; the case once named for a gradient probe
    # that blew up within FD_STEP of the caustic: on the row the centre's
    # own tangent run blows up (t_last = 1.499)
    @pytest.mark.parametrize("t0, sigma20, active", [
        (-0.58, 0.0, ("S10", "S20")),
        (-0.071645, 0.5, ("S20", "sigma20")),
    ], ids=["centre", "gradient-probe"])
    def test_probe_through_caustic_fails_loudly(self, t0, sigma20, active):
        spec = OscillatorSpec(T=1.5)
        init = InitialData(S10=1.0, S20=t0_to_S20(t0, spec), sigma20=sigma20)
        with pytest.raises(FDFailureError):
            stationarity_check(init, spec, active=active)

    def test_point_next_to_a_caustic_is_certified(self):
        # the point whose second-difference probe at S20 + hs crossed the
        # caustic: its own run integrates, and so the certificate, from that
        # run's second-order rows, holds. At hbar_tilde = 0 nothing depends
        # on sigma20; along S20 the curvature is large and negative
        spec = OscillatorSpec(T=1.5)
        init = InitialData(S10=1.0, S20=t0_to_S20(-0.07, spec), sigma20=0.5)
        rep = stationarity_check(init, spec, active=("S20", "sigma20"))
        assert rep.gradient[0] == pytest.approx(31464.01, rel=1e-6) and rep.gradient[1] == 0.0
        assert rep.hessian[0, 0] == pytest.approx(-1.90465e8, rel=1e-5)
        assert rep.hessian[0, 1] == rep.hessian[1, 0] == rep.hessian[1, 1] == 0.0
        assert rep.signature.to_dict() == {"positive": 0, "negative": 1, "near_zero": 1}

    @pytest.mark.parametrize("active", [("S10", "S20"), ("S20", "sigma20"), None])
    @pytest.mark.parametrize("penalty_weight", [0.0, 0.5])
    def test_gradient_matches_differences_of_the_objective(self, spec, active, penalty_weight):
        # exact for the discrete map: fourth-order central differences of the
        # objective, at steps of 2e-4 * max(1, |coord|), agree within 1e-9;
        # sigma20 = 0 runs the zero-amplitude tangent table
        s = replace(spec, hbar_tilde=0.4, x0=0.2)
        idx = [i for i, on in enumerate(parse_active(active)) if on]
        rng = np.random.default_rng(31)
        for _ in range(2):
            init = InitialData(*rng.uniform((-1.0, -0.3, -0.5, 0.2), (1.0, 0.5, 0.5, 1.0)))
            for point in (init, replace(init, sigma20=0.0)):
                rep = stationarity_check(point, s, active, penalty_weight, step=1e-2)
                for j, i in enumerate(idx):
                    name = COORD_NAMES[i]
                    x = getattr(point, name)
                    d = 2e-4 * max(1.0, abs(x))
                    f = [objective(replace(point, **{name: x + k * d}), s, penalty_weight, 1e-2)
                         for k in (-2, -1, 1, 2)]
                    want = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * d)
                    assert abs(rep.gradient[j] - want) <= 1e-9 * max(1.0, abs(want)), (point, name)

    def test_non_finite_tangent_counts_as_a_blow_up(self, spec, monkeypatch):
        # a run whose row completes but whose tangent overflowed gives no
        # gradient: the check refuses the point, and the search treats it as
        # behind a blow-up
        run = extremize.tangent

        def overflowed(*args):
            row, (along_S20,), curvatures = run(*args)
            return row, ((math.nan,) + along_S20[1:],), curvatures

        monkeypatch.setattr(extremize, "tangent", overflowed)
        guess = InitialData(S10=0.0, S20=t0_to_S20(0.5, spec))
        with pytest.raises(FDFailureError):
            stationarity_check(guess, spec, active=("S10", "S20"))
        res = optimize(spec, guess, active=("S10", "S20"), max_iter=5, restarts=1, step=1e-2)
        assert not res.converged and res.gradient_norm == math.inf
        assert res.blowups > 0 and res.hessian_signature is None
        # the JSON of a search whose every run blew up reads back
        assert json.loads(res.to_json())["gradient_norm"] == math.inf

    def test_non_finite_pullback_counts_as_a_blow_up(self, spec, monkeypatch):
        # the same at sigma20 != 0, where the gradient comes from the taped
        # run's backward sweep: a sweep that returns NaN gives no gradient
        run = extremize.taped

        def overflowed(*args):
            row, pullback = run(*args)
            return row, lambda seed: (math.nan, pullback(seed)[1])

        monkeypatch.setattr(extremize, "taped", overflowed)
        s = replace(spec, hbar_tilde=0.4)
        guess = InitialData(S10=0.0, S20=0.3, sigma20=0.5)
        with pytest.raises(FDFailureError):
            stationarity_check(guess, s, active=("S10", "S20"))
        res = optimize(s, guess, active=("S10", "S20"), max_iter=5, restarts=1, step=1e-2)
        assert not res.converged and res.gradient_norm == math.inf
        assert res.blowups > 0 and res.hessian_signature is None
        # the JSON of a search whose every run blew up reads back
        assert json.loads(res.to_json())["gradient_norm"] == math.inf

    @pytest.mark.parametrize("step", [2e-2, 1e-2, 1e-3])
    @pytest.mark.parametrize("weight", [0.0, 0.5])
    @pytest.mark.parametrize("active", [("S20",), ("sigma20",), ("S20", "sigma20"), None])
    def test_reverse_gradient_matches_the_tangent_one(self, spec, monkeypatch, step, weight,
                                                      active):
        # the gradient along (S20, sigma20), at the projected point, comes
        # from one run read by one cotangent formula: the taped run's sweep at
        # sigma20 != 0, the seed's dot products with a tangent run's rows at
        # sigma20 = 0. Both agree within 1e-12 with the tangent run's rows
        # mapped forward by _state_tangent and endpoint_report
        s = replace(spec, hbar_tilde=0.4, x0=0.2)
        idx = [i for i, on in enumerate(parse_active(active)) if on]
        rng = np.random.default_rng(17)

        def refuse(*args):
            raise AssertionError("the other run")

        for _ in range(3):
            drawn = tuple(map(float, rng.uniform((-1.0, -0.3, -0.5, 0.2), (1.0, 0.5, 0.5, 1.0))))
            for base in (drawn, drawn[:3] + (0.0,)):
                z = np.array([base[i] for i in idx])
                with monkeypatch.context() as patch:
                    patch.setattr(extremize, "tangent" if base[3] else "taped", refuse)
                    z, (_, gradient), _ = extremize._centre(s, base, idx, z, weight, step, True)
                want = tangent_gradient(s, extremize._embed(base, idx, z), weight, step)
                for j, i in enumerate(idx):
                    if i in (1, 3):
                        assert gradient[j] == pytest.approx(want[i // 2], rel=1e-12), (base, i)

    def test_numpy_scalar_init_gives_same_report(self, spec):
        init = InitialData(S10=1.0, S20=0.3, sigma20=0.5)
        np_init = InitialData(*(np.float64(v) for v in init.as_tuple()))
        a = stationarity_check(init, spec, active=("S10", "S20"))
        b = stationarity_check(np_init, spec, active=("S10", "S20"))
        assert np.array_equal(a.gradient, b.gradient)
        assert np.array_equal(a.hessian, b.hessian)
        assert a.signature == b.signature

    def test_hessian_is_symmetric(self, spec):
        rep = stationarity_check(InitialData(S10=1.0), spec, active=("S10", "S20"))
        assert np.array_equal(rep.hessian, rep.hessian.T)

    @pytest.mark.parametrize("active", [("S10", "S20"), ("S20", "sigma20"), None])
    @pytest.mark.parametrize("penalty_weight", [0.0, 0.5])
    @pytest.mark.parametrize("hbar_tilde", [0.0, 0.4])
    def test_hessian_matches_central_differences(self, spec, active, penalty_weight,
                                                 hbar_tilde):
        # the check takes every entry from its run's rows, the (S10,
        # sigma10) block with zero row tangents; the reference takes every
        # entry by central differences of the objective, from plain solves,
        # after one Richardson step (hs halved). The plain differences'
        # O(hs**2) error, about 1e-4 on these points, would fill a 1e-4
        # gate and cross the signature's 1e-6 threshold in the direction
        # the eigenvalue is flat along at hbar_tilde = 0
        s = replace(spec, hbar_tilde=hbar_tilde, x0=0.2)
        idx = [i for i, on in enumerate(parse_active(active)) if on]
        lin = [j for j, i in enumerate(idx) if i in (0, 2)]
        rng = np.random.default_rng(12)
        for _ in range(2):
            init = InitialData(*rng.uniform((-1.0, -0.3, -0.5, 0.2), (1.0, 0.5, 0.5, 1.0)))
            rep = stationarity_check(init, s, active, penalty_weight, step=1e-2)
            coarse = central_hessian(init, s, idx, penalty_weight, 1e-2)
            fine = central_hessian(init, s, idx, penalty_weight, 1e-2, shrink=0.5)
            ref = (4.0 * fine - coarse) / 3.0
            assert np.all(np.abs(rep.hessian - ref) <= 1e-6 * np.maximum(1.0, np.abs(ref)))
            assert rep.signature == extremize._signature(ref)
            # the (S10, sigma10) block against the models: two exact routes
            (_, _, Hl), (r, gr, Hr) = endpoint_models(
                s, init.as_tuple(), propagator(s, init, 1e-2))
            exact = symmetric(Hl) + 2.0 * penalty_weight * (np.outer(gr, gr) + r * symmetric(Hr))
            pos = [idx[j] // 2 for j in lin]
            block = exact[np.ix_(pos, pos)]
            scale = max(1.0, np.abs(block).max(initial=0.0))
            assert np.all(np.abs(rep.hessian[np.ix_(lin, lin)] - block) <= 1e-12 * scale)


def tangent_gradient(spec, point, weight, step):
    """The objective's gradient along (S20, sigma20) at ``point`` from a
    tangent run: each tangent of the row mapped forward by
    ``_state_tangent`` and ``endpoint_report``, the reference for
    ``_centre``'s cotangent formula."""
    first = point.as_tuple()
    end, slopes, _ = tangent(spec, point, step)
    m_inv, _, hh = flow_coefficients(spec)
    r = extremize._report(spec, first, end).constraint_residual
    gradient = []
    for i in (1, 3):
        e = [0.0] * 4
        e[i] = 1.0
        d = endpoint_report(spec, e, _state_tangent(first, spec.m, hh / m_inv, end,
                                                     slopes[i // 2], e[3]))
        gradient.append(d.lam + 2.0 * weight * r * d.constraint_residual)
    return gradient


def symmetric(H):
    """The 2x2 matrix of the symmetric triple (a, b, c)."""
    a, b, c = H
    return np.array([[a, b], [b, c]])


def central_hessian(init, spec, idx, penalty_weight, step, shrink=1.0):
    """Hessian of ``objective`` along ``idx`` by central differences only.

    Steps shrink * sqrt(FD_STEP) * max(1, |coord|); the diagonal from second
    differences, every other entry from four corner solves.
    """
    z = np.array([init.as_tuple()[i] for i in idx])

    def f(z):
        vals = list(init.as_tuple())
        for j, i in enumerate(idx):
            vals[i] = float(z[j])
        return objective(InitialData(*vals), spec, penalty_weight, step)

    n = len(z)
    hs = [shrink * math.sqrt(FD_STEP) * max(1.0, abs(z[i])) for i in range(n)]
    H = np.empty((n, n))
    for i in range(n):
        zp = z.copy(); zp[i] += hs[i]
        zm = z.copy(); zm[i] -= hs[i]
        H[i, i] = (f(zp) - 2.0 * f(z) + f(zm)) / hs[i] ** 2
    for i in range(n):
        for j in range(i + 1, n):
            zpp = z.copy(); zpp[i] += hs[i]; zpp[j] += hs[j]
            zpm = z.copy(); zpm[i] += hs[i]; zpm[j] -= hs[j]
            zmp = z.copy(); zmp[i] -= hs[i]; zmp[j] += hs[j]
            zmm = z.copy(); zmm[i] -= hs[i]; zmm[j] -= hs[j]
            H[i, j] = H[j, i] = (f(zpp) - f(zpm) - f(zmp) + f(zmm)) / (4.0 * hs[i] * hs[j])
    return H
