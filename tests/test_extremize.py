import hashlib
import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
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
from qap.extremize import BLOWUP_PENALTY, parse_active


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
        a = objective(init, s, step=1e-3, method="rk4")
        b = objective(init, s, step=1e-2, method="rk4_adaptive")
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
        # behind the caustic wall, one iteration finds no integrable point;
        # the report needs a complete run, so the final integrate raises
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

    def test_adaptive_method_rejected(self, spec):
        # its step control sees S1, so the eigenvalue is not exactly quadratic
        # in (S10, sigma10) and the projection's models would not hold
        with pytest.raises(ValueError, match="needs method 'rk4'"):
            optimize(spec, InitialData(), active=("S10", "S20"), method="rk4_adaptive")

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
    """List that grows by one entry per ODE solve or propagator run the extremizer makes."""
    calls = []
    for name in ("final_state", "integrate", "propagator"):
        inner = getattr(extremize, name)

        def counted(*args, _inner=inner, **kwargs):
            calls.append(1)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(extremize, name, counted)
    return calls


#: where the penalised search at hbar_tilde = 0.3, weight 0.5, h = 2e-2 from
#: (1.0, 0.5, 0.1, 0.4) converged with the plain four-coordinate Nelder-Mead
#: search (371 iterations, 5766 solves)
PENALISED_LAMBDA = 0.28461699919073352
PENALISED_INIT = (1.1527523364744867, 0.4368528249248399, -0.47347624342850492,
                  -1.7964455363771274)


def penalised_search(spec, guess, max_iter, restarts):
    return optimize(
        replace(spec, hbar_tilde=0.3), InitialData(*guess), penalty_weight=0.5,
        step=2e-2, max_iter=max_iter, restarts=restarts,
    )


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
        # 14 solves and one propagator run (17 solves with the projection stencil)
        assert len(solves) <= 15
        assert res.report.lam == pytest.approx(lambda_star(spec), abs=1e-6)

    def test_flat_sigma10_in_classical_limit(self, spec):
        # at hbar_tilde = 0 the eigenvalue does not depend on sigma10: the
        # S1 solution started from sigma10 stays exactly 0, so the sigma10
        # row of the models is exactly zero and lstsq leaves sigma10 where it is
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

    def test_penalty_free_search_unchanged(self, spec, solves):
        # without a penalty the projection is one lstsq step on the exact
        # quadratic. This search ends unconverged at S20 ~ 90.3, where
        # h * S20 / m ~ 0.9: the step no longer resolves the Riccati flow, so
        # the point is an artefact. Nelder-Mead alone ended at the same kind
        # of point (same gradient norm) after 2296 solves. The search takes
        # 189 solves and propagator runs (313 solves with the projection stencil)
        res = optimize(
            replace(spec, hbar_tilde=0.5), InitialData(S10=-3.0, sigma20=1.0),
            active=("S10", "S20"), step=1e-2,
        )
        assert res.converged is False
        assert res.gradient_norm == pytest.approx(7.40e-5, abs=1e-6)
        assert len(solves) <= 189
        assert (hashlib.sha256(res.to_json().encode()).hexdigest()
                == "9cf44391f1954d1e044a78108fbaae498ae905e337fbbb7347d7b4a2b8a7ff37")

    def test_newton_on_quartic_settles_or_gives_up(self):
        # lam = 2u - u^2 and r = u^2 / 2 at weight 1 give the gradient
        # u^3 - 2u + 2, whose Newton iterates from 0 cycle between 0 and 1
        one, zero = np.eye(1), np.zeros(1)
        assert extremize._newton_quartic(2.0 * one[0], -2.0 * one, 0.0, zero, one, 1.0) is None
        # lam = u1 - u2 + u1 u2 and r = u1 + u2 - 1: Newton lands where the
        # model gradient vanishes
        gl, Hl = np.array([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        gr, Hr = np.ones(2), np.zeros((2, 2))
        u = extremize._newton_quartic(gl, Hl, -1.0, gr, Hr, 0.5)
        r = -1.0 + gr @ u
        assert np.max(np.abs(gl + Hl @ u + r * gr)) <= 1e-12
        # lam = u + 1e-200 u^2 / 2 and r = u^2 / 2: the near-flat start sends
        # the first step to u ~ -1e200, where the models overflow
        with np.errstate(over="ignore", invalid="ignore"):
            u = extremize._newton_quartic(one[0], 1e-200 * one, 0.0, zero, one, 1.0)
        assert u is None

    def test_penalised_search_projects_linear_coordinates(self, spec, solves):
        # the penalty makes the objective quartic in (S10, sigma10); Newton
        # on the exact models solves them, and the search runs over
        # (S20, sigma20) only. It takes 212 solves and propagator runs (392
        # solves with the projection stencil; Nelder-Mead alone: 2332)
        res = penalised_search(spec, (1.0, 0.5, 0.1, 0.4), 400, 3)
        assert res.converged
        assert np.max(np.abs(np.subtract(res.init.as_tuple(), PENALISED_INIT))) <= 1e-6
        assert res.report.lam == pytest.approx(PENALISED_LAMBDA, abs=1e-9)
        assert len(solves) <= 212

    def test_negative_x0_stall_ends_fast(self, solves):
        # the reduced gradient has a local minimum without a root here
        # (|g| of a few 1e-3); Nelder-Mead alone spent 238,132 solves before giving
        # up. The search still finds no root, but now says so quickly: 1390
        # solves and propagator runs (2722 solves with the projection stencil)
        spec = OscillatorSpec(m=0.9, k=0.86, hbar_tilde=0.42, T=1, x0=-0.73, xT=0.89)
        res = optimize(spec, InitialData(0.3, 0.2, 0.08, 0.4), penalty_weight=0.25,
                       step=1e-2, seed=104)
        assert res.converged is False
        assert len(solves) <= 1390

    def test_root_solve_kept_only_if_it_lowers_the_gradient(self, spec, monkeypatch):
        # a root solve that ends on the blow-up wall must leave the search at
        # the Nelder-Mead point it started from
        nm_runs, starts = [], []
        minimize = extremize.minimize

        def recorded_minimize(*args, **kwargs):
            nm_runs.append(minimize(*args, **kwargs))
            return nm_runs[-1]

        def wall(fun, x0, method, options):
            starts.append(np.array(x0))
            return OptimizeResult(x=x0 + 1.0, fun=np.full(len(x0), BLOWUP_PENALTY), nfev=7)

        monkeypatch.setattr(extremize, "minimize", recorded_minimize)
        monkeypatch.setattr(extremize, "root", wall)
        res = penalised_search(spec, (1.0, 0.5, 0.1, 0.4), 400, 1)
        assert len(starts) == 1
        assert np.array_equal(starts[0], nm_runs[0].x)
        assert nm_runs[0].fun <= extremize.HANDOFF_MERIT
        assert (res.init.S20, res.init.sigma20) == tuple(starts[0])
        assert not res.converged
        assert res.iterations == nm_runs[0].nit + 7

    @pytest.mark.parametrize("guess, max_iter, restarts", [
        ((1.0, 0.5, 0.1, 0.4), 400, 3),  # in front of the caustic wall
        ((0.0, -2.0, 0.1, 0.4), 60, 2),  # behind it
    ])
    def test_each_point_solved_once(self, spec, monkeypatch, guess, max_iter, restarts):
        # one cached record per point serves the simplex, the root solve and
        # the settled gradient; only the returned point is solved twice, by
        # the final integrate and by the centre of the Hessian. A propagator
        # run counts as a solve of its point
        points = Counter()
        for name in ("final_state", "integrate", "propagator"):
            inner = getattr(extremize, name)

            def recorded(spec, init, *args, _inner=inner, **kwargs):
                points[init.as_tuple()] += 1
                return _inner(spec, init, *args, **kwargs)

            monkeypatch.setattr(extremize, name, recorded)
        res = penalised_search(spec, guess, max_iter, restarts)
        assert [p for p, count in points.items() if count > 1] == [res.init.as_tuple()]

    def test_penalised_search_from_behind_caustic_wall(self, spec):
        # the four-coordinate search ended unconverged here (gradient norm 0.135)
        res = penalised_search(spec, (0.0, -2.0, 0.1, 0.4), 60, 2)
        assert res.converged
        assert res.blowups > 0
        assert np.max(np.abs(np.subtract(res.init.as_tuple(), PENALISED_INIT))) <= 1e-6
        assert res.report.lam == pytest.approx(PENALISED_LAMBDA, abs=1e-9)


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

    def test_probe_through_caustic_fails_loudly(self):
        spec = OscillatorSpec(T=1.5)
        init = InitialData(S10=1.0, S20=t0_to_S20(-0.58, spec))
        with pytest.raises(FDFailureError):
            stationarity_check(init, spec, active=("S10", "S20"))

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
