"""Tests for the closed-form boundary-value solutions and their duals."""

import itertools
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdld import ldp, optimal_paths, quadrature
from bdld.ldp import GridPath, rate_functional
from bdld.optimal_paths import (
    AdmissibilityError,
    ParabolaParams,
    PathCase,
    dual_tilt,
    hamiltonian_residual,
    optimal_action,
    sample_rows,
    solve_boundary,
)
from bdld.tilting import ConstantTilt

# Boundary data behind the two path figures: start at zero (T=2) and start
# at one half (T=2).
FIGURE_CASES = (
    [(0.0, gamma_t, 2.0) for gamma_t in (0.1, 0.3, 0.5, 0.9)]
    + [(0.5, gamma_t, 2.0) for gamma_t in (0.0, 0.3, 0.5, 0.7, 1.0)]
)


def analytic_action(params: ParabolaParams) -> float:
    """Independent closed form for the action of a solved path.

    Along the parabola the integrand has antiderivative
    c2 * x (x+1) ln((x+1)/x) with x = lam*t - c1 (limit 0 where x(x+1) -> 0),
    so the action is the difference of the endpoint values.
    """
    if params.case is PathCase.CONSTANT:
        return 0.0

    def primitive(x: float) -> float:
        prod = x * (x + 1.0)
        if prod == 0.0:
            return 0.0
        return prod * math.log((x + 1.0) / x)

    x0 = -params.c1
    x1 = params.lam * params.horizon - params.c1
    return params.c2 * (primitive(x1) - primitive(x0))


class TestSolveBoundary:
    def test_equal_endpoints_give_constant(self):
        pp = solve_boundary(0.3, 0.3, 1.0, 1.0)
        assert pp.case is PathCase.CONSTANT
        assert pp.value(0.0) == pp.value(0.7) == pp.value(1.0) == 0.3
        assert pp.derivative(0.4) == 0.0
        pp = solve_boundary(0.3, 0.3 + 5e-15, 1.0, 1.0)
        assert pp.case is PathCase.CONSTANT

    def test_from_zero_closed_form(self):
        pp = solve_boundary(0.0, 0.5, 2.0, 1.0)
        assert pp.case is PathCase.FROM_ZERO
        assert pp.c1 == 0.0
        assert pp.c2 == pytest.approx(1 / 12, abs=1e-16)
        assert pp.value(1.0) == pytest.approx(1 / 6, abs=1e-15)
        assert pp.value(0.0) == 0.0

    def test_to_zero_closed_form(self):
        pp = solve_boundary(0.5, 0.0, 2.0, 1.0)
        assert pp.case is PathCase.TO_ZERO
        assert pp.c1 == pytest.approx(3.0, abs=1e-15)
        # gamma(t) = (2-t)(3-t)/12
        assert pp.value(1.0) == pytest.approx(1 / 6, abs=1e-15)
        assert pp.value(2.0) == pytest.approx(0.0, abs=1e-15)

    def test_increasing_worked_example(self):
        # 0.5 -> 1 over T=2: c1^2 + 3 c1 - 6 = 0, admissible root (-3-sqrt(33))/2
        pp = solve_boundary(0.5, 1.0, 2.0, 1.0)
        assert pp.case is PathCase.GENERAL_INCREASING
        c1_exact = (-3.0 - math.sqrt(33.0)) / 2.0
        assert abs(pp.c1 - c1_exact) <= 1e-12
        assert abs(pp.c2 - (6.0 - math.sqrt(33.0)) / 12.0) <= 1e-15
        assert abs(pp.value(2.0) - 1.0) <= 1e-10

    def test_decreasing_example(self):
        pp = solve_boundary(0.5, 0.3, 2.0, 1.0)
        assert pp.case is PathCase.GENERAL_DECREASING
        assert abs(pp.value(0.0) - 0.5) <= 1e-12
        assert abs(pp.value(2.0) - 0.3) <= 1e-10
        # vertex of the parabola lies beyond T
        assert (pp.c1 - 0.5) / pp.lam > 2.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_boundary(0.5, 0.8, 0.0, 1.0)
        with pytest.raises(ValueError):
            solve_boundary(0.5, 0.8, -1.0, 1.0)
        with pytest.raises(ValueError):
            solve_boundary(0.5, 0.8, 1.0, 0.0)
        with pytest.raises(ValueError):
            solve_boundary(-0.1, 0.8, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_boundary(0.5, 1.1, 1.0, 1.0)

    @given(gamma0=st.floats(0.01, 0.99), delta=st.floats(-0.95, 0.95),
           horizon=st.floats(0.1, 20.0), lam=st.floats(0.1, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_random_instances_hit_boundaries_and_stay_monotone(self, gamma0, delta,
                                                               horizon, lam):
        gamma_t = min(1.0, max(0.0, gamma0 + delta))
        pp = solve_boundary(gamma0, gamma_t, horizon, lam)
        assert abs(pp.value(0.0) - gamma0) <= 1e-12
        assert abs(pp.value(horizon) - gamma_t) <= 1e-10
        samples = [pp.value(horizon * i / 64) for i in range(65)]
        diffs = np.diff(samples)
        if abs(gamma_t - gamma0) <= 1e-14:
            assert np.allclose(samples, gamma0)
        elif gamma_t > gamma0:
            assert np.all(diffs >= -1e-14)
        else:
            assert np.all(diffs <= 1e-14)

    def test_vertex_outside_horizon(self):
        # increasing: vertex time below 0; decreasing: beyond T
        for gamma0, gamma_t in ((0.2, 0.9), (0.45, 0.55)):
            pp = solve_boundary(gamma0, gamma_t, 2.0, 1.0)
            assert (pp.c1 - 0.5) / pp.lam < 0.0
        for gamma0, gamma_t in ((0.9, 0.2), (0.55, 0.45)):
            pp = solve_boundary(gamma0, gamma_t, 2.0, 1.0)
            assert (pp.c1 - 0.5) / pp.lam > 2.0

    # the action at lam*T = 1e100, 1e153, 1e154, 1e155, 1e300 where the
    # closed form stays within the doubles, else None: a ValueError naming
    # lam*T, neither an OverflowError nor an AdmissibilityError
    LARGE_LT = {
        (0.0, 0.5): (5e-101, 5e-154, 5e-155, None, None),
        (0.5, 0.0): (5e-101, 5e-154, 5e-155, None, None),
        (0.5, 0.8): (3.508893593264828e-102, 3.508893593264829e-155, None, None, None),
        (0.8, 0.5): (3.508893593264827e-102, 3.508893593264829e-155, None, None, None),
        (0.5, 0.5 + 2e-14): (1.996804166340646e-128, None, None, None, None),
    }

    @pytest.mark.parametrize("ends, actions", LARGE_LT.items())
    def test_large_lambda_t(self, ends, actions):
        for lt, action in zip((1e100, 1e153, 1e154, 1e155, 1e300), actions):
            for horizon, lam in ((lt, 1.0), (1.0, lt)):
                if action is None:
                    with pytest.raises(ValueError,
                                       match=re.escape(f"lam*T = {lt!r} is too large")) as info:
                        solve_boundary(*ends, horizon, lam)
                    assert type(info.value) is ValueError
                else:
                    pp = solve_boundary(*ends, horizon, lam)
                    assert math.isfinite(pp.c1) and math.isfinite(pp.c2)
                    assert optimal_action(*ends, horizon, lam) == action


def _sweep_admissible(params: ParabolaParams, grid_size: int = 1000) -> None:
    """The admissibility check as a sweep over grid_size + 1 equally spaced
    times: the reference for the exact check of _verify_admissible."""
    ts = np.linspace(0.0, params.horizon, grid_size + 1)
    for t in ts:
        g = params.value(float(t))
        if g < -1e-12 or g > 1.0 + 1e-12:
            raise AdmissibilityError(
                f"solved path leaves [0, 1]: gamma({float(t)}) = {g} "
                f"(gamma0={params.gamma0}, gammaT={params.gammaT})")
    if abs(params.value(0.0) - params.gamma0) > 1e-12:
        raise AdmissibilityError(f"gamma(0) misses gamma0 by "
                                 f"{params.value(0.0) - params.gamma0}")
    if abs(params.value(params.horizon) - params.gammaT) > 1e-10:
        raise AdmissibilityError(f"gamma(T) misses gammaT by "
                                 f"{params.value(params.horizon) - params.gammaT}")


def _admits(check, params: ParabolaParams) -> bool:
    try:
        check(params)
    except AdmissibilityError:
        return False
    return True


class TestExactAdmissibility:
    """_verify_admissible checks the ends and the vertex of the parabola,
    where its extremes lie, instead of sweeping a grid of times."""

    def test_agrees_with_the_sweep(self, monkeypatch):
        # every solved path, and the parabola through the same boundary data
        # on the other root of the quadratic for c1, whose vertex may lie
        # inside (0, T)
        exact = optimal_paths._verify_admissible
        monkeypatch.setattr(optimal_paths, "_verify_admissible", lambda params: None)
        grid = [i / 10 for i in range(11)]
        counts = {True: 0, False: 0}
        for horizon in (0.05, 0.5, 1.0, 2.0, 10.0):
            for lam in (0.3, 1.0, 1.3, 4.0):
                for gamma0 in grid:
                    for gamma_t in grid:
                        pp = solve_boundary(gamma0, gamma_t, horizon, lam)
                        cases = [pp]
                        if pp.case in (PathCase.GENERAL_INCREASING, PathCase.GENERAL_DECREASING):
                            lt = lam * horizon
                            c1 = -lt * (lt + 1.0) * gamma0 / (gamma_t - gamma0) / pp.c1
                            if c1 not in (0.0, 1.0):
                                cases.append(ParabolaParams(
                                    c1, gamma0 / (c1 * (c1 - 1.0)), pp.case, lam, horizon,
                                    gamma0, gamma_t))
                        for params in cases:
                            verdict = _admits(_sweep_admissible, params)
                            assert _admits(exact, params) == verdict, params
                            counts[verdict] += 1
        assert counts[True] > 2000 and counts[False] > 1000

    def test_dip_between_grid_points_is_rejected(self):
        # the vertex t = 0.5004 lies between the sweep's times 0.500 and 0.501,
        # where the path dips to -c2/4 = -3.6e-8
        lam, c1, c2 = 5000.0, 2502.5, 1.44e-7
        shape = ParabolaParams(c1, c2, PathCase.GENERAL_DECREASING, lam, 1.0, 0.0, 0.0)
        pp = ParabolaParams(c1, c2, PathCase.GENERAL_DECREASING, lam, 1.0,
                            shape.value(0.0), shape.value(1.0))
        assert _admits(_sweep_admissible, pp)
        with pytest.raises(AdmissibilityError, match=r"leaves \[0, 1\]: gamma\(0.5004\)"):
            optimal_paths._verify_admissible(pp)

    @pytest.mark.parametrize("c1, c2", [(-math.inf, 0.0), (math.nan, 0.1), (0.5, math.nan)])
    def test_nan_values_are_rejected(self, c1, c2):
        # gamma(t) is NaN at every t: each comparison must fail on it
        pp = ParabolaParams(c1, c2, PathCase.GENERAL_INCREASING, 1.0, 1.0, 0.5, 0.8)
        with pytest.raises(AdmissibilityError):
            optimal_paths._verify_admissible(pp)


class TestPathValue:
    def test_constant_case(self):
        pp = solve_boundary(0.3, 0.3, 2.0, 1.0)
        assert pp.value(1.234) == 0.3
        assert pp.derivative(1.234) == 0.0

    def test_derivative_matches_finite_differences(self):
        pp = solve_boundary(0.2, 0.7, 2.0, 1.5)
        h = 1e-6
        for t in (0.3, 1.0, 1.7):
            fd = (pp.value(t + h) - pp.value(t - h)) / (2 * h)
            assert abs(fd - pp.derivative(t)) <= 1e-8


class TestDualValue:
    def test_constant_case_is_unit(self):
        pp = solve_boundary(0.4, 0.4, 2.0, 1.0)
        assert pp.dual(0.8) == 1.0

    def test_worked_example(self):
        pp = solve_boundary(0.5, 1.0, 2.0, 1.0)
        c1_exact = (-3.0 - math.sqrt(33.0)) / 2.0
        assert abs(pp.dual(0.0) - (1.0 / (-c1_exact) + 1.0)) <= 1e-12

    def test_increasing_dual_exceeds_one(self):
        pp = solve_boundary(0.2, 0.9, 2.0, 1.0)
        for i in range(33):
            assert pp.dual(2.0 * i / 32) > 1.0

    def test_decreasing_dual_below_one(self):
        pp = solve_boundary(0.9, 0.2, 2.0, 1.0)
        for i in range(33):
            assert 0.0 < pp.dual(2.0 * i / 32) < 1.0

    def test_singular_at_zero_touch(self):
        with pytest.raises(ValueError):
            solve_boundary(0.0, 0.5, 2.0, 1.0).dual(0.0)
        with pytest.raises(ValueError):
            solve_boundary(0.5, 0.0, 2.0, 1.0).dual(2.0)


class TestHamiltonianResidual:
    def test_constant_case(self):
        assert hamiltonian_residual(solve_boundary(0.3, 0.3, 2.0, 1.0)) == (0.0, 0.0)

    @pytest.mark.parametrize("gamma0,gamma_t,horizon", FIGURE_CASES)
    def test_figure_instances(self, gamma0, gamma_t, horizon):
        res_gamma, res_kappa = hamiltonian_residual(
            solve_boundary(gamma0, gamma_t, horizon, 1.0), grid_size=1000)
        assert res_gamma <= 1e-10
        assert res_kappa <= 1e-10

    def test_primal_dual_consistency(self):
        # dgamma / (lam*gamma) = z - 1/z wherever gamma is away from zero
        pp = solve_boundary(0.5, 0.8, 1.0, 1.0)
        for i in range(1, 64):
            t = i / 64
            gamma = pp.value(t)
            if gamma <= 1e-9:
                continue
            z = pp.dual(t)
            assert abs(pp.derivative(t) / (pp.lam * gamma) - (z - 1.0 / z)) <= 1e-9


class TestContinuityInBoundaryData:
    def test_shrinking_gap_converges_to_constant(self):
        gamma0 = 0.4
        for delta in (1e-2, 1e-3, 1e-4):
            pp = solve_boundary(gamma0, gamma0 + delta, 2.0, 1.0)
            sup_gap = max(abs(pp.value(2.0 * i / 200) - gamma0) for i in range(201))
            assert sup_gap <= 10.0 * delta


class TestOptimalAction:
    def test_equal_endpoints_cost_nothing(self):
        assert optimal_action(0.3, 0.3, 1.0, 1.0) == 0.0

    def test_positive_off_diagonal(self):
        assert optimal_action(0.3, 0.6, 1.0, 1.0) > 0.0
        assert optimal_action(0.6, 0.3, 1.0, 1.0) > 0.0

    @pytest.mark.parametrize("gamma0,gamma_t,horizon", [
        (0.5, 0.8, 1.0), (0.5, 0.3, 2.0), (0.5, 1.0, 2.0), (0.0, 0.5, 2.0),
        (0.5, 0.0, 2.0), (0.2, 0.9, 0.5),
    ])
    def test_quadrature_matches_analytic_antiderivative(self, gamma0, gamma_t, horizon):
        pp = solve_boundary(gamma0, gamma_t, horizon, 1.0)
        numeric = rate_functional(GridPath.from_descriptor(pp, 0.0, horizon), 1.0, tol=1e-10)
        assert abs(numeric - analytic_action(pp)) <= 1e-9
        assert abs(optimal_action(gamma0, gamma_t, horizon, 1.0) - analytic_action(pp)) <= 1e-15

    def test_action_is_gamma_kappa_at_the_ends(self):
        # Along the solved path H = lam*c2 is constant and kappa' gamma = -H, so
        # I = int (kappa gamma' - H) dt = gamma(T) kappa(T) - gamma(0) kappa(0) with
        # kappa = ln z, and gamma kappa -> 0 where the path touches zero.
        def gamma_kappa(pp, t, gamma):
            return 0.0 if gamma == 0.0 else gamma * math.log(pp.dual(t))

        gammas = (0.0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0)
        grid = itertools.product(gammas, gammas, (0.1, 1.0, 2.0, 5.0), (0.5, 1.0, 3.0))
        for gamma0, gamma_t, horizon, lam in grid:  # 588 cases, all admissible
            pp = solve_boundary(gamma0, gamma_t, horizon, lam)
            exact = gamma_kappa(pp, horizon, gamma_t) - gamma_kappa(pp, 0.0, gamma0)
            assert abs(optimal_action(gamma0, gamma_t, horizon, lam) - exact) <= 2e-9, \
                (gamma0, gamma_t, horizon, lam)

    def test_matches_60_digit_reference(self):
        # gamma*kappa at both ends of each solved path, from its own c1 and c2,
        # at 60 digits; zero at an end where the case puts the path at zero
        def reference(pp):
            c1, c2 = mp.mpf(pp.c1), mp.mpf(pp.c2)

            def gamma_kappa(x):
                return c2 * x * (x + 1) * mp.log1p(1 / x)
            start = 0 if pp.case is PathCase.FROM_ZERO else gamma_kappa(-c1)
            end = (0 if pp.case is PathCase.TO_ZERO
                   else gamma_kappa(mp.mpf(pp.lam) * mp.mpf(pp.horizon) - c1))
            return end - start

        gammas = (0.0, 1e-9, 1e-4, 0.05, 0.2, 0.5, 0.5 + 1e-12, 0.5 + 1e-9, 0.5 + 1e-7,
                  0.8, 0.95, 1.0 - 1e-9, 1.0)
        grid = itertools.product(gammas, gammas, (0.1, 1.0, 2.0, 5.0), (0.5, 1.0, 3.0))
        worst, cases = 0.0, 0
        for gamma0, gamma_t, horizon, lam in grid:
            if gamma0 == gamma_t:
                continue
            with mp.workdps(60):
                exact = reference(solve_boundary(gamma0, gamma_t, horizon, lam))
            value = optimal_action(gamma0, gamma_t, horizon, lam)
            worst = max(worst, float(abs(value - exact) / exact))
            cases += 1
        assert cases == 1872
        assert worst <= 2e-14

    @pytest.mark.parametrize("gamma0,horizon,lam", [(0.5, 1.0, 1.0), (0.2, 2.0, 3.0)])
    def test_small_deviation(self, gamma0, horizon, lam):
        # S = delta^2 / (4 lam gamma0 T) to leading order in delta; the
        # quadrature missed this by 2.3% at 0.5 -> 0.5 + 1e-7
        delta = 1e-7
        action = optimal_action(gamma0, gamma0 + delta, horizon, lam)
        assert abs(action / (delta ** 2 / (4.0 * lam * gamma0 * horizon)) - 1.0) <= 1e-6

    def test_needs_no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("optimal_action ran a quadrature")
        monkeypatch.setattr(quadrature, "integrate", refuse)
        monkeypatch.setattr(ldp, "integrate", refuse)
        assert optimal_action(0.5, 0.8, 1.0, 1.0) == pytest.approx(0.034929359588850, abs=1e-15)
        assert optimal_action(0.0, 0.5, 2.0, 1.0) == pytest.approx(0.5 * math.log(1.5),
                                                                   abs=1e-16)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            optimal_action(0.5, 0.8, 1.0, 1.0, tol=tol)

    def test_local_optimality_small_batch(self):
        pp = solve_boundary(0.5, 0.8, 1.0, 1.0)
        base_action = optimal_action(0.5, 0.8, 1.0, 1.0, tol=1e-11)
        times = np.linspace(0.0, 1.0, 2001)
        base = np.array([pp.value(float(t)) for t in times])
        dbase = np.array([pp.derivative(float(t)) for t in times])
        rng = np.random.Generator(np.random.Philox(key=np.array([17, 0], dtype=np.uint64)))
        for _ in range(20):
            coeff = rng.uniform(-1.0, 1.0, 3)
            coeff *= rng.uniform(0.2, 1.0) * 0.05 / np.abs(coeff).sum()
            eta = sum(c * np.sin((j + 1) * math.pi * times) for j, c in enumerate(coeff))
            deta = sum(c * (j + 1) * math.pi * np.cos((j + 1) * math.pi * times)
                       for j, c in enumerate(coeff))
            perturbed = GridPath(times, base + eta, dbase + deta)
            assert rate_functional(perturbed, 1.0, tol=1e-10) >= base_action - 1e-9


class TestDualTilt:
    def test_constant_case(self):
        tilt = dual_tilt(solve_boundary(0.3, 0.3, 1.0, 1.0))
        assert isinstance(tilt, ConstantTilt)
        assert tilt.value(0.5) == 1.0

    def test_increasing_case_matches_dual(self):
        pp = solve_boundary(0.5, 0.8, 1.0, 1.0)
        tilt = dual_tilt(pp)
        for t in (0.0, 0.5, 1.0):
            assert tilt.value(t) == pytest.approx(pp.dual(t), abs=1e-15)

    def test_decreasing_case_is_valid(self):
        pp = solve_boundary(0.8, 0.3, 1.0, 1.0)
        tilt = dual_tilt(pp)
        for t in (0.0, 0.5, 1.0):
            z = tilt.value(t)
            assert 0.0 < z < 1.0
            assert z == pytest.approx(pp.dual(t), abs=1e-15)

    def test_zero_touching_cases_rejected(self):
        with pytest.raises(ValueError):
            dual_tilt(solve_boundary(0.0, 0.5, 2.0, 1.0))
        with pytest.raises(ValueError):
            dual_tilt(solve_boundary(0.5, 0.0, 2.0, 1.0))


class TestSerialization:
    def test_json_roundtrip(self):
        # opt-path's report writes each solved path by to_json_obj
        pp = solve_boundary(0.5, 0.8, 1.0, 1.0)
        obj = pp.to_json_obj()
        assert set(obj) == {"c1", "c2", "case", "lambda", "T", "gamma0", "gammaT"}
        assert (obj["c1"], obj["c2"], obj["case"]) == (pp.c1, pp.c2, "general_increasing")

    def test_sample_rows_needs_two_points(self):
        with pytest.raises(ValueError, match="n_points must be >= 2"):
            sample_rows(solve_boundary(0.2, 0.5, 2.0, 1.0), n_points=1)

    def test_sample_rows_marks_singular_dual(self):
        rows = sample_rows(solve_boundary(0.0, 0.5, 2.0, 1.0), n_points=5)
        assert math.isnan(rows[0][2])  # z undefined at the zero endpoint
        assert rows[0][1] == 0.0
        assert all(len(row) == 4 for row in rows)
        assert not math.isnan(rows[-1][2])
