"""Tests for the Hamiltonian/Lagrangian calculus and the action functional."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline

import bdld
from bdld import ldp, quadrature
from bdld.chain import ModelParams
from bdld.ldp import (
    GridPath,
    hamiltonian,
    lagrangian,
    _cubic_hermite,
    prelimit_hamiltonian,
    rate_functional,
    rate_functional_report,
)
from bdld.optimal_paths import solve_boundary
from ldp_reference import BracketError, fenchel_hamiltonian, lagrangian_numeric

# Regression fixture: action of the solved path 0.5 -> 0.8 over T=1 at lam=1,
# cross-checked against scipy.integrate.quad and the analytic antiderivative
# c2 * [x(x+1)ln((x+1)/x)] evaluated at the ends.
ACTION_FIXTURE = 0.034929359588850

GAMMAS = st.floats(1e-3, 1.0)
VELOCITIES = st.floats(-2.0, 2.0)


class TestHamiltonian:
    def test_zero_kappa(self):
        assert hamiltonian(0.5, 0.0, 1.0) == 0.0

    def test_zero_gamma(self):
        for kappa in (-3.0, 0.1, 650.0):
            assert hamiltonian(0.0, kappa, 2.0) == 0.0

    def test_log_two(self):
        # (2 - 1) + (1/2 - 1) = 1/2
        assert abs(hamiltonian(1.0, math.log(2.0), 1.0) - 0.5) <= 1e-15

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            hamiltonian(0.5, 701.0, 1.0)
        with pytest.raises(ValueError):
            hamiltonian(1.5, 0.0, 1.0)

    @given(gamma=GAMMAS, kappa=st.floats(-5.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, gamma, kappa):
        assert hamiltonian(gamma, kappa, 1.0) >= 0.0

    @given(gamma=GAMMAS, kappa=st.floats(-4.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_convex_in_kappa(self, gamma, kappa):
        h = 1e-3
        second = (hamiltonian(gamma, kappa + h, 1.0)
                  - 2 * hamiltonian(gamma, kappa, 1.0)
                  + hamiltonian(gamma, kappa - h, 1.0))
        assert second >= -1e-12


class TestLagrangian:
    def test_zero_velocity_costs_nothing(self):
        for gamma in (1e-6, 0.3, 1.0):
            assert lagrangian(gamma, 0.0, 1.0) == 0.0

    def test_unit_kappa_value(self):
        value = lagrangian(0.5, 2 * 0.5 * math.sinh(1.0), 1.0)
        assert abs(value - (math.sinh(1.0) + 1.0 - math.cosh(1.0))) <= 1e-14

    def test_boundary_convention(self):
        assert lagrangian(0.0, 0.0, 1.0) == 0.0
        assert lagrangian(0.0, 0.3, 1.0) == math.inf
        assert lagrangian(0.0, -0.3, 1.0) == math.inf
        with pytest.raises(ValueError):
            lagrangian(-0.1, 0.0, 1.0)

    @given(gamma=GAMMAS, u=VELOCITIES)
    @settings(max_examples=100, deadline=None)
    def test_even_in_velocity(self, gamma, u):
        assert lagrangian(gamma, u, 1.0) == lagrangian(gamma, -u, 1.0)

    @given(gamma=GAMMAS, u=VELOCITIES)
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_with_zero_only_at_rest(self, gamma, u):
        value = lagrangian(gamma, u, 1.0)
        assert value >= 0.0
        if abs(u) > 1e-6:
            assert value > 0.0


    def test_matches_mpmath_down_to_small_velocities(self):
        # u*asinh(u/a) + a - hypot(u, a) lost about 2*log10(a/|u|) digits in
        # a - hypot(u, a): at |u|/a = 1e-8 none were left
        rng = np.random.Generator(np.random.Philox(key=np.array([2026, 40], dtype=np.uint64)))
        gammas = 10.0 ** rng.uniform(-12.0, 0.0, 400)
        lams = 10.0 ** rng.uniform(-3.0, 3.0, 400)
        ratios = np.concatenate([[1e-8, -1e-8], 10.0 ** rng.uniform(-8.0, 3.0, 398)])
        ratios[2:] *= rng.choice([-1.0, 1.0], 398)
        worst = 0.0
        with mp.workdps(60):
            for gamma, lam, ratio in zip(gammas, lams, ratios):
                u = float(ratio * 2.0 * lam * gamma)
                a = 2 * mp.mpf(lam) * mp.mpf(gamma)
                exact = u * mp.asinh(u / a) + a - mp.sqrt(mp.mpf(u) ** 2 + a ** 2)
                worst = max(worst, float(abs(lagrangian(gamma, u, lam) / exact - 1)))
        assert worst <= 1e-15


class TestLagrangianNumeric:
    def test_matches_closed_form_on_grid(self):
        worst = 0.0
        for gamma in np.linspace(0.05, 1.0, 12):
            for u in np.linspace(-2.0, 2.0, 12):
                gap = abs(lagrangian_numeric(gamma, u, 1.0) - lagrangian(gamma, u, 1.0))
                worst = max(worst, gap)
        assert worst <= 1e-8

    def test_rest_case(self):
        assert abs(lagrangian_numeric(0.4, 0.0, 1.0)) <= 1e-12

    def test_unit_point(self):
        expected = math.asinh(0.5) + 2.0 - math.sqrt(5.0)
        assert abs(lagrangian_numeric(1.0, 1.0, 1.0) - expected) <= 1e-10

    def test_requires_positive_gamma(self):
        with pytest.raises(ValueError):
            lagrangian_numeric(0.0, 0.5, 1.0)


class TestFenchelInverse:
    @given(gamma=st.floats(0.05, 1.0), kappa=st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_recovers_hamiltonian(self, gamma, kappa):
        gap = abs(fenchel_hamiltonian(gamma, kappa, 1.0) - hamiltonian(gamma, kappa, 1.0))
        assert gap <= 1e-6


class TestIntegrandEquivalence:
    def test_rationalized_form_matches_asinh_form(self):
        # The rationalized integrand, evaluated in 50-digit arithmetic to kill
        # its float64 cancellation for u < 0 near gamma = 0, must agree with
        # the asinh-form closed Lagrangian.
        mp.mp.dps = 50

        def rationalized(gamma, u, lam=1.0):
            g, u_, lam_ = mp.mpf(gamma), mp.mpf(u), mp.mpf(lam)
            a = 2 * lam_ * g
            return float(u_ * mp.log(u_ / a + mp.sqrt((u_ / a) ** 2 + 1))
                         - u_ + a - a ** 2 / (u_ + mp.sqrt(u_ ** 2 + a ** 2)))

        rng = np.random.Generator(np.random.Philox(key=np.array([2026, 7], dtype=np.uint64)))
        gammas = rng.uniform(1e-3, 1.0, 200)
        velocities = rng.uniform(-2.0, 2.0, 200)
        worst = max(abs(rationalized(g, u) - lagrangian(g, u, 1.0))
                    for g, u in zip(gammas, velocities))
        assert worst <= 1e-10


def _parabola_probe(x):
    """f(x) = (1 - x)^2 / 2, whose derivative x - 1 vanishes at 1."""
    return 0.5 * (1.0 - x) ** 2


class TestPrelimitHamiltonian:
    def test_constant_probe_vanishes(self):
        probe = lambda x: 4.0
        params = ModelParams(64, 1.3)
        for j in (1, 17, 64):
            assert prelimit_hamiltonian(probe, params, j / 64) == 0.0

    def test_linear_probe_is_n_independent(self):
        # For f(x) = x the exponent N * (1/N) = 1 exactly, so interior values
        # are gamma*(e - 1) + gamma*(1/e - 1) at every N.
        probe = lambda x: x
        for n in (10, 100, 1000):
            gamma = 0.3
            value = prelimit_hamiltonian(probe, ModelParams(n, 1.0), gamma)
            exact = gamma * (math.e - 1.0) + gamma * (1.0 / math.e - 1.0)
            assert abs(value - exact) <= 1e-12

    def test_boundary_points_use_one_sided_terms(self):
        f = _parabola_probe
        n, lam = 50, 1.0
        params = ModelParams(n, lam)
        low = (lam / n) * math.expm1(n * (f(2 / n) - f(1 / n)))
        assert prelimit_hamiltonian(f, params, 1 / n) == pytest.approx(low, abs=1e-15)
        high = lam * math.expm1(n * (f((n - 1) / n) - f(1.0)))
        assert prelimit_hamiltonian(f, params, 1.0) == pytest.approx(high, abs=1e-15)

    def test_error_decays_like_one_over_n(self):
        # N * sup-error stays put across two decades, i.e. the error is C/N
        probe = _parabola_probe
        scaled_errors = []
        for n in (100, 1000, 10_000):
            params = ModelParams(n, 1.0)
            worst = max(
                abs(prelimit_hamiltonian(probe, params, j / n)
                    - hamiltonian(j / n, j / n - 1.0, 1.0))
                for j in range(1, n + 1))
            scaled_errors.append(n * worst)
        assert max(scaled_errors) == pytest.approx(min(scaled_errors), rel=0.05)

    def test_probe_increment_that_would_overflow(self):
        # N * (f(x + 1/N) - f(x)) = 1000 for f(x) = 1000 x
        with pytest.raises(ValueError, match="would overflow"):
            prelimit_hamiltonian(lambda x: 1000.0 * x, ModelParams(100, 1.0), 0.5)

    def test_off_lattice_rejected(self):
        probe = lambda x: x
        with pytest.raises(ValueError):
            prelimit_hamiltonian(probe, ModelParams(10, 1.0), 0.55)
        with pytest.raises(ValueError):
            prelimit_hamiltonian(probe, ModelParams(10, 1.0), 0.0)


class TestGridPath:
    def test_validation(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            GridPath(t, np.full(5, 1.5), np.zeros(5))
        with pytest.raises(ValueError):
            GridPath(t[::-1], np.full(5, 0.5), np.zeros(5))
        with pytest.raises(ValueError):
            GridPath(t, np.full(5, 0.5), np.zeros(4))
        with pytest.raises(ValueError, match="two grid points"):
            GridPath([0.0], [0.5], [0.0])
        with pytest.raises(ValueError, match="two grid points"):
            GridPath.from_samples([0.0], [0.5])

    def test_descriptor_mismatch_detected(self):
        parabola = solve_boundary(0.0, 0.5, 2.0, 1.0)
        times = np.linspace(0.0, 2.0, 9)
        values = np.array([parabola.value(float(x)) for x in times])
        values[4] += 1e-6
        derivs = np.array([parabola.derivative(float(x)) for x in times])
        with pytest.raises(ValueError):
            GridPath(times, values, derivs, descriptor=parabola)

    def test_from_samples_differentiates(self):
        times = np.linspace(0.0, 1.0, 101)
        path = GridPath.from_samples(times, 0.25 + 0.1 * times ** 2)
        np.testing.assert_allclose(path.derivatives, 0.2 * times, atol=1e-10)

    def test_from_csv(self, tmp_path):
        csv_file = tmp_path / "path.csv"
        csv_file.write_text("t,gamma,dgamma\n0,0.5,0.1\n0.5,0.55,0.1\n1,0.6,0.1\n")
        path = GridPath.from_csv(csv_file)
        np.testing.assert_allclose(path.values, [0.5, 0.55, 0.6])
        np.testing.assert_allclose(path.derivatives, [0.1, 0.1, 0.1])
        csv_file2 = tmp_path / "nod.csv"
        csv_file2.write_text("t,gamma\n0,0.5\n0.5,0.55\n1,0.6\n")
        assert GridPath.from_csv(csv_file2).values[1] == 0.55

    def test_cubic_hermite_matches_scipy(self):
        # same coefficients, Horner's rule against scipy's power sums: equal
        # at every grid point but the last, where an interval takes its left
        # end, and within rounding elsewhere
        rng = np.random.default_rng(5)
        times = np.sort(rng.uniform(0.0, 2.0, 40))
        path = GridPath(times, rng.uniform(0.1, 0.9, 40), rng.normal(size=40))
        spline = CubicHermiteSpline(path.times, path.values, path.derivatives)
        dspline = spline.derivative()
        value, derivative = _cubic_hermite(path)
        assert [value(t) for t in times[:-1].tolist()] == path.values[:-1].tolist()
        assert [derivative(t) for t in times[:-1].tolist()] == path.derivatives[:-1].tolist()
        for t in np.concatenate([times, rng.uniform(times[0], times[-1], 400)]).tolist():
            assert abs(value(t) - float(spline(t))) <= 1e-14
            assert abs(derivative(t) - float(dspline(t))) <= 1e-12

    @pytest.mark.parametrize("text, message", [
        ("t,gamma\n0,0.5\n0.5\n1,0.6\n", "data row 2"),
        ("t,gamma,dgamma\n0,0.5,0.1\n1,0.6\n", "data row 2"),
        ("t,gamma\n0,0.5\n1,x\n", "data row 2"),
    ])
    def test_from_csv_bad_row(self, tmp_path, text, message):
        csv_file = tmp_path / "path.csv"
        csv_file.write_text(text)
        with pytest.raises(ValueError, match=message):
            GridPath.from_csv(csv_file)

    def test_from_csv_bad_header(self, tmp_path):
        csv_file = tmp_path / "path.csv"
        csv_file.write_text("time,state\n0,0.5\n1,0.6\n")
        with pytest.raises(ValueError, match="expected columns t,gamma"):
            GridPath.from_csv(csv_file)


class TestRateFunctional:
    def test_constant_path_is_free(self):
        pp = solve_boundary(0.3, 0.3, 1.0, 1.0)
        path = GridPath.from_descriptor(pp, 0.0, 1.0, 101)
        assert rate_functional(path, 1.0) == 0.0

    def test_regression_fixture(self):
        pp = solve_boundary(0.5, 0.8, 1.0, 1.0)
        path = GridPath.from_descriptor(pp, 0.0, 1.0)
        value = rate_functional(path, 1.0, tol=1e-11)
        assert abs(value - ACTION_FIXTURE) <= 1e-9

    def test_against_scipy_quad(self):
        pp = solve_boundary(0.5, 0.8, 1.0, 1.0)
        path = GridPath.from_descriptor(pp, 0.0, 1.0)
        mine = rate_functional(path, 1.0, tol=1e-11)
        reference, _ = quad(lambda t: lagrangian(pp.value(t), pp.derivative(t), 1.0),
                            0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        assert abs(mine - reference) <= 1e-9

    def test_log_singular_endpoint(self):
        # Analytic value for a path leaving zero: gammaT * ln((lam*T+1)/(lam*T)).
        for gamma_t in (0.1, 0.5):
            pp = solve_boundary(0.0, gamma_t, 2.0, 1.0)
            path = GridPath.from_descriptor(pp, 0.0, 2.0)
            value = rate_functional(path, 1.0, tol=1e-10)
            exact = gamma_t * math.log(1.5)
            assert abs(value - exact) <= 5e-10

    def test_grid_refinement_stability(self):
        # a smooth non-polynomial path given only as samples
        def gamma_fn(t):
            return 0.4 + 0.1 * np.sin(math.pi * t) + 0.05 * t

        def dgamma_fn(t):
            return 0.1 * math.pi * np.cos(math.pi * t) + 0.05

        values = []
        for n_points in (1001, 2001):
            times = np.linspace(0.0, 1.0, n_points)
            path = GridPath(times, gamma_fn(times), dgamma_fn(times))
            values.append(rate_functional(path, 1.0, tol=1e-10))
        assert abs(values[0] - values[1]) < 1e-7

    def test_interior_rest_at_zero_is_infinite(self):
        times = np.linspace(0.0, 1.0, 5)
        values = np.array([0.2, 0.1, 0.0, 0.1, 0.2])
        derivs = np.array([-0.4, -0.4, 0.4, 0.4, 0.4])
        path = GridPath(times, values, derivs)
        assert rate_functional(path, 1.0) == math.inf

    def test_interpolant_dipping_below_zero_is_infinite(self):
        # the cubic through (0, 0.01) and (1, 0.01) with slopes -1 and 1 is
        # -0.24 at t = 0.5: the integrand is not finite there
        path = GridPath([0.0, 1.0], [0.01, 0.01], [-1.0, 1.0])
        assert rate_functional(path, 1.0) == math.inf

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_lam_must_be_positive(self, lam):
        path = GridPath.from_descriptor(solve_boundary(0.5, 0.8, 1.0, 1.0), 0.0, 1.0)
        with pytest.raises(ValueError, match="lam must be positive"):
            rate_functional(path, lam)

    def test_report_fields(self):
        pp = solve_boundary(0.5, 0.8, 1.0, 1.0)
        path = GridPath.from_descriptor(pp, 0.0, 1.0, 501)
        report = rate_functional_report(path, 1.0, tol=1e-9)
        assert report["grid_size"] == 501
        assert abs(report["I"] - ACTION_FIXTURE) <= 1e-8
        assert report["quadrature_error_estimate"] <= 1e-8

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        path = GridPath.from_descriptor(solve_boundary(0.5, 0.8, 1.0, 1.0), 0.0, 1.0)
        for integrate in (rate_functional, rate_functional_report):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                integrate(path, 1.0, tol=tol)


class TestBracketGuard:
    def test_numeric_lagrangian_never_escapes(self):
        # sweep of routine points; BracketError would mean a broken maximizer
        for gamma in (0.05, 0.5, 1.0):
            for u in (-5.0, -0.3, 0.0, 0.7, 5.0):
                lagrangian_numeric(gamma, u, 1.0)

    def test_bracket_error_left_the_package(self):
        # the numerical transforms are test references, not package API
        assert issubclass(BracketError, RuntimeError)
        for name in ("BracketError", "lagrangian_numeric", "fenchel_hamiltonian", "_golden_max"):
            assert not hasattr(bdld, name) and not hasattr(ldp, name), name


class TestQuadrature:
    def test_non_finite_integrand(self):
        with pytest.raises(quadrature.NonIntegrableError, match="non-finite"):
            quadrature.integrate(lambda t: math.inf, 0.0, 1.0)

    def test_empty_interval(self):
        for abs_tol in (1e-9, 0.0, -1.0, math.nan):
            assert quadrature.integrate(math.sin, 1.0, 1.0, abs_tol) == (0.0, 0.0, 0)

    def test_reversed_interval(self):
        for a, b in ((1.0, 0.0), (math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match="bad interval"):
                quadrature.integrate(math.sin, a, b)

    def test_rules_are_exact_to_their_degree(self):
        # the double nodes and weights against int_{-1}^{1} x^k dx in 40-digit
        # arithmetic: K15 exact through degree 22 and G7 through 13 to 1e-16
        # (odd degrees cancel by symmetry), and neither one degree further
        with mp.workdps(40):
            for weights, degree in ((quadrature._WEIGHTS_K, 22), (quadrature._WEIGHTS_G, 13)):
                for k in range(0, degree + 3, 2):
                    rule = mp.fsum(mp.mpf(w) * mp.mpf(x) ** k * (2 if x else 1)
                                   for x, w in zip(quadrature._NODES, weights))
                    gap = abs(rule - mp.mpf(2) / (k + 1))
                    assert gap <= 1e-16 if k <= degree else gap > 1e-12

    def test_constant_is_exact(self):
        result = quadrature.integrate(lambda t: 1.0, 0.0, 1.0)
        assert result == (1.0, 0.0, 1)
        assert math.copysign(1.0, result.error_estimate) == 1.0  # not -0.0

    def test_step_splits_down_to_float_resolution(self, monkeypatch):
        # K15 and G7 sum a constant 3 to 6 - 2^-51 and 6, so no estimate at
        # height 3 meets abs_tol = 1e-300: each interval there is halved until
        # no float lies inside, and then kept as it is, the rule evaluated on
        # it twice.  (At height 1 both sums are exactly 2, and the halves on
        # each side of the step integrate exactly before float resolution.)
        a, b = 0.3 - 1e-15, 0.3 + 1e-15
        real, seen = quadrature._gk15, []
        monkeypatch.setattr(quadrature, "_gk15",
                            lambda f, lo, hi: seen.append((lo, hi)) or real(f, lo, hi))
        result = quadrature.integrate(lambda t: 3.0 if t >= 0.3 else 0.0, a, b, abs_tol=1e-300)
        assert len(set(seen)) < len(seen)
        assert result.error_estimate == 0.0
        assert abs(result.value - 3.0 * (b - 0.3)) <= 3.0 * math.ulp(0.3)
