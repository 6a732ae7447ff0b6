"""Tests for the uniformization oracle."""

import importlib.util
import math
import re
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import expm

from bdld import evolve
from bdld.chain import ModelParams, ProbabilityVector, jump_rates, stationary_distribution
from bdld.evolve import (
    _exit_probability,
    _kernel_apply,
    _poisson_mixture,
    _poisson_terms,
    _uniformized_kernel,
    _window_chain,
    empirical_rate_curve,
    endpoint_distribution,
    evolve_distribution,
    lattice_window,
    stationary_dwell_probability,
    window_log_probability,
    window_probability,
)
from bdld.optimal_paths import optimal_action
from bdld.simulate import SimConfig, _lln_band, sample_path

# the mpmath uniformization reference, lam = 1 (ln P at any depth)
_spec = importlib.util.spec_from_file_location(
    "mp_window", Path(__file__).resolve().parent.parent / "scripts" / "mp_window.py")
mp_window = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mp_window)

# Regression fixture: N=100, lam=1, t=1, start 50, window 78..82,
# computed once by uniformization at tol=1e-12.
WINDOW_FIXTURE = 0.004377798794991296


def _log_chain(params, m0, t, states, tol):
    """ln of the window mass from the window chain on the whole chain 1..N,
    as window_log_probability takes a deep window."""
    m, e, _ = _window_chain(_uniformized_kernel(params), m0, t, np.asarray(states), tol, True)
    prob = math.ldexp(m, e)
    if prob >= 2.2250738585072014e-308:
        return math.log(prob)
    return math.log(m) + e * math.log(2.0) if m else -math.inf


def _chain_mass(kern, m0, t, states, tol):
    """(P, sink bound) of the window chain on kern, P as a double, as
    window_probability takes a near window."""
    m, e, sinks = _window_chain(kern, m0, t, np.asarray(states), tol, False)
    return math.ldexp(m, e), sinks


class TestGeneratorMatrix:
    """The generator's rates as the uniformized kernel carries them."""

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 1000])
    def test_from_params_matches_jump_rates(self, n):
        # the default range 1..N, given or not, is the whole chain bit for bit
        params = ModelParams(n, 1.7)
        rates = np.array([jump_rates(params, m) for m in range(1, n + 1)])
        for kern in (_uniformized_kernel(params), _uniformized_kernel(params, 1, n)):
            assert kern.rate == 2.0 * 1.7 * n and kern.first == 1 and kern.sinks == ()
            assert kern.up.tobytes() == (rates[:, 0] / kern.rate).tobytes()
            assert kern.down.tobytes() == (rates[:, 1] / kern.rate).tobytes()
            assert kern.stay.tobytes() == (1.0 + -(rates[:, 0] + rates[:, 1]) / kern.rate).tobytes()
            # each row of K = I + Q/Lam sums to one: the generator's rows sum to zero
            assert float(np.abs(kern.up + kern.down + kern.stay - 1.0).max()) <= 1e-15


class TestEndpointDistribution:
    def test_time_zero_is_point_mass(self):
        dist = endpoint_distribution(ModelParams(7, 1.0), 3, 0.0)
        expected = np.zeros(7)
        expected[2] = 1.0
        np.testing.assert_array_equal(dist.mass, expected)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_two_state_closed_form(self, t):
        # eigenvalues 0 and -3*lam: P(X(t)=1 | X(0)=1) = 2/3 + (1/3) e^{-3 lam t}
        dist = endpoint_distribution(ModelParams(2, 1.0), 1, t, tol=1e-12)
        exact = 2 / 3 + math.exp(-3.0 * t) / 3
        assert abs(dist.prob(1) - exact) <= 1e-10

    def test_long_time_reaches_stationarity(self):
        params = ModelParams(20, 1.0)
        dist = endpoint_distribution(params, 10, 50.0, tol=1e-12)
        assert dist.tv_distance(stationary_distribution(params)) <= 5e-4

    @pytest.mark.parametrize("dist", [[1.0, -1.0, 0.0, 0.0, 1.0], [math.nan, 0.0, 0.0, 0.0, 1.0],
                                      [0.0] * 5, [2.0, 0.0, 0.0, 0.0, 0.0],
                                      [math.inf, 0.0, 0.0, 0.0, 0.0]])
    def test_raw_array_that_is_no_law_refused(self, dist):
        # a signed, NaN, empty or unnormalised array is checked as a
        # ProbabilityVector, not evolved into a "law"
        with pytest.raises(ValueError, match="mass"):
            evolve_distribution(ModelParams(5, 1.0), np.array(dist), 0.5)

    def test_raw_array_law_evolves_and_stays_writable(self):
        params, p = ModelParams(5, 1.0), np.full(5, 0.2)
        got = evolve_distribution(params, p, 0.5).mass
        assert got.tobytes() == evolve_distribution(params, ProbabilityVector(p.copy()), 0.5).mass.tobytes()
        p[0] = 0.0  # the caller's array is not frozen

    def test_law_of_another_size_refused(self):
        with pytest.raises(ValueError, match="dimension"):
            evolve_distribution(ModelParams(5, 1.0), np.full(4, 0.25), 0.5)

    def test_bad_inputs(self):
        params = ModelParams(5, 1.0)
        with pytest.raises(ValueError):
            endpoint_distribution(params, 0, 1.0)
        with pytest.raises(ValueError):
            endpoint_distribution(params, 2, -1.0)
        with pytest.raises(ValueError):
            endpoint_distribution(params, 2, 1.0, tol=1e-3)

    def test_tol_below_double_precision(self):
        # 1 - tol/2 must stay below 1 for the Poisson cutoff quantile to exist
        params = ModelParams(5, 1.0)
        for tol in (1e-17, 1.1e-16):
            with pytest.raises(ValueError, match="tol"):
                endpoint_distribution(params, 2, 1.0, tol=tol)
        dist = endpoint_distribution(params, 2, 1.0, tol=2.3e-16)
        assert abs(float(dist.mass.sum()) - 1.0) <= 1e-12

    def test_chapman_kolmogorov(self):
        params = ModelParams(50, 1.3)
        rng = np.random.default_rng(1)
        p0 = rng.random(50)
        p0 /= p0.sum()
        tol = 1e-12
        direct = evolve_distribution(params, p0, 0.9, tol)
        composed = evolve_distribution(params, evolve_distribution(params, p0, 0.5, tol), 0.4, tol)
        assert direct.tv_distance(composed) <= 20 * tol

    def test_semigroup_detailed_balance(self):
        # pi(a) P_t(a, b) = pi(b) P_t(b, a)
        params = ModelParams(20, 1.0)
        pi = stationary_distribution(params)
        tol = 1e-12
        for a, b, t in ((3, 11, 1.5), (1, 20, 0.7), (5, 6, 3.0)):
            fwd = pi.prob(a) * endpoint_distribution(params, a, t, tol).prob(b)
            bwd = pi.prob(b) * endpoint_distribution(params, b, t, tol).prob(a)
            assert abs(fwd - bwd) <= 10 * tol

    def test_matches_monte_carlo_endpoints(self):
        params = ModelParams(30, 1.0)
        t = 0.7
        exact = endpoint_distribution(params, 15, t, tol=1e-12)
        reps = 10_000
        counts = np.zeros(30)
        for rep in range(reps):
            traj = sample_path(params, SimConfig(horizon=t, seed=301, initial=15),
                               replication=rep)
            final = traj.states_after_jump[-1] if traj.n_jumps else traj.initial_state
            counts[final - 1] += 1
        freq = counts / reps
        se = np.sqrt(exact.mass * (1 - exact.mass) / reps)
        z = np.abs(freq - exact.mass) / np.maximum(se, 1e-12)
        assert float(z.max()) <= 3.0


class TestWindowProbability:
    def test_full_window(self):
        assert abs(window_probability(ModelParams(9, 1.0), 4, 0.8, range(1, 10)) - 1.0) <= 1e-11

    @pytest.mark.parametrize("n", [9, 10, 64, 256, 1024])
    def test_whole_chain_is_exactly_one(self, n):
        # where every K^r 1 is exactly 1, each order's window mass equals the
        # total mass of its power bit for bit, so ln P is exactly 0
        params = ModelParams(n, 1.0)
        states = np.arange(1, n + 1)
        _, _, columns = evolve._window_setup(_uniformized_kernel(params), states)
        assert (columns == 1.0).all()
        for m0 in (1, (n + 1) // 2, n):
            for t in (0.01, 0.3, 1.0, 5.0):
                assert window_log_probability(params, m0, t, states) == 0.0

    def test_point_window_at_time_zero(self):
        assert window_probability(ModelParams(9, 1.0), 4, 0.0, [4]) == 1.0

    def test_empty_window(self):
        with pytest.raises(ValueError, match="window must be a non-empty set of states"):
            window_probability(ModelParams(9, 1.0), 4, 1.0, [])

    @pytest.mark.parametrize("window, message", [
        ([3, 2.0], "window state must be an integer, got 2.0"),
        ([3, "4"], "window state must be an integer, got '4'"),
        ([3, True], "window state must be an integer, got True"),  # not the state 1
        ([3, np.True_], "window state must be an integer, got np.True_"),
        ([3, [4]], "window state must be an integer, got [4]"),
        ([0, 3], "window state=0 outside the state space 1..9"),
        ([3, np.int64(10)], "window state=10 outside the state space 1..9"),
        ([3, 2**70], f"window state={2**70} outside the state space 1..9"),
        ([np.uint64(3), -1], "window state=-1 outside the state space 1..9"),
        ([4, 10, True], "window state=10 outside the state space 1..9"),  # the first bad state
    ])
    def test_bad_window_state(self, window, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            window_probability(ModelParams(9, 1.0), 4, 1.0, window)

    def test_window_of_mixed_integer_types(self):
        # numpy holds int64 and uint64 states together only as float64
        params = ModelParams(9, 1.0)
        mixed = [np.uint64(3), 5]
        assert window_probability(params, 4, 1.0, mixed) == window_probability(params, 4, 1.0, [3, 5])

    @pytest.mark.parametrize("window", [
        range(1, 10), range(3, 7), range(9, 10), range(5, 5), range(7, 3), range(4, 11),
        range(0, 4), range(-2, 3), range(1, 10, 2), range(8, 2, -1), range(2, 9, 3)])
    def test_range_window_as_its_list(self, window):
        # a step-1 range in 1..N skips the list; every range normalises, or
        # fails, as the list of its states does
        params = ModelParams(9, 1.0)
        try:
            want = evolve._normalize_window(params, list(window))
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                evolve._normalize_window(params, window)
        else:
            got = evolve._normalize_window(params, window)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @pytest.mark.parametrize("window, want", [
        ([5, 3, 5, 3], [3, 5]),
        ([np.uint64(3), 5, 5], [3, 5]),
        ([np.uint64(9), np.int64(2), 2], [2, 9]),
        ([np.int8(2), np.uint16(7), 7], [2, 7]),
    ])
    def test_listed_window_is_its_distinct_states(self, window, want):
        got = evolve._normalize_window(ModelParams(9, 1.0), window)
        assert got.dtype == np.int64 and got.tolist() == want

    def test_start_must_be_an_integer_state(self):
        # a float or bool start is rejected by name, not by a numpy IndexError
        # or as the state True == 1; an out-of-range one keeps its message
        params = ModelParams(100, 1.0)
        for query, m0 in ((window_probability, 50.0), (window_log_probability, 50.5),
                          (window_probability, True)):
            with pytest.raises(ValueError, match="m0 must be an integer"):
                query(params, m0, 1.0, [1, 2])
        with pytest.raises(ValueError, match="m0 must be an integer"):
            endpoint_distribution(params, 50.0, 1.0)
        for m0 in (0, 101):
            with pytest.raises(ValueError, match=f"m0={m0} outside the state space 1..100"):
                window_probability(params, m0, 1.0, [1, 2])
            with pytest.raises(ValueError, match=f"m0={m0} outside the state space 1..100"):
                endpoint_distribution(params, m0, 1.0)
        assert window_probability(params, np.int64(50), 1.0, [50]) == \
            window_probability(params, 50, 1.0, [50])

    def test_regression_fixture(self):
        prob = window_probability(ModelParams(100, 1.0), 50, 1.0, range(78, 83), tol=1e-12)
        assert abs(prob - WINDOW_FIXTURE) <= 1e-10 * WINDOW_FIXTURE + 1e-15

    @pytest.mark.parametrize("n, lo, t, log_p", [
        # ln P from scripts/mp_window.py: below 1e-280, and still a normal double
        (600, 590, 0.1, -344.5587498670288),
        (2150, 2007, 0.2, -633.7553380338289),
    ])
    def test_mass_below_the_linear_threshold(self, n, lo, t, log_p):
        params = ModelParams(n, 1.0)
        prob = window_probability(params, n // 2, t, range(lo, n + 1))
        assert math.log(prob) == window_log_probability(params, n // 2, t, range(lo, n + 1))
        assert abs(math.log(prob) - log_p) <= 1e-9 * abs(log_p)

    def test_mass_below_the_smallest_double(self):
        # ln P is about -943 (TestLogSpaceWindow)
        with pytest.raises(ValueError, match="underflows to zero"):
            window_probability(ModelParams(400, 1.0), 200, 0.002, range(395, 401), tol=1e-10)

    def test_exact_zero_is_not_an_underflow(self):
        # at t = 0 the chain sits at m0, outside the window: P is exactly 0
        params = ModelParams(10, 1.0)
        assert window_log_probability(params, 5, 0.0, [7]) == -math.inf
        assert window_probability(params, 5, 0.0, [7]) == 0.0
        # two steps in time 1e-300: ln P = -1378.8, a true underflow
        logp = window_log_probability(params, 5, 1e-300, [7])
        assert abs(logp + 1378.8) <= 0.05
        with pytest.raises(ValueError, match="underflows to zero"):
            window_probability(params, 5, 1e-300, [7])

    def test_log_agrees_with_linear(self):
        logp = window_log_probability(ModelParams(100, 1.0), 50, 1.0, range(78, 83), tol=1e-12)
        assert abs(math.exp(logp) - WINDOW_FIXTURE) <= 1e-9 * WINDOW_FIXTURE

    def test_log_space_chain_matches_linear_chain(self):
        # the chain on the whole chain against the query, a near window,
        # which runs on its kept range
        params = ModelParams(60, 1.0)
        states = np.arange(40, 46)
        linear = window_probability(params, 30, 0.8, states, tol=1e-12)
        logp = _log_chain(params, 30, 0.8, states, 1e-12)
        assert abs(logp - math.log(linear)) <= 1e-9

    def test_deep_tail_beyond_float_range(self):
        # A window needing far more jumps than the bulk Poisson cutoff: the
        # window chain must resolve masses way below 1e-308 and land near the
        # action of the window's cheap edge.
        edge_action = optimal_action(0.5, 0.97, 0.1, 1.0)
        gaps = []
        for n in (600, 2000):
            params = ModelParams(n, 1.0)
            lo, hi = round(0.97 * n), round(0.99 * n)
            logp = window_log_probability(params, n // 2, 0.1,
                                          range(lo, hi + 1), tol=1e-10)
            assert math.isfinite(logp)
            assert logp < -300.0  # far beyond linear-space resolution
            rate = -logp / n
            assert rate > edge_action  # finite-N rates approach I from above
            gaps.append(rate - edge_action)
        assert gaps[1] < gaps[0]
        assert gaps[1] <= 0.01


class TestLinearWindowCertificate:
    """A window mass is certified relative to itself, not to the total mass
    the bulk Poisson cutoff covers."""

    @pytest.mark.parametrize("lo", [230, 240, 250, 258, 260])
    def test_small_window_matches_log_space_chain(self, lo):
        # mu = 60 puts the bulk cutoff at K = 117, while these windows draw
        # their mass from orders near or past it: at lo = 260 the cutoff
        # alone gives ln P = -126.75 against -116.57
        params = ModelParams(300, 1.0)
        states = np.arange(lo, lo + 6)
        logp = window_log_probability(params, 150, 0.1, states, tol=1e-10)
        exact = _log_space_reference(params, 150, 0.1, states, 1e-13)
        assert abs(logp - exact) <= 2e-10 + 1e-12 * abs(exact)
        assert math.exp(logp) > 1e-280  # and an untiled pass answers
        assert math.log(window_probability(params, 150, 0.1, states, tol=1e-10)) == logp
        if lo == 260:
            assert abs(exact - -116.5727) <= 1e-4

    def test_certified_window_is_unchanged(self):
        # the bulk window is certified at the cutoff, so its answer is the
        # endpoint distribution's up to the order of summation
        params = ModelParams(100, 1.0)
        dist = endpoint_distribution(params, 50, 1.0, tol=1e-12)
        for lo, hi in ((1, 100), (40, 60)):
            prob = window_probability(params, 50, 1.0, range(lo, hi + 1), tol=1e-12)
            assert abs(prob / float(dist.mass[lo - 1:hi].sum()) - 1.0) <= 1e-13

    def test_rounding_drift_of_the_powers_cancels(self):
        # from state 2 at mu = 4000, rounding moves the powers' total mass off
        # 1 by 1.1e-13 on the Poisson average; the chain divides by the same
        # sum over the total masses, as a law is normalised, so the whole
        # chain reads 1, and so does the chain but its top state, which holds
        # far less than 1e-14 at t = 1
        for top in (2000, 1999):
            prob = window_probability(ModelParams(2000, 1.0), 2, 1.0, range(1, top + 1))
            assert abs(prob - 1.0) <= 1e-14


class TestLogSpaceWindow:
    def test_mass_below_exp_minus_745(self):
        # ln P is about -943: every Poisson tail term lies below the smallest
        # double, so a stop rule built on scipy's logsf saw a zero tail at
        # k = 0 and returned -inf.
        params = ModelParams(400, 1.0)
        logp = window_log_probability(params, 200, 0.002, range(395, 401), tol=1e-10)
        exact = float(mp_window.log_window(400, 200, 0.002, 395, 400))
        assert exact < -745.0
        assert abs(logp - exact) <= 1e-9 * abs(exact)

    @pytest.mark.parametrize("states", [range(25, 36), range(1, 61), [2, 30, 59]])
    def test_window_holding_the_start(self, states):
        # the k = 0 term counts toward the window mass
        params = ModelParams(60, 1.0)
        linear = window_probability(params, 30, 0.8, states, tol=1e-12)
        logp = _log_chain(params, 30, 0.8, np.array(states), 1e-12)
        assert abs(logp - math.log(linear)) <= 1e-9

    def test_time_zero(self):
        params = ModelParams(20_000, 1.0)
        states = np.arange(19_990, 20_001)
        assert window_log_probability(params, 10, 0.0, states) == -math.inf
        assert _log_chain(params, 10, 0.0, states, 1e-12) == -math.inf
        assert window_log_probability(params, 19_995, 0.0, states) == 0.0
        assert _log_chain(params, 19_995, 0.0, states, 1e-12) == 0.0

    def test_non_contiguous_window(self):
        # one half below m0 and one above, of masses within e^10 of each
        # other, so dropping either half would show
        params = ModelParams(600, 1.0)
        tol = 1e-10
        halves = (range(70, 76), range(575, 581))
        both = window_log_probability(params, 300, 0.01, [*halves[0], *halves[1]], tol)
        parts = [window_log_probability(params, 300, 0.01, half, tol) for half in halves]
        assert max(parts) < math.log(1e-280)  # far below a normal double
        assert abs(parts[0] - parts[1]) < 10.0
        assert abs(both - np.logaddexp(*parts)) <= 2.0 * tol + 1e-12 * abs(both)


class TestEmpiricalRateCurve:
    def test_constant_target_rates_vanish(self):
        curve = empirical_rate_curve([ModelParams(n, 1.0) for n in (50, 100, 200)],
                                     0.5, 0.5, 1.0, 0.02)
        rates = [pt.rate for pt in curve]
        assert rates[0] > rates[1] > rates[2] > 0.0
        assert rates[2] < 0.01

    def test_wider_window_cannot_increase_rate(self):
        narrow = empirical_rate_curve([ModelParams(100, 1.0)], 0.5, 0.8, 1.0, 0.02)[0]
        wide = empirical_rate_curve([ModelParams(100, 1.0)], 0.5, 0.8, 1.0, 0.04)[0]
        assert wide.rate <= narrow.rate
        assert wide.window_prob >= narrow.window_prob

    @pytest.mark.parametrize("half_width", [0.9, 1e300, 1e308])
    def test_window_wider_than_the_chain(self, half_width):
        # (gammaT -+ h) * N overflows to -+inf at 1e308; the window is 1..N
        assert lattice_window(50, 0.8, half_width) == (1, 50)
        point, = empirical_rate_curve([ModelParams(50, 1.0)], 0.5, 0.8, 1.0, half_width)
        assert abs(point.window_prob - 1.0) <= 1e-12

    def test_lattice_window_rounds_each_end(self):
        assert lattice_window(100, 0.8, 0.02) == (78, 82)
        assert lattice_window(100, 0.005, 0.02) == (1, 2)
        assert lattice_window(100, 0.0, 0.0) == (1, 0)  # empty

    def test_preconditions(self):
        with pytest.raises(ValueError):
            empirical_rate_curve([ModelParams(50, 1.0)], 0.0, 0.8, 1.0, 0.02)
        with pytest.raises(ValueError):
            empirical_rate_curve([ModelParams(50, 1.0)], 0.5, 1.0, 1.0, 0.02)
        with pytest.raises(ValueError):
            empirical_rate_curve([ModelParams(50, 1.0)], 0.5, 0.8, 1.0, -0.1)
        # lattice_window(100, 0.001, 0.001) is (1, 0): no state to end in
        with pytest.raises(ValueError, match="empty window at N=100"):
            empirical_rate_curve([ModelParams(100, 1.0)], 0.5, 0.001, 1.0, 0.001)


class TestStationaryDwellProbability:
    def test_single_time_zero_is_prefix_mass(self):
        # at t=0 the event is just "start below the threshold"
        params = ModelParams(2, 1.0)
        prob = stationary_dwell_probability(params, 0.6, [0.0])
        assert abs(prob - 2 / 3) <= 1e-12

    def test_two_times_two_states(self):
        # P(X(0)=1, X(t)=1) = pi(1) * (2/3 + e^{-3t}/3)
        t = 0.4
        prob = stationary_dwell_probability(ModelParams(2, 1.0), 0.6, [0.0, t])
        exact = (2 / 3) * (2 / 3 + math.exp(-3 * t) / 3)
        assert abs(prob - exact) <= 1e-10

    def test_first_sample_time_needs_no_evolution(self, monkeypatch):
        # X(t_1) is stationary: one sample time at t = 0.7 is pi's mass below u
        params = ModelParams(300, 1.0)
        pi = stationary_distribution(params).mass
        below = float(np.where(np.arange(1, 301) / 300 < 0.4, pi, 0.0).sum())

        def never(*args):
            raise AssertionError("evolved before the first sample time")

        monkeypatch.setattr(evolve, "_poisson_mixture", never)
        assert stationary_dwell_probability(params, 0.4, [0.7]) == below

    def test_sample_times_shift_freely(self):
        # the stationary chain is time-homogeneous
        params = ModelParams(300, 1.0)
        late = stationary_dwell_probability(params, 0.55, [0.3, 0.7, 1.0])
        early = stationary_dwell_probability(params, 0.55, [0.0, 0.4, 0.7])
        assert abs(late / early - 1.0) <= 1e-13

    def test_unreachable_threshold(self):
        # u below 1/N forbids every state
        assert stationary_dwell_probability(ModelParams(4, 1.0), 0.2, [0.0, 0.5]) == 0.0

    def test_empty_times_rejected(self):
        with pytest.raises(ValueError):
            stationary_dwell_probability(ModelParams(4, 1.0), 0.5, [])

    @pytest.mark.parametrize("times", [[math.nan], [0.1, math.nan, 0.3]])
    def test_non_finite_times_rejected(self, times):
        # a NaN time once read as no evolution at all: the t = 0 answer
        with pytest.raises(ValueError, match="finite"):
            stationary_dwell_probability(ModelParams(50, 1.0), 0.5, times)


def _reference_mixture(p, kern, weights):
    """The Poisson mixture one order at a time: the sum over k of
    weights[k] * p K^k."""
    acc = weights[0] * p
    for w in weights[1:]:
        p = _kernel_apply(p, kern)
        acc += w * p
    return acc


def _linear_window_reference(params, m0, t, states, tol):
    """The window mass one Poisson order at a time over every state, in
    linear arithmetic: the weights of _poisson_terms, then pmf(k) =
    pmf(k-1) * mu/k past the cutoff K until the window chain's certificate
    holds, divided by the sum of the weights times each power's total mass.
    None where the mass at K is below 1e-280, where its own linear sum
    loses digits."""
    kern = _uniformized_kernel(params)
    mu = kern.rate * t
    weights = _poisson_terms(mu, tol)
    idx = np.asarray(states) - 1
    p = np.eye(params.n_states)[m0 - 1]
    acc = used = 0.0
    for k, w in enumerate(weights):
        if k:
            p = _kernel_apply(p, kern)
        acc += w * float(p[idx].sum())
        used += w * float(p.sum())
    if acc / used < 1e-280:
        return None
    k, w = weights.size - 1, float(weights[-1])
    while not (k + 2 > mu and w * mu / (k + 1) / (1.0 - mu / (k + 2)) <= 0.5 * tol * acc):
        k += 1
        w *= mu / k
        p = _kernel_apply(p, kern)
        acc += w * float(p[idx].sum())
        used += w * float(p.sum())
    return acc / used


def _log_space_reference(params, m0, t, states, tol):
    """ln of the window mass by the log-space uniformization sum, one Poisson
    order at a time over every state, with the window chain's stopping rule."""
    kern = _uniformized_kernel(params)
    mu = kern.rate * t
    with np.errstate(divide="ignore"):
        l_up, l_down, l_stay = np.log(kern.up), np.log(kern.down), np.log(kern.stay)
    lp = np.full(params.n_states, -np.inf)
    lp[m0 - 1] = 0.0
    idx = np.asarray(states) - 1
    k, log_pmf = 0, -mu
    acc = log_pmf + np.logaddexp.reduce(lp[idx])
    while not (k + 2 > mu and acc > -np.inf and log_pmf + math.log(mu / (k + 1))
               - math.log1p(-mu / (k + 2)) <= acc + math.log(0.5 * tol)):
        k += 1
        log_pmf += math.log(mu) - math.log(k)
        nxt = lp + l_stay
        nxt[1:] = np.logaddexp(nxt[1:], lp[:-1] + l_up[:-1])
        nxt[:-1] = np.logaddexp(nxt[:-1], lp[1:] + l_down[1:])
        lp = nxt
        acc = np.logaddexp(acc, log_pmf + np.logaddexp.reduce(lp[idx]))
    return float(acc)


class TestPoissonTerms:
    """The Poisson weights against a 40-digit mpmath Poisson law."""

    @pytest.mark.parametrize("mu", [0.3, 60.0, 467.0, 6400.0])
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_weights_and_cutoff_match_mpmath(self, mu, tol):
        weights = _poisson_terms(mu, tol)
        k_max = weights.size - 1
        with mp.workdps(40):
            pmf = [mp.exp(-mp.mpf(mu))]
            for k in range(1, k_max + 1):
                pmf.append(pmf[-1] * mu / k)

            def tail(k):  # P(X > k)
                return mp.gammainc(k + 1, 0, mu, regularized=True) if k >= 0 else mp.mpf(1)
            for w, exact in zip(weights.tolist(), pmf):
                if exact >= mp.mpf("1e-200"):
                    assert abs(w / exact - 1) <= 1e-13
            # omitted mass at most tol/2, and K at most one order above the
            # smallest cutoff whose tail is that small
            assert tail(k_max) <= 0.5 * tol
            assert tail(k_max - 2) > 0.5 * tol

    def test_time_zero_is_one_order(self):
        assert _poisson_terms(0.0, 1e-12).tolist() == [1.0]

    def test_the_bound_on_the_mean(self):
        assert evolve._poisson_top(evolve._MU_MAX) > evolve._MU_MAX
        for mu in (math.nextafter(evolve._MU_MAX, math.inf), math.inf, math.nan):
            with pytest.raises(ValueError, match=re.escape(f"mu = Lam*t = {mu!r} exceeds 1e+07")):
                evolve._poisson_top(mu)
        # a subnormal mean has lost its digits; the least normal one and 0 are summed
        assert evolve._poisson_top(2.2250738585072014e-308) == evolve._poisson_top(0.0) == 40
        for mu in (5e-324, 1e-310, math.nextafter(2.2250738585072014e-308, 0.0)):
            with pytest.raises(ValueError, match=re.escape(f"mu = Lam*t = {mu!r} is subnormal")):
                evolve._poisson_top(mu)
        # t = 5e-324 at N = 50 is a mean of 4.9e-322
        with pytest.raises(ValueError, match="is subnormal"):
            window_log_probability(ModelParams(50, 1.0), 25, 5e-324, [30], 1e-10)

    @pytest.mark.parametrize("t, window", [(1e-305, [30]), (1e-303, [30]), (1e-305, [20])])
    def test_a_mean_below_2_to_the_minus_1000(self, t, window):
        # mu = 1e-303: even the first weight past the mode, mu e^-mu, lies
        # below 2^-1000, so the mantissas start from the mode's own
        params = ModelParams(50, 1.0)
        mu, k = 100.0 * t, np.arange(41)
        _, f, a = evolve._poisson_scaled(mu, 40)
        log_pmf = k * math.log(mu) - np.cumsum(np.log(np.maximum(k, 1)))  # e^-mu rounds to 1
        assert (f > 0.0).all()
        assert np.allclose(np.log(f) + a * math.log(2.0), log_pmf, rtol=1e-14, atol=0.0)
        got = window_log_probability(params, 25, t, window, 1e-10)
        ref = _log_space_reference(params, 25, t, window, 1e-10)
        assert abs(got - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("query", [
        lambda: window_log_probability(ModelParams(10, 1.0), 5, 1e12, [8]),
        lambda: window_log_probability(ModelParams(10, 1.0), 5, 1e160, [8]),
        lambda: window_log_probability(ModelParams(10, 1.0), 5, 1e300, [8]),
        lambda: stationary_dwell_probability(ModelParams(10, 1.0), 0.5, [0, 1e12]),
        lambda: endpoint_distribution(ModelParams(10, 1.0), 5, 1e12),
    ])
    def test_a_larger_mean_is_refused_before_any_weight_is_built(self, query):
        # unchecked, these would ask numpy for 146 TiB or overflow int(inf)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"the Poisson mean mu = Lam\*t = .* exceeds"):
                query()
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()


class TestBlockedKernel:
    """The oracle steps _S Poisson orders per numpy pass through the band of
    K^_S; these compare it with plain loops over one order at a time."""

    @pytest.mark.parametrize("n", [2, 3, 50, 1000])
    @pytest.mark.parametrize("k_max", [0, 1, 7, 8, 9, 16, 17])
    def test_linear_mixture_matches_order_by_order_loop(self, n, k_max, monkeypatch):
        # arbitrary positive weights for the orders 0..k_max, so the cutoff
        # K is pinned at the block edges
        weights = np.random.default_rng(k_max).uniform(0.5, 1.5, k_max + 1)
        monkeypatch.setattr(evolve, "_poisson_terms", lambda mu, tol: weights)
        params = ModelParams(n, 1.0)
        kern = _uniformized_kernel(params)
        starts = [np.eye(n)[m - 1] for m in (1, n, (n + 1) // 2)]
        for p in starts + [stationary_distribution(params).mass]:
            acc = _poisson_mixture(p, kern, 0.3, 1e-12)
            ref = _reference_mixture(p, kern, weights)
            assert np.array_equal(acc == 0.0, ref == 0.0)
            nonzero = ref != 0.0
            assert np.all(np.abs(acc[nonzero] / ref[nonzero] - 1.0) <= 1e-13)

    def test_time_zero_is_exact(self):
        params = ModelParams(50, 1.0)
        p = stationary_distribution(params).mass
        acc = _poisson_mixture(p, _uniformized_kernel(params), 0.0, 1e-12)
        assert acc.tobytes() == p.tobytes()

    @staticmethod
    def _stepped_band(kern):
        """The band of K^_S in _block_gather's form by _S kernel steps from
        the identity's, every step over all 2*_S+1 band rows."""
        s, n = evolve._S, kern.stay.size
        g = np.zeros((2 * s + 1, n))
        g[s] = 1.0
        for _ in range(s):
            h = g * kern.stay
            h[:-1, 1:] += g[1:, :-1] * kern.up[:-1]
            h[1:, :-1] += g[:-1, 1:] * kern.down[1:]
            g = h
        return g

    def _assert_band_matches_steps(self, kern):
        # squaring sums the same nonnegative products in another order: the
        # same zeros, and each entry within 32 ulps of the stepped one
        got, ref = evolve._block_gather(kern), self._stepped_band(kern)
        assert got.shape == ref.shape
        assert np.array_equal(got == 0.0, ref == 0.0)
        nonzero = ref != 0.0
        assert np.all(np.abs(got[nonzero] / ref[nonzero] - 1.0) <= 32 * np.finfo(float).eps)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 50, 1000])
    def test_block_gather_matches_full_band_steps(self, n):
        self._assert_band_matches_steps(_uniformized_kernel(ModelParams(n, 1.3)))

    @pytest.mark.parametrize("n, sinks", [(2, [2]), (3, [2]), (17, [1, 9]), (33, [5, 33]),
                                          (300, [40, 150, 260])])
    def test_squared_band_with_sinks_matches_the_stepped_band(self, n, sinks):
        # the band of K^_S by squaring against _S steps, entry by entry, on
        # 1..N with sinks at the chain's ends and inside it
        kern = _uniformized_kernel(ModelParams(n, 1.3), 1, n, sinks)
        self._assert_band_matches_steps(kern)
        s, g = evolve._S, evolve._block_gather(kern)
        col = np.arange(n)
        row = col + np.arange(2 * s + 1)[:, None] - s  # G[i, m] = B[row[i, m], m]
        assert (g[(row < 0) | (row >= n)] == 0.0).all()  # past the chain's ends
        for sink in kern.sinks:
            # no mass leaves a sink or crosses it: exact zeros, and its row is e_s
            crossing = (row - sink) * (col - sink) < 0
            assert (g[crossing | ((row == sink) & (col != sink))] == 0.0).all()
            assert g[s, sink] == 1.0

    @pytest.mark.parametrize("n, lo, hi", [(1000, 200, 700), (400, 1, 300), (400, 100, 400)])
    def test_block_gather_keeps_sinks_absorbing(self, n, lo, hi):
        kern = _uniformized_kernel(ModelParams(n, 1.3), lo, hi)
        assert kern.sinks
        self._assert_band_matches_steps(kern)
        # a sink's row of K^_S is exactly e_s: G[i, m] = B[m+i-_S, m]
        s, g = evolve._S, evolve._block_gather(kern)
        for sink in kern.sinks:
            row = [g[i, sink + s - i] for i in range(2 * s + 1) if 0 <= sink + s - i < kern.stay.size]
            assert sorted(row) == [0.0] * (len(row) - 1) + [1.0]
            assert g[s, sink] == 1.0

    @pytest.mark.parametrize("n", [2, 3, 50, 1000])
    def test_linear_window_chain_matches_order_by_order_loop(self, n):
        # windows at both ends and in the middle, from starts at both ends and
        # in the middle; t = 0, cutoffs K < _S, and K far past it; where the
        # linear reference loses digits, the log-space one.  The references
        # run to tol 1e-15, and the chain is certified to tol/2 = 5e-13 and
        # 1% more for what it drops
        params = ModelParams(n, 1.0)
        kern = _uniformized_kernel(params)
        mid = (n + 1) // 2
        windows = [[1], [n], list(range(1, min(n, 3) + 1)), list(range(max(1, n - 2), n + 1)),
                   list(range(max(1, mid - 5), min(n, mid + 5) + 1))]
        cutoffs = set()
        for mu in (0.0, 1e-3, 0.5, 30.0, 0.6 * n):
            t = mu / kern.rate
            cutoffs.add(_poisson_terms(mu, 1e-12).size - 1)
            for m0 in {1, n, mid}:
                for states in windows:
                    got, sinks = _chain_mass(kern, m0, t, states, 1e-12)
                    assert sinks == 0.0  # no state absorbs
                    ref = _linear_window_reference(params, m0, t, states, 1e-15)
                    if ref is not None:
                        assert abs(got / ref - 1.0) <= 5.05e-13 + 1e-14
                    elif mu == 0.0:
                        assert got == 0.0  # m0 outside the window
                    else:
                        ref = _log_space_reference(params, m0, t, states, 1e-15)
                        logp = _log_chain(params, m0, t, states, 1e-12)
                        assert abs(logp - ref) <= 5.05e-13 + 1e-13 * abs(ref)
        assert min(cutoffs) == 0 and any(0 < k < evolve._S for k in cutoffs)
        assert max(cutoffs) > evolve._S

    @pytest.mark.parametrize("n, m0, t, states, tol", [
        (400, 200, 0.002, range(395, 401), 1e-13),
        (600, 300, 0.1, range(590, 601), 1e-13),
        (2000, 1000, 0.1, range(1940, 1981), 1e-13),
        (60, 30, 0.8, [2, 30, 59], 1e-13),
        (600, 300, 0.01, [*range(70, 76), *range(575, 581)], 1e-13),
        (3, 1, 0.5, [3], 1e-13),
        (1000, 1, 0.05, range(1, 4), 1e-13),
    ])
    def test_log_space_chain_matches_order_by_order_loop(self, n, m0, t, states, tol):
        params = ModelParams(n, 1.0)
        logp = _log_chain(params, m0, t, np.array(states), tol)
        ref = _log_space_reference(params, m0, t, states, tol)
        # relative to ln P, or to P itself when |ln P| < 1
        assert abs(logp - ref) <= 1e-13 * max(1.0, abs(ref))

    @pytest.mark.parametrize("n, m0, t, lo, hi", [
        (60, 30, 0.05, 55, 60),
        (200, 100, 0.005, 195, 200),
    ])
    def test_log_space_chain_matches_mpmath(self, n, m0, t, lo, hi):
        logp = _log_chain(ModelParams(n, 1.0), m0, t, np.arange(lo, hi + 1), 1e-13)
        assert abs(logp - float(mp_window.log_window(n, m0, t, lo, hi))) <= 1e-13 * abs(logp)


def _log_step_reference(kern, y, lo, hi):
    """ln of (e^y K^_S) on the states lo..hi-1, one log-sum-exp per state
    over the band's entries, carried out in mpmath at 40 digits."""
    s, band = evolve._S, kern.band
    out = []
    with mp.workdps(40):
        for m in range(lo, hi):
            terms = [mp.log(band[m, i]) + y[m + i - s] for i in range(2 * s + 1)
                     if 0 <= m + i - s < len(y) and y[m + i - s] > -math.inf and band[m, i] > 0]
            out.append(float(mp.log(mp.fsum(mp.exp(x) for x in terms))) if terms else -math.inf)
    return np.array(out)


def _tiled_step(kern, y, lo, hi):
    """One tiled step of the power whose logs are y, over the states
    lo..hi-1, as _step_tiles gives it, with each tile holding its largest
    value at 2^_HEAD."""
    tile, n = evolve._TILE, y.size
    tiles = -(-n // tile)
    ring = np.zeros((2, (tiles + 2) * tile))
    exps = np.full((2, tiles + 2), evolve._NO_MASS, dtype=np.int64)
    for t in range(tiles):
        part = y[t * tile:(t + 1) * tile]
        if np.isfinite(part).any():
            exps[0, t + 1] = math.floor(part.max() / math.log(2.0)) - evolve._HEAD
            ring[0, (t + 1) * tile:(t + 1) * tile + part.size] = \
                np.exp(part - exps[0, t + 1] * math.log(2.0))
    return _step_tiles(kern, ring, exps, n, lo, hi)


def _step_tiles(kern, ring, exps, n, lo, hi):
    """One tiled step over the states lo..hi-1 of the n states held in ring
    row 0, tile t at the binary exponent exps[0, t + 1]: its input as
    40-digit logs, the logs it writes there, and the flushed marks per
    tile."""
    tile, tiles = evolve._TILE, exps.shape[1] - 2
    with mp.workdps(40):
        exact = [mp.log(v) + int(exps[0, 1 + m // tile]) * mp.log(2) if v > 0.0 else -math.inf
                 for m, v in enumerate(ring[0, tile:tile + n].tolist())]
    flushed = np.full(tiles, evolve._NO_MASS)
    evolve._tiled_stepper(ring, exps, kern.band, flushed)(1, lo, hi)
    assert np.all(ring[1, :tile + lo] == 0.0) and np.all(ring[1, tile + hi:] == 0.0)
    with mp.workdps(40):
        got = [float(mp.log(v) + int(exps[1, 1 + m // tile]) * mp.log(2)) if v > 0.0 else -math.inf
               for m, v in zip(range(lo, hi), ring[1, tile + lo:tile + hi].tolist())]
    return exact, np.array(got), flushed


class TestTiledLogStep:
    """The window chain steps each tile of _TILE states at its own binary
    exponent, bringing its halos there; a tile spanning more than the double
    range flushes, and marks what it may have flushed."""

    @staticmethod
    def _logs(n, s0, s1, slope, seed):
        # a random walk of log-probabilities (all <= 0) on s0..s1-1, -inf elsewhere
        y = np.full(n, -np.inf)
        walk = np.cumsum(np.random.default_rng(seed).uniform(-slope, slope, s1 - s0))
        y[s0:s1] = walk - walk.max()
        return y

    @staticmethod
    def _agree(got, ref):
        # ln of a sum of at most 2 _S + 1 products: within 2 ulps of ln P, or
        # 2 _S + 1 rounding errors of P itself
        finite = np.isfinite(ref)
        assert np.array_equal(np.isfinite(got), finite)
        slack = np.maximum(2.0 * np.spacing(np.maximum(np.abs(ref[finite]), 1.0)),
                           (2 * evolve._S + 1) * 2.0 ** -52)
        assert np.all(np.abs(got[finite] - ref[finite]) <= slack)

    @pytest.mark.parametrize("n, s0, s1, slope", [
        (300, 0, 300, 20.0),   # the support touches state 1 and state N
        (300, 0, 150, 5.0),
        (500, 200, 500, 20.0),
        (200, 50, 120, 1.0),   # one tile and a part
        (1000, 3, 990, 12.0),
        (40, 10, 30, 3.0),     # fewer states than a tile
    ])
    def test_matches_per_state_log_sum_exp(self, n, s0, s1, slope):
        kern = _uniformized_kernel(ModelParams(n, 1.3))
        lo, hi = max(0, s0 - evolve._S), min(n, s1 + evolve._S)
        exact, got, flushed = _tiled_step(kern, self._logs(n, s0, s1, slope, seed=n + s0), lo, hi)
        assert (flushed == evolve._NO_MASS).all()  # nothing flushed
        self._agree(got, _log_step_reference(kern, exact, lo, hi))

    def test_halos_at_other_exponents(self):
        # three tiles 600 nats apart, so each tile's halos come from tiles
        # whose exponents differ from its own by about 866
        n, tile = 192, evolve._TILE
        kern = _uniformized_kernel(ModelParams(n, 1.0))
        y = self._logs(n, 0, n, 0.5, seed=5) - 600.0 * (np.arange(n) // tile)
        exact, got, flushed = _tiled_step(kern, y, 0, n)
        assert (flushed == evolve._NO_MASS).all()
        self._agree(got, _log_step_reference(kern, exact, 0, n))

    def test_wide_tile_charges_what_it_flushes(self):
        # 30 nats per state on the left half: those tiles span far more than
        # the double range and flush; the flatter right half does not.  What a
        # marked tile flushed is within 2^_FLUSH_LOG2 of 2^(its mark)
        n, tile = 600, evolve._TILE
        kern = _uniformized_kernel(ModelParams(n, 1.0))
        y = self._logs(n, 0, n, 2.0, seed=7)
        y[:300] += -30.0 * np.arange(300, 0, -1)
        y -= y.max()
        exact, got, flushed = _tiled_step(kern, y, 0, n)
        ref = _log_step_reference(kern, exact, 0, n)
        marked = np.flatnonzero(flushed > evolve._NO_MASS)
        assert marked.size and marked.max() < 300 // tile + 1  # the left half only
        for t in range(-(-n // tile)):
            part = np.s_[t * tile:min(n, (t + 1) * tile)]
            if t in marked:
                with np.errstate(over="ignore"):
                    lost = np.abs(np.exp(got[part]) - np.exp(ref[part]))
                lost = np.where(np.isfinite(ref[part]), lost, 0.0)
                assert lost.sum() <= 2.0 ** (int(flushed[t]) + evolve._FLUSH_LOG2)
            else:
                self._agree(got[part], ref[part])

    def test_shift_past_the_double_range_raises_the_exponent(self):
        # tile 1 holds values 2^-200 below its exponent, 1200 binary orders
        # above tile 0's, as when a drop has emptied the dominant tile 2: the
        # exponent its top sets, 3802, would shift tile 1 up by 2^1198, so
        # tiles 0..2 step at 5000 - 1023 instead
        n, tile = 256, evolve._TILE
        kern = _uniformized_kernel(ModelParams(n, 1.0))
        ring = np.zeros((2, (n // tile + 2) * tile))
        exps = np.full((2, n // tile + 2), evolve._NO_MASS, dtype=np.int64)
        ring[0, tile:2 * tile] = np.linspace(0.5, 1.0, tile)
        ring[0, 2 * tile:3 * tile] = 2.0 ** -200 * np.linspace(1.0, 2.0, tile)
        exps[0, 1:3] = 3800, 5000
        exact, got, flushed = _step_tiles(kern, ring, exps, n, 0, 3 * tile)
        assert exps[1, 1:4].tolist() == [3977] * 3
        # tile 2 is marked for its empty states past the halo, which are 0
        assert flushed.tolist() == [evolve._NO_MASS, evolve._NO_MASS, 3977, evolve._NO_MASS]
        self._agree(got, _log_step_reference(kern, exact, 0, 3 * tile))

    # oracle pool deep-tail windows (n, m0, t, lo, hi, tol) and ln P from the
    # per-state log-sum-exp chain this step replaced
    DEEP_ROWS = [
        ((1843, 1263, 0.06410522225215845, 118, 154, 1e-10), -2669.7324279316877),
        ((1880, 1109, 0.08611846057865181, 149, 185, 1e-10), -1875.7813100466933),
        ((1209, 680, 0.04671149785202936, 97, 121, 1e-10), -1433.9504594261255),
        ((1955, 688, 0.11803589486301491, 32, 70, 1e-10), -1181.679433525422),
        ((1082, 385, 0.09080356303435694, 1017, 1037, 1e-10), -965.9970703735783),
        ((1693, 675, 0.1012200982383383, 134, 166, 1e-10), -873.1557474663103),
        ((1209, 608, 0.08140628679032291, 1160, 1184, 1e-10), -720.1070217305837),
        ((1284, 732, 0.06435460663424458, 1229, 1253, 1e-10), -656.1950953617057),
    ]

    @pytest.mark.parametrize("row, log_p", DEEP_ROWS)
    def test_deep_pool_windows_match_the_log_sum_exp_chain(self, row, log_p):
        n, m0, t, lo, hi, tol = row
        got = window_log_probability(ModelParams(n, 1.0), m0, t, range(lo, hi + 1), tol)
        assert abs(got - log_p) <= 1e-14 * abs(log_p)

    def test_one_band_per_query(self, monkeypatch):
        # a deep query, and a dwell probability over four sample times, each
        # build the band once
        calls = []
        gather = evolve._block_gather
        monkeypatch.setattr(evolve, "_block_gather",
                            lambda kern: (calls.append(1), gather(kern))[1])
        window_log_probability(ModelParams(600, 1.0), 300, 0.1, range(590, 601), tol=1e-10)
        assert len(calls) == 1
        calls.clear()
        stationary_dwell_probability(ModelParams(200, 1.0), 0.6, [0.1, 0.2, 0.3, 0.4])
        assert len(calls) == 1


def _absorbing_expm(params, lo, hi, m0, t, sinks=None):
    """The law at time t from m0 of the chain on lo..hi whose states sinks,
    by default its ends strictly inside 1..N, absorb, by dense
    scipy.linalg.expm of its generator."""
    n = params.n_states
    sinks = [m for m in (lo, hi) if 1 < m < n] if sinks is None else sinks
    q = np.zeros((hi - lo + 1, hi - lo + 1))
    for m in range(lo, hi + 1):
        if m in sinks:
            continue  # a zero row
        up, down = jump_rates(params, m)
        if up:
            q[m - lo, m - lo + 1] = up
        if down:
            q[m - lo, m - lo - 1] = down
        q[m - lo, m - lo] = -(up + down)
    return expm(q * t)[m0 - lo]


class TestRangeKernel:
    """A near window query runs on a kept range of states whose inner ends
    absorb; the mass they absorb bounds what the range leaves out."""

    def test_inner_ends_absorb(self):
        params = ModelParams(100, 1.3)
        kern = _uniformized_kernel(params, 40, 70)
        assert kern.rate == 2.0 * 1.3 * 70 and kern.first == 40 and kern.sinks == (0, 30)
        for i in (0, 30):
            assert kern.up[i] == kern.down[i] == 0.0 and kern.stay[i] == 1.0
        full = _uniformized_kernel(params)
        # inside, the kernel carries the chain's rates at its own rate
        assert np.allclose(kern.up[1:-1] * kern.rate, full.up[40:69] * full.rate, rtol=1e-15)
        assert _uniformized_kernel(params, 1, 70).sinks == (69,)
        assert _uniformized_kernel(params, 40, 100).sinks == (0,)

    # (N, lam, lo, hi, m0, t, window): ranges narrow enough that the sinks
    # hold between 1e-6 and most of the mass at t
    EXPM_CASES = [
        (60, 1.0, 20, 40, 30, 0.5, (28, 33)),
        (60, 1.0, 20, 40, 22, 0.3, (21, 25)),
        (120, 0.7, 50, 100, 80, 0.4, (90, 99)),
        (200, 1.3, 1, 120, 100, 0.25, (95, 105)),
        (200, 1.0, 90, 200, 120, 0.2, (170, 200)),
        (200, 1.0, 150, 190, 170, 0.1, (168, 172)),
        (180, 1.0, 10, 60, 40, 0.3, (10, 20)),
    ]

    @pytest.mark.parametrize("n, lam, lo, hi, m0, t, window", EXPM_CASES)
    def test_window_and_absorbed_masses_match_dense_expm(self, n, lam, lo, hi, m0, t, window):
        params = ModelParams(n, lam)
        kern = _uniformized_kernel(params, lo, hi)
        law = _absorbing_expm(params, lo, hi, m0, t)
        states = np.arange(window[0], window[1] + 1)
        sinks = np.array([kern.first + i for i in kern.sinks])
        prob, bound = _chain_mass(kern, m0, t, states, 1e-12)
        assert abs(prob / law[states - lo].sum() - 1.0) <= 1e-10
        # the sinks as the window: the mass absorbed by t
        absorbed = float(law[sinks - lo].sum())
        assert 1e-6 < absorbed < 1.0
        got, _ = _chain_mass(kern, m0, t, sinks, 1e-12)
        assert abs(got / absorbed - 1.0) <= 1e-10
        assert bound >= absorbed

    @pytest.mark.parametrize("n, eps, expected", [(100, 0.2, 0.08935444106113201),
                                                   (1000, 0.08, 0.022999029849485715)])
    def test_exit_probability_on_the_deep_route(self, n, eps, expected):
        # the band's hit states lo and hi of lln_point_experiment absorb and
        # are the window: P(leave the band by T) from gamma0 = 0.5, T = 1
        params, m0 = ModelParams(n, 1.0), n // 2
        lo, hi = math.floor(n * (0.5 - eps) + 1e-9), math.ceil(n * (0.5 + eps) - 1e-9)
        m, e, _ = _window_chain(_uniformized_kernel(params, lo, hi), m0, 1.0,
                                np.array([lo, hi]), 1e-12, True)
        law = _absorbing_expm(params, lo, hi, m0, 1.0)
        prob = math.ldexp(m, e)
        assert abs(prob / (law[0] + law[-1]) - 1.0) <= 1e-10
        assert abs(prob / expected - 1.0) <= 1e-13

    # (N, gamma0, eps, T): bands with both hit states inside 1..N, with lo = 1
    # or hi = N, whose end of the chain must absorb, and with one hit state
    EXIT_CASES = [
        (20, 0.5, 0.42, 1.0),   # lo = 1, hi = 19
        (50, 0.3, 0.28, 1.0),   # lo = 1
        (60, 0.8, 0.2, 1.0),    # hi = N
        (150, 0.9, 0.1, 1.0),   # hi = N
        (20, 0.5, 0.5, 1.0),    # lo = 0: hi = N alone
        (30, 0.1, 0.2, 1.0),    # lo < 0: hi alone
        (100, 0.5, 0.2, 1.0),
        (200, 0.5, 0.1, 0.3),
    ]

    @pytest.mark.parametrize("n, gamma0, eps, t", EXIT_CASES)
    def test_exit_probability_matches_dense_expm(self, n, gamma0, eps, t):
        params = ModelParams(n, 1.0)
        m0, lo, hi = _lln_band(params, gamma0, eps)
        hits = [m for m in (lo, hi) if 1 <= m <= n]
        a, b = max(lo, 1), min(hi, n)
        law = _absorbing_expm(params, a, b, m0, t, hits)
        exact = sum(law[m - a] for m in hits)
        assert exact > 1e-6
        assert abs(_exit_probability(params, m0, t, lo, hi, 1e-12) / exact - 1.0) <= 1e-10

    def test_exit_probability_matches_mpmath(self):
        # lo = 1 and hi = 19 at N = 20: both ends of the range absorb; the
        # chain's own end 1 reflects unless it is made to
        params = ModelParams(20, 1.0)
        m0, lo, hi = _lln_band(params, 0.5, 0.42)
        assert (m0, lo, hi) == (10, 1, 19)
        with mp.workdps(40):
            q = mp.zeros(hi - lo + 1, hi - lo + 1)
            for m in range(lo + 1, hi):
                up, down = (mp.mpf(r) for r in jump_rates(params, m))
                q[m - lo, m - lo + 1], q[m - lo, m - lo - 1], q[m - lo, m - lo] = up, down, -(up + down)
            law = mp.expm(q)
            exact = float(law[m0 - lo, 0] + law[m0 - lo, hi - lo])
        assert abs(exact - 0.0833895) < 1e-7
        assert abs(_exit_probability(params, m0, 1.0, lo, hi, 1e-12) / exact - 1.0) <= 1e-12

    def test_exit_probability_without_a_walk(self):
        params = ModelParams(10, 1.0)
        # the band holds 1..N: no state is a hit state
        assert _exit_probability(params, 5, 1.0, -1, 11, 1e-12) == 0.0
        # the start is a hit state
        assert _exit_probability(params, 5, 1.0, 5, 9, 1e-12) == 1.0
        assert _exit_probability(params, 9, 1.0, 2, 9, 1e-12) == 1.0
        with pytest.raises(ValueError, match="m0"):
            _exit_probability(params, 0, 1.0, -1, 11, 1e-12)

    def test_full_mass_is_bracketed_by_the_sink_bound(self):
        # P_range <= P_full <= P_range + sink bound, up to each chain's
        # certified truncation, on seeded ranges from tight to loose: pads of
        # at least _S states, over times long enough that a fifth lose mass
        rng = np.random.default_rng(17)
        losses = 0
        for _ in range(100):
            n = int(rng.integers(40, 400))
            m0 = int(rng.integers(1, n + 1))
            t = float(rng.uniform(0.01, 1.0))
            lo_w = int(np.clip(m0 + rng.integers(-8, 9), 1, n))
            states = np.arange(lo_w, min(n, lo_w + int(rng.integers(0, 6))) + 1)
            a, b = min(m0, int(states[0])), max(m0, int(states[-1]))
            pad = int(rng.integers(evolve._S, 40))
            lo, hi = max(1, a - pad), min(n, b + pad)
            params = ModelParams(n, 1.0)
            kern = _uniformized_kernel(params, lo, hi)
            (p_range, bound), (p_full, _) = (_chain_mass(k, m0, t, states, 1e-12) for k in
                                             (kern, _uniformized_kernel(params)))
            assert p_range <= p_full * (1.0 + 1e-12)
            assert p_full <= p_range * (1.0 + 1e-12) + bound
            losses += p_full - p_range > 1e-6 * p_full
        assert losses >= 20  # the bracket is tested where the range loses mass

    def test_bulk_windows_match_the_full_chain(self):
        # bulk windows as the benchmark draws them: N log-uniform in
        # 100..3200, t <= 1, the window within 3 sd of m0
        rng = np.random.default_rng(2026)
        kept = 0
        for _ in range(40):
            n = int(round(math.exp(rng.uniform(math.log(100), math.log(3200)))))
            m0 = int(rng.integers(1, n + 1))
            t = float(rng.uniform(0.02, 1.0))
            sd = math.sqrt(2.0 * m0 * t)
            center = int(np.clip(round(m0 + rng.uniform(-3.0, 3.0) * sd), 1, n))
            half = int(rng.integers(0, 20))
            states = np.arange(max(1, center - half), min(n, center + half) + 1)
            params = ModelParams(n, 1.0)
            full, _ = _chain_mass(_uniformized_kernel(params), m0, t, states, 1e-12)
            got = window_probability(params, m0, t, states, tol=1e-12)
            assert abs(got / full - 1.0) <= 1e-13
            kept += evolve._kept_range(params, m0, t, states, 1e-12) != (1, n)
        assert kept >= 10

    def test_failed_certificate_returns_the_full_chain_bit_for_bit(self, monkeypatch):
        # a kept range 10 states wider than the window on each side, about
        # one sd at t = 0.05: its sinks take far more than the certificate allows
        params, states = ModelParams(3200, 1.0), np.arange(1590, 1611)
        full, _ = _chain_mass(_uniformized_kernel(params), 1600, 0.05, states, 1e-12)
        tight = _chain_mass(_uniformized_kernel(params, 1580, 1620), 1600, 0.05, states, 1e-12)
        assert tight[1] > 1e-3 * tight[0]
        passes = []

        def counting(kern, *args):
            passes.append((kern.first, kern.first + kern.stay.size - 1))
            return _window_chain(kern, *args)

        monkeypatch.setattr(evolve, "_kept_range", lambda *args: (1580, 1620))
        monkeypatch.setattr(evolve, "_window_chain", counting)
        assert window_probability(params, 1600, 0.05, states, tol=1e-12) == full
        assert passes == [(1580, 1620), (1, 3200)]


class TestRoute:
    """The route of a window query, set once by the window's distance from
    m0: a window within 7 sd takes one untiled pass on its kept range, R = 1
    alone, with no guess at ln P and no drop; a deeper one takes one pass on
    1..N, untiled or tiled, with R > 1, the guess and drops.  No query builds
    the bulk mixture of a law."""

    # (N, m0, t, lo, hi, tol) of oracle pool rows: near windows whose kept
    # range stops short of both ends, and reaches them, and the cheapest deep row
    POOL_ROWS = [
        ((220, 26, 0.2656344628709511, 19, 21, 1e-12), False),
        ((162, 50, 0.12130282516343184, 57, 60, 1e-12), False),
        ((105, 21, 0.09365651823334056, 20, 23, 1e-12), False),
        ((674, 449, 0.04637436745492749, 61, 73, 1e-10), True),
    ]

    def test_a_window_takes_the_route_its_distance_sets(self, monkeypatch):
        # near windows as the benchmark's bulk rows draw them (N log-uniform
        # in 100..3200, t <= 1, within 3 sd of m0), deep ones 8 to 20 sd from
        # m0 at times long enough that each drops states at a group end, and
        # pool rows
        rng = np.random.default_rng(28)
        queries = list(self.POOL_ROWS)
        for _ in range(30):
            n = int(round(math.exp(rng.uniform(math.log(100), math.log(3200)))))
            m0, t = int(rng.integers(1, n + 1)), float(rng.uniform(0.02, 1.0))
            center = int(np.clip(round(m0 + rng.uniform(-3.0, 3.0) * math.sqrt(2.0 * m0 * t)), 1, n))
            half = int(rng.integers(0, 20))
            queries.append(((n, m0, t, max(1, center - half), min(n, center + half), 1e-12), False))
        for _ in range(8):
            n, t = int(rng.integers(400, 801)), float(rng.uniform(0.004, 0.02))
            m0 = int(rng.integers(n // 4, 3 * n // 4))
            lo = m0 + int(rng.choice([-1, 1]) * rng.uniform(8.0, 20.0) * math.sqrt(2.0 * n * t))
            queries.append(((n, m0, t, lo, lo + int(rng.integers(0, 6)), 1e-10), True))
        calls, passes = self._counted(monkeypatch), _record_log_passes(monkeypatch)
        tiled = self._counted_powers(monkeypatch)
        built = {"_log_mass_guess": 0, "_reach_weights": 0}
        for name in built:
            def counting(*args, _name=name, _call=getattr(evolve, name)):
                built[_name] += 1
                return _call(*args)
            monkeypatch.setattr(evolve, name, counting)
        ranges = set()
        for (n, m0, t, lo, hi, tol), deep in queries:
            params, states = ModelParams(n, 1.0), np.arange(lo, hi + 1)
            for record in (calls, passes, tiled):
                record.clear()
            built.update(dict.fromkeys(built, 0))
            window_log_probability(params, m0, t, states, tol)
            assert len(passes) == 1 and bool(passes[0]["cuts"]) == deep
            if deep:
                assert calls == [(1, n)] and built == {"_log_mass_guess": 1, "_reach_weights": 1}
                continue
            kept = evolve._kept_range(params, m0, t, states, tol)
            assert calls == [kept] and tiled == [False]
            assert built == {"_log_mass_guess": 0, "_reach_weights": 0}
            ranges.add("whole" if kept == (1, n) else "partial")
        assert ranges == {"whole", "partial"}

    def _counted(self, monkeypatch):
        """(first state, last state) of every window-chain pass, in call order."""
        calls = []

        def counting(kern, *args):
            calls.append((kern.first, kern.first + kern.stay.size - 1))
            return _window_chain(kern, *args)

        monkeypatch.setattr(evolve, "_window_chain", counting)
        return calls

    def _counted_powers(self, monkeypatch):
        """Whether each _block_powers pass steps tiled, in call order; a law's
        mixture would step untiled too, so it is barred."""
        calls = []
        block_powers = evolve._block_powers

        def counting(kern, p, flushed=None):
            calls.append(flushed is not None)
            return block_powers(kern, p, flushed)

        def never(*args):
            raise AssertionError("a window query built a law")

        monkeypatch.setattr(evolve, "_block_powers", counting)
        monkeypatch.setattr(evolve, "_poisson_mixture", never)
        return calls

    def test_ungated_deep_query_runs_the_linear_mixture(self, monkeypatch):
        # the mass is e^-344.6, below the 1e-280 where a linear chain once
        # handed the query on: one untiled pass on the whole chain answers
        params = ModelParams(600, 1.0)
        states = np.arange(590, 601)
        calls, powers = self._counted(monkeypatch), self._counted_powers(monkeypatch)
        logp = window_log_probability(params, 300, 0.1, states, tol=1e-10)
        assert calls == [(1, 600)] and powers == [False]
        assert logp == _log_chain(params, 300, 0.1, states, 1e-10)

    def test_gated_query_skips_the_linear_mixture(self, monkeypatch):
        # N = 2000, mu = 400: the window starts 940 states from m0, past a
        # cutoff K of about 540; ln P is about -1095, far below a double, yet
        # one untiled pass answers
        params = ModelParams(2000, 1.0)
        states = np.arange(1940, 1981)
        k = _poisson_terms(_uniformized_kernel(params).rate * 0.1, 1e-10).size - 1
        assert k < states[0] - 1000
        calls = self._counted_powers(monkeypatch)
        logp = window_log_probability(params, 1000, 0.1, states, tol=1e-10)
        assert calls == [False]
        assert logp == _log_chain(params, 1000, 0.1, states, 1e-10) < -1000.0

    def test_window_out_of_reach_of_the_cutoff_skips_the_linear_pass(self, monkeypatch):
        # mu = 60, so the cutoff K of _poisson_terms is 123 orders, and the
        # window starts 130 states from m0: one pass reads on past K
        params = ModelParams(600, 1.0)
        states = np.arange(430, 441)
        kern = _uniformized_kernel(params)
        assert _poisson_terms(kern.rate * 0.05, 1e-12).size - 1 < 130
        calls = self._counted_powers(monkeypatch)
        logp = window_log_probability(params, 300, 0.05, states, tol=1e-12)
        assert len(calls) == 1
        assert logp == _log_chain(params, 300, 0.05, states, 1e-12)

    def test_bulk_query_takes_one_linear_pass(self, monkeypatch):
        # at N = 100 the kept range reaches both ends: the query runs on the
        # whole chain
        calls, powers = self._counted(monkeypatch), self._counted_powers(monkeypatch)
        window_log_probability(ModelParams(100, 1.0), 50, 1.0, range(78, 83), tol=1e-12)
        assert calls == [(1, 100)] and powers == [False]

    def test_bulk_query_at_large_n_takes_one_pass_on_a_kept_range(self, monkeypatch):
        params, states = ModelParams(3200, 1.0), range(1590, 1611)
        lo, hi = evolve._kept_range(params, 1600, 0.05, np.array(states), 1e-12)
        assert 1 < lo < 1590 and 1610 < hi < 3200
        calls = self._counted(monkeypatch)
        window_log_probability(params, 1600, 0.05, states, tol=1e-12)
        assert calls == [(lo, hi)]

    def _built_kernels(self, monkeypatch):
        """(lo, hi) of every kernel built, in call order."""
        built = []
        make = evolve._uniformized_kernel

        def counting(params, lo=1, hi=None):
            built.append((lo, params.n_states if hi is None else hi))
            return make(params, lo, hi)

        monkeypatch.setattr(evolve, "_uniformized_kernel", counting)
        return built

    def test_deep_query_out_of_the_kept_range_reach_takes_one_tiled_pass(self, monkeypatch):
        # oracle pool deep rows: the window is more than 7 sd from m0, so no
        # range is kept, and one pass on the one kernel 1..N answers, untiled
        # at ln P = -1182 and tiled at -2670, whose window values lie beyond
        # 2^-2074 of the start
        for (n, m0, t, lo, hi), tiled in (((1955, 688, 0.11803589486301491, 32, 70), False),
                                          ((1843, 1263, 0.06410522225215845, 118, 154), True)):
            params, states = ModelParams(n, 1.0), np.arange(lo, hi + 1)
            with monkeypatch.context() as patch:
                calls, built = self._counted(patch), self._built_kernels(patch)
                powers = self._counted_powers(patch)
                logp = window_log_probability(params, m0, t, states, tol=1e-10)
            assert calls == [(1, n)] and built == [(1, n)] and powers == [tiled]
            assert logp == _log_chain(params, m0, t, states, 1e-10)

    def test_query_answered_on_a_kept_range_builds_no_whole_chain_kernel(self, monkeypatch):
        params, states = ModelParams(3200, 1.0), range(1590, 1611)
        kept = evolve._kept_range(params, 1600, 0.05, np.array(states), 1e-12)
        built = self._built_kernels(monkeypatch)
        window_log_probability(params, 1600, 0.05, states, tol=1e-12)
        assert built == [kept]


def _record_log_passes(monkeypatch):
    """Per _block_powers pass of a window chain, the powers read and the
    ranges sent back to narrow it (the dropped states' complement), in call
    order."""
    passes = []
    block_powers = evolve._block_powers

    def recording(kern, p, flushed=None):
        powers, sent = block_powers(kern, p, flushed), None
        record = {"blocks": 0, "cuts": []}
        passes.append(record)
        while True:
            item = powers.send(sent)
            record["blocks"] += 1
            sent = yield item
            if sent is not None:
                record["cuts"].append(sent)

    monkeypatch.setattr(evolve, "_block_powers", recording)
    return passes


class TestReachBound:
    """The window chain's reach bound stops its sum and drops edge states,
    each certified: the answer lies within tol/2 of P, and 1% more."""

    # (n, m0, t, window): deep windows above and below m0, at state 1 from a
    # high m0 and at N from a low one, one in two parts, and one holding m0;
    # each but the last sums past its first group, so its drops are sent
    CASES = [
        (400, 200, 0.01, range(395, 401)),
        (400, 300, 0.01, range(5, 11)),
        (600, 450, 0.03, range(1, 4)),
        (600, 60, 0.03, range(598, 601)),
        (600, 300, 0.01, [*range(70, 76), *range(575, 581)]),
        (300, 150, 0.05, range(100, 201)),
    ]

    @pytest.mark.parametrize("n, m0, t, window", CASES)
    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    def test_answer_is_certified_against_a_tight_reference(self, n, m0, t, window, tol,
                                                           monkeypatch):
        params = ModelParams(n, 1.0)
        exact = _log_space_reference(params, m0, t, window, 1e-15)
        passes = _record_log_passes(monkeypatch)
        logp = _log_chain(params, m0, t, np.array(window), tol)
        # the sum, divided by the Poisson weight it read (at least 1 - tol/2),
        # may lie above ln P by as much as below it
        assert logp - exact <= 0.5 * tol + 1e-13 * abs(exact)
        assert exact - logp <= 0.5 * tol + 1e-13 * abs(exact)
        assert len(passes) == 1  # no rerun
        # states were dropped, except where the window's hull holds m0
        assert passes[0]["cuts"] or min(window) <= m0 <= max(window)

    @pytest.mark.parametrize("m0, window", [(560, range(1, 4)), (40, range(598, 601))])
    def test_a_guess_too_high_is_caught_and_rerun(self, m0, window, monkeypatch):
        # a lower-bound guess 100 nats above ln P lets the drops take far
        # more than the certificate allows: the pass reruns without drops.
        # The window lies more than _MAX_GROUP * _S orders from m0, so the
        # first group ends short of it and its drops are sent
        params, states = ModelParams(600, 1.0), np.array(window)
        guess = evolve._log_mass_guess
        monkeypatch.setattr(evolve, "_log_mass_guess", lambda *args: -math.inf)
        no_drops = _log_chain(params, m0, 0.03, states, 1e-10)
        monkeypatch.setattr(evolve, "_log_mass_guess", lambda *args: guess(*args) + 100.0)
        passes = _record_log_passes(monkeypatch)
        logp = _log_chain(params, m0, 0.03, states, 1e-10)
        assert len(passes) == 2 and passes[0]["cuts"] and not passes[1]["cuts"]
        assert logp == no_drops
        monkeypatch.setattr(evolve, "_log_mass_guess", guess)
        assert abs(logp - _log_chain(params, m0, 0.03, states, 1e-10)) <= 1e-10

    @pytest.mark.parametrize("t, log_p", [(1e-20, -219.37801227995960), (1e-200, -2291.7045959746010)])
    def test_a_deep_window_at_a_tiny_time_needs_no_guess(self, t, log_p):
        # lam*t is too small for a closed-form path, so there is no guess at
        # ln P: the chain answers with a budget of P <= 1
        params = ModelParams(50, 1.0)
        with pytest.raises(ValueError, match="too small for the closed-form path"):
            optimal_action(0.5, 0.4, t, 1.0)
        got = window_log_probability(params, 25, t, [20])
        assert got == log_p
        assert abs(got - _log_space_reference(params, 25, t, [20], 1e-12)) <= 1e-15 * abs(log_p)

    @pytest.mark.parametrize("n, m0, t, window, excess", [
        (600, 450, 0.03, range(1, 4), 100.0),
        (600, 60, 0.03, range(598, 601), 100.0),
        # a window of all but the end states: what both edges drop would
        # mostly have stayed in it
        (200, 100, 0.5, range(2, 200), -7.0),
    ])
    def test_the_account_bounds_what_the_drops_lose(self, n, m0, t, window, excess):
        # one pass with a budget of e^excess P: its drops are charged far
        # more than tol of P, and the account with the stop bound covers
        # what its answer misses
        params, states, tol = ModelParams(n, 1.0), np.array(window), 1e-10
        exact = _log_space_reference(params, m0, t, window, 1e-15)
        kern = _uniformized_kernel(params)
        with np.errstate(divide="ignore", invalid="ignore"):
            m, e, account, _ = evolve._chain_pass(kern, m0, kern.rate * t, states, tol,
                                                  exact + excess, True)
        logp = math.log(m) + e * math.log(2.0) if m else -math.inf
        assert account - exact > math.log(1e3 * tol)
        assert exact <= np.logaddexp(account, logp + math.log1p(0.5 * tol)) + 1e-12 * abs(exact)

    @pytest.mark.parametrize("n, m0, t, window", CASES[1:4])
    def test_reach_stop_reads_fewer_orders_than_the_poisson_rule(self, n, m0, t, window,
                                                                 monkeypatch):
        # the Poisson rule stops at the first k past mu - 2 with
        # pmf(k+1) / (1 - mu/(k+2)) <= tol/2 * P, P the final sum or less
        params, tol = ModelParams(n, 1.0), 1e-10
        passes = _record_log_passes(monkeypatch)
        logp = _log_chain(params, m0, t, np.array(window), tol)
        mu = 2.0 * n * t
        k, log_pmf = 0, -mu
        while not (k + 2 > mu and log_pmf + math.log(mu / (k + 1)) - math.log1p(-mu / (k + 2))
                   <= math.log(0.5 * tol) + logp):
            k += 1
            log_pmf += math.log(mu) - math.log(k)
        assert passes[0]["blocks"] * evolve._S < 0.9 * k

    @pytest.mark.parametrize("n, lam, states", [
        (50, 1.0, [20, 21, 22]), (50, 1.3, [1]), (50, 1.0, [1, 2]), (50, 1.0, [50]),
        (50, 0.7, [49, 50]), (2, 1.0, [2]), (60, 1.0, [5, 30, 59]), (40, 1.0, range(1, 41)),
    ])
    def test_depth_and_growth_factor_bound_the_one_step_moment(self, n, lam, states):
        # h = exp(-depth) is 1 on the window's hull and E[h(X')] <= rho h(x)
        # at every state outside it, the supermartingale the bound rests on
        kern = _uniformized_kernel(ModelParams(n, lam))
        w0, w1 = min(states) - 1, max(states)
        depth, rho_m1 = evolve._reach_weights(kern, w0, w1)
        assert (depth[:, w0:w1] == 0.0).all() and (depth >= 0.0).all()
        assert (depth[0] == 0.0).all() and (rho_m1[0] <= 1e-15).all()  # R = 1: h = 1
        zone = np.searchsorted([w0, w1], np.arange(n), side="right")
        outside = (zone != 1)
        for h, rho in zip(np.exp(-depth), 1.0 + rho_m1):
            moment = h * kern.stay
            moment[:-1] += h[1:] * kern.up[:-1]
            moment[1:] += h[:-1] * kern.down[1:]
            assert np.all(moment[outside] <= rho[zone][outside] * h[outside] * (1.0 + 1e-13))

    def test_reach_bound_from_m0_is_never_below_ln_p(self):
        # windows from 7 to 40 sd out: the reach bound over every Poisson
        # order from m0 at order 0, the least over R of h(m0) e^(mu (rho - 1)),
        # is never below the chain's ln P
        checked = 0
        for n, m0, t in ((300, 150, 0.05), (600, 450, 0.03), (1000, 100, 0.2), (2000, 1000, 0.1)):
            params = ModelParams(n, 1.0)
            kern = _uniformized_kernel(params)
            sd = math.sqrt(2.0 * n * t)
            for lo in np.unique(np.clip(np.round(m0 + sd * np.r_[-40:-7:3, 7:40:3]), 1, n - 4)):
                states = np.arange(int(lo), int(lo) + 5)
                depth, rho_m1 = evolve._reach_weights(kern, states[0] - 1, states[-1])
                zone = 0 if m0 < states[0] else 2
                bound = float(np.min(kern.rate * t * rho_m1[:, zone] - depth[:, m0 - 1]))
                assert bound >= _log_chain(params, m0, t, states, 1e-10) - 1e-9
                checked += 1
        assert checked >= 40

    def test_flushed_values_are_charged(self, monkeypatch):
        # a pass with no budget steps tiled and drops nothing: what its tiles
        # may have flushed is all its account holds, and it is charged
        # (a pass that skips the charge returns an account of 0)
        params, states, t = ModelParams(1843, 1.0), np.arange(118, 155), 0.06410522225215845
        kern = _uniformized_kernel(params)
        with np.errstate(divide="ignore", invalid="ignore"):
            m, e, account, _ = evolve._chain_pass(kern, 1263, kern.rate * t, states, 1e-10,
                                                  -math.inf, True)
        logp = math.log(m) + e * math.log(2.0)
        assert -math.inf < account < math.log(0.01 * 0.5 * 1e-10) + logp
        assert abs(logp - -2669.7324279316877) <= 1e-14 * 2669.8


# The window 0.5 -> 0.8 +- 0.02 at T = 1 (lattice_window(N, 0.8, 0.02) from
# N/2), and a deep query whose tiles step apart: (N, m0, T, lo, hi) and ln P
# from scripts/mp_window.py (mpmath at 30 digits), at tol = 1e-12
ROUND_OFF_REFERENCES = [
    ((400, 200, 1.0, 312, 328), -14.956245664132722996),
    ((1600, 800, 1.0, 1248, 1312), -52.644492142339774455),
    ((400, 380, 0.01, 1, 3), -1723.9392129030739099),
]


class TestRoundOff:
    """The window chain's answer against mpmath, to tol relative in P: its
    round-off stays within what its certificate allows for truncation."""

    @pytest.mark.parametrize("query, log_p", ROUND_OFF_REFERENCES)
    def test_window_log_probability_matches_mpmath(self, query, log_p):
        n, m0, t, lo, hi = query
        if hi > 1000:
            assert lattice_window(n, 0.8, 0.02) == (lo, hi)
        got = window_log_probability(ModelParams(n, 1.0), m0, t, range(lo, hi + 1), 1e-12)
        assert abs(got - log_p) <= 1e-12

    @pytest.mark.parametrize("query, log_p", ROUND_OFF_REFERENCES)
    def test_chain_matches_mpmath(self, query, log_p):
        # on 1..N by either route, whichever the query itself takes
        n, m0, t, lo, hi = query
        for deep in (False, True):
            m, e, _ = _window_chain(_uniformized_kernel(ModelParams(n, 1.0)), m0, t,
                                    np.arange(lo, hi + 1), 1e-12, deep)
            assert abs(math.log(m) + e * math.log(2.0) - log_p) <= 1e-12

    @pytest.mark.parametrize("n, t, a, b", [
        (400, 1.0, 200, 320), (1600, 1.0, 800, 1280),
        (1000, 100.0, 500, 50), (400, 200.0, 200, 20)])
    def test_detailed_balance_pairs(self, n, t, a, b):
        # the chain is reversible with pi(m) proportional to 1/m, so
        # ln P(a -> {b}) - ln P(b -> {a}) = ln(a/b) exactly, at any mu = 2 lam N t;
        # each answer is certified to tol, so their difference misses by at most 2 tol
        params, tol = ModelParams(n, 1.0), 1e-12
        forward = window_log_probability(params, a, t, range(b, b + 1), tol)
        backward = window_log_probability(params, b, t, range(a, a + 1), tol)
        assert abs(forward - backward - math.log(a / b)) <= 2.0 * tol
