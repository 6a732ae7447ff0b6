"""Tests for the event-driven sampler, the LLN experiments and the tilted
importance sampler."""

import hashlib
import itertools
import math
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from bdld import simulate
from bdld.chain import ModelParams, stationary_distribution
from bdld.evolve import _exit_probability, stationary_dwell_probability, window_probability
from bdld.simulate import (
    SimConfig,
    Trajectory,
    WeightedTrajectory,
    lln_point_experiment,
    lln_stationary_experiment,
    occupation_fractions,
    replication_rng,
    sample_path,
    tilted_sample_path,
    tilted_window_experiment,
)
from bdld.tilting import CallableTilt, ClosedFormDualTilt, ConstantTilt


@pytest.fixture(scope="module")
def long_trajectory():
    # One long path at N=100 from state 5; ~1e6 jumps, visits state 5 about
    # 1e4 times, which powers the holding-time statistics below.
    params = ModelParams(100, 1.0)
    return params, sample_path(params, SimConfig(horizon=26_000.0, seed=11, initial=5))


def _complete_holdings(trajectory, state):
    visited = trajectory.visited_states()
    edges = np.concatenate(([0.0], trajectory.jump_times, [trajectory.horizon]))
    durations = np.diff(edges)
    return durations[:-1][visited[:-1] == state]  # last sojourn is censored


class TestSamplePath:
    def test_reproducible(self):
        params = ModelParams(40, 1.0)
        config = SimConfig(horizon=5.0, seed=123, initial=20)
        a = sample_path(params, config, replication=2)
        b = sample_path(params, config, replication=2)
        c = sample_path(params, config, replication=3)
        np.testing.assert_array_equal(a.jump_times, b.jump_times)
        np.testing.assert_array_equal(a.states_after_jump, b.states_after_jump)
        assert not np.array_equal(a.jump_times, c.jump_times)

    def test_single_state_never_moves(self):
        traj = sample_path(ModelParams(1, 1.0), SimConfig(horizon=100.0, seed=1, initial=1))
        assert traj.n_jumps == 0
        assert traj.initial_state == 1

    def test_steps_are_unit(self, long_trajectory):
        _, traj = long_trajectory
        steps = np.diff(traj.visited_states())
        assert set(np.unique(steps)) <= {-1, 1}
        assert np.all(np.diff(traj.jump_times) > 0)
        assert traj.jump_times[-1] <= traj.horizon

    def test_interior_holding_time_mean(self, long_trajectory):
        # holding at m=5 is Exponential(2*lam*5): mean 1/10 within 3 s.e.
        _, traj = long_trajectory
        holds = _complete_holdings(traj, 5)
        assert holds.size >= 10_000
        se = holds.std() / math.sqrt(holds.size)
        assert abs(holds.mean() - 0.1) <= 3 * se

    def test_boundary_holding_time_mean(self, long_trajectory):
        # the reflecting end m=1 exits at rate lam: mean 1 within 3 s.e.
        _, traj = long_trajectory
        holds = _complete_holdings(traj, 1)
        assert holds.size >= 1_000
        se = holds.std() / math.sqrt(holds.size)
        assert abs(holds.mean() - 1.0) <= 3 * se

    def test_interior_holding_time_distribution(self, long_trajectory):
        _, traj = long_trajectory
        holds = _complete_holdings(traj, 5)[:10_000]
        result = stats.kstest(holds, "expon", args=(0.0, 1.0 / 10.0))
        assert result.pvalue > 1e-3

    def test_embedded_jumps_are_symmetric(self, long_trajectory):
        _, traj = long_trajectory
        visited = traj.visited_states()
        prev, nxt = visited[:-1], visited[1:]
        interior = (prev > 1) & (prev < 100)
        ups = float(((nxt - prev)[interior] == 1).mean())
        total = int(interior.sum())
        assert abs(ups - 0.5) <= 3 * math.sqrt(0.25 / total)

    def test_stationary_start_uses_inverse_cdf(self):
        params = ModelParams(50, 1.0)
        config = SimConfig(horizon=0.001, seed=77, initial="stationary")
        starts = np.array([
            sample_path(params, config, replication=rep).initial_state
            for rep in range(4000)
        ])
        pi = stationary_distribution(params)
        # compare the CDF at a few cut points, 3 s.e. each
        for cut in (1, 5, 25):
            exact = pi.mass[:cut].sum()
            freq = float((starts <= cut).mean())
            se = math.sqrt(exact * (1 - exact) / starts.size)
            assert abs(freq - exact) <= 3 * se

    def test_initial_state_out_of_range(self):
        with pytest.raises(ValueError):
            sample_path(ModelParams(5, 1.0), SimConfig(horizon=1.0, seed=1, initial=6))


class TestTrajectoryType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(1, np.array([0.5]), np.array([3]), 1.0)  # step of 2
        with pytest.raises(ValueError):
            Trajectory(2, np.array([0.5]), np.array([2]), 1.0)  # step of 0
        with pytest.raises(ValueError):
            Trajectory(1, np.array([0.5, 0.4]), np.array([2, 3]), 1.0)  # times not increasing
        with pytest.raises(ValueError):
            Trajectory(1, np.array([1.5]), np.array([2]), 1.0)  # beyond horizon
        with pytest.raises(ValueError, match="horizon must be positive"):
            Trajectory(1, np.array([]), np.array([]), 0.0)
        with pytest.raises(ValueError, match="equal length"):
            Trajectory(1, np.array([0.5, 0.7]), np.array([2]), 1.0)

    def test_state_at(self):
        traj = Trajectory(2, np.array([0.25, 0.75]), np.array([3, 2]), 1.0)
        assert traj.state_at(0.0) == 2
        assert traj.state_at(0.5) == 3
        assert traj.state_at(1.0) == 2
        for t in (-0.1, 1.1):
            with pytest.raises(ValueError, match="outside"):
                traj.state_at(t)

    @pytest.mark.parametrize("seed", [1.5, "1", True])
    def test_config_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SimConfig(horizon=1.0, seed=seed)

    def test_csv(self, tmp_path):
        traj = Trajectory(2, np.array([0.25]), np.array([3]), 1.0)
        out = tmp_path / "traj.csv"
        traj.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "time,state"
        assert lines[1] == "0,2"
        assert lines[2] == "0.25,3"


class TestOccupationFractions:
    def test_constant_path_is_indicator(self):
        traj = Trajectory(3, np.array([]), np.array([]), 5.0)
        occ = occupation_fractions(traj, n_states=4)
        np.testing.assert_array_equal(occ.mass, [0.0, 0.0, 1.0, 0.0])

    def test_small_example(self):
        traj = Trajectory(2, np.array([0.25, 0.75]), np.array([3, 2]), 1.0)
        occ = occupation_fractions(traj, n_states=3)
        np.testing.assert_allclose(occ.mass, [0.0, 0.5, 0.5], atol=1e-15)

    def test_undersized_state_count_rejected(self):
        traj = Trajectory(2, np.array([0.25]), np.array([3]), 1.0)
        with pytest.raises(ValueError):
            occupation_fractions(traj, n_states=2)

    def test_time_reversal_invariance(self):
        traj = Trajectory(2, np.array([0.25, 0.5, 0.8]), np.array([3, 4, 3]), 1.0)
        visited = traj.visited_states()
        durations = np.diff(np.concatenate(([0.0], traj.jump_times, [traj.horizon])))
        rev_states = visited[::-1]
        rev_durations = durations[::-1]
        rev_times = np.cumsum(rev_durations[:-1])
        reversed_traj = Trajectory(int(rev_states[0]), rev_times,
                                   rev_states[1:].astype(np.int64), traj.horizon)
        occ = occupation_fractions(traj, 4)
        occ_rev = occupation_fractions(reversed_traj, 4)
        np.testing.assert_allclose(occ.mass, occ_rev.mass, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 1000, 10_000])
    def test_matches_add_at_byte_for_byte(self, n):
        # np.bincount and np.add.at both add each duration in path order;
        # about a thousand jumps per path, revisiting its states many times
        params = ModelParams(n, 1.0)
        for seed in range(3):
            config = SimConfig(horizon=1000.0 / n, seed=seed, initial=(n + 1) // 2)
            traj = sample_path(params, config)
            durations = np.diff(np.concatenate(([0.0], traj.jump_times, [traj.horizon])))
            acc = np.zeros(n)
            np.add.at(acc, traj.visited_states() - 1, durations)
            assert occupation_fractions(traj, n).mass.tobytes() == (acc / acc.sum()).tobytes()

    def test_long_run_matches_stationary(self):
        params = ModelParams(50, 1.0)
        traj = sample_path(params, SimConfig(horizon=2000.0, seed=5, initial="stationary"))
        occ = occupation_fractions(traj, 50)
        assert occ.tv_distance(stationary_distribution(params)) <= 0.08


class TestLlnPointExperiment:
    def test_impossible_deviation(self):
        res = lln_point_experiment(ModelParams(100, 1.0), 0.5, 1.5,
                                   SimConfig(horizon=1.0, seed=3, replications=50))
        assert res.estimate == 0.0

    def test_estimates_decrease_in_n(self):
        estimates = []
        for n in (250, 500, 1000):
            config = SimConfig(horizon=1.0, seed=42, replications=3000)
            res = lln_point_experiment(ModelParams(n, 1.0), 0.5, 0.05, config)
            estimates.append(res.estimate)
        assert estimates[0] > estimates[1] > estimates[2]

    def test_result_fields(self):
        res = lln_point_experiment(ModelParams(200, 1.0), 0.5, 0.2,
                                   SimConfig(horizon=1.0, seed=9, replications=40))
        obj = res.to_json_obj()
        assert obj["replications"] == 40 and obj["seed"] == 9
        assert obj["params"] == {"n_states": 200, "lambda": 1.0}
        assert res.extra["bound"] == pytest.approx(1.0 / (0.04 * 200))

    def test_bound_holds_on_in_band_settings(self):
        # 2 lam m0 T / a^2 against the exact exit probability wherever the
        # band stays off both ends of the chain; T/(eps^2 N) failed here
        informative = 0
        for n, gamma0, eps, lam, horizon in itertools.product(
                (40, 400), (0.3, 0.5, 0.9), (0.05, 0.2), (0.5, 4.0), (0.25, 2.0)):
            params = ModelParams(n, lam)
            m0, lo, hi = simulate._lln_band(params, gamma0, eps)
            if not (lo >= 1 and hi <= n and lo < m0 < hi):
                continue
            bound = lln_point_experiment(params, gamma0, eps, SimConfig(
                horizon=horizon, seed=1, replications=1)).extra["bound"]
            exact = _exit_probability(params, m0, horizon, lo, hi, 1e-12)
            assert exact <= bound < math.inf
            informative += bound < 1.0
        assert informative >= 5

    def test_jump_count_matches_sample_paths(self):
        # a replication counts its jumps up to its first state <= lo = 470 or
        # >= hi = 530, or up to the horizon where it has none
        params = ModelParams(1000, 1.0)
        res = lln_point_experiment(params, 0.5, 0.03,
                                   SimConfig(horizon=1.0, seed=9, replications=20))
        start = SimConfig(horizon=1.0, seed=9, initial=500)
        counts, hits = 0, 0
        for rep in range(20):
            states = sample_path(params, start, rep).states_after_jump
            out = np.flatnonzero((states <= 470) | (states >= 530))
            counts += int(out[0]) + 1 if out.size else states.size
            hits += out.size > 0
        assert 0 < res.extra["hits"] == hits < 20
        assert res.extra["jumps"] == counts

    def test_exits_at_the_end_of_a_pass(self, monkeypatch):
        # passes of one to three events put many exits on a pass's last event
        monkeypatch.setattr(simulate, "_CHUNK", 1)
        monkeypatch.setattr(simulate, "_MAX_CHUNK", 3)
        self.test_jump_count_matches_sample_paths()

    def test_long_horizon_stops_at_the_exit(self):
        # both replications leave the band long before T = 1e4, where a walk
        # to the horizon draws 4151490 jumps; the estimate and the hits are
        # those of such a walk
        res = lln_point_experiment(ModelParams(1000, 1.0), 0.5, 0.2,
                                   SimConfig(horizon=1e4, seed=1, replications=2))
        assert (res.estimate, res.stderr, res.extra["hits"]) == (1.0, 0.0, 2)
        assert res.extra["jumps"] < 415149

    def test_start_outside_the_band_walks_nothing(self, monkeypatch):
        # m0 = 50 and lo = floor(50.1) = 50: every replication is a hit at once
        monkeypatch.setattr(simulate, "_walk", lambda *args: pytest.fail("a walk started"))
        res = lln_point_experiment(ModelParams(100, 1.0), 0.504, 0.003,
                                   SimConfig(horizon=1.0, seed=1, replications=5))
        assert (res.estimate, res.stderr) == (1.0, 0.0)
        assert (res.extra["hits"], res.extra["jumps"]) == (5, 0)

    def test_bad_start(self):
        with pytest.raises(ValueError):
            lln_point_experiment(ModelParams(100, 1.0), 0.001, 0.2,
                                 SimConfig(horizon=1.0, seed=1, replications=5))
        with pytest.raises(ValueError):
            lln_point_experiment(ModelParams(100, 1.0), 0.5, 0.0,
                                 SimConfig(horizon=1.0, seed=1, replications=5))

    @pytest.mark.parametrize("gamma0", [1e308, -1e308, 1.01, 0.004])
    def test_start_outside_the_state_space(self, gamma0):
        # gamma0*N overflows to inf at 1e308; a start outside 1..N is a ValueError
        with pytest.raises(ValueError, match="outside 1..100"):
            lln_point_experiment(ModelParams(100, 1.0), gamma0, 0.2,
                                 SimConfig(horizon=1.0, seed=1, replications=5))

    @pytest.mark.parametrize("epsilon", [0.6, 1e300, 1e308, 1.7e308])
    def test_band_wider_than_the_chain(self, epsilon):
        # N*(gamma0 +- epsilon) overflows to +-inf at 1e308: still a band that
        # holds the whole space, so nothing is simulated
        res = lln_point_experiment(ModelParams(100, 1.0), 0.5, epsilon,
                                   SimConfig(horizon=1.0, seed=1, replications=5))
        assert (res.estimate, res.stderr) == (0.0, 0.0)
        assert (res.extra["hits"], res.extra["jumps"]) == (0, 0)

    @pytest.mark.parametrize("gamma0, epsilon, message", [
        (0.5, math.inf, "epsilon"), (0.5, math.nan, "epsilon"),
        (math.nan, 0.2, "gamma0"), (math.inf, 0.2, "gamma0")])
    def test_non_finite_arguments(self, gamma0, epsilon, message):
        # an infinite epsilon would overflow math.floor(n*(gamma0 - epsilon))
        with pytest.raises(ValueError, match=f"{message} must be"):
            lln_point_experiment(ModelParams(100, 1.0), gamma0, epsilon,
                                 SimConfig(horizon=1.0, seed=1, replications=5))


class TestLlnStationaryExperiment:
    def test_empty_times_rejected(self):
        with pytest.raises(ValueError):
            lln_stationary_experiment(ModelParams(50, 1.0), 0.5, [],
                                      SimConfig(horizon=1.0, seed=1))

    def test_requires_stationary_start(self):
        with pytest.raises(ValueError):
            lln_stationary_experiment(ModelParams(50, 1.0), 0.5, [0.5],
                                      SimConfig(horizon=1.0, seed=1, initial=10))

    @pytest.mark.parametrize("times", [[math.nan], [0.1, math.nan, 0.3], [0.5, math.nan]])
    def test_non_finite_times_rejected(self, times, monkeypatch):
        # a replication would never reach a NaN stop, and draw events forever:
        # no walk may start
        monkeypatch.setattr(simulate, "_walk", lambda *args: pytest.fail("a walk started"))
        with pytest.raises(ValueError, match="finite"):
            lln_stationary_experiment(ModelParams(50, 1.0), 0.5, times,
                                      SimConfig(horizon=1.0, seed=1))

    def test_monotone_in_threshold(self):
        params = ModelParams(300, 1.0)
        estimates = []
        for u in (0.05, 0.1, 0.3):
            config = SimConfig(horizon=1.0, seed=15, replications=400)
            res = lln_stationary_experiment(params, u, [0.25, 0.75], config)
            estimates.append(res.estimate)
        assert estimates[0] <= estimates[1] <= estimates[2]

    def test_jump_count_stops_at_last_time_read(self):
        # a replication reads sample times up to the first one above the
        # threshold, and counts the jumps at or before it
        params = ModelParams(300, 1.0)
        times = [0.1, 0.4, 0.7]
        res = lln_stationary_experiment(params, 0.05, times,
                                        SimConfig(horizon=0.7, seed=4, replications=60))
        start = SimConfig(horizon=0.7, seed=4, initial="stationary")
        want = 0
        for rep in range(60):
            traj = sample_path(params, start, rep)
            read = next((t for t in times if traj.state_at(t) / 300 >= 0.05), times[-1])
            want += int(np.searchsorted(traj.jump_times, read, side="right"))
        assert 0 < res.estimate < 1
        assert res.extra["jumps"] == want

    def test_horizon_is_not_read(self):
        # a replication stops at the last sample time, so a horizon before
        # it changes nothing
        params, times = ModelParams(100, 1.0), [0.2, 0.6]
        short, at_last = (lln_stationary_experiment(
            params, 0.3, times, SimConfig(horizon=horizon, seed=2, replications=200))
            for horizon in (0.1, 0.6))
        assert (short.estimate, short.stderr, short.extra) == (at_last.estimate, at_last.stderr,
                                                                at_last.extra)

    def test_matches_exact_oracle(self):
        params = ModelParams(200, 1.0)
        times = [0.3, 0.9]
        config = SimConfig(horizon=1.0, seed=8, replications=800)
        res = lln_stationary_experiment(params, 0.15, times, config)
        exact = stationary_dwell_probability(params, 0.15, times, tol=1e-12)
        assert abs(res.estimate - exact) <= 3 * res.stderr

    def test_large_n_matches_exact_oracle(self):
        # N=1e4, u=0.1, four sample times: the convergence toward full
        # concentration is logarithmic in N, so the exact joint value is the
        # only honest gate (about 0.76 here, not anywhere near 1 yet)
        params = ModelParams(10_000, 1.0)
        times = [0.25, 0.5, 0.75, 1.0]
        config = SimConfig(horizon=1.0, seed=20260808, replications=1000)
        res = lln_stationary_experiment(params, 0.1, times, config)
        exact = stationary_dwell_probability(params, 0.1, times, tol=1e-10)
        assert 0.70 < exact < 0.80
        assert abs(res.estimate - exact) <= 3 * res.stderr


class TestTiltedSampling:
    def test_unit_tilt_reproduces_nominal_law_exactly(self):
        params = ModelParams(100, 1.0)
        config = SimConfig(horizon=1.0, seed=99, initial=50)
        weighted = tilted_sample_path(params, ConstantTilt(1.0), config, replication=3)
        plain = sample_path(params, config, replication=3)
        np.testing.assert_array_equal(weighted.trajectory.jump_times, plain.jump_times)
        np.testing.assert_array_equal(weighted.trajectory.states_after_jump,
                                      plain.states_after_jump)
        assert weighted.log_weight == 0.0

    def test_positive_drift_under_upward_tilt(self):
        params = ModelParams(30, 1.0)
        config = SimConfig(horizon=0.5, seed=11, initial=15)
        finals = []
        for rep in range(200):
            traj = tilted_sample_path(params, ConstantTilt(2.0), config, rep).trajectory
            finals.append(traj.states_after_jump[-1] if traj.n_jumps else traj.initial_state)
        assert np.mean(finals) > 15.0

    def test_constant_tilt_is_unbiased(self):
        params = ModelParams(30, 1.0)
        window = (20, 25)
        config = SimConfig(horizon=0.5, seed=7, initial=15, replications=4000)
        res = tilted_window_experiment(params, ConstantTilt(2.0), window, config)
        exact = window_probability(params, 15, 0.5, range(20, 26), tol=1e-12)
        assert abs(res.estimate - exact) <= 3 * res.stderr

    def test_dual_schedule_is_unbiased(self):
        from bdld.optimal_paths import dual_tilt, solve_boundary
        params = ModelParams(100, 1.0)
        tilt = dual_tilt(solve_boundary(0.5, 0.8, 1.0, 1.0))
        config = SimConfig(horizon=1.0, seed=20260808, initial=50, replications=2000)
        res = tilted_window_experiment(params, tilt, (78, 82), config)
        exact = window_probability(params, 50, 1.0, range(78, 83), tol=1e-12)
        assert abs(res.estimate - exact) <= 3 * res.stderr

    def test_singular_schedule_rejected(self):
        # lam*t - c1 crosses [-1, 0] inside the horizon
        tilt = ClosedFormDualTilt(c1=0.5, lam=1.0)
        with pytest.raises(ValueError):
            tilted_sample_path(ModelParams(10, 1.0), tilt,
                               SimConfig(horizon=1.0, seed=1, initial=5))

    def test_nonpositive_callable_rejected(self):
        # z(t) = 1 - 2t is non-positive from t = 1/2 on: a path of ~800 jumps
        # per unit time reads it there, one of ~10 reads it only at time 0
        tilt = CallableTilt(lambda t: 1.0 - 2.0 * t, bound=1e9)
        with pytest.raises(ValueError, match="positive and finite"):
            tilted_sample_path(ModelParams(400, 1.0), tilt,
                               SimConfig(horizon=1.0, seed=4, initial=200))
        weighted = tilted_sample_path(ModelParams(10, 1.0), tilt,
                                      SimConfig(horizon=1.0, seed=4, initial=5))
        assert weighted.trajectory.n_jumps < simulate._HOLD

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("at", [0, 1], ids=["first read", "second read"])
    def test_read_must_be_positive_and_finite(self, bad, at):
        class Tilt:
            reads = 0

            def value(self, t):
                self.reads += 1
                return bad if self.reads > at else 1.5

        with pytest.raises(ValueError, match="positive and finite"):
            tilted_window_experiment(ModelParams(400, 1.0), Tilt(), (1, 400),
                                     SimConfig(horizon=1.0, seed=2, initial=200))

    def test_callable_matches_closed_form_weights(self):
        # the sampler reads value alone, so a wrapped schedule gives the
        # same path and weight bit for bit
        closed = ClosedFormDualTilt(c1=-10 / 3, lam=1.0)
        wrapped = CallableTilt(closed.value, bound=closed.sup_bound(1.0))
        params = ModelParams(50, 1.0)
        config = SimConfig(horizon=1.0, seed=21, initial=25)
        a = tilted_sample_path(params, closed, config, replication=5)
        b = tilted_sample_path(params, wrapped, config, replication=5)
        np.testing.assert_array_equal(a.trajectory.jump_times, b.trajectory.jump_times)
        assert a.log_weight.hex() == b.log_weight.hex()

    def test_tilt_swinging_inside_holds_is_unbiased(self, monkeypatch):
        # z swings about once within each hold of 8 jumps, and a path takes
        # about 3 holds; only the values read enter the sampler and the
        # weight.  With holds of 128, several holds a path would take
        # hundreds of jumps, over which a tilt this far from the nominal
        # law spreads the weights too far for a 3-sigma check.
        monkeypatch.setattr(simulate, "_HOLD", 8)
        params = ModelParams(30, 1.0)
        config = SimConfig(horizon=0.5, seed=1, initial=25, replications=4000)
        res = tilted_window_experiment(params, _SWINGING_TILT, (27, 30), config)
        exact = window_probability(params, 25, 0.5, range(27, 31), tol=1e-12)
        assert 2 * 8 < res.extra["jumps"] / 4000 < 4 * 8
        assert abs(res.estimate - exact) <= 3 * res.stderr

    def test_unit_tilt_counters(self):
        # with z = 1 the paths are sample_path's and every weight is 1, so
        # the ESS is the hit count
        params = ModelParams(40, 1.0)
        config = SimConfig(horizon=1.0, seed=13, initial=20, replications=200)
        res = tilted_window_experiment(params, ConstantTilt(1.0), (22, 26), config)
        finals = [sample_path(params, config, rep) for rep in range(200)]
        hits = sum(22 <= traj.state_at(1.0) <= 26 for traj in finals)
        assert res.extra["jumps"] == sum(traj.n_jumps for traj in finals)
        assert 0 < hits < 200
        assert res.estimate == hits / 200
        assert res.extra["ess"] == pytest.approx(hits, rel=1e-12)
        assert res.extra["max_weight_share"] == pytest.approx(1.0 / hits, rel=1e-12)

    def test_weight_health_fields(self):
        from bdld.optimal_paths import dual_tilt, solve_boundary
        params = ModelParams(100, 1.0)
        tilt = dual_tilt(solve_boundary(0.5, 0.8, 1.0, 1.0))
        config = SimConfig(horizon=1.0, seed=3, initial=50, replications=300)
        res = tilted_window_experiment(params, tilt, (78, 82), config)
        values, log_weights, reads = [], [], 0
        for rep in range(300):
            weighted = tilted_sample_path(params, tilt, config, rep)
            final = weighted.trajectory.state_at(1.0)
            values.append(math.exp(weighted.log_weight) if 78 <= final <= 82 else 0.0)
            if 78 <= final <= 82:
                log_weights.append(weighted.log_weight)
            # z is read at time 0 and after every _HOLD jumps before the horizon
            reads += 1 + weighted.trajectory.n_jumps // simulate._HOLD
        values = np.array(values)
        assert res.estimate == float(values.mean())
        assert res.extra["jumps"] > 0
        assert res.extra["tilt_reads"] == reads
        assert len(log_weights) > 1
        assert res.extra["log_weight_mean"] == pytest.approx(np.mean(log_weights), rel=1e-12)
        assert res.extra["log_weight_var"] == pytest.approx(np.var(log_weights, ddof=1),
                                                            rel=1e-12)
        assert res.extra["ess"] == pytest.approx(values.sum() ** 2 / (values ** 2).sum())
        assert res.extra["max_weight_share"] == pytest.approx(values.max() / values.sum())
        assert res.extra["rel_err_per_sample"] == pytest.approx(
            res.stderr * math.sqrt(300) / res.estimate)

    def test_no_hit_health_fields(self):
        res = tilted_window_experiment(ModelParams(50, 1.0), ConstantTilt(1.0), (50, 50),
                                       SimConfig(horizon=0.01, seed=1, initial=10,
                                                 replications=5))
        assert res.estimate == 0.0
        assert res.extra["ess"] == 0.0
        assert res.extra["max_weight_share"] is None
        assert res.extra["rel_err_per_sample"] is None
        assert res.extra["log_weight_mean"] is None
        assert res.extra["log_weight_var"] is None
        assert res.extra["tilt_reads"] == 5  # one read per replication, at time 0

    def test_log_weight_moments_need_two_hits(self):
        # the window is the start state, and over so short a horizon most
        # replications end where they start: five give two hits or more,
        # one gives a single hit
        params, tilt = ModelParams(50, 1.0), ConstantTilt(1.2)
        config = SimConfig(horizon=0.001, seed=1, initial=10, replications=5)
        hit = tilted_window_experiment(params, tilt, (10, 10), config)
        assert hit.estimate > 0.0 and hit.extra["log_weight_var"] is not None
        one = tilted_window_experiment(params, tilt, (10, 10),
                                       SimConfig(horizon=0.001, seed=1, initial=10,
                                                 replications=1))
        assert one.estimate > 0.0
        assert one.extra["log_weight_mean"] is None and one.extra["log_weight_var"] is None

    def test_stationary_law_is_built_once(self, monkeypatch):
        # the experiment draws each replication's start from one law; the
        # paths are those of tilted_sample_path, which builds it per call
        params, tilt = ModelParams(30, 1.0), ConstantTilt(1.3)
        config = SimConfig(horizon=0.5, seed=4, initial="stationary", replications=12)
        builds = []
        law = simulate.stationary_distribution
        monkeypatch.setattr(simulate, "stationary_distribution",
                            lambda p: builds.append(p) or law(p))
        res = tilted_window_experiment(params, tilt, (1, 30), config)
        assert len(builds) == 1
        jumps = sum(tilted_sample_path(params, tilt, config, rep).trajectory.n_jumps
                    for rep in range(12))
        assert res.extra["jumps"] == jumps

    @pytest.mark.parametrize("query", [
        pytest.param(lambda params: window_probability(params, 50, 1.0, [50.7]), id="50.7"),
        pytest.param(lambda params: window_probability(params, 50, 1.0, [True]), id="True"),
        pytest.param(lambda params: tilted_window_experiment(
            params, ConstantTilt(1.0), (78.9, 82.2),
            SimConfig(horizon=1.0, seed=1, initial=50, replications=2)), id="78.9-82.2"),
    ])
    def test_window_states_must_be_integers(self, query):
        # truncating them answered for states 50 and 1 and the window [78, 82]
        with pytest.raises(ValueError, match="must be an integer"):
            query(ModelParams(100, 1.0))

    def test_window_bounds_in_order(self):
        with pytest.raises(ValueError, match="bad window"):
            tilted_window_experiment(ModelParams(100, 1.0), ConstantTilt(1.0), (82, 78),
                                     SimConfig(horizon=1.0, seed=1, initial=50))

    def test_weighted_trajectory_requires_finite_weight(self):
        traj = Trajectory(1, np.array([]), np.array([]), 1.0)
        with pytest.raises(ValueError):
            WeightedTrajectory(traj, math.inf)


def _v1_variates(rng):
    """(exponential, uniform) pairs in the v1 stream layout, drawn here and
    not by the sampler: blocks of 8192 standard exponentials, then 8192
    uniforms; event i reads the i-th of each."""
    while True:
        exps = rng.standard_exponential(8192).tolist()
        yield from zip(exps, rng.random(8192).tolist())


def _scalar_held_path(params, tilt, config, replication, hold=128):
    """The event-by-event loop of the tilted chain with z held, which the
    kernel must match bit for bit: (initial state, jump times, states,
    log-weight).

    z is read at time 0 and after every ``hold`` jumps, at the time of the
    last.  With z held the chain leaves m at rate lam*(z + 1/z)*m, lam*z at
    1 and lam*N/z at N; inside, a uniform below z/(z + 1/z) steps up.  A
    jump at exactly the horizon counts.  Each holding interval adds
    (up*(z - 1) + down*(1/z - 1)) times its length to the log-weight, with
    up = lam*m below N and down = lam*m above 1, and each jump then adds
    -ln z if it is up and +ln z if it is down."""
    horizon, n, lam = config.horizon, params.n_states, params.lam
    rng = replication_rng(config.seed, replication)
    m0 = m = simulate._start(params, config)(rng)
    variates = _v1_variates(rng)
    times, states = [], []
    log_w = t = 0.0
    reads = 0

    def excess(m, z):
        up = lam * m if m < n else 0.0
        down = lam * m if m > 1 else 0.0
        return up * (z - 1.0) + down * (1.0 / z - 1.0)

    while True:
        if len(times) == hold * reads:
            z = tilt.value(t)
            reads += 1
        if n == 1:
            break
        rate = lam * z if m == 1 else lam * n / z if m == n else lam * (z + 1.0 / z) * m
        e, u = next(variates)
        jump = t + e / rate
        if jump > horizon:
            break
        log_w += excess(m, z) * (jump - t)
        t = jump
        if m == 1 or (m < n and u < z / (z + 1.0 / z)):
            log_w -= math.log(z)
            m += 1
        else:
            log_w += math.log(z)
            m -= 1
        times.append(t)
        states.append(m)
    log_w += excess(m, z) * (horizon - t)
    return m0, np.array(times), np.array(states, dtype=np.int64), log_w


def _swing(t):
    return 1.0 + 0.9 * math.sin(40.0 * t) ** 2


# swings 13 times over a unit horizon, several times within most holds
_SWINGING_TILT = CallableTilt(_swing, bound=1.9)


def _random_tilted_cases(count):
    """Constant (z above and below 1), dual and callable tilts; point and
    stationary starts; chains of 3 and 30 states whose paths reflect at
    both ends, and larger ones whose paths reach one end or none."""
    rnd = np.random.default_rng(20261019)
    for _ in range(count):
        n = int(rnd.choice([1, 2, 3, 30, 40, 300, 700, 3000]))
        kind = rnd.integers(4)
        if kind == 0:
            tilt = ConstantTilt(float(rnd.choice([0.5, 0.8, 1.3, 2.0])))
        elif kind == 1:
            tilt = ClosedFormDualTilt(c1=-float(rnd.uniform(1.5, 6.0)), lam=1.0)
        elif kind == 2:
            a = float(rnd.uniform(0.2, 1.0))
            tilt = CallableTilt(lambda t, a=a: 1.0 + a * math.sin(3.0 * t) ** 2, bound=1.0 + a)
        else:
            tilt = _SWINGING_TILT
        initial = rnd.choice(["stationary", "1", "n", "mid", "near"])
        m0 = {"stationary": "stationary", "1": 1, "n": n, "mid": max(1, n // 2),
              "near": max(1, n - 5)}[initial]
        horizon = float(rnd.choice([0.05, 0.5, 1.0, 2.0]))
        lam = float(rnd.choice([1.0, 1.3]))
        yield (ModelParams(n, lam), tilt,
               SimConfig(horizon=horizon, seed=int(rnd.integers(1000)), initial=m0),
               int(rnd.integers(4)))


# paths of 12-14 thousand jumps near N, which cross a variate block
_LONG_TILTED_CASES = [(ModelParams(3000, 1.0), tilt, SimConfig(horizon=3.0, seed=8, initial=3000),
                       rep) for rep, tilt in enumerate((ConstantTilt(1.3), _SWINGING_TILT))]


def _assert_matches_scalar_loop(params, tilt, config, rep):
    m0, times, states, log_w = _scalar_held_path(params, tilt, config, rep,
                                                  hold=simulate._HOLD)
    weighted = tilted_sample_path(params, tilt, config, rep)
    assert weighted.trajectory.initial_state == m0
    assert weighted.trajectory.jump_times.tobytes() == times.tobytes()
    assert weighted.trajectory.states_after_jump.tobytes() == states.tobytes()
    assert weighted.log_weight.hex() == log_w.hex()
    return weighted


class TestTiltedKernelMatchesScalarLoop:
    @pytest.mark.parametrize("chunk", [32, 256, 1024])
    def test_random_cases(self, chunk, monkeypatch):
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        for params, tilt, config, rep in _random_tilted_cases(60):
            _assert_matches_scalar_loop(params, tilt, config, rep)

    @pytest.mark.parametrize("chunk", [32, 1024])
    def test_paths_longer_than_a_block(self, chunk, monkeypatch):
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        for case in _LONG_TILTED_CASES:
            assert _assert_matches_scalar_loop(*case).trajectory.n_jumps > 8192

    @pytest.mark.parametrize("hold", [1, 8, 1000])
    def test_hold_length(self, hold, monkeypatch):
        # the kernel cuts its chunks at every hold's end, wherever it falls
        monkeypatch.setattr(simulate, "_HOLD", hold)
        monkeypatch.setattr(simulate, "_CHUNK", 32)
        for params, tilt, config, rep in _random_tilted_cases(20):
            _assert_matches_scalar_loop(params, tilt, config, rep)

    @pytest.mark.parametrize("n", [3, 30, 400])
    def test_tilt_is_never_evaluated_at_or_past_the_horizon(self, n):
        # from about 0.01 expected events before the horizon to about 600;
        # z raises at or past the horizon
        params = ModelParams(n, 1.0)
        for horizon in (0.002, 0.02, 0.2, 1.0):
            def z(t, horizon=horizon):
                if t >= horizon:
                    raise AssertionError(f"z evaluated at t={t} >= horizon {horizon}")
                return 1.0 + 0.5 * math.sin(7.0 * t) ** 2

            tilt = CallableTilt(z, bound=1.5)
            config = SimConfig(horizon=horizon, seed=5, initial=(n + 1) // 2, replications=20)
            for rep in range(3):
                _assert_matches_scalar_loop(params, tilt, config, rep)
            res = tilted_window_experiment(params, tilt, (1, n), config)
            assert res.estimate > 0.0


def _scalar_states(n, m, unis, p_up):
    states = []
    for u in unis:
        m = 2 if m == 1 else n - 1 if m == n else m + 1 if u < p_up else m - 1
        states.append(m)
    return states


def _one_end_forms(n, m, unis, p_up):
    """The chunk's free walk from m and its lower-end and upper-end closed
    forms, as _chunk_states builds them."""
    free = m + np.cumsum(np.where(unis < p_up, 1, -1))
    return free, simulate._lift(free), n + 1 - simulate._lift(n + 1 - free)


def _scalar_chunk_states(n, ms, unis, p_up):
    return [[ms[i]] + _scalar_states(n, ms[i], unis[i], p_up[i, 0]) for i in range(len(ms))]


class TestChunkStates:
    @pytest.mark.parametrize("n", [2, 3, 10, 64])
    def test_numpy_passes_match_scalar_loop(self, n):
        # short chunks from every start, as matrices of 1 to 6 rows whose
        # rows take different forms; steps up with the plain chain's
        # probability 1/2 and with a tilted chain's.  The numpy passes are
        # checked on the smallest chains too: a free walk that stays in
        # {1..n}, and a lift or a drop whose path stays in it, is the
        # path, and each kind occurs, as does a row reaching both ends
        rnd = np.random.default_rng(n)
        kinds = set()
        for _ in range(200):
            rows = int(rnd.integers(1, 7))
            m = rnd.integers(1, n + 1, size=rows).tolist()
            unis = rnd.random((rows, int(rnd.integers(1, 3 * n))))
            p_up = rnd.choice([0.5, 0.1, 0.3, 0.8, 0.97], size=(rows, 1))
            paths = simulate._chunk_states(n, m, unis, p_up)
            want = _scalar_chunk_states(n, m, unis, p_up)
            assert paths.dtype == np.int64
            assert paths.tolist() == want
            for i in range(rows):
                for kind, form in zip(("free", "lift", "drop"),
                                      _one_end_forms(n, m[i], unis[i], p_up[i, 0])):
                    if form.min() >= 1 and form.max() <= n:
                        assert form.tolist() == want[i][1:]
                        kinds.add(kind)
                        break
                else:
                    kinds.add("both ends")
        # a chunk of fewer than 3n events rarely reaches both ends at n = 64
        assert kinds - {"both ends"} == {"free", "lift", "drop"}
        assert "both ends" in kinds or n == 64

    @pytest.mark.parametrize("n", range(2, 18))
    def test_table_walk_matches_scalar_loop(self, n):
        # every start with every byte of step bits, the steps of its eight
        # events; then chunks of 1 to 3n events, no multiple of 8, so most
        # end part way into a byte, stepping up with the plain and tilted
        # chains' probabilities
        for m in range(1, n + 1):
            for byte in range(256):
                unis = np.array([0.0 if byte >> j & 1 else 1.0 for j in range(8)])
                got = simulate._table_walk(n, m, unis < 0.5)
                assert got.tolist() == _scalar_states(n, m, unis, 0.5)
        rnd = np.random.default_rng(100 + n)
        for _ in range(100):
            size = int(rnd.choice([c for c in range(1, 3 * n + 1) if c % 8]))
            m = int(rnd.integers(1, n + 1))
            p_up = float(rnd.choice([0.1, 0.3, 0.5, 0.8, 0.97]))
            unis = rnd.random(size)
            got = simulate._table_walk(n, m, unis < p_up)
            assert got.dtype == np.int64
            assert got.tolist() == _scalar_states(n, m, unis, p_up)

    @pytest.mark.parametrize("n", [64, 100, 300])
    def test_rows_reaching_both_ends(self, n, monkeypatch):
        # matrices of rows from near an end that cross the chain and come
        # back within one chunk: the steps of the first 1.2n to 1.5n events
        # go away from the start end nine times in ten, the rest go back
        # nine times in ten, stepping up with the plain and tilted chains'
        # probabilities.  The rows that no one-end closed form serves, and
        # only those, take the table walk
        walked = []
        table_walk = simulate._table_walk
        monkeypatch.setattr(simulate, "_table_walk",
                            lambda n, m, up: walked.append(m) or table_walk(n, m, up))
        rnd = np.random.default_rng(n)
        both = unserved = 0
        for rows in [1, 2, 3, 4] * 3:
            m = rnd.choice([1, 2, 5, n - 4, n - 1, n], size=rows).tolist()
            size = int(rnd.integers(3 * n, 4 * n))
            p_up = rnd.choice([0.1, 0.3, 0.5, 0.8, 0.97], size=(rows, 1))
            away = np.arange(size) < rnd.integers(1.2 * n, 1.5 * n, size=(rows, 1))
            toward_n = away == (np.array(m)[:, None] < n / 2)
            up = rnd.random((rows, size)) < np.where(toward_n, 0.9, 0.1)
            unis = np.where(up, p_up * rnd.random((rows, size)),
                            p_up + (1.0 - p_up) * rnd.random((rows, size)))
            want = _scalar_chunk_states(n, m, unis, p_up)
            assert simulate._chunk_states(n, m, unis, p_up).tolist() == want
            for i, path in enumerate(want):
                both += min(path) == 1 and max(path) == n
                unserved += all(form.min() < 1 or form.max() > n
                                for form in _one_end_forms(n, m[i], unis[i], p_up[i, 0]))
        assert both >= unserved == len(walked) >= 20

    def test_sweep_of_a_long_chain_reads_a_bounded_table(self):
        # about 6000 events that sweep 1 -> n -> 1 at n = 3000, with a forced
        # move at each end; the only table built is the 17-state chain's
        n = 3000
        steps = [False] + [True] * (n - 1) + [False] * (n - 1)
        unis = np.where(steps, 0.0, 1.0)[None, :]
        simulate._end_table.cache_clear()
        path = simulate._chunk_states(n, [1], unis, np.array([[0.5]]))
        assert path.tolist() == _scalar_chunk_states(n, [1], unis, np.array([[0.5]]))
        assert [path.min(), path.max(), path[0, -1]] == [1, n, 2]
        built = simulate._end_table.cache_info()
        assert built.currsize == 1
        offsets, _ = simulate._end_table(17)
        assert simulate._end_table.cache_info().hits == built.hits + 1
        assert offsets.size == 17 * 256 * 8


class TestReplicationRng:
    def test_streams_are_keyed(self):
        a = replication_rng(5, 0).random(4)
        b = replication_rng(5, 1).random(4)
        c = replication_rng(5, 0).random(4)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    @pytest.mark.parametrize("seed", [5, 2**64 + 3, -1])
    def test_rekeyed_stream_equals_a_fresh_one(self, seed, monkeypatch):
        # each replication leaves its stream part way into a block, with a
        # 32-bit half word buffered, before the next group is re-keyed; the
        # last group is short
        monkeypatch.setattr(simulate, "_GROUP", 2)
        reps = []
        for group in simulate._replication_groups(seed, 5):
            for rng in group:
                fresh = replication_rng(seed, len(reps))
                np.testing.assert_array_equal(rng.standard_exponential(100),
                                              fresh.standard_exponential(100))
                np.testing.assert_array_equal(rng.random(7), fresh.random(7))
                assert rng.random(dtype=np.float32) == fresh.random(dtype=np.float32)
                assert rng.integers(1 << 40) == fresh.integers(1 << 40)
                reps.append(rng)
        assert [len(reps), len(set(map(id, reps)))] == [5, 2]
        # the generators go back to the spare list and serve the next
        # experiment, of another seed, as fresh streams
        spares = {id(rng) for group in simulate._SPARE for rng in group}
        for group in simulate._replication_groups(seed + 1, 3):
            for rng in group:
                assert id(rng) in spares
                rep = len(reps) - 5
                fresh = replication_rng(seed + 1, rep)
                np.testing.assert_array_equal(rng.standard_exponential(9000),
                                              fresh.standard_exponential(9000))
                np.testing.assert_array_equal(rng.random(3), fresh.random(3))
                reps.append(rng)
        assert len(reps) == 8

    def test_single_paths_build_no_generator(self, monkeypatch):
        # a single path re-keys a spare generator, as the experiments do
        built = []
        fresh = simulate.replication_rng
        monkeypatch.setattr(simulate, "replication_rng", lambda *key: built.append(key) or fresh(*key))
        params, config, tilt = ModelParams(50, 1.0), SimConfig(horizon=1.0, seed=4, initial=25), ConstantTilt(1.5)
        sample_path(params, config)  # may top up a spare list
        built.clear()
        for rep in range(3):
            sample_path(params, config, replication=rep)
            tilted_sample_path(params, tilt, config, replication=rep)
        assert built == []


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=0.0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(horizon=1.0, seed=1, replications=0)
        with pytest.raises(ValueError):
            SimConfig(horizon=1.0, seed=1, initial="equilibrium")


def _digest(*parts) -> str:
    """SHA-256 of exact values: arrays by dtype and raw bytes, scalars by repr
    (which round-trips float64)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.dtype.str.encode())
            h.update(part.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _path_parts(traj):
    return (traj.initial_state, traj.horizon, traj.jump_times, traj.states_after_jump)


# (N, initial, horizon): every (N, initial) pair of N in {1, 2, 3, 50, 1000,
# 10000}; the N=1000 path from the top makes ~20k jumps, across three variate
# blocks.  At N=10000 only one end is within reach of a chunk of events: the
# paths from 1 and from stationarity linger near 1 and reflect there dozens
# of times, the path from the top reflects at N.  At N=512..700 a chunk of
# hundreds or thousands of events can reach both ends: the path from 1 at
# N=512 reflects at 1 only, the one from the top at N=700 at N only, the one
# from 300 at N=600 at neither, and the one from 30 at N=512 reaches 1 and
# N over ~40 blocks.  At N=64, 80, 100 and 300 paths reflect at both ends:
# from stationarity at N=64 and from 40 at N=80 some chunks' free walks
# leave {1..N} on both sides, and others reach the second end only after
# a one-end closed form has lifted or dropped the walk.  At N=8, 15, 16,
# 17, 39, 40 and 41, on either side of the end table's N < 16 switch and of
# the old event-by-event replay's N < 40, paths of 1-6.5k jumps; all but
# five of the 42 (at N=39..41) reach both ends.
_GOLDEN_PATHS = {
    (1, 1, 10.0): "aa3c6dbb1e215c13b5dadc9fa7df8f46273a1c437553fa29d4013f78481709bc",
    (1, "stationary", 10.0): "aa3c6dbb1e215c13b5dadc9fa7df8f46273a1c437553fa29d4013f78481709bc",
    (2, 1, 20.0): "ca27e21382a9ad0a3ad8e7aac47034770022166257d0cc5396066412e096ab4b",
    (2, 2, 20.0): "28eecdbefc503bba15b54a76672661bbcf37957749997e4253d04e8af5fd37e7",
    (2, "stationary", 20.0): "02ee7f2b0c7a87ed756dd7deccf2c22702d1df94fbec888213cf914ef35eead3",
    (3, 1, 20.0): "521aed30a816036e2f4dcf5f64aa82c97b1ed928856954920a1805ad04e4aa0c",
    (3, 3, 20.0): "cda54ad21d48d91bc149a7b7e86d6c7c6846bd09767e8ea293d2b9c2f98fcfcc",
    (3, "stationary", 20.0): "26d1cac380727313672c50beb8fc3dfd32a8407500bee6d2a721f14ee76110e2",
    (50, 1, 5.0): "496abc99c94fe2f45da1b8f797739ddb94c7d563b27ba77949429dfc36c60561",
    (50, 50, 5.0): "c77310244f50a7b77009bed08ac91e1400fb9e6af01bc959801f24efb18eb776",
    (50, "stationary", 5.0): "e4bad10b9d03b94e15efcd7cabdeaaee1228c0526f7ec8e02f24596d86df9aad",
    (1000, 1, 1.0): "3031b549be9502bdf988154a86574c1d0bb08d0d0adc67c5fc84cfb65ee505e2",
    (1000, 1000, 10.0): "b77d0c0fb3c481b43fe6a4333c0357230662ba82d01889111fed18847c2ea361",
    (1000, "stationary", 1.0): "cb1113b7e63c23145c0dcde2b57f6a60c8dc552127a154ce719a6a790620d96c",
    (10000, 1, 200.0): "300a2daeb2cc7b85af02d19f53724a682a560722eaff10f7646c2b959e5f5e53",
    (10000, 10000, 0.5): "80f43fc12e120b023e616304ddfb5bea645d586694d42df91bad89baaf05b120",
    (10000, "stationary", 200.0): "635cd31a4cba52da6bc3dccb63342090a402d261a10ce72d32e193e655fbd3ae",
    (512, 1, 50.0): "3cbc0753c31fd3f90d2836b5a9c86dece501dff95d6931cb9bd7745e717adadd",
    (700, 700, 2.0): "0d4c0f806c092266d5ea6feb8867c8566f679377392518fe5154f3bb9146e92f",
    (600, 300, 5.0): "59c1700d3766059de757ddd98d492b71be36bae40bae007ac80aaab591e6e0b5",
    (512, 30, 1000.0): "66ceaa690dd898766384b04237ff183eb58ee9a1e1bb6b5aa543cc32a3e6cc38",
    (100, 50, 20.0): "02ed6f8d59c11904c2f148c85c6b29fb5c68a4afb68cc8ce5a049ec9d2a34952",
    (300, "stationary", 30.0): "9a6584bd0330dcf30588966b3d74dc1b234644ca9caf07ddd9bfb451b663ade4",
    (64, 2, 200.0): "fec54c4fafb1f04888384426baea99809eaf05f6f6b8c8eeebc6803c2289a89f",
    (64, "stationary", 300.0): "fb34d1c2a466b081b3a4f230d078606a965c61587bd261e958bc5991dccadcd9",
    (80, 40, 100.0): "e6159caf2a4a79b1e34f3881af1ccd441f0ec1d0b1aad17f5f36cf33631b655c",
    (8, 8, 300.0): "2006b25015c981fa6c9041512bc374b3b64d8acde257b73915d21995fc72bb47",
    (8, "stationary", 300.0): "0a828da960dff0b2282b26a8cde48a08426f4883ea24d49b65f20b3e8fa0b883",
    (15, 1, 200.0): "7becc593d481c29dd99e812c3e2989e44d42e9f137284209de59fdc7b8bef4c8",
    (15, "stationary", 200.0): "2b274b9a27c71a702eddc660ade2cf71f963d842260ee7091505b8e700cab782",
    (16, 16, 200.0): "03b09689b1a6e00a1d23cdc840781ba6b24c9062b741959482a8c08f7a813e1c",
    (16, "stationary", 200.0): "0bf2444c75040a773390ea22eaf2235e92a0d17eb1ef5787fe61520790c8031f",
    (17, 9, 200.0): "38fc637609f53f4095ceb673ba0666d7680242c6a460a6cf224bd58a570de8be",
    (17, "stationary", 200.0): "97707f8fc2df90678d1a03ac0a8ea6b8a4b635c1a439437092d539c8fc3ed298",
    (39, 39, 200.0): "07d08f222fb0f6460d6e88cc0e57aef5b2aea1c58dd83ea46c75171384375715",
    (39, "stationary", 200.0): "c8400f531e05b3916bce4b45f1b1c0d742d3f98c6a27ff45578f861e887b65cb",
    (40, 1, 200.0): "5f85c64761bbe4afe09f2627ca2120e0021e22f56142ef2a33fd2185e3a472bf",
    (40, "stationary", 200.0): "ccd035b045315bdff71947feab76e276ad7ef9452f7aa2f586f6ee408af1da0c",
    (41, 20, 200.0): "56502512c7395f4775848e6067921d13c98d3c0e117845b8ce2477d3cea805f6",
    (41, "stationary", 200.0): "3a1e4a2c6cd4deefd3884bdaa775cf45967ca54bc476519bce29dd5f3fbe830c",
}

# (N, gamma0, epsilon, horizon, replications): N=1, a band wider than the
# state space, a start outside the band (m0=50 <= lo=50), and replications
# of ~14k jumps at N=600 that cross a block boundary.
_GOLDEN_LLN_POINT = {
    (1, 1.0, 0.5, 1.0, 20): "0998fc7696765f9c7fa1442f6fda6b7258e1f44f31ae5d39d83e2cafe6d95c31",
    (2, 0.5, 0.4, 2.0, 200): "8c7e3fd408a261e8cc1c018bc24e8719792b6bbb4ad1e02a94ae417b56d27bf3",
    (3, 0.5, 0.3, 1.0, 200): "0b36f482d3bed194b9a2a31643d2ba54db54423b561bd45f7debc55ad390d2b6",
    (50, 0.5, 0.6, 1.0, 20): "0998fc7696765f9c7fa1442f6fda6b7258e1f44f31ae5d39d83e2cafe6d95c31",
    (100, 0.504, 0.003, 1.0, 20): "7249384252cc2f384aa20a1717bd17b1b2bfd95a9cc42cacaabb946da0a2de5b",
    (200, 0.5, 0.05, 1.0, 300): "df6633845f67e41cbc1b9f02b2b2171990e767f0b942329c534e1ae8cc4b1288",
    (1000, 0.5, 0.02, 1.0, 100): "ac87c4ca1f2eed48def5df4afc2843c7b52385053a7d9f82ca27c65c05758418",
    (1000, 0.5, 0.03, 1.0, 100): "2521fe9ab238ae0b2cc23fa4553290f20659fc703dd25730a30e17e4ddf785cf",
    (600, 0.5, 0.3, 20.0, 5): "8ea1e15ad51b063503652288d652080a50730f8a0a4c89b34b546150f64a9de6",
}

# (N, u, sample times, horizon, replications): N=1, sample time 0, a
# repeated sample time, the lln benchmark's N=10000 case, and a case at
# N=1000 where most replications end at their first sample time.
_GOLDEN_LLN_STATIONARY = {
    (1, 1.0, (0.5,), 1.0, 20): "def2128a04b92c4206b51187bcbce7f0aab2311cf8815bf200a9d72da31303ff",
    (2, 0.75, (0.0, 1.0), 1.0, 200): "752728a7565b0ca0b4974d5f7131d7403a1c2041e9ddca53e7de239beb76bbc2",
    (3, 0.5, (0.0, 0.5, 0.5, 2.0), 2.0, 200): "374d3dcd651bd5999175df73f970194787f49c690be89a1c40ad4e7b377d5a80",
    (50, 0.2, (0.25, 0.0, 0.25, 1.0), 1.0, 300): "79ecddbe3b1eb2bcad5cc3c8478252de33eaa24cb0d22e5ade7579fd33399630",
    (1000, 0.1, (0.25, 0.5, 0.75, 1.0), 1.0, 100): "60225f88e933ec19f572918a7b3acdd0187c2649c42596981f6cea5018bae78b",
    (10000, 0.1, (0.25, 0.5, 0.75, 1.0), 1.0, 100): "d93f988141f1231389f5596fa8528e0b2c80fef6eead93dbf8e1505d0fa5c47b",
    (1000, 0.01, (0.5, 2.0, 8.0, 20.0), 20.0, 50): "9f41f265c0a84aebe4c9c3d774bd90d59b4beb64621ca734da4ba95ffd283fdc",
}


def _golden_tilt(name):
    if name == "dual":
        from bdld.optimal_paths import dual_tilt, solve_boundary
        return dual_tilt(solve_boundary(0.5, 0.8, 1.0, 1.0))
    if name == "callable":
        return CallableTilt(lambda t: 1.5 - 0.5 * t, bound=1.5)
    return ConstantTilt(float(name))


# (N, tilt, initial, horizon): tilted paths with their log-weights, computed
# from the scalar held-z loop (_scalar_held_path), not from the kernel.  The
# dual tilt runs at the rare-event benchmark's rungs N=400 and N=800 and from
# stationarity at N=1000, where the paths start near 1 and some reach N; the
# ConstantTilt(1.5) paths at N=30 and the callable paths at N=50 reflect at N.
_GOLDEN_TILTED = {
    (30, "2.0", 15, 0.5): "e5d61d12cc9f2377018f61b678be19ef02b73ba9ac322fce8ac7efe979c852be",
    (30, "0.5", 15, 0.5): "806754e839ff72f9e1a3891d7334bc046ed37bc495041712e2a6e9284dc9fc6e",
    (3, "1.5", "stationary", 2.0): "ca5d0d23d53615abe01e6618f167241c3e8b76c70165d202f4f6d1ec5968c829",
    (100, "dual", 50, 1.0): "8728cc9d27d30429561e1510120c5699efee173a9829cd2e4ffb6a275fbe0186",
    (400, "dual", 200, 1.0): "643a245720a9cbd68822b6ea1528462093c6f546bf77418bec43ec110e67b620",
    (800, "dual", 400, 1.0): "eb69a158b3d34a6890fe828b38ebd0753f0e30f85077df9d296a66999632618b",
    (30, "1.5", 25, 2.0): "e4aadf130c64d9f5e30470ce7328094668dd9978b3ba630ec016282b8475fba7",
    (50, "callable", 25, 1.0): "5e7bd0bc217e3ab1a7a6f4197b668b73936b9a067b239b85801c9e044b6e7469",
    (1000, "dual", "stationary", 1.0): "8d370a06c3545eafdc6a2daba17c52cca91b6f9485a2e5242c45423d98dda6ad",
}

# (N, tilt, initial, window, horizon, replications): tilted_window_experiment
# at the rare-event benchmark's settings on N=100..800 (its lattice windows
# 0.8 +- 0.02), from stationarity at N=3, where the paths reflect in most
# chunks, with a callable tilt at N=50, and with a constant tilt at N=17,
# whose step-up probability 0.69 drives the end-table walk.  Each pins
# estimate, stderr, ess, max_weight_share and rel_err_per_sample as
# float.hex (None for null), then the jump count; computed with the
# one-replication-at-a-time kernel, and the N=17 case with the lock-step
# kernel that replayed its events one at a time.
_GOLDEN_TILTED_EXPERIMENT = {
    (100, "dual", 50, (78, 82), 1.0, 25): (
        "0x1.66d20ed291b37p-7", "0x1.11d6f5f184ba1p-8", "0x1.63fce37ac280cp+2",
        "0x1.16c54e9639fe5p-2", "0x1.e86d2480cfd4cp+0", 3354),
    (200, "dual", 100, (156, 164), 1.0, 25): (
        "0x1.dacae282b07cep-14", "0x1.c4436cd4731dap-15", "0x1.f093f82c0a67ap+1",
        "0x1.48240c60b8fe5p-2", "0x1.30d0db05ce2e4p+1", 6724),
    (400, "dual", 200, (312, 328), 1.0, 25): (
        "0x1.2ed2da3a0bf06p-22", "0x1.12f6b1334eaa0p-23", "0x1.0d0da8ad71bddp+2",
        "0x1.5d1d928a42a0bp-2", "0x1.228f4c83c740ep+1", 13388),
    (800, "dual", 400, (624, 656), 1.0, 25): (
        "0x1.0a19c414ec37ap-41", "0x1.0f317c3e786e2p-42", "0x1.ba7c9d971549fp+1",
        "0x1.bd288d19d45abp-2", "0x1.461fca7f58366p+1", 26197),
    (3, "1.5", "stationary", (3, 3), 2.0, 60): (
        "0x1.9774eb18a49cdp-3", "0x1.122c9a9e7525ep-5", "0x1.67996ba79211dp+4",
        "0x1.2f8007cc8c400p-4", "0x1.4d94a102c91d8p+0", 274),
    (50, "callable", 25, (38, 46), 1.0, 40): (
        "0x1.9340d4b8661f2p-5", "0x1.ae69e505aa2cbp-6", "0x1.a6dfcee5c7869p+1",
        "0x1.efcc333861e76p-2", "0x1.b008c1d329814p+1", 2949),
    (17, "1.5", 9, (14, 17), 2.0, 40): (
        "0x1.932e1af26ea7ep-4", "0x1.0c2aba951cdc4p-5", "0x1.e1cda8dfdebe2p+2",
        "0x1.be8e7df30aa9ap-3", "0x1.0d39b565cc48dp+1", 1829),
}


def _sample_path_digest(case):
    n, initial, horizon = case
    config = SimConfig(horizon=horizon, seed=2024 + n, initial=initial)
    trajs = [sample_path(ModelParams(n, 1.0), config, replication=rep) for rep in range(3)]
    return _digest(*[part for traj in trajs for part in _path_parts(traj)]), trajs


def _lln_point_digest(case):
    n, gamma0, epsilon, horizon, reps = case
    config = SimConfig(horizon=horizon, seed=31 + n, replications=reps)
    res = lln_point_experiment(ModelParams(n, 1.0), gamma0, epsilon, config)
    return _digest(res.extra["hits"], res.estimate, res.stderr), res


def _lln_stationary_digest(case):
    n, u, times, horizon, reps = case
    config = SimConfig(horizon=horizon, seed=47 + n, replications=reps)
    res = lln_stationary_experiment(ModelParams(n, 1.0), u, times, config)
    return _digest(res.estimate, res.stderr), res


def _tilted_digest(case, reference=False):
    n, tilt_name, initial, horizon = case
    tilt = _golden_tilt(tilt_name)
    params = ModelParams(n, 1.0)
    config = SimConfig(horizon=horizon, seed=59 + n, initial=initial)
    parts = []
    for rep in range(10):
        if reference:
            m0, times, states, log_w = _scalar_held_path(params, tilt, config, rep)
            parts += [log_w, m0, horizon, times, states]
        else:
            weighted = tilted_sample_path(params, tilt, config, replication=rep)
            parts += [weighted.log_weight, *_path_parts(weighted.trajectory)]
    return _digest(*parts)


def _tilted_experiment_pins(case):
    n, tilt_name, initial, window, horizon, reps = case
    config = SimConfig(horizon=horizon, seed=67 + n, initial=initial, replications=reps)
    res = tilted_window_experiment(ModelParams(n, 1.0), _golden_tilt(tilt_name), window, config)
    fields = (res.estimate, res.stderr, *(res.extra[key] for key in (
        "ess", "max_weight_share", "rel_err_per_sample")))
    return (*(None if v is None else float(v).hex() for v in fields), res.extra["jumps"])


def _csv_digest(tmp_path):
    config = SimConfig(horizon=2.0, seed=5, initial="stationary")
    out = tmp_path / "traj.csv"
    sample_path(ModelParams(50, 1.0), config).to_csv(out)
    return hashlib.sha256(out.read_bytes()).hexdigest()


_GOLDEN_CSV = "999e3574ef56a2c8eda1ef6967e81c2bc524cee139ca4e52b819ce2436840815"


class TestGoldenStream:
    """Bit-for-bit pins of every sampler's output.  The digests were computed
    from the original hand-written loops, or from kernels that matched them,
    before any later change to a kernel, and the tilted ones from the scalar
    held-z loop; any change to the variate stream (block size, exponentials
    before uniforms, the extra uniform of a stationary start) or to the jump
    rule changes them."""

    @pytest.mark.parametrize("case", sorted(_GOLDEN_PATHS, key=repr))
    def test_sample_path(self, case):
        digest, trajs = _sample_path_digest(case)
        if case == (1000, 1000, 10.0):
            assert min(traj.n_jumps for traj in trajs) > 2 * 8192
        assert digest == _GOLDEN_PATHS[case]
        # the kernels build their paths without Trajectory's checks; each
        # path passes them and comes out the same, dtypes included
        checked = [Trajectory(traj.initial_state, traj.jump_times, traj.states_after_jump,
                              traj.horizon) for traj in trajs]
        assert _digest(*[part for traj in checked for part in _path_parts(traj)]) == digest

    @pytest.mark.parametrize("case", [(50, "stationary", 5.0), (1000, 1000, 10.0)])
    def test_sample_path_of_a_later_replication(self, case):
        # replication 3 of a golden case is the walk of a fresh stream keyed 3
        n, initial, horizon = case
        params = ModelParams(n, 1.0)
        config = SimConfig(horizon=horizon, seed=2024 + n, initial=initial)
        rng = replication_rng(config.seed, 3)
        m0 = simulate._start(params, config)(rng)
        jumps = [[]]
        simulate._walk(n, 1.0, [m0], (horizon,), [rng], jumps, None, [[]], math.inf)
        want = Trajectory(m0, *simulate._joined(jumps[0]), horizon)
        got = sample_path(params, config, replication=3)
        assert _digest(*_path_parts(got)) == _digest(*_path_parts(want))
        assert got.n_jumps > 0

    @pytest.mark.parametrize("case", sorted(_GOLDEN_LLN_POINT, key=repr))
    def test_lln_point(self, case):
        assert _lln_point_digest(case)[0] == _GOLDEN_LLN_POINT[case]

    @pytest.mark.parametrize("case", sorted(_GOLDEN_LLN_STATIONARY, key=repr))
    def test_lln_stationary(self, case):
        assert _lln_stationary_digest(case)[0] == _GOLDEN_LLN_STATIONARY[case]

    @pytest.mark.parametrize("case", sorted(_GOLDEN_TILTED, key=repr))
    def test_tilted(self, case):
        assert _tilted_digest(case) == _GOLDEN_TILTED[case]

    @pytest.mark.parametrize("case", sorted(_GOLDEN_TILTED, key=repr))
    def test_tilted_reference(self, case):
        assert _tilted_digest(case, reference=True) == _GOLDEN_TILTED[case]

    @pytest.mark.parametrize("case", sorted(_GOLDEN_TILTED_EXPERIMENT, key=repr))
    def test_tilted_experiment(self, case):
        assert _tilted_experiment_pins(case) == _GOLDEN_TILTED_EXPERIMENT[case]

    def test_csv_bytes(self, tmp_path):
        assert _csv_digest(tmp_path) == _GOLDEN_CSV

    @pytest.mark.parametrize("chunk", [32, 1024])
    def test_chunk_size_does_not_matter(self, chunk, monkeypatch):
        # a chunk of 32 cuts the lln replications into many more chunks, one
        # of 1024 lets N=1000 chunks reach both ends; every output, jump
        # counts included, must stay the same
        lln = [(_lln_point_digest, _GOLDEN_LLN_POINT),
               (_lln_stationary_digest, _GOLDEN_LLN_STATIONARY)]
        jumps = {case: run(case)[1].extra["jumps"] for run, golden in lln for case in golden}
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        for case, digest in _GOLDEN_PATHS.items():
            assert _sample_path_digest(case)[0] == digest
        for run, golden in lln:
            for case, digest in golden.items():
                got, res = run(case)
                assert got == digest
                assert res.extra["jumps"] == jumps[case]

    @pytest.mark.parametrize("walk", ["table", "scalar"])
    def test_state_walk_does_not_matter(self, walk, monkeypatch):
        # "table" walks every row of every chain, N = 10000 included, eight
        # events at a time from the end table; "scalar" puts the scalar loop
        # in the table walk's place, for every chain of at most 17 states and
        # every row that reaches both ends
        if walk == "table":
            def chunk_states(n, ms, unis, p_up):
                path = np.empty((len(ms), unis.shape[1] + 1), dtype=np.int64)
                path[:, 0] = ms
                for row, m, steps in zip(path[:, 1:], ms, unis < p_up):
                    row[:] = table_walk(n, m, steps)
                return path

            table_walk = simulate._table_walk
            monkeypatch.setattr(simulate, "_chunk_states", chunk_states)
        else:
            monkeypatch.setattr(simulate, "_table_walk", lambda n, m, up: np.array(
                _scalar_states(n, m, np.where(up, 0.0, 1.0), 0.5), dtype=np.int64))
        for case, digest in _GOLDEN_PATHS.items():
            assert _sample_path_digest(case)[0] == digest
        for case, digest in _GOLDEN_LLN_POINT.items():
            assert _lln_point_digest(case)[0] == digest
        for case, digest in _GOLDEN_LLN_STATIONARY.items():
            assert _lln_stationary_digest(case)[0] == digest

    @pytest.mark.parametrize("draw", ["split", "serial"])
    def test_block_draw_does_not_matter(self, draw, monkeypatch):
        # "split" draws every row's exponential block, a single path's too,
        # on two threads other than the caller's, last row first; "serial"
        # draws them all on the calling thread, in order
        def one(rngs, exps, row):
            rngs[row].standard_exponential(out=exps[row])

        with ThreadPoolExecutor(2) as pool:
            if draw == "split":
                monkeypatch.setattr(simulate, "_draw", lambda rngs, rows, exps: list(
                    pool.map(lambda row: one(rngs, exps, row), rows[::-1])))
            else:
                monkeypatch.setattr(simulate, "_draw", lambda rngs, rows, exps: [
                    one(rngs, exps, row) for row in rows])
            for case, digest in _GOLDEN_PATHS.items():
                assert _sample_path_digest(case)[0] == digest
            for case, digest in _GOLDEN_LLN_POINT.items():
                assert _lln_point_digest(case)[0] == digest
            for case, digest in _GOLDEN_LLN_STATIONARY.items():
                assert _lln_stationary_digest(case)[0] == digest
            for case, digest in _GOLDEN_TILTED.items():
                assert _tilted_digest(case) == digest
            for case, pins in _GOLDEN_TILTED_EXPERIMENT.items():
                assert _tilted_experiment_pins(case) == pins

    @pytest.mark.parametrize("chunk", [32, 1024])
    def test_tilted_chunk_size_does_not_matter(self, chunk, monkeypatch):
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        for case, digest in _GOLDEN_TILTED.items():
            assert _tilted_digest(case) == digest

    @pytest.mark.parametrize("group", [1, 7, simulate._GROUP])
    def test_group_size_does_not_matter(self, group, monkeypatch):
        # replications run as the rows of groups of this many, in lock-step;
        # a group of 7 splits the 25 replications of a rung unevenly, and
        # rows leave their group at different passes
        monkeypatch.setattr(simulate, "_GROUP", group)
        for case, digest in _GOLDEN_LLN_POINT.items():
            assert _lln_point_digest(case)[0] == digest
        for case, digest in _GOLDEN_LLN_STATIONARY.items():
            assert _lln_stationary_digest(case)[0] == digest
        for case, digest in _GOLDEN_TILTED.items():
            assert _tilted_digest(case) == digest
        for case, pins in _GOLDEN_TILTED_EXPERIMENT.items():
            assert _tilted_experiment_pins(case) == pins


class _SlowRng:
    """A generator that records the thread drawing each block and sleeps
    while drawing, so both threads of a split draw take rows."""

    def __init__(self, rng, drawn):
        self.rng, self.drawn = rng, drawn

    def standard_exponential(self, out):
        self.drawn.append(threading.get_ident())
        time.sleep(0.005)
        self.rng.standard_exponential(out=out)


class TestBlockDraw:
    def _experiments(self):
        tilt = _golden_tilt("dual")
        return [
            lambda: lln_point_experiment(ModelParams(1000, 1.0), 0.5, 0.2,
                                         SimConfig(horizon=1.0, seed=3, replications=50)),
            lambda: lln_stationary_experiment(ModelParams(2000, 1.0), 0.1, [0.5, 1.0],
                                              SimConfig(horizon=1.0, seed=4, replications=40)),
            lambda: tilted_window_experiment(ModelParams(200, 1.0), tilt, (156, 164),
                                             SimConfig(horizon=1.0, seed=5, initial=100,
                                                       replications=70)),
        ]

    def test_rows_split_between_the_caller_and_one_drawer(self):
        rows = list(range(0, 16, 2)) + [15]
        drawn = []
        rngs = [_SlowRng(replication_rng(7, rep), drawn) for rep in range(16)]
        exps = np.zeros((16, simulate._BLOCK))
        simulate._draw(rngs, rows, exps)
        for row in range(16):
            expected = replication_rng(7, row).standard_exponential(simulate._BLOCK)
            np.testing.assert_array_equal(exps[row], expected if row in rows else 0.0)
        helpers = set(drawn) - {threading.get_ident()}
        assert len(drawn) == len(rows)
        two_cpus = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
        assert len(helpers) == (1 if two_cpus else 0)

    def test_concurrent_experiments_equal_serial_runs(self):
        # four threads, more than the cores, each run the experiments in its
        # own order with a short switch interval; a generator two of them
        # shared, or a block drawn twice or not at all, moves a result
        runs = self._experiments()
        serial = [run().to_json_obj() for run in runs]
        results = {}

        def job(k):
            for i in np.roll(np.arange(len(runs)), k):
                results[k, int(i)] = runs[i]().to_json_obj()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=job, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {(k, i): serial[i] for k in range(4) for i in range(len(runs))}

    def test_threads(self):
        before = set(threading.enumerate())
        params = ModelParams(1000, 1.0)
        sample_path(params, SimConfig(horizon=5.0, seed=1, initial=500))
        tilted_sample_path(params, ConstantTilt(1.2), SimConfig(horizon=1.0, seed=1, initial=500))
        assert set(threading.enumerate()) == before
        for run in self._experiments():
            run()
        added = set(threading.enumerate()) - before
        assert len(added) <= 1
        for run in self._experiments():
            run()
        assert set(threading.enumerate()) - before == added
