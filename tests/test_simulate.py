"""Tests for the event-driven sampler, the LLN experiments and the tilted
importance sampler."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from bdld import simulate
from bdld.chain import ModelParams, stationary_distribution
from bdld.evolve import stationary_dwell_probability, window_probability
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

    def test_state_at(self):
        traj = Trajectory(2, np.array([0.25, 0.75]), np.array([3, 2]), 1.0)
        assert traj.state_at(0.0) == 2
        assert traj.state_at(0.5) == 3
        assert traj.state_at(1.0) == 2

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

    def test_jump_count_matches_sample_paths(self):
        params = ModelParams(1000, 1.0)
        res = lln_point_experiment(params, 0.5, 0.03,
                                   SimConfig(horizon=1.0, seed=9, replications=20))
        start = SimConfig(horizon=1.0, seed=9, initial=500)
        assert res.extra["hits"] > 0
        assert res.extra["jumps"] == sum(sample_path(params, start, rep).n_jumps
                                         for rep in range(20))

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
        tilt = CallableTilt(lambda t: 1.0 - 2.0 * t, bound=2.0)
        with pytest.raises(ValueError):
            tilted_sample_path(ModelParams(10, 1.0), tilt,
                               SimConfig(horizon=1.0, seed=4, initial=5))

    def test_callable_matches_closed_form_weights(self):
        closed = ClosedFormDualTilt(c1=-10 / 3, lam=1.0)
        wrapped = CallableTilt(closed.value, bound=closed.sup_bound(1.0))
        params = ModelParams(50, 1.0)
        config = SimConfig(horizon=1.0, seed=21, initial=25)
        a = tilted_sample_path(params, closed, config, replication=5)
        b = tilted_sample_path(params, wrapped, config, replication=5)
        np.testing.assert_array_equal(a.trajectory.jump_times, b.trajectory.jump_times)
        assert abs(a.log_weight - b.log_weight) <= 1e-9

    def test_unit_tilt_counters(self):
        # with z = 1 the majorant is the nominal rate: no ghosts, the paths of
        # sample_path, and every weight 1, so the ESS is the hit count
        params = ModelParams(40, 1.0)
        config = SimConfig(horizon=1.0, seed=13, initial=20, replications=200)
        res = tilted_window_experiment(params, ConstantTilt(1.0), (22, 26), config)
        finals = [sample_path(params, config, rep) for rep in range(200)]
        hits = sum(22 <= traj.state_at(1.0) <= 26 for traj in finals)
        assert res.extra["thinning_rejections"] == 0
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
        values = []
        for rep in range(300):
            weighted = tilted_sample_path(params, tilt, config, rep)
            final = weighted.trajectory.state_at(1.0)
            values.append(math.exp(weighted.log_weight) if 78 <= final <= 82 else 0.0)
        values = np.array(values)
        assert res.estimate == float(values.mean())
        assert res.extra["jumps"] > 0 and res.extra["thinning_rejections"] > 0
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


def _scalar_tilted_path(params, tilt, config, replication):
    """The event-by-event thinning loop the tilted kernel must match bit for
    bit: (jump times, states, log-weight)."""
    horizon, n, lam = config.horizon, params.n_states, params.lam
    zbar = tilt.sup_bound(horizon)
    rng = replication_rng(config.seed, replication)
    m = simulate._resolve_initial(params, config, rng)
    variates = _v1_variates(rng)
    times, states = [], []
    log_w = t = seg = 0.0
    while True:
        up_nom = lam * m if m < n else 0.0
        down_nom = lam * m if m > 1 else 0.0
        r_major = (up_nom + down_nom) * zbar
        if r_major == 0.0:
            break
        e, u = next(variates)
        t += e / r_major
        if t >= horizon:
            break
        z = tilt.value(t)
        p_up = up_nom * z / r_major
        p_down = down_nom / z / r_major
        if u < p_up + p_down:
            log_w += (up_nom * tilt.up_excess_integral(seg, t)
                      + down_nom * tilt.down_excess_integral(seg, t))
            seg = t
            if u < p_up:
                log_w -= math.log(z)
                m += 1
            else:
                log_w += math.log(z)
                m -= 1
            times.append(t)
            states.append(m)
    up_nom = lam * m if m < n else 0.0
    down_nom = lam * m if m > 1 else 0.0
    log_w += (up_nom * tilt.up_excess_integral(seg, horizon)
              + down_nom * tilt.down_excess_integral(seg, horizon))
    return np.array(times), np.array(states, dtype=np.int64), log_w


def _random_tilted_cases(count):
    rnd = np.random.default_rng(20261018)
    for _ in range(count):
        n = int(rnd.choice([1, 2, 3, 10, 40, 300, 700, 3000]))
        kind = rnd.integers(3)
        if kind == 0:
            tilt = ConstantTilt(float(rnd.choice([0.5, 0.8, 1.3, 2.0])))
        elif kind == 1:
            tilt = ClosedFormDualTilt(c1=-float(rnd.uniform(1.5, 6.0)), lam=1.0)
        else:
            a = float(rnd.uniform(0.2, 1.0))
            tilt = CallableTilt(lambda t, a=a: 1.0 + a * math.sin(3.0 * t) ** 2, bound=1.0 + a)
            n = min(n, 300)
        initial = rnd.choice(["stationary", "1", "n", "mid", "near"])
        m0 = {"stationary": "stationary", "1": 1, "n": n, "mid": max(1, n // 2),
              "near": max(1, n - 5)}[initial]
        horizon = float(rnd.choice([0.05, 0.5, 1.0, 2.0]))
        lam = float(rnd.choice([1.0, 1.3]))
        yield (ModelParams(n, lam), tilt,
               SimConfig(horizon=horizon, seed=int(rnd.integers(1000)), initial=m0),
               int(rnd.integers(4)))


class TestTiltedKernelMatchesScalarLoop:
    @pytest.mark.parametrize("chunk", [32, 256])
    def test_random_cases(self, chunk, monkeypatch):
        # constant, dual and callable tilts; point and stationary starts;
        # paths that reflect at either end; small and large windows
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        for params, tilt, config, rep in _random_tilted_cases(60):
            times, states, log_w = _scalar_tilted_path(params, tilt, config, rep)
            weighted = tilted_sample_path(params, tilt, config, rep)
            assert weighted.trajectory.jump_times.tobytes() == times.tobytes()
            assert weighted.trajectory.states_after_jump.tobytes() == states.tobytes()
            assert weighted.log_weight.hex() == log_w.hex()


def _scalar_states(n, m, unis):
    states = []
    for u in unis:
        m = 2 if m == 1 else n - 1 if m == n else m + 1 if u < 0.5 else m - 1
        states.append(m)
    return states


class TestChunkStates:
    @pytest.mark.parametrize("n", [2, 3, 10, 64])
    def test_numpy_passes_match_scalar_loop(self, n, monkeypatch):
        # short chunks from every start, through the numpy passes even for
        # the smallest chains: free walks, one end reached, the second end
        # overshot by one or more after a lift or a drop
        monkeypatch.setattr(simulate, "_REPLAY_N", 2)
        rnd = np.random.default_rng(n)
        for _ in range(600):
            m = int(rnd.integers(1, n + 1))
            unis = rnd.random(int(rnd.integers(1, 3 * n)))
            assert simulate._chunk_states(n, m, unis).tolist() == _scalar_states(n, m, unis)


class TestReplicationRng:
    def test_streams_are_keyed(self):
        a = replication_rng(5, 0).random(4)
        b = replication_rng(5, 1).random(4)
        c = replication_rng(5, 0).random(4)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    @pytest.mark.parametrize("seed", [5, 2**64 + 3, -1])
    def test_rekeyed_stream_equals_a_fresh_one(self, seed):
        # each replication leaves its stream part way into a block, with a
        # 32-bit half word buffered, before the next is re-keyed
        streams = simulate._replication_rngs(seed, 3)
        for rep, rng in enumerate(streams):
            fresh = replication_rng(seed, rep)
            np.testing.assert_array_equal(rng.standard_exponential(100),
                                          fresh.standard_exponential(100))
            np.testing.assert_array_equal(rng.random(7), fresh.random(7))
            assert rng.random(dtype=np.float32) == fresh.random(dtype=np.float32)
            assert rng.integers(1 << 40) == fresh.integers(1 << 40)


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
# a one-end closed form has lifted or dropped the walk.
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


# (N, tilt, initial, horizon): tilted paths with their log-weights.  The dual
# tilt runs at the rare-event benchmark's rungs N=400 and N=800 and from
# stationarity at N=1000, where the paths start near 1 and some reach N; the
# ConstantTilt(1.5) paths at N=30 and the callable paths at N=50 reflect at N.
_GOLDEN_TILTED = {
    (30, "2.0", 15, 0.5): "eec32dcaca4ea61a631a63e7e962fdc525696154e621c25c88b7051fbdd707f5",
    (30, "0.5", 15, 0.5): "7596e72fa7d79a65fa5f95a6c7322ba0d3ec0952c195b99fbac4d653d461e63b",
    (3, "1.5", "stationary", 2.0): "ef75c4188363741584f848a59126542261e2204c452403e28f034f24cda39523",
    (100, "dual", 50, 1.0): "eed7e4071c672174326529e1eddfeb6eae5d5ff51e2be82b4941d71b30540c57",
    (400, "dual", 200, 1.0): "ea9835bf63df6c5c4b455f372bcac1f1190f946a694ef8829ab2ff290579aaa8",
    (800, "dual", 400, 1.0): "443a5b840c4ae3944d5f597b892ef80be6a3b3a36b615bf1d4a2d130366748a1",
    (30, "1.5", 25, 2.0): "46201d4478dd920077b8c571207cc8643c3457d3c3e42032ad23477bba4c2625",
    (50, "callable", 25, 1.0): "31a0d588e48f5eedb36af4ae985f65eee57caf39fe464bcc712d2b1ba81d89ad",
    (1000, "dual", "stationary", 1.0): "2c118c822fca99b929b26fe4202b6302b7c5c2daefe961191d239edb678f5706",
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


def _tilted_digest(case):
    n, tilt_name, initial, horizon = case
    tilt = _golden_tilt(tilt_name)
    config = SimConfig(horizon=horizon, seed=59 + n, initial=initial)
    parts = []
    for rep in range(10):
        weighted = tilted_sample_path(ModelParams(n, 1.0), tilt, config, replication=rep)
        parts.append(weighted.log_weight)
        parts.extend(_path_parts(weighted.trajectory))
    return _digest(*parts)


def _csv_digest(tmp_path):
    config = SimConfig(horizon=2.0, seed=5, initial="stationary")
    out = tmp_path / "traj.csv"
    sample_path(ModelParams(50, 1.0), config).to_csv(out)
    return hashlib.sha256(out.read_bytes()).hexdigest()


_GOLDEN_CSV = "999e3574ef56a2c8eda1ef6967e81c2bc524cee139ca4e52b819ce2436840815"


class TestGoldenStream:
    """Bit-for-bit pins of every sampler's output.  The digests were computed
    from the original hand-written loops, or from kernels that matched them,
    before any later change to a kernel; any change to the variate stream
    (block size, exponentials before uniforms, the extra uniform of a
    stationary start) or to the jump rule changes them."""

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

    @pytest.mark.parametrize("case", sorted(_GOLDEN_LLN_POINT, key=repr))
    def test_lln_point(self, case):
        assert _lln_point_digest(case)[0] == _GOLDEN_LLN_POINT[case]

    @pytest.mark.parametrize("case", sorted(_GOLDEN_LLN_STATIONARY, key=repr))
    def test_lln_stationary(self, case):
        assert _lln_stationary_digest(case)[0] == _GOLDEN_LLN_STATIONARY[case]

    @pytest.mark.parametrize("case", sorted(_GOLDEN_TILTED, key=repr))
    def test_tilted(self, case):
        assert _tilted_digest(case) == _GOLDEN_TILTED[case]

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

    @pytest.mark.parametrize("replay_n", [2, 1 << 30])
    def test_replay_threshold_does_not_matter(self, replay_n, monkeypatch):
        # 2 sends the smallest chains through the numpy passes, 1 << 30
        # replays every chunk of every chain event by event
        monkeypatch.setattr(simulate, "_REPLAY_N", replay_n)
        for case, digest in _GOLDEN_PATHS.items():
            assert _sample_path_digest(case)[0] == digest
        for case, digest in _GOLDEN_LLN_POINT.items():
            assert _lln_point_digest(case)[0] == digest
        for case, digest in _GOLDEN_LLN_STATIONARY.items():
            assert _lln_stationary_digest(case)[0] == digest

    @pytest.mark.parametrize("chunk", [32, 1024])
    def test_tilted_chunk_size_does_not_matter(self, chunk, monkeypatch):
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        for case, digest in _GOLDEN_TILTED.items():
            assert _tilted_digest(case) == digest
