"""Exact event-driven simulation of the chain.

Sampling is Gillespie-style: at state m draw an Exponential holding time at
the total exit rate, then pick the direction proportionally to the up/down
rates.  Nothing is time-discretized and trajectories are stored sparsely
(jump times plus visited states only).  The plain chain runs in one kernel,
``_walk``; the tilted sampler thins against a majorant in its own loop.  Both
read their randomness from ``_variates``, which states the stream layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import ModelParams, ProbabilityVector, stationary_distribution
from .serialize import write_csv

__all__ = [
    "Trajectory",
    "SimConfig",
    "WeightedTrajectory",
    "ExperimentResult",
    "replication_rng",
    "sample_path",
    "occupation_fractions",
    "lln_point_experiment",
    "lln_stationary_experiment",
    "tilted_sample_path",
    "tilted_window_experiment",
]

_BLOCK = 8192
_CHUNK = 256


def replication_rng(seed: int, replication: int = 0) -> np.random.Generator:
    """Philox stream keyed by (seed, replication)."""
    key = np.array([np.uint64(seed % (1 << 64)), np.uint64(replication)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Trajectory:
    """A piecewise-constant sample path: the state entered at time 0 plus the
    (time, new state) record of every jump up to the horizon."""

    initial_state: int
    jump_times: np.ndarray
    states_after_jump: np.ndarray
    horizon: float

    def __post_init__(self):
        times = np.asarray(self.jump_times, dtype=float)
        states = np.asarray(self.states_after_jump, dtype=np.int64)
        object.__setattr__(self, "jump_times", times)
        object.__setattr__(self, "states_after_jump", states)
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if times.shape != states.shape or times.ndim != 1:
            raise ValueError("jump_times and states_after_jump must be 1-d arrays of equal length")
        if times.size:
            if times[0] <= 0.0 or times[-1] > self.horizon or np.any(np.diff(times) <= 0.0):
                raise ValueError("jump times must be strictly increasing within (0, horizon]")
            visited = np.concatenate(([self.initial_state], states))
            if np.any(np.abs(np.diff(visited)) != 1):
                raise ValueError("consecutive states must differ by exactly 1")

    @property
    def n_jumps(self) -> int:
        return self.jump_times.size

    def visited_states(self) -> np.ndarray:
        return np.concatenate(([self.initial_state], self.states_after_jump))

    def state_at(self, t: float) -> int:
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"t={t} outside [0, {self.horizon}]")
        idx = int(np.searchsorted(self.jump_times, t, side="right"))
        return self.initial_state if idx == 0 else int(self.states_after_jump[idx - 1])

    def csv_table(self) -> tuple[list[str], list[tuple]]:
        """Header and (time, state) rows: time 0 with the initial state, then
        one row per jump."""
        rows = [(0.0, self.initial_state)]
        rows.extend(zip(self.jump_times.tolist(), self.states_after_jump.tolist()))
        return ["time", "state"], rows

    def to_csv(self, path) -> None:
        write_csv(path, *self.csv_table())


@dataclass(frozen=True)
class SimConfig:
    """Horizon, RNG seed, initial condition and replication count.

    ``initial`` is either a 1-based state index (point start) or the string
    "stationary" for an exact inverse-CDF draw from the stationary law.
    """

    horizon: float
    seed: int
    initial: int | str = "stationary"
    replications: int = 1

    def __post_init__(self):
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise ValueError("seed must be an integer")
        if not (isinstance(self.replications, (int, np.integer)) and self.replications >= 1):
            raise ValueError("replications must be >= 1")
        if isinstance(self.initial, str):
            if self.initial != "stationary":
                raise ValueError(f'initial must be a state index or "stationary", got {self.initial!r}')
        elif not isinstance(self.initial, (int, np.integer)) or isinstance(self.initial, bool):
            raise ValueError(f"initial must be a state index or \"stationary\", got {self.initial!r}")


@dataclass(frozen=True)
class WeightedTrajectory:
    """A trajectory sampled under a tilted law together with the log
    Radon-Nikodym weight of the nominal law against the tilted one."""

    trajectory: Trajectory
    log_weight: float

    def __post_init__(self):
        if not math.isfinite(self.log_weight):
            raise ValueError(f"log_weight must be finite, got {self.log_weight!r}")


@dataclass(frozen=True)
class ExperimentResult:
    estimate: float
    stderr: float
    replications: int
    seed: int
    params: ModelParams
    extra: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        obj = {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "replications": self.replications,
            "seed": self.seed,
            "params": {"n_states": self.params.n_states, "lambda": self.params.lam},
        }
        obj.update(self.extra)
        return obj


def _resolve_initial(params: ModelParams, config: SimConfig, rng: np.random.Generator) -> int:
    if config.initial == "stationary":
        return stationary_distribution(params).sample_state(rng.random())
    m0 = int(config.initial)
    if not 1 <= m0 <= params.n_states:
        raise ValueError(f"initial state {m0} outside 1..{params.n_states}")
    return m0


def _variates(rng: np.random.Generator):
    """Yield one (exponential, uniform) pair per event from a replication's
    stream.

    This is the stream contract every sampler shares.  Each replication owns
    a counter-based Philox stream keyed by (seed, replication), so it
    reproduces independently of execution order.  The stream is read in
    blocks of _BLOCK standard exponentials followed by _BLOCK uniforms, and
    event i takes the i-th variate of each; a stationary start takes one
    uniform before the first block.  Blocks are drawn only when needed and
    converted to Python floats _CHUNK pairs at a time.
    """
    while True:
        exps = rng.standard_exponential(_BLOCK)
        unis = rng.random(_BLOCK)
        for start in range(0, _BLOCK, _CHUNK):
            yield from zip(exps[start:start + _CHUNK].tolist(),
                           unis[start:start + _CHUNK].tolist())


def _walk(n: int, lam: float, m: int, stops, rng: np.random.Generator,
          times: list[float], states: list[int]):
    """Run the chain on {1..n} from state m, appending each jump's time and
    new state to ``times``/``states``, and yield the state at each of the
    increasing ``stops``.  A jump at exactly a stop counts, as in
    Trajectory.state_at; nothing past the last stop read is simulated."""
    if n == 1:
        for _ in stops:
            yield m
        return
    stops = iter(stops)
    stop = next(stops)
    two_lam = 2.0 * lam
    lam_top = lam * n
    t = 0.0
    for e, u in _variates(rng):
        t += e / (two_lam * m if 1 < m < n else (lam if m == 1 else lam_top))
        while t > stop:
            yield m
            stop = next(stops, None)
            if stop is None:
                return
        if m == 1:
            m = 2
        elif m == n:
            m = n - 1
        else:
            m = m + 1 if u < 0.5 else m - 1
        times.append(t)
        states.append(m)


def sample_path(params: ModelParams, config: SimConfig, replication: int = 0) -> Trajectory:
    """Draw one exact trajectory on [0, horizon]."""
    rng = replication_rng(config.seed, replication)
    m0 = _resolve_initial(params, config, rng)
    times: list[float] = []
    states: list[int] = []
    for _ in _walk(params.n_states, params.lam, m0, (config.horizon,), rng, times, states):
        pass
    return Trajectory(m0, np.array(times), np.array(states, dtype=np.int64), config.horizon)


def occupation_fractions(trajectory: Trajectory, n_states: int | None = None) -> ProbabilityVector:
    """Fraction of the horizon spent in each state."""
    top = int(trajectory.visited_states().max())
    if n_states is None:
        n_states = top
    elif n_states < top:
        raise ValueError(f"n_states={n_states} below the highest visited state {top}")
    edges = np.concatenate(([0.0], trajectory.jump_times, [trajectory.horizon]))
    durations = np.diff(edges)
    acc = np.zeros(n_states)
    np.add.at(acc, trajectory.visited_states() - 1, durations)
    return ProbabilityVector(acc / acc.sum())


def lln_point_experiment(params: ModelParams, gamma0: float, epsilon: float,
                         config: SimConfig) -> ExperimentResult:
    """Monte Carlo estimate of P(sup_{t<=T} |X(t)/N - gamma0| >= epsilon) from
    the point start round(gamma0*N).

    The config's ``initial`` field is ignored: this experiment's start is
    fixed by gamma0.  The theoretical bound T/(epsilon^2 N) rides along in the
    result's extra fields.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    n, lam, horizon = params.n_states, params.lam, config.horizon
    m0 = round(gamma0 * n)
    if not 1 <= m0 <= n:
        raise ValueError(f"round(gamma0*N)={m0} outside the state space")
    # Hit iff m <= lo or m >= hi (1e-9 grid snap: states are integers, so only
    # degenerate float ties are affected).
    lo = math.floor(n * (gamma0 - epsilon) + 1e-9)
    hi = math.ceil(n * (gamma0 + epsilon) - 1e-9)
    reps = config.replications
    bound = horizon / (epsilon * epsilon * n)
    if lo < 1 and hi > n and not (m0 <= lo or m0 >= hi):
        return ExperimentResult(0.0, 0.0, reps, config.seed, params,
                                extra={"bound": bound, "hits": 0})
    hits = 0
    for rep in range(reps):
        states = [m0]
        for _ in _walk(n, lam, m0, (horizon,), replication_rng(config.seed, rep), [], states):
            pass
        if min(states) <= lo or max(states) >= hi:
            hits += 1
    p = hits / reps
    stderr = math.sqrt(p * (1.0 - p) / reps)
    return ExperimentResult(p, stderr, reps, config.seed, params,
                            extra={"bound": bound, "hits": hits})


def lln_stationary_experiment(params: ModelParams, u: float, sample_times,
                              config: SimConfig) -> ExperimentResult:
    """Monte Carlo estimate of P(X(t_i)/N < u for every sample time) with the
    chain started from its stationary law."""
    if config.initial != "stationary":
        raise ValueError("lln_stationary_experiment requires a stationary initial condition")
    if not 0.0 < u <= 1.0:
        raise ValueError(f"threshold u must lie in (0, 1], got {u}")
    times = sorted(float(t) for t in sample_times)
    if not times:
        raise ValueError("sample_times must be non-empty")
    if times[0] < 0.0 or times[-1] > config.horizon:
        raise ValueError("sample times must lie within [0, horizon]")
    n, lam = params.n_states, params.lam
    pi = stationary_distribution(params)
    reps = config.replications
    successes = 0
    for rep in range(reps):
        rng = replication_rng(config.seed, rep)
        m0 = pi.sample_state(rng.random())
        if all(m / n < u for m in _walk(n, lam, m0, times, rng, [], [])):
            successes += 1
    p = successes / reps
    stderr = math.sqrt(p * (1.0 - p) / reps)
    return ExperimentResult(p, stderr, reps, config.seed, params,
                            extra={"threshold": u, "sample_times": times})


def tilted_sample_path(params: ModelParams, tilt, config: SimConfig,
                       replication: int = 0) -> WeightedTrajectory:
    """Sample under the tilted dynamics up' = lam*m*z(t), down' = lam*m/z(t)
    (one-sided at the ends) and accumulate the exact log-likelihood ratio of
    nominal against tilted dynamics.

    Sampling uses thinning against the majorant rate (up+down)*sup(z, 1/z),
    which stays exact for any positive piecewise-continuous schedule.  The
    weight is jump terms plus the compensator integrals supplied by the
    schedule, so E_tilted[exp(log_weight); A] = P_nominal(A).
    """
    horizon = config.horizon
    zbar = tilt.sup_bound(horizon)
    if not (math.isfinite(zbar) and zbar >= 1.0):
        raise ValueError(f"tilt bound must be finite and >= 1, got {zbar!r}")
    rng = replication_rng(config.seed, replication)
    m0 = _resolve_initial(params, config, rng)
    n, lam = params.n_states, params.lam
    times: list[float] = []
    states: list[int] = []
    log_w = 0.0
    m = m0
    t = 0.0
    seg_start = 0.0
    variates = _variates(rng)
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
            log_w += (up_nom * tilt.up_excess_integral(seg_start, t)
                      + down_nom * tilt.down_excess_integral(seg_start, t))
            seg_start = t
            if u < p_up:
                log_w -= math.log(z)
                m += 1
            else:
                log_w += math.log(z)
                m -= 1
            times.append(t)
            states.append(m)
        # else: thinning ghost, state unchanged
    up_nom = lam * m if m < n else 0.0
    down_nom = lam * m if m > 1 else 0.0
    log_w += (up_nom * tilt.up_excess_integral(seg_start, horizon)
              + down_nom * tilt.down_excess_integral(seg_start, horizon))
    trajectory = Trajectory(m0, np.array(times), np.array(states, dtype=np.int64), horizon)
    return WeightedTrajectory(trajectory, log_w)


def tilted_window_experiment(params: ModelParams, tilt, window: tuple[int, int],
                             config: SimConfig) -> ExperimentResult:
    """Importance-sampling estimate of P(X(horizon) in [window]) under the
    nominal law, using the tilted sampler."""
    lo, hi = int(window[0]), int(window[1])
    if not (1 <= lo <= hi <= params.n_states):
        raise ValueError(f"bad window [{lo}, {hi}] for N={params.n_states}")
    reps = config.replications
    values = np.empty(reps)
    for rep in range(reps):
        weighted = tilted_sample_path(params, tilt, config, replication=rep)
        traj = weighted.trajectory
        final = traj.states_after_jump[-1] if traj.n_jumps else traj.initial_state
        values[rep] = math.exp(weighted.log_weight) if lo <= final <= hi else 0.0
    estimate = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return ExperimentResult(estimate, stderr, reps, config.seed, params,
                            extra={"window": [lo, hi]})
