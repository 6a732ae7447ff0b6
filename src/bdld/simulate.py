"""Exact event-driven simulation of the chain.

Sampling is Gillespie-style: at state m draw an Exponential holding time at
the total exit rate, then pick the direction proportionally to the up/down
rates.  Nothing is time-discretized and trajectories are stored sparsely
(jump times plus visited states only).  Every sampler reads its randomness
from ``_blocks``, which states the stream layout.

The plain chain runs in one kernel, ``_walk``, which takes the events of a
variate block _CHUNK at a time in a few numpy passes: steps from the
uniforms, states from their prefix sum with a closed form for the forced
move at whichever end is within reach, rates from the states before each
jump, and jump times from np.add.accumulate, which adds in sequence exactly
as the scalar loop does.  Where both ends are within reach of a chunk (small
N) its states are replayed event by event.  Either way the trajectories are
bit-identical to Gillespie's scalar algorithm.  The tilted sampler thins
against a majorant in its own event-by-event loop, fed by ``_variates``.
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


def _blocks(rng: np.random.Generator):
    """Yield a replication's variates as (exponentials, uniforms) blocks.

    This is the stream contract every sampler shares.  Each replication owns
    a counter-based Philox stream keyed by (seed, replication), so it
    reproduces independently of execution order.  The stream is read in
    blocks of _BLOCK standard exponentials followed by _BLOCK uniforms, and
    event i takes the i-th variate of each; a stationary start takes one
    uniform before the first block.  Blocks are drawn only when needed.
    """
    while True:
        exps = rng.standard_exponential(_BLOCK)
        yield exps, rng.random(_BLOCK)


def _variates(rng: np.random.Generator):
    """Yield one (exponential, uniform) pair per event, converting the
    blocks of ``_blocks`` to Python floats _CHUNK pairs at a time."""
    for exps, unis in _blocks(rng):
        for start in range(0, _BLOCK, _CHUNK):
            yield from zip(exps[start:start + _CHUNK].tolist(),
                           unis[start:start + _CHUNK].tolist())


def _chunk_states(n: int, m: int, unis: np.ndarray) -> np.ndarray:
    """States after each of the events driven by ``unis``, from state m.

    Away from the ends a uniform below 1/2 steps up, otherwise down, so the
    states are m plus a prefix sum of the steps (the free walk F).  When
    only the lower end is within reach of the chunk, each forced move 1 -> 2
    lifts the rest of the walk by 2, and the lift so far is the smallest even
    number keeping every state >= 1: X = F + 2*max.accumulate(max(0, (2-F)//2)).
    The upper end is the mirror image.  When both ends are within reach the
    events are replayed one at a time.
    """
    c = unis.size
    lower, upper = m <= c, m + c > n  # can a state before a jump be 1, or n?
    if lower and upper:
        states = []
        for up in (unis < 0.5).tolist():
            if m == 1:
                m = 2
            elif m == n:
                m = n - 1
            else:
                m = m + 1 if up else m - 1
            states.append(m)
        return np.array(states, dtype=np.int64)
    free = np.where(unis < 0.5, 1, -1)
    np.cumsum(free, out=free)
    free += m
    if lower:
        lift = np.floor_divide(2 - free, 2)
        np.maximum(lift, 0, out=lift)
        np.maximum.accumulate(lift, out=lift)
        free += 2 * lift
    elif upper:
        drop = np.floor_divide(free - (n - 1), 2)
        np.maximum(drop, 0, out=drop)
        np.maximum.accumulate(drop, out=drop)
        free -= 2 * drop
    return free


def _walk(n: int, lam: float, m: int, stops, rng: np.random.Generator, jumps: list):
    """Run the chain on {1..n} from state m, append the (times, states)
    arrays of its jumps to ``jumps``, and yield the state at each of the
    increasing ``stops``.  A jump at exactly a stop counts, as in
    Trajectory.state_at; the jumps appended when a stop is yielded are
    exactly those at or before it, and nothing past the last stop read is
    recorded.

    The events of a variate block are taken _CHUNK at a time.  A chunk's
    states come from ``_chunk_states``: numpy passes when at most one end of
    {1..n} is within _CHUNK jumps of the current state, an event-by-event
    replay of the scalar loop when both are (possible only for n < 2*_CHUNK).
    Each event's rate is read from the state before it, and its jump time is
    the running sum of the holding times seeded with the current time.
    np.add.accumulate adds strictly in sequence, and every division and
    product is the one the scalar Gillespie loop makes, so each trajectory is
    bit-identical to that loop's.
    """
    if n == 1:
        for _ in stops:
            yield m
        return
    stops = iter(stops)
    stop = next(stops)
    two_lam = 2.0 * lam
    t = 0.0
    for exps, unis in _blocks(rng):
        for start in range(0, _BLOCK, _CHUNK):
            states = _chunk_states(n, m, unis[start:start + _CHUNK])
            before = np.concatenate(([m], states[:-1]))
            rates = two_lam * before
            if m <= _CHUNK:
                rates[before == 1] = lam
            if m + _CHUNK > n:
                rates[before == n] = lam * n
            clock = np.empty(_CHUNK + 1)
            clock[0] = t
            np.divide(exps[start:start + _CHUNK], rates, out=clock[1:])
            np.add.accumulate(clock, out=clock)
            times = clock[1:]
            done = 0
            while True:
                k = int(times.searchsorted(stop, side="right"))  # first jump past stop
                if k == _CHUNK:
                    break
                if k > done:
                    jumps.append((times[done:k], states[done:k]))
                    done = k
                yield int(states[k - 1]) if k else m
                stop = next(stops, None)
                if stop is None:
                    return
            if done < _CHUNK:
                jumps.append((times[done:], states[done:]))
            m, t = int(states[-1]), float(times[-1])


def sample_path(params: ModelParams, config: SimConfig, replication: int = 0) -> Trajectory:
    """Draw one exact trajectory on [0, horizon]."""
    rng = replication_rng(config.seed, replication)
    m0 = _resolve_initial(params, config, rng)
    jumps: list = []
    for _ in _walk(params.n_states, params.lam, m0, (config.horizon,), rng, jumps):
        pass
    times = np.concatenate([np.empty(0)] + [times for times, _ in jumps])
    states = np.concatenate([np.empty(0, dtype=np.int64)] + [states for _, states in jumps])
    return Trajectory(m0, times, states, config.horizon)


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
    fixed by gamma0.  The theoretical bound T/(epsilon^2 N) and the number of
    jumps simulated up to the horizon (0 when the band holds the whole state
    space and nothing is simulated) ride along in the result's extra fields.
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
                                extra={"bound": bound, "hits": 0, "jumps": 0})
    hits = n_jumps = 0
    for rep in range(reps):
        jumps: list = []
        for _ in _walk(n, lam, m0, (horizon,), replication_rng(config.seed, rep), jumps):
            pass
        n_jumps += sum(states.size for _, states in jumps)
        if m0 <= lo or m0 >= hi or any(states.min() <= lo or states.max() >= hi
                                       for _, states in jumps):
            hits += 1
    p = hits / reps
    stderr = math.sqrt(p * (1.0 - p) / reps)
    return ExperimentResult(p, stderr, reps, config.seed, params,
                            extra={"bound": bound, "hits": hits, "jumps": n_jumps})


def lln_stationary_experiment(params: ModelParams, u: float, sample_times,
                              config: SimConfig) -> ExperimentResult:
    """Monte Carlo estimate of P(X(t_i)/N < u for every sample time) with the
    chain started from its stationary law.

    A replication stops at the first sample time with X/N >= u; ``jumps`` in
    the extra fields counts the jumps at or before the last sample time each
    replication read.
    """
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
    successes = n_jumps = 0
    for rep in range(reps):
        rng = replication_rng(config.seed, rep)
        m0 = pi.sample_state(rng.random())
        jumps: list = []
        if all(m / n < u for m in _walk(n, lam, m0, times, rng, jumps)):
            successes += 1
        n_jumps += sum(states.size for _, states in jumps)
    p = successes / reps
    stderr = math.sqrt(p * (1.0 - p) / reps)
    return ExperimentResult(p, stderr, reps, config.seed, params,
                            extra={"threshold": u, "sample_times": times, "jumps": n_jumps})


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
