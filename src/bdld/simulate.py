"""Exact event-driven simulation of the chain.

Sampling is Gillespie-style: at state m draw an Exponential holding time at
the total exit rate, then pick the direction proportionally to the up/down
rates.  Nothing is time-discretized and trajectories are stored sparsely
(jump times plus visited states only).  Every sampler reads its randomness
from ``_blocks``, which states the stream layout.

The plain chain runs in one kernel, ``_walk``, which takes its events a
chunk at a time in a few numpy passes: steps from the uniforms, states from
their prefix sum with a closed form for the forced moves at an end, rates
from the states before each jump, and jump times from np.add.accumulate,
which adds in sequence exactly as the scalar loop does.  A chunk is sized
to reach the next stop, and only where the path reaches both ends within
a chunk, or on a chain of a few dozen states, are its states replayed
event by event.  ``_blocks`` draws the uniforms only as the chunks read
them, so a short replication draws few more than it uses, and the stream
layout stays the same.

The tilted chain thins candidate events against a majorant in a second
kernel, ``_tilted_walk``.  A candidate's acceptance depends on its time,
which depends on the states before it, so a window of candidates is
computed in numpy from guessed states and recomputed from the states it
gives until the guesses hold (speculate and verify); near the ends of
{1..N} and just before the horizon the scalar loop body takes over.  The
likelihood-ratio weight is a function of the finished path
(``_log_weight``), so an experiment computes it only for the paths that
count.  Both kernels give trajectories and weights bit-identical to the
scalar loops.
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
_MAX_CHUNK = 4096  # longer plain-chain chunks compute too many events past a stop
_REPLAY_N = 40    # chains with fewer states replay their events one at a time
_PASSES = 8       # speculation passes over a window before the scalar loop takes over
_MIN_EVENTS = 24  # fewer expected candidates before the horizon go to the scalar loop


def _stream_key(seed: int, replication: int) -> np.ndarray:
    """The Philox key of a replication's stream."""
    return np.array([np.uint64(seed % (1 << 64)), np.uint64(replication)], dtype=np.uint64)


def replication_rng(seed: int, replication: int = 0) -> np.random.Generator:
    """Philox stream keyed by (seed, replication)."""
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, replication)))


def _replication_rngs(seed: int, replications: int):
    """Yield the streams of replications 0, 1, ... in turn, each equal to a
    fresh replication_rng(seed, rep).

    One generator serves them all: before each replication its Philox is
    reset to the fresh state with the replication's key (about 2 us), which
    is cheaper than building a Philox (about 15 us, most of it an OS-entropy
    SeedSequence the key leaves unused).  A stream is valid only until the
    next one is yielded."""
    rng = replication_rng(seed)
    bit_generator = rng.bit_generator
    fresh = bit_generator.state
    for rep in range(replications):
        fresh["state"]["key"] = _stream_key(seed, rep)
        bit_generator.state = fresh
        yield rng


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

    @classmethod
    def _built(cls, initial_state: int, jump_times: np.ndarray, states_after_jump: np.ndarray,
               horizon: float) -> "Trajectory":
        """A path the kernels built: float times and int64 states that already
        hold what __post_init__ checks, so they are not checked again."""
        traj = object.__new__(cls)
        traj.__dict__.update(initial_state=initial_state, jump_times=jump_times,
                             states_after_jump=states_after_jump, horizon=horizon)
        return traj

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
    """Hand out a replication's variates, a group of events at a time.

    This is the stream contract every sampler shares.  Each replication owns
    a counter-based Philox stream keyed by (seed, replication), so it
    reproduces independently of execution order.  The stream is read in
    blocks of _BLOCK standard exponentials followed by _BLOCK uniforms, and
    event i takes the i-th variate of each: a jump of the plain chain, a
    candidate event (accepted or a thinning ghost) of the tilted chain.  A
    stationary start takes one uniform before the first block.

    A kernel starts the generator with next() and then sends it the number
    of events it wants; it gets back the (exponentials, uniforms) of that
    many events, or of the rest of the current block if fewer.  A block's
    exponentials are drawn whole when its first event is asked for: the
    ziggurat's rejections make their word count vary, and that count fixes
    where the uniforms begin.  The uniforms are drawn only as they are
    handed out, which reads the same words as drawing them whole, since
    Philox random() takes exactly one 64-bit word per double; a replication
    that ends early never draws the rest.  The next block is drawn only
    after every event of the current one has been handed out, and how a
    kernel groups the events does not change which variates an event reads.
    """
    size = yield
    while True:
        exps = rng.standard_exponential(_BLOCK)
        while exps.size:
            head, exps = exps[:size], exps[size:]
            size = yield head, rng.random(head.size)


def _replay(n: int, m: int, unis: np.ndarray) -> np.ndarray:
    """The states after each event, from state m, one event at a time."""
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


def _lift(free: np.ndarray) -> np.ndarray:
    """The walk with each forced move 1 -> 2 of the lower end put back."""
    lift = np.floor_divide(2 - free, 2)
    np.maximum(lift, 0, out=lift)
    np.maximum.accumulate(lift, out=lift)
    lift *= 2
    lift += free
    return lift


def _chunk_states(n: int, m: int, unis: np.ndarray) -> np.ndarray:
    """States after each of the events driven by ``unis``, from state m.

    Away from the ends a uniform below 1/2 steps up, otherwise down, so the
    states are m plus a prefix sum of the steps (the free walk F).  When
    the path reaches only the lower end, each forced move 1 -> 2 lifts the
    rest of the walk by 2, and the lift so far is the smallest even
    number keeping every state >= 1: X = F + 2*max.accumulate(max(0, (2-F)//2)).
    The upper end is the mirror image, m -> n+1-m, of the lower one.

    F is the path while it stays within [1, n].  Otherwise the chunk takes
    the lower-end form if F drops below 1, else the upper-end form; that
    form leaves [1, n] only when the path reaches both ends, and then the
    chunk is replayed event by event.  A chain of fewer than _REPLAY_N
    states is always replayed: its walk reaches both ends within most
    chunks, so the numpy passes would only add to the replay.
    """
    if n < _REPLAY_N:
        return _replay(n, m, unis)
    free = np.where(unis < 0.5, 1, -1)
    np.cumsum(free, out=free)
    free += m
    if free.min() < 1:
        states = _lift(free)
    elif free.max() > n:
        states = n + 1 - _lift(n + 1 - free)
    else:
        return free
    if states.min() < 1 or states.max() > n:
        return _replay(n, m, unis)
    return states


def _walk(n: int, lam: float, m: int, stops, rng: np.random.Generator, jumps: list):
    """Run the chain on {1..n} from state m, append the (times, states)
    arrays of its jumps to ``jumps``, and yield the state at each of the
    increasing ``stops``.  A jump at exactly a stop counts, as in
    Trajectory.state_at; the jumps appended when a stop is yielded are
    exactly those at or before it, and nothing past the last stop read is
    recorded.

    The events are taken a chunk at a time from ``_blocks``.  A chunk is
    sized to reach the next stop at the current rate 2*lam*m with half as
    many again to spare, within [_CHUNK, _MAX_CHUNK] events, so a short
    replication draws few more uniforms than it reads and a long one
    computes few events past its last stop.  A chunk's states come from
    ``_chunk_states``: numpy passes, or an event-by-event replay of the
    scalar loop when the path reaches both ends of {1..n} within the chunk
    or n is below _REPLAY_N.  Each event's rate is read from the
    state before it, and its jump time is the running sum of the holding
    times seeded with the current time.  np.add.accumulate adds strictly in
    sequence, and every division and product is the one the scalar
    Gillespie loop makes, so each trajectory is bit-identical to that
    loop's.
    """
    if n == 1:
        for _ in stops:
            yield m
        return
    stops = iter(stops)
    stop = next(stops)
    two_lam = 2.0 * lam
    t = 0.0
    blocks = _blocks(rng)
    next(blocks)
    while True:
        size = max(_CHUNK, math.ceil(min(_MAX_CHUNK, 3.0 * lam * m * (stop - t))))
        exps, unis = blocks.send(size)
        c = exps.size
        states = _chunk_states(n, m, unis)
        before = np.concatenate(([m], states[:-1]))
        rates = two_lam * before
        if m <= c:
            rates[before == 1] = lam
        if m + c > n:
            rates[before == n] = lam * n
        clock = np.empty(c + 1)
        clock[0] = t
        np.divide(exps, rates, out=clock[1:])
        np.add.accumulate(clock, out=clock)
        times = clock[1:]
        done = 0
        while True:
            k = int(times.searchsorted(stop, side="right"))  # first jump past stop
            if k == c:
                break
            if k > done:
                jumps.append((times[done:k], states[done:k]))
                done = k
            yield int(states[k - 1]) if k else m
            stop = next(stops, None)
            if stop is None:
                return
        if done < c:
            jumps.append((times[done:], states[done:]))
        m, t = int(states[-1]), float(times[-1])


def _joined(jumps: list) -> tuple[np.ndarray, np.ndarray]:
    times = np.concatenate([np.empty(0)] + [times for times, _ in jumps])
    states = np.concatenate([np.empty(0, dtype=np.int64)] + [states for _, states in jumps])
    return times, states


def sample_path(params: ModelParams, config: SimConfig, replication: int = 0) -> Trajectory:
    """Draw one exact trajectory on [0, horizon]."""
    rng = replication_rng(config.seed, replication)
    m0 = _resolve_initial(params, config, rng)
    jumps: list = []
    for _ in _walk(params.n_states, params.lam, m0, (config.horizon,), rng, jumps):
        pass
    return Trajectory._built(m0, *_joined(jumps), config.horizon)


def occupation_fractions(trajectory: Trajectory, n_states: int | None = None) -> ProbabilityVector:
    """Fraction of the horizon spent in each state."""
    visited = trajectory.visited_states()
    top = int(visited.max())
    if n_states is None:
        n_states = top
    elif n_states < top:
        raise ValueError(f"n_states={n_states} below the highest visited state {top}")
    edges = np.concatenate(([0.0], trajectory.jump_times, [trajectory.horizon]))
    durations = np.diff(edges)
    acc = np.bincount(visited - 1, weights=durations, minlength=n_states)
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
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if not math.isfinite(gamma0):
        raise ValueError(f"gamma0 must be finite, got {gamma0!r}")
    n, lam, horizon = params.n_states, params.lam, config.horizon
    # clamped to [-1, N + 1] before rounding, which keeps huge values finite
    m0 = round(min(max(gamma0 * n, -1.0), n + 1.0))
    if not 1 <= m0 <= n:
        raise ValueError(f"gamma0={gamma0!r} puts round(gamma0*N) outside 1..{n}")
    # Hit iff m <= lo or m >= hi (1e-9 grid snap: states are integers, so only
    # degenerate float ties are affected).
    lo = math.floor(max(n * (gamma0 - epsilon), -1.0) + 1e-9)
    hi = math.ceil(min(n * (gamma0 + epsilon), n + 1.0) - 1e-9)
    reps = config.replications
    bound = horizon / (epsilon * epsilon * n)
    if lo < 1 and hi > n and not (m0 <= lo or m0 >= hi):
        return ExperimentResult(0.0, 0.0, reps, config.seed, params,
                                extra={"bound": bound, "hits": 0, "jumps": 0})
    hits = n_jumps = 0
    for rng in _replication_rngs(config.seed, reps):
        jumps: list = []
        for _ in _walk(n, lam, m0, (horizon,), rng, jumps):
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
    for rng in _replication_rngs(config.seed, reps):
        m0 = pi.sample_state(rng.random())
        jumps: list = []
        if all(m / n < u for m in _walk(n, lam, m0, times, rng, jumps)):
            successes += 1
        n_jumps += sum(states.size for _, states in jumps)
    p = successes / reps
    stderr = math.sqrt(p * (1.0 - p) / reps)
    return ExperimentResult(p, stderr, reps, config.seed, params,
                            extra={"threshold": u, "sample_times": times, "jumps": n_jumps})


def _speculate(n, lam, m, t, horizon, tilt, zbar, exps, unis):
    """Verify as many of a window's candidate events as speculation passes
    can; see ``_tilted_walk``.

    Returns (k, crossed, prior, clock, accept): the first k events are
    verified, and crossed says whether event k is the one at or past the
    horizon.  For i <= k, prior[i] is the state before event i and clock[i]
    the time of event i-1 (clock[0] = t); for i < k, accept[i] says whether
    event i is a jump.
    """
    c = exps.size
    prior = np.full(c + 1, m, dtype=np.int64)
    clock = np.empty(c + 1)
    clock[0] = t
    z, accept, up = np.empty(c), np.empty(c, dtype=bool), np.empty(c, dtype=bool)
    path = np.empty(c + 1, dtype=np.int64)
    k = 0
    if not 1 < m < n:
        return k, False, prior, clock, accept
    for _ in range(_PASSES):
        mk = int(prior[k])
        if (horizon - clock[k]) * (2.0 * lam * mk * zbar) < _MIN_EVENTS:
            break
        rate = lam * prior[k:c]
        major = rate + rate
        major *= zbar
        np.divide(exps[k:], major, out=clock[k + 1:])
        np.add.accumulate(clock[k:], out=clock[k:])
        live = int(clock[k + 1:].searchsorted(horizon))  # events k..k+live-1 precede it
        if not live:
            return k, True, prior, clock, accept
        # z is never evaluated at or past the horizon: those events only need guesses
        zk = z[k:]
        zk[:live] = tilt.value(clock[k + 1:k + 1 + live])
        zk[live:] = zk[live - 1]
        p_up = rate * zk
        p_up /= major
        p_any = rate / zk
        p_any /= major
        p_any += p_up
        np.less(unis[k:], p_any, out=accept[k:])
        np.less(unis[k:], p_up, out=up[k:])
        np.add(up[k:], up[k:], out=path[k + 1:], dtype=np.int64)
        path[k + 1:] -= accept[k:]
        path[k] = mk
        np.cumsum(path[k:], out=path[k:])
        top = min(k + live, c - 1)  # the last event whose prior must be verified
        wrong = prior[k + 1:top + 1] != path[k + 1:top + 1]
        first = int(wrong.argmax()) if wrong.size else 0
        bad = wrong.size and wrong[first]
        if mk - (c - k) <= 1 or mk + (c - k) >= n:
            known = path[k + 1:k + 2 + first] if bad else path[k + 1:top + 1]
            if known.size and (known.min() <= 1 or known.max() >= n):
                break  # the path reaches an end, where the rates are one-sided
            if bad:  # keep the guesses past the first wrong one inside, so rates stay positive
                np.clip(path[k + 2 + first:], 2, n - 1, out=path[k + 2 + first:])
        prior[k + 1:] = path[k + 1:]
        if not bad:
            return k + live, k + live < c, prior, clock, accept
        k += 1 + first
    return k, False, prior, clock, accept


def _tilted_walk(n: int, lam: float, m: int, horizon: float, tilt, zbar: float,
                 rng: np.random.Generator, jumps: list) -> tuple[int, int]:
    """Run the tilted chain on {1..n} from state m up to the horizon by
    thinning, append the (times, states) arrays of its jumps to ``jumps``,
    and return the final state and the number of thinning rejections.

    Candidate event i takes the i-th (exponential, uniform) pair of
    ``_blocks``.  From state m the majorant rate is (up + down)*zbar with up =
    lam*m below n and down = lam*m above 1, the candidate time is t + e/rate,
    and the candidate at or past the horizon ends the walk.  Otherwise, with
    z = z(t), the event is an up jump if u < up*z/rate, a down jump if
    u < up*z/rate + down/z/rate, and a ghost that leaves the state unchanged
    if not.

    The events are taken in windows of at least _CHUNK, sized to reach the
    horizon at the current majorant rate with half as many again to spare.
    ``_speculate`` guesses each event's prior state (first the current
    state, then the states its last pass computed) and computes from the
    guesses, in numpy and in the scalar loop's order of operations, the
    rates, the times by np.add.accumulate seeded with t, z on the times
    before the horizon, the accept and up tests and the states by a prefix
    sum.  The first event whose computed prior state differs from its guess
    bounds the verified prefix, which grows by at least one event per pass;
    passes repeat until every guess up to and including the event that
    crosses the horizon (its time depends on its own prior state) is
    confirmed.  A pass whose verified states reach 1 or n (where the rates
    are one-sided), fewer than _MIN_EVENTS expected candidates before the
    horizon, or _PASSES passes without a verdict hand the rest of the window
    to the scalar loop body, event by event, from the first unverified
    event.  z is only ever evaluated inside [0, horizon).  So the path is the
    scalar loop's bit for bit.
    """
    t = 0.0
    ghosts = 0
    blocks = _blocks(rng)
    next(blocks)
    crossed = n == 1  # a single state has no events
    while not crossed:
        e, u = blocks.send(max(_CHUNK, int(3.0 * lam * m * zbar * (horizon - t))))
        k, crossed, prior, clock, accept = _speculate(n, lam, m, t, horizon, tilt, zbar, e, u)
        if k:
            hit = np.flatnonzero(accept[:k])
            jumps.append((clock[1:][hit], prior[1:][hit]))
            ghosts += k - hit.size
            m, t = int(prior[k]), float(clock[k])
        if crossed:
            break
        times, states = [], []
        for ei, ui in zip(e[k:].tolist(), u[k:].tolist()):
            up_nom = lam * m if m < n else 0.0
            down_nom = lam * m if m > 1 else 0.0
            r_major = (up_nom + down_nom) * zbar
            t += ei / r_major
            if t >= horizon:
                crossed = True
                break
            z = tilt.value(t)
            p_up = up_nom * z / r_major
            p_down = down_nom / z / r_major
            if ui < p_up + p_down:
                m += 1 if ui < p_up else -1
                times.append(t)
                states.append(m)
            else:
                ghosts += 1
        if times:
            jumps.append((np.array(times), np.array(states, dtype=np.int64)))
    return m, ghosts


def _log_weight(tilt, lam: float, n: int, m0: int, times, states, horizon: float) -> float:
    """The log-likelihood ratio of nominal against tilted dynamics for the
    path from m0 with jumps (times, states) up to the horizon.

    In the order of the scalar thinning loop: each jump adds the
    compensator up*U + down*D over the time since the previous jump (U, D
    the tilt's up and down excess integrals, up = lam*m below n and down =
    lam*m above 1 at the state m before it), then -ln z for an up jump or
    +ln z for a down jump; the compensator up to the horizon closes the
    weight.  Every log is math.log (np.log differs from it in the last bit
    on some inputs), and np.add.accumulate adds in sequence.
    """
    before = np.concatenate(([m0], states))  # the state on each segment
    rate = lam * before
    up_rate = np.where(before < n, rate, 0.0)
    down_rate = np.where(before > 1, rate, 0.0)
    starts = np.concatenate(([0.0], times))
    ends = np.concatenate((times, [horizon]))
    terms = np.zeros(2 * times.size + 2)
    np.add(up_rate * tilt.up_excess_integral(starts, ends),
           down_rate * tilt.down_excess_integral(starts, ends), out=terms[1::2])
    log_z = np.fromiter(map(math.log, tilt.value(times).tolist()), float, times.size)
    np.negative(log_z, out=log_z, where=states > before[:-1])
    terms[2::2] = log_z
    return float(np.add.accumulate(terms, out=terms)[-1])


def _tilt_bound(tilt, horizon: float) -> float:
    zbar = tilt.sup_bound(horizon)
    if not (math.isfinite(zbar) and zbar >= 1.0):
        raise ValueError(f"tilt bound must be finite and >= 1, got {zbar!r}")
    return zbar


def tilted_sample_path(params: ModelParams, tilt, config: SimConfig,
                       replication: int = 0) -> WeightedTrajectory:
    """Sample under the tilted dynamics up' = lam*m*z(t), down' = lam*m/z(t)
    (one-sided at the ends) and accumulate the exact log-likelihood ratio of
    nominal against tilted dynamics.

    Sampling uses thinning against the majorant rate (up+down)*sup(z, 1/z),
    which stays exact for any positive piecewise-continuous schedule.  The
    weight is jump terms plus the compensator integrals supplied by the
    schedule, so E_tilted[exp(log_weight); A] = P_nominal(A).  The tilt's
    ``value`` and integrals must also take numpy arrays element by element
    (see ``bdld.tilting``).
    """
    horizon = config.horizon
    zbar = _tilt_bound(tilt, horizon)
    rng = replication_rng(config.seed, replication)
    m0 = _resolve_initial(params, config, rng)
    n, lam = params.n_states, params.lam
    jumps: list = []
    _tilted_walk(n, lam, m0, horizon, tilt, zbar, rng, jumps)
    times, states = _joined(jumps)
    log_w = _log_weight(tilt, lam, n, m0, times, states, horizon)
    return WeightedTrajectory(Trajectory._built(m0, times, states, horizon), log_w)


def tilted_window_experiment(params: ModelParams, tilt, window: tuple[int, int],
                             config: SimConfig) -> ExperimentResult:
    """Importance-sampling estimate of P(X(horizon) in [window]) under the
    nominal law, using the tilted sampler.  A replication's weight is
    computed only when it ends in the window.

    The extra fields carry the accepted ``jumps`` and the
    ``thinning_rejections`` (ghost candidates) over all replications, and
    the health of the weights: over the replication values v (the weight,
    or 0 off the window), ``ess`` = (sum v)^2 / sum v^2 and
    ``max_weight_share`` = max v / sum v (0 and null when no replication
    hits the window), and ``rel_err_per_sample`` = stderr * sqrt(reps) /
    estimate (null when the estimate is 0).
    """
    lo, hi = int(window[0]), int(window[1])
    n, lam = params.n_states, params.lam
    if not (1 <= lo <= hi <= n):
        raise ValueError(f"bad window [{lo}, {hi}] for N={n}")
    horizon = config.horizon
    zbar = _tilt_bound(tilt, horizon)
    reps = config.replications
    values = np.zeros(reps)
    n_jumps = n_ghosts = 0
    for rep, rng in enumerate(_replication_rngs(config.seed, reps)):
        m0 = _resolve_initial(params, config, rng)
        jumps: list = []
        final, ghosts = _tilted_walk(n, lam, m0, horizon, tilt, zbar, rng, jumps)
        n_jumps += sum(times.size for times, _ in jumps)
        n_ghosts += ghosts
        if lo <= final <= hi:
            values[rep] = math.exp(_log_weight(tilt, lam, n, m0, *_joined(jumps), horizon))
    estimate = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    top = float(values.max())
    scaled = values / top if top > 0.0 else values  # sum v^2 could underflow
    return ExperimentResult(estimate, stderr, reps, config.seed, params, extra={
        "window": [lo, hi],
        "jumps": n_jumps,
        "thinning_rejections": n_ghosts,
        "ess": float(scaled.sum() ** 2 / (scaled @ scaled)) if top > 0.0 else 0.0,
        "max_weight_share": top / float(values.sum()) if top > 0.0 else None,
        "rel_err_per_sample": stderr * math.sqrt(reps) / estimate if estimate else None,
    })
