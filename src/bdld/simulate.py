"""Exact event-driven simulation of the chain.

Sampling is Gillespie-style: at state m draw an Exponential holding time at
the total exit rate, then pick the direction proportionally to the up/down
rates.  Nothing is time-discretized and trajectories are stored sparsely
(jump times plus visited states only).  Every sampler runs its replications
through one loop, ``_replications``, takes their streams from
``_replication_groups`` and reads its randomness from ``_blocks``, which
states the stream layout.

Every chain runs in one kernel, ``_walk``, which advances a group of
replications in lock-step as the rows of one matrix, taking the same
number of events for every row in a few numpy passes: steps from the
uniforms, states from their prefix sum with a closed form for the forced
moves at an end, rates from the states before each jump, and jump times
from np.add.accumulate along each row, which adds in sequence exactly as
the scalar loop does.  A chunk is sized to reach the nearest of the rows'
next stops.  A row whose path reaches both ends within a chunk, and a row
of a chain of at most 17 states, walks eight events a step from an end
table.  Each row still reads its own stream: ``_blocks`` draws a row's
uniforms only as the chunks read them, so a short replication draws few
more than it uses, and the stream layout, and so every sample, is the same
whatever the grouping.  A sampler of one path runs as a group of one.
A group's exponential blocks are drawn by the caller and, given two CPUs,
one drawer thread (``_draw``); all else runs on the calling thread.

The tilted chain is the same walk with its tilt z held: z is read at time 0
and after every _HOLD jumps, and between reads the chain is homogeneous,
with the up rate times z and the down rate divided by z.  A z fixed from
the past is predictable, so the likelihood-ratio weight is exact and a
closed form of the finished path (``_log_weight``); an experiment computes
it only for the paths that count.  Trajectories and weights are
bit-identical to the scalar loops'.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
from array import array
from dataclasses import dataclass, field, replace
from operator import mul, sub

import numpy as np

from .chain import ModelParams, ProbabilityVector, _check_state, _dwell_times, stationary_distribution
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
_MAX_CHUNK = 4096  # longer chunks compute too many events past a stop
_HOLD = 128       # jumps of the tilted chain between reads of its tilt
_GROUP = 32       # replications an experiment runs in lock-step
STREAM_VERSION = 1  # the layout of _blocks; reports record it
_SPARE: list = []   # lists of generators no running experiment holds
_DRAWER: list = []  # [the drawer thread's pool, built on first use, or None on one CPU]


def _stream_key(seed: int, replication: int) -> np.ndarray:
    """The Philox key of a replication's stream."""
    return np.array([np.uint64(seed % (1 << 64)), np.uint64(replication)], dtype=np.uint64)


def replication_rng(seed: int, replication: int = 0) -> np.random.Generator:
    """Philox stream keyed by (seed, replication)."""
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, replication)))


def _replication_groups(seed: int, count: int, first: int = 0):
    """Yield the streams of count replications from first on, in groups of
    up to _GROUP, a list per group, each stream equal to a fresh
    replication_rng(seed, rep).

    The generators come from a list in _SPARE, topped up if short, that goes
    back after the last group; list.pop and list.append are atomic, so no two
    samplers share one.  They are reset to each group's fresh states (2 us
    each, against 15 us to build a Philox), for a single path too."""
    try:
        rngs = _SPARE.pop()
    except IndexError:
        rngs = []
    rngs += [replication_rng(0) for _ in range(min(_GROUP, count) - len(rngs))]
    for at in range(first, first + count, _GROUP):
        group = rngs[:min(_GROUP, first + count - at)]
        for rep, rng in enumerate(group, at):
            rng.bit_generator.state = {"bit_generator": "Philox", "state": {
                "counter": np.zeros(4, np.uint64), "key": _stream_key(seed, rep)},
                "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        yield group
    _SPARE.append(rngs)


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

    def csv_table(self) -> tuple[list[str], np.ndarray]:
        """Header and (time, state) rows, as a structured array: time 0 with
        the initial state, then one row per jump."""
        rows = np.empty(self.n_jumps + 1, dtype=[("time", np.float64), ("state", np.int64)])
        rows[0] = (0.0, self.initial_state)
        rows["time"][1:] = self.jump_times
        rows["state"][1:] = self.states_after_jump
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
        if self.initial != "stationary" and (not isinstance(self.initial, (int, np.integer))
                                             or isinstance(self.initial, bool)):
            raise ValueError(f'initial must be a state index or "stationary", got {self.initial!r}')


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


def _start(params: ModelParams, config: SimConfig):
    """A replication's start as a function of its stream: the point start,
    checked here, or an inverse-CDF draw from the stationary law, built
    here once, which takes the stream's first uniform."""
    if config.initial == "stationary":
        pi = stationary_distribution(params)
        return lambda rng: pi.sample_state(rng.random())
    _check_state(params, config.initial, "initial")
    m0 = int(config.initial)
    return lambda rng: m0


def _blocks(rngs: list):
    """Hand out the variates of a group of replications, a group of events
    at a time.

    This is the stream contract every sampler shares, version
    STREAM_VERSION: a change to it that moves any sample bumps that number.
    Each replication owns a counter-based Philox stream keyed by (seed,
    replication), so it reproduces independently of execution order.  The
    stream is read in blocks of _BLOCK standard exponentials followed by
    _BLOCK uniforms, and event i takes the i-th variate of each, the i-th
    jump of the chain.  A stationary start takes one uniform before the
    first block.

    Replication i of the group reads rngs[i].  A kernel starts the
    generator with next() and then sends it (rows, size): the indices of
    the replications still running, in order, and the number of events it
    wants.  It gets back matrices of the (exponentials, uniforms) of that
    many events, or of the rest of the current block if fewer, with a row
    per index in rows; every row is at the same event of its stream.  A
    block's exponentials are drawn whole when its first event is asked for:
    the ziggurat's rejections make their word count vary, and that count
    fixes where the uniforms begin.  The uniforms are drawn only as they are
    handed out, which reads the same words as drawing them whole, since
    Philox random() takes exactly one 64-bit word per double; a replication
    that ends early never draws the rest.  The next block is drawn only
    after every event of the current one has been handed out, and how a
    kernel groups the events, or the replications, does not change which
    variates an event reads, nor does the thread drawing a block (``_draw``).
    """
    exps = np.empty((len(rngs), _BLOCK))
    rows, size = yield
    while True:
        _draw(rngs, rows, exps)
        at = 0
        while at < _BLOCK:
            head = exps[:, at:at + size] if len(rows) == len(rngs) else exps[rows, at:at + size]
            unis = np.empty(head.shape)
            for row, out in zip(rows, unis):
                rngs[row].random(out=out)
            at += head.shape[1]
            rows, size = yield head, unis


def _draw(rngs: list, rows: list, exps: np.ndarray) -> None:
    """Draw the exponential block of each of rows into exps[row] from
    rngs[row]: given two rows and two CPUs, the caller and one drawer thread
    take rows from one iterator a row at a time (Philox's draw releases the
    GIL), so neither waits more than a block; the drawer calls nothing else."""
    todo = iter(rows)

    def draw():
        for row in todo:
            rngs[row].standard_exponential(out=exps[row])

    if len(rows) > 1 and not _DRAWER:
        from concurrent.futures import ThreadPoolExecutor  # starts its thread on first submit
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
        _DRAWER.append(ThreadPoolExecutor(1) if len(cpus) > 1 else None)
    if len(rows) < 2 or _DRAWER[0] is None:
        return draw()
    helper = _DRAWER[0].submit(draw)
    draw()
    if not helper.cancel():  # the drawer has begun: wait for the row it may be drawing
        helper.result()


def _chunk_size(reach: float) -> int:
    """Events to reach a stop the given number of events ahead, on average,
    with half as many again to spare, within [_CHUNK, _MAX_CHUNK]."""
    return max(_CHUNK, math.ceil(min(_MAX_CHUNK, 1.5 * reach)))


@functools.cache
def _end_table(n: int) -> tuple[np.ndarray, list]:
    """The chain on {1..n}, n <= 17, eight events at a time: for each start
    m and byte b of step bits (bit j steps up at event j unless an end
    forces the move), the offsets from m of the states after each event, an
    int8 array indexed [m - 1, b], and of the state after all eight, a list
    of lists indexed the same.  Longer chains read the table of 17 states:
    eight events from a start 8 or more states from both ends reach neither
    end, as from state 9, and a start nearer an end moves as the state as
    near that end, so no table holds more than 17 * 256 * 8 entries."""
    start, bits = np.arange(1, n + 1)[:, None], np.arange(256)
    state = np.repeat(start, 256, axis=1)
    offsets = np.empty((n, 256, 8), dtype=np.int8)
    for j in range(8):
        state = np.where(state == 1, 2, np.where(state == n, n - 1, state + (bits >> j & 1) * 2 - 1))
        offsets[:, :, j] = state - start
    return offsets, offsets[:, :, 7].tolist()


def _table_walk(n: int, m: int, up: np.ndarray) -> np.ndarray:
    """The states after each event from state m, stepping up where ``up``
    holds, eight events at a time: the loop visits only the state at the
    start of each block of eight, and one gather of the end table's offsets
    expands the blocks into every state.  A start s <= 8 reads row s - 1 of
    the table, a start s > n - 8 row s - shift - 1, and any other start row
    8 (state 9)."""
    offsets, ends = _end_table(min(n, 17))
    shift, high = n - min(n, 17), n - 8
    bits = np.packbits(up, bitorder="little")
    starts = array("q")
    for b in bits.tobytes():
        starts.append(m)
        m += ends[m - 1 if m <= 8 else m - shift - 1 if m > high else 8][b]
    starts = np.frombuffer(starts, dtype=np.int64)
    rows = np.maximum(np.minimum(starts, 9), starts - shift) - 1
    return (starts[:, None] + offsets[rows, bits]).ravel()[:up.size]


def _lift(free: np.ndarray) -> np.ndarray:
    """The walk with each forced move 1 -> 2 of the lower end put back."""
    lift = np.floor_divide(2 - free, 2)
    np.maximum(lift, 0, out=lift)
    np.maximum.accumulate(lift, out=lift)
    lift *= 2
    lift += free
    return lift


def _chunk_states(n: int, ms: list, unis: np.ndarray, p_up: np.ndarray) -> np.ndarray:
    """The paths driven by ``unis``, one row per path: row i holds the
    state ms[i] before the first event and the state after each event,
    stepping up with probability p_up[i, 0] (p_up is a column).

    Away from the ends a uniform below p_up steps up, otherwise down, so a
    path is its start plus a prefix sum of the steps (the free walk F).
    When the path reaches only the lower end, each forced move 1 -> 2 lifts
    the rest of the walk by 2, and the lift so far is the smallest even
    number keeping every state >= 1: X = F + 2*max.accumulate(max(0, (2-F)//2)).
    The upper end is the mirror image, m -> n+1-m, of the lower one.

    A row's F is its path while it stays within [1, n].  If F leaves it on
    one side only, the row takes that end's form, which leaves [1, n] only
    when the path reaches both ends.  Then, or where F leaves on both sides,
    and on a chain of at most 17 states, the row is walked by ``_table_walk``.
    """
    path = np.empty((len(ms), unis.shape[1] + 1), dtype=np.int64)
    path[:, 0] = ms
    free = path[:, 1:]
    up = unis < p_up
    if n <= 17:
        for row, start, steps in zip(free, ms, up):
            row[:] = _table_walk(n, start, steps)
        return path
    free[:] = np.where(up, 1, -1)
    np.cumsum(path, axis=1, out=path)
    lows, highs = free.min(axis=1), free.max(axis=1)
    if lows.min() >= 1 and highs.max() <= n:
        return path
    for i, (low, high) in enumerate(zip(lows.tolist(), highs.tolist())):
        if low >= 1 and high <= n:
            continue
        states = free[i]
        if high <= n:
            states = _lift(states)
        elif low >= 1:
            states = n + 1 - _lift(n + 1 - states)
        if states.min() < 1 or states.max() > n:
            states = _table_walk(n, ms[i], up[i])
        free[i] = states
    return path


def _held(lam: float, n: int, z: float) -> tuple[float, float, float, float]:
    """The chain with z held: its step-up probability inside, its exit rate
    per unit of m inside, and its exit rates at 1 and at n."""
    both = z + 1.0 / z
    return z / both, lam * both, lam * z, lam * n / z


def _walk(n: int, lam: float, starts: list, stops, rngs: list, jumps: list, tilt, zs: list,
          ceiling: float, band: tuple | None = None) -> list:
    """Run the chain on {1..n} once per row, row i from state starts[i] with
    the stream rngs[i], append the (times, states) arrays of row i's jumps
    to jumps[i], one piece per pass, and return each row's state at the last
    of the increasing ``stops`` it reads.  A jump at exactly a stop counts:
    the state at a stop is the one entered at or before it.  Nothing past
    the last stop read is recorded.  A row ends after its last stop, or at
    its first stop with a state at or above ``ceiling``, or, given a
    ``band`` (lo, hi), at its first jump to a state <= lo or >= hi: that
    jump is its last recorded, and its state the row's result.

    With a tilt the chain is the tilted one, with z held: each row reads
    ``tilt.value`` at time 0 and then after every _HOLD jumps, at the time
    of the last, and each value row i reads is appended to zs[i].  Between
    reads the chain moves up at rate lam*m*z and down at rate lam*m/z,
    one-sided at 1 and n, so it leaves m at rate lam*m*(z + 1/z) inside and
    steps up with probability z/(z + 1/z).  The plain chain is z = 1
    throughout.

    The rows advance in lock-step: each pass takes the same number of
    events from ``_blocks`` for every running row, so one set of numpy
    passes serves them all.  A pass is sized by ``_chunk_size`` to reach
    the nearest of the rows' next stops at their current rates, so a short
    replication draws few more uniforms than it reads and no row computes
    many events past its last stop; a pass never crosses the end of a
    hold.  A pass's states come from ``_chunk_states``.  Each event's rate
    is read from the state before it, and its jump time is the running sum
    of the holding times along its row seeded with the row's time.
    np.add.accumulate adds strictly in sequence, and every division and
    product is the one the scalar Gillespie loop makes, so each trajectory
    is bit-identical to that loop's whatever the passes and whichever
    replications share them.
    """
    stops = list(stops)
    finals = list(starts)
    if n == 1:
        return finals
    # per running row: its index into starts, state, time, next stop and
    # that stop's index
    rows = list(range(len(starts)))
    ms, ts = list(starts), [0.0] * len(rows)
    stop, at = [stops[0]] * len(rows), [0] * len(rows)
    held = np.array([_held(lam, n, 1.0)] * len(rows))  # a row of _held values per row
    left = math.inf if tilt is None else 0  # jumps left in the current hold
    blocks = _blocks(rngs)
    next(blocks)
    while True:
        if not left:
            values = []
            for row, now in zip(rows, ts):
                z = float(tilt.value(now))
                if not (z > 0.0 and math.isfinite(z)):
                    raise ValueError(f"tilt must be positive and finite, got z({now}) = {z!r}")
                zs[row].append(z)
                values.append(_held(lam, n, z))
            held = np.array(values)
            left = _HOLD
        size = left
        if size > _CHUNK:  # the fewest events a row expects before its next stop
            reach = min(map(mul, held[:, 1].tolist(), map(mul, ms, map(sub, stop, ts))))
            size = min(size, _chunk_size(reach))
        exps, unis = blocks.send((rows, size))
        c = exps.shape[1]
        left -= c
        path = _chunk_states(n, ms, unis, held[:, :1])
        before, states = path[:, :-1], path[:, 1:]
        rates = held[:, 1:2] * before
        if min(ms) <= c:
            np.copyto(rates, held[:, 2:3], where=before == 1)
        if max(ms) + c > n:
            np.copyto(rates, held[:, 3:], where=before == n)
        clock = np.empty((len(rows), c + 1))
        clock[:, 0] = ts
        np.divide(exps, rates, out=clock[:, 1:])
        np.add.accumulate(clock, axis=1, out=clock)
        ends = clock[:, -1].tolist()
        cuts = {}  # row index -> the events up to its first leaving the band
        if band is not None:
            out = (states <= band[0]) | (states >= band[1])
            leaving = np.flatnonzero(out.any(axis=1))
            cuts = dict(zip(leaving.tolist(), (out[leaving].argmax(axis=1) + 1).tolist()))
        ended = []
        for i, (row, row_times, row_states, end) in enumerate(zip(rows, clock[:, 1:], states,
                                                                  ends)):
            cut = cuts.get(i, c)
            if i in cuts:
                row_times, row_states, end = row_times[:cut], row_states[:cut], row_times[cut - 1]
            k = cut if end <= stop[i] else int(row_times.searchsorted(stop[i], side="right"))
            while k < cut:  # k is the first jump past the stop
                finals[row] = int(row_states[k - 1]) if k else ms[i]
                at[i] += 1
                if at[i] == len(stops) or finals[row] >= ceiling:
                    ended.append(i)
                    row_times, row_states = row_times[:k], row_states[:k]
                    break
                stop[i] = stops[at[i]]
                k = int(row_times.searchsorted(stop[i], side="right"))
            else:
                if i in cuts:  # no stop came first: the row ends where it left the band
                    finals[row] = int(row_states[-1])
                    ended.append(i)
            if row_times.size:
                jumps[row].append((row_times, row_states))
        ms, ts = path[:, -1].tolist(), ends
        if ended:
            if len(ended) == len(rows):
                return finals
            keep = [i for i in range(len(rows)) if i not in ended]
            rows, ms, ts, stop, at = ([v[i] for i in keep] for v in (rows, ms, ts, stop, at))
            held = held[keep]


def _replications(params: ModelParams, config: SimConfig, first: int = 0, count: int | None = None,
                  stops=None, tilt=None, ceiling: float = math.inf, band: tuple | None = None):
    """Run count replications from first on (by default config.replications
    from 0) through ``_walk`` up to ``stops`` (by default the horizon), a
    group of streams from ``_replication_groups`` at a time, each from
    ``_start``'s rule, and yield (start, final state, jumps, tilt reads) for
    each in order: the state where it ended (at the last stop it read, or
    where it left the band), the (times, states) pieces of its jumps up to
    there, and the z values it read (none without a tilt)."""
    start = _start(params, config)
    count = config.replications if count is None else count
    stops = (config.horizon,) if stops is None else stops
    for rngs in _replication_groups(config.seed, count, first):
        starts = [start(rng) for rng in rngs]
        jumps: list = [[] for _ in rngs]
        zs: list = [[] for _ in rngs]
        finals = _walk(params.n_states, params.lam, starts, stops, rngs, jumps, tilt, zs, ceiling,
                       band)
        yield from zip(starts, finals, jumps, zs)


def _joined(jumps: list) -> tuple[np.ndarray, np.ndarray]:
    times = np.concatenate([np.empty(0)] + [times for times, _ in jumps])
    states = np.concatenate([np.empty(0, dtype=np.int64)] + [states for _, states in jumps])
    return times, states


def sample_path(params: ModelParams, config: SimConfig, replication: int = 0) -> Trajectory:
    """Draw one exact trajectory on [0, horizon]."""
    [(m0, _, jumps, _)] = _replications(params, config, replication, 1)
    return Trajectory._built(m0, *_joined(jumps), config.horizon)


def occupation_fractions(trajectory: Trajectory, n_states: int) -> ProbabilityVector:
    """Fraction of the horizon spent in each of the states 1..n_states."""
    visited = trajectory.visited_states()
    top = int(visited.max())
    if n_states < top:
        raise ValueError(f"n_states={n_states} below the highest visited state {top}")
    edges = np.concatenate(([0.0], trajectory.jump_times, [trajectory.horizon]))
    durations = np.diff(edges)
    acc = np.bincount(visited - 1, weights=durations, minlength=n_states)
    return ProbabilityVector(acc / acc.sum())


def _lln_band(params: ModelParams, gamma0: float, epsilon: float) -> tuple[int, int, int]:
    """(m0, lo, hi) of lln_point_experiment: the start round(gamma0*N), and
    the band lo+1..hi-1 a path leaves when it hits a state m <= lo or
    m >= hi (1e-9 grid snap: states are integers, so only degenerate float
    ties are affected)."""
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if not math.isfinite(gamma0):
        raise ValueError(f"gamma0 must be finite, got {gamma0!r}")
    n = params.n_states
    # clamped to [-1, N + 1] before rounding, which keeps huge values finite
    m0 = round(min(max(gamma0 * n, -1.0), n + 1.0))
    if not 1 <= m0 <= n:
        raise ValueError(f"gamma0={gamma0!r} puts round(gamma0*N) outside 1..{n}")
    lo = math.floor(max(n * (gamma0 - epsilon), -1.0) + 1e-9)
    hi = math.ceil(min(n * (gamma0 + epsilon), n + 1.0) - 1e-9)
    return m0, lo, hi


def lln_point_experiment(params: ModelParams, gamma0: float, epsilon: float,
                         config: SimConfig) -> ExperimentResult:
    """Monte Carlo estimate of P(sup_{t<=T} |X(t)/N - gamma0| >= epsilon) from
    the point start round(gamma0*N).

    The config's ``initial`` field is ignored: this experiment's start is
    fixed by gamma0.  A replication ends at its first jump out of the band,
    and one that starts outside it is a hit with nothing simulated.  The
    bound 2 lam m0 T / a^2, a = min(m0 - lo, hi - m0), and the number of jumps
    simulated, each replication's up to its exit or the horizon, ride along
    in the result's extra fields.  The bound holds where lo >= 1 and hi <= N:
    X stopped at its exit is then a martingale with d<X> = 2 lam X dt, so
    E[(X - m0)^2] <= 2 lam m0 T up to the exit, and Kolmogorov's inequality
    gives it.  It is inf where the band holds an end of the chain, or a <= 0.
    """
    m0, lo, hi = _lln_band(params, gamma0, epsilon)
    n, horizon = params.n_states, config.horizon
    reps = config.replications
    a = min(m0 - lo, hi - m0)
    bound = 2.0 * params.lam * m0 * horizon / (a * a) if a > 0 and lo >= 1 and hi <= n else math.inf
    hits = n_jumps = 0
    if m0 <= lo or m0 >= hi:
        hits = reps
    elif lo >= 1 or hi <= n:  # else the band holds 1..N and no path leaves it
        for _, m, path, _ in _replications(params, replace(config, initial=m0), band=(lo, hi)):
            n_jumps += sum(states.size for _, states in path)
            hits += m <= lo or m >= hi
    p = hits / reps
    stderr = math.sqrt(p * (1.0 - p) / reps)
    return ExperimentResult(p, stderr, reps, config.seed, params,
                            extra={"bound": bound, "hits": hits, "jumps": n_jumps})


def lln_stationary_experiment(params: ModelParams, u: float, sample_times,
                              config: SimConfig) -> ExperimentResult:
    """Monte Carlo estimate of P(X(t_i)/N < u for every sample time) with the
    chain started from its stationary law.

    A replication stops at the first sample time with X/N >= u, or at the
    last: the config's horizon is not read.  The extra fields carry the
    ``successes`` and, in ``jumps``, the jumps at or before the last sample
    time each replication read.
    """
    if config.initial != "stationary":
        raise ValueError("lln_stationary_experiment requires a stationary initial condition")
    times = _dwell_times(u, sample_times)
    n = params.n_states
    ceiling = bisect.bisect_left(range(n + 1), u, key=lambda m: m / n)  # least m with m/n >= u
    reps = config.replications
    failures = n_jumps = 0
    for _, m, path, _ in _replications(params, config, stops=times, ceiling=ceiling):
        failures += m >= ceiling
        n_jumps += sum(states.size for _, states in path)
    successes = reps - failures
    p = successes / reps
    stderr = math.sqrt(p * (1.0 - p) / reps)
    return ExperimentResult(p, stderr, reps, config.seed, params,
                            extra={"threshold": u, "sample_times": times,
                                   "successes": successes, "jumps": n_jumps})


def _log_weight(lam: float, n: int, m0: int, times, states, zs: list, horizon: float) -> float:
    """The log-likelihood ratio of nominal against tilted dynamics for the
    path from m0 with jumps (times, states) up to the horizon, sampled by
    ``_walk`` with the held tilt values zs.

    In the path's order: each holding interval adds its length times the
    excess of the tilted total rate over the nominal one, up*(z - 1) +
    down*(1/z - 1) with up = lam*m below n and down = lam*m above 1 at its
    state m and z the value held over it, and each jump then adds -ln z if
    it is up and +ln z if it is down.  Every log is math.log (np.log
    differs from it in the last bit on some inputs), and np.add.accumulate
    adds in sequence.
    """
    if n == 1:
        return 0.0  # a single state has no rates
    before = np.concatenate(([m0], states))  # the state on each interval
    z = np.repeat(zs, _HOLD)[:before.size]  # interval i lies in hold i // _HOLD
    rate = lam * before
    up = np.where(before < n, rate, 0.0)
    down = np.where(before > 1, rate, 0.0)
    terms = np.zeros(2 * times.size + 2)
    np.multiply(up * (z - 1.0) + down * (1.0 / z - 1.0),
                np.diff(np.concatenate(([0.0], times, [horizon]))), out=terms[1::2])
    log_z = np.repeat([math.log(v) for v in zs], _HOLD)[:times.size]
    np.negative(log_z, out=log_z, where=states > before[:-1])
    terms[2::2] = log_z
    return float(np.add.accumulate(terms, out=terms)[-1])


def tilted_sample_path(params: ModelParams, tilt, config: SimConfig,
                       replication: int = 0) -> WeightedTrajectory:
    """Sample under the tilted dynamics up' = lam*m*z, down' = lam*m/z
    (one-sided at the ends), with z = tilt.value(t) read at time 0 and after
    every _HOLD jumps and held in between, together with the exact
    log-likelihood ratio of nominal against tilted dynamics.

    A z read from the path so far is predictable, so the chain needs no
    majorant and the weight is a closed form of the path and the values
    read (``_log_weight``): E_tilted[exp(log_weight); A] = P_nominal(A) for
    any tilt whose values are positive and finite.  A value that is not
    raises ValueError.
    """
    [(m0, _, jumps, zs)] = _replications(params, config, replication, 1, tilt=tilt)
    times, states = _joined(jumps)
    log_w = _log_weight(params.lam, params.n_states, m0, times, states, zs, config.horizon)
    return WeightedTrajectory(Trajectory._built(m0, times, states, config.horizon), log_w)


def tilted_window_experiment(params: ModelParams, tilt, window: tuple[int, int],
                             config: SimConfig) -> ExperimentResult:
    """Importance-sampling estimate of P(X(horizon) in [window]) under the
    nominal law, using the tilted sampler.  A replication's weight is
    computed only when it ends in the window.

    The extra fields carry the ``jumps`` and the ``tilt_reads`` (z values
    read) over all replications and the health of the weights: over the
    replication values v (the weight, or 0 off the window), ``ess`` =
    (sum v)^2 / sum v^2 and ``max_weight_share`` = max v / sum v (0 and
    null when no replication hits the window), ``rel_err_per_sample`` =
    stderr * sqrt(reps) / estimate (null when the estimate is 0), and the
    mean and the sample variance of the log-weights of the replications
    that hit the window, ``log_weight_mean`` and ``log_weight_var`` (null
    below two hits).
    """
    lo, hi = window
    _check_state(params, lo, "window start")
    _check_state(params, hi, "window end")
    lo, hi = int(lo), int(hi)
    n, lam = params.n_states, params.lam
    if lo > hi:
        raise ValueError(f"bad window [{lo}, {hi}] for N={n}")
    horizon, reps = config.horizon, config.replications
    values = np.zeros(reps)
    log_weights = np.full(reps, -math.inf)  # -inf off the window
    n_jumps = n_reads = 0
    for i, (m0, final, jumps, zs) in enumerate(_replications(params, config, tilt=tilt)):
        if lo <= final <= hi:
            log_weights[i] = _log_weight(lam, n, m0, *_joined(jumps), zs, horizon)
            values[i] = math.exp(log_weights[i])
        n_jumps += sum(times.size for times, _ in jumps)
        n_reads += len(zs)
    hits = log_weights[log_weights > -math.inf]
    estimate = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    top = float(values.max())
    scaled = values / top if top > 0.0 else values  # sum v^2 could underflow
    return ExperimentResult(estimate, stderr, reps, config.seed, params, extra={
        "window": [lo, hi],
        "jumps": n_jumps,
        "ess": float(scaled.sum() ** 2 / (scaled @ scaled)) if top > 0.0 else 0.0,
        "max_weight_share": top / float(values.sum()) if top > 0.0 else None,
        "rel_err_per_sample": stderr * math.sqrt(reps) / estimate if estimate else None,
        "log_weight_mean": float(hits.mean()) if hits.size > 1 else None,
        "log_weight_var": float(hits.var(ddof=1)) if hits.size > 1 else None,
        "tilt_reads": n_reads,
    })
