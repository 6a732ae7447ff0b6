"""Exact finite-N transition probabilities by uniformization.

The generator Q is tridiagonal, with the rates of chain.jump_rates off the
diagonal, so the law of X(t) is a Poisson mixture of powers of the
uniformized kernel K = I + Q/Lam, Lam = 2*lam*N.  Each kernel-vector product
costs O(N) and the Poisson truncation is certified: this is the brute-force
oracle every Monte Carlo estimate and large-deviation rate is checked against.

Powers are taken _S = 8 orders per numpy pass through the band of K^8
(_block_powers), in log arithmetic by tiles in block floating point
(_log_band_stepper); results differ from an order-by-order sum below 1e-13
relative.  The Poisson weights are built from the mode outward by the pmf
ratios and cut at a certified tail bound (_poisson_terms).  A law is the
bulk mixture of _poisson_mixture.  A window query never builds a law: one
window chain (_window_chain) sums the window masses y_j * (K^r 1_W) until a
certified relative stop rule holds, in linear arithmetic reading the orders
up to the cutoff K in groups of powers.  Below 1e-280 at K it answers in log
arithmetic, far below 1e-308; a window more than K states from m0, or one
the reach bound from m0 puts below 1e-280, goes there without a linear pass.
The linear chain first runs on a kept range of states around m0 and the
window (_kept_range), whose ends absorb, uniformized at the range's own top
rate (_uniformized_kernel(params, lo, hi)).  Its window mass is a lower
bound, and the mass its ends absorb, bounded by the last power's mass near
them, closes the gap; where that bound is at most 1% of tol/2 of the answer
the answer stands, else the query runs on 1..N as if no range were kept
(_certified_window).  The log chain runs on 1..N and truncates itself
(_log_chain): a reach bound, a supermartingale that falls fastest where
steps toward the window are rarest (_reach_weights), bounds what the mass
at each state can still add to the window.  It stops the sum, and the edge
states whose bounds fit a budget of 1% of tol/2 of a guessed lower bound on
P are dropped and charged to an error account; an answer whose account
exceeds that share of it is computed again with no drops.
One query on a shared 2-core machine, whose speed varies up to 2x from day
to day (timed on one day): 2.0 ms for a bulk window at N ~ 520, mu ~ 460;
for gamma0 = 0.5, window 0.8 +- 0.02, T = 1: 0.28 / 1.5 s at N = 6400 / 12800
(linear arithmetic) and 1.4 s at N = 25600 (log arithmetic; 7.8-10.3 s in
the same session with every state stepped to the Poisson tail rule).
Beyond that is Monte Carlo.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .chain import ModelParams, ProbabilityVector, _check_state, stationary_distribution
from .optimal_paths import optimal_action

__all__ = [
    "endpoint_distribution",
    "evolve_distribution",
    "window_probability",
    "window_log_probability",
    "empirical_rate_curve",
    "RatePoint",
    "stationary_dwell_probability",
]

# Below this linear window mass the log-space chain takes over.
_LOG_SPACE_THRESHOLD = 1e-280
# Poisson orders per numpy pass: both sums step by the band of K^_S.
_S = 8
# States per tile of the log-space band step: each tile and its two halos of
# _S states are exponentiated against one shared reference (_log_band_stepper).
_TILE = 64
# The smallest product a tile of _log_band_stepper may form is e^-_TILE_FLOOR,
# a normal double (those reach down to e^-708.4).
_TILE_FLOOR = 700.0
# The log chain reads its powers in groups of at most this many blocks.
_MAX_GROUP = 32
# A truncation, a kept range's sinks or the log chain's dropped states, may
# take at most this share of tol/2 of the answer.
_SINK_SHARE = 0.01
# The growth factors R over which the reach bound is least (_reach_weights):
# 1, and 1 + 0.005 ... 1 + 3.5 in geometric steps.
_REACH_R = np.r_[1.0, 1.0 + np.geomspace(5e-3, 3.5, 8)]
# A window query keeps a range only where it steps at most this share of N*N state orders.
_KEEP_SHARE = 0.5


@dataclass(frozen=True, eq=False)
class _UniformizedKernel:
    up: np.ndarray    # K(m, m+1), entry m-1
    down: np.ndarray  # K(m, m-1), entry m-1
    stay: np.ndarray  # K(m, m)
    rate: float       # the uniformization rate Lam
    first: int = 1    # the state m of entry 0
    sinks: tuple[int, ...] = ()  # the entries that absorb

    @functools.cached_property
    def band(self) -> np.ndarray:
        """The band of K^_S state by state, band[m, i] = G[i, m] of
        _block_gather, then _TILE rows of zeros for the last tile of
        _log_band_stepper.  Built once, when a chain first steps past its start,
        and shared by every chain that steps with this kernel."""
        n = self.stay.size
        band = np.zeros((n + _TILE, 2 * _S + 1))
        band[:n] = _block_gather(self).T
        return band


def _uniformized_kernel(params: ModelParams, lo: int = 1, hi: int | None = None) -> _UniformizedKernel:
    """The kernel on the states lo..hi (default 1..N) at the rate
    Lam = 2*lam*hi, the rates of chain.jump_rates; an end strictly inside
    1..N absorbs (up = down = 0, stay = 1)."""
    n, lam = params.n_states, params.lam
    hi = n if hi is None else hi
    m = np.arange(lo, hi + 1, dtype=float)
    up = np.where(m < n, lam * m, 0.0)
    down = np.where(m > 1, lam * m, 0.0)
    sinks = tuple(i for i, end in ((0, lo), (hi - lo, hi)) if 1 < end < n)
    for i in sinks:
        up[i] = down[i] = 0.0
    lam_unif = 2.0 * lam * hi
    return _UniformizedKernel(up / lam_unif, down / lam_unif,
                              1.0 + -(up + down) / lam_unif, lam_unif, lo, sinks)


def _kernel_apply(p: np.ndarray, kern: _UniformizedKernel) -> np.ndarray:
    """One step of the distribution under the uniformized kernel (p <- p K)."""
    q = p * kern.stay
    q[1:] += p[:-1] * kern.up[:-1]
    q[:-1] += p[1:] * kern.down[1:]
    return q


def _block_gather(kern: _UniformizedKernel) -> np.ndarray:
    """The band of B = K^_S in gather form: G[i, m] = B[m+i-_S, m], zero
    where row m+i-_S lies outside the chain, so that (y B)[m] is the sum over
    i of y[m+i-_S] G[i, m].  Built by _S kernel steps from the identity's
    band, a step C <- C K reading in this form
    (C K)[m+i-_S, m] = C[i, m] stay[m] + C[i+1, m-1] up[m-1] + C[i-1, m+1] down[m+1].
    Step r writes only the 2r+1 rows _S-r.._S+r that K^r can fill, into the
    other of two buffers."""
    g = np.zeros((2, 2 * _S + 1, kern.stay.size))
    g[0, _S] = 1.0
    for r in range(1, _S + 1):
        c, h = g[(r - 1) % 2, _S - r:_S + r + 1], g[r % 2, _S - r:_S + r + 1]
        np.multiply(c, kern.stay, out=h)
        h[:-1, 1:] += c[1:, :-1] * kern.up[:-1]
        h[1:, :-1] += c[:-1, 1:] * kern.down[1:]
    return g[_S % 2]


def _poisson_terms(mu: float, tol: float) -> np.ndarray:
    """The Poisson(mu) pmf at the orders 0..K, built from the mode outward by
    the pmf ratios and normalised by their sum (after Fox & Glynn, CACM 1988).
    K is the first order past mu - 2 whose tail bound pmf(K+1) / (1 - mu/(K+2))
    (that of _window_chain) is at most tol/2; for any tol check_tol admits,
    the orders built reach far past it."""
    if mu == 0.0:
        return np.ones(1)
    mode, top = int(mu), _poisson_top(mu)
    w = np.empty(top + 2)
    w[mode::-1] = np.cumprod(np.r_[1.0, np.arange(mode, 0, -1) / mu])
    w[mode + 1:] = np.cumprod(mu / np.arange(mode + 1, top + 2))
    w /= w.sum()
    k = np.arange(top + 1)
    past = (k + 2 > mu) & (w[1:] <= 0.5 * tol * (1.0 - mu / (k + 2)))
    return w[:int(past.argmax()) + 1]


def _poisson_top(mu: float) -> int:
    """The last order _poisson_terms builds, so at least its cutoff K."""
    return int(mu + 12.0 * math.sqrt(mu)) + 40


def check_tol(tol: float) -> None:
    """Raise ValueError unless tol is a usable truncation tolerance."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if tol > 1e-6:
        raise ValueError(f"tol must be at most 1e-6, got {tol!r}")
    if 1.0 - 0.5 * tol == 1.0:
        # a tail below half an ulp of 1 is lost in the rounding of weights that sum to 1
        raise ValueError(f"tol={tol!r} is below double precision: 1 - tol/2 rounds to 1")


def _check_time_tol(t: float, tol: float) -> None:
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"time must be finite and >= 0, got {t!r}")
    check_tol(tol)


def evolve_distribution(params: ModelParams, dist, t: float, tol: float = 1e-12) -> ProbabilityVector:
    """Forward-evolve an initial distribution by time t."""
    _check_time_tol(t, tol)
    p = dist.mass if isinstance(dist, ProbabilityVector) else np.asarray(dist, dtype=float)
    if p.size != params.n_states:
        raise ValueError("distribution dimension does not match n_states")
    acc = _poisson_mixture(p, _uniformized_kernel(params), t, tol)
    return ProbabilityVector(acc / acc.sum())


def _block_powers(kern: _UniformizedKernel, p: np.ndarray, log_space: bool):
    """Yield (lo, hi, y_j), y_j = p K^(j*_S), j = 0, 1, ..., empty (0, or -inf)
    outside the states lo..hi-1 it can reach; in log space p and y_j are logs.
    A step sums, per state, a sliding view of y_j (padded by _S empty entries)
    times kern.band, the band of K^_S stored state by state: one np.einsum
    in linear arithmetic, _log_band_stepper's step in log arithmetic.  The
    band is asked for once a second power is; a yielded row is overwritten
    two steps on.

    A consumer may send (a, b), lo <= a < b <= hi, as simulate._blocks takes
    its counts: the last power's states outside a..b-1 are emptied, and the
    next step runs from a..b-1 (next() sends nothing)."""
    empty = -np.inf if log_space else 0.0
    n = p.size
    support = np.flatnonzero(p != empty)
    lo, hi = (int(support[0]), int(support[-1]) + 1) if support.size else (0, 0)
    ring = np.full((2, n + 2 * _S + _TILE), empty)  # y_j at row j mod 2, a last tile's pad after it
    ring[0, _S:_S + n] = p
    keep = yield lo, hi, ring[0, _S:_S + n]
    g = kern.band
    step = _log_band_stepper(ring, g) if log_space else None
    views = sliding_window_view(ring[:, :n + 2 * _S], n, axis=1)
    for j in itertools.count(1):
        row = ring[j % 2, _S:_S + n]
        if keep is not None:
            # empty the last power outside a..b-1, and the older power this
            # step overwrites outside what it writes
            (lo, hi), last = keep, ring[1 - j % 2, _S:_S + n]
            last[:lo] = last[hi:] = row[:max(0, lo - _S)] = row[hi + _S:] = empty
        lo, hi = max(0, lo - _S), min(n, hi + _S)
        if log_space:
            step(j % 2, lo, hi)
        else:
            np.einsum("ij,ji->j", views[1 - j % 2, :, lo:hi], g[lo:hi], out=row[lo:hi])
        keep = yield lo, hi, row


def _log_band_stepper(ring: np.ndarray, band: np.ndarray):
    """step(r, lo, hi): ring row r gets the logs of (e^y K^_S) on the states
    lo..hi-1, y the logs in the other row, in block floating point.  A row
    holds state m at m + _S between _S empty entries, and _TILE more at its
    end.  The states are cut into tiles of _TILE from lo; a tile's inputs, its
    states and a halo of _S on each side, are exponentiated once against
    their largest log, stepped through the band (stored state by state) by
    one np.einsum, and taken back by one log: 1.25 exp and 1 log per state.
    The last tile's states past hi get empty entries: no input within _S of
    them has mass, or their band rows are 0.

    Every nonzero product stays at least e^-_TILE_FLOOR, a normal double,
    while a tile's finite logs lie within span = _TILE_FLOOR + ln(smallest
    band entry) of its reference; a tile that reaches further takes a
    per-state log-sum-exp over the band's logs instead.  The caller ignores
    division by zero (np.errstate): a state without mass takes log 0 = -inf."""
    n = band.shape[0] - _TILE
    with np.errstate(divide="ignore"):
        log_g = np.log(band[:n].T)
    span = _TILE_FLOOR + math.log(band[band > 0.0].min())
    # inputs[r, a]: row r's states a-_S..a+_TILE+_S-1, a tile from a with its halos
    inputs = sliding_window_view(ring, _TILE + 2 * _S, axis=1)
    scaled = np.empty((n // _TILE + 1, _TILE + 2 * _S))
    shifted = sliding_window_view(scaled, 2 * _S + 1, axis=1)
    sums = np.empty((n // _TILE + 1, _TILE))

    def step(r: int, lo: int, hi: int) -> None:
        tiles = -(-(hi - lo) // _TILE)
        x, e, out = inputs[1 - r, lo:lo + tiles * _TILE:_TILE], scaled[:tiles], sums[:tiles]
        # a tile with no mass takes the reference -1e300: its exponentials are all 0
        ref = np.maximum.reduce(x, axis=1, keepdims=True, initial=-1e300)
        np.subtract(x, ref, out=e)
        wide = np.minimum.reduce(e, axis=1, where=e > -np.inf, initial=0.0) < -span
        np.exp(e, out=e)
        np.einsum("tki,tki->tk", shifted[:tiles],
                  band[lo:lo + tiles * _TILE].reshape(tiles, _TILE, 2 * _S + 1), out=out)
        np.log(out, out=out)  # the caller ignores log(0)
        np.add(out, ref, out=ring[r, _S + lo:_S + lo + tiles * _TILE].reshape(tiles, _TILE))
        for t in wide.nonzero()[0].tolist():
            a, b = lo + t * _TILE, min(hi, lo + (t + 1) * _TILE)
            _log_sum_exp_step(ring[1 - r], a, b, log_g, ring[r, _S + a:_S + b])
    return step


def _log_sum_exp_step(src: np.ndarray, a: int, b: int, log_g: np.ndarray, out: np.ndarray) -> None:
    """out = the logs of (e^y K^_S) on the states a..b-1, src[m + _S] = y[m],
    by one max-shifted log-sum-exp per state over log_g, the logs of the band
    of K^_S in gather form: 2*_S+1 exp per state, but nothing underflows."""
    terms = sliding_window_view(src[a:b + 2 * _S], b - a) + log_g[:, a:b]
    peak = terms.max(axis=0)
    terms -= peak
    np.exp(terms, out=terms)
    np.log(np.add.reduce(terms, axis=0), out=out)
    out += peak


def _poisson_mixture(p: np.ndarray, kern: _UniformizedKernel, t: float, tol: float) -> np.ndarray:
    """The bulk mixture: the sum over k of pmf(k) * p K^k, Poisson(Lam*t), up
    to the cutoff K of _poisson_terms.  Z_r collects pmf(j*_S + r) * y_j over
    the powers of _block_powers, and the mixture is the sum over r < _S of
    Z_r K^r, by Horner's rule; with K < _S no band is built."""
    weights = _poisson_terms(kern.rate * t, tol)
    k_max = weights.size - 1
    blocks, rows = k_max // _S + 1, min(_S, k_max + 1)
    w = np.zeros(blocks * _S)
    w[:k_max + 1] = weights
    z = np.zeros((rows, p.size))
    for w_j, (lo, hi, y) in zip(w.reshape(blocks, _S)[:, :rows, None],
                                _block_powers(kern, p, False)):
        z[:, lo:hi] += w_j * y[lo:hi]
    acc = z[-1]
    for r in range(rows - 2, -1, -1):
        acc = _kernel_apply(acc, kern)
        acc += z[r]
    return acc


def endpoint_distribution(params: ModelParams, m0: int, t: float, tol: float = 1e-12) -> ProbabilityVector:
    """Law of X(t) given X(0) = m0, to certified truncation error below tol."""
    _check_state(params, m0, "m0")
    point = np.zeros(params.n_states)
    point[m0 - 1] = 1.0
    return evolve_distribution(params, point, t, tol)


def _normalize_window(params: ModelParams, window) -> np.ndarray:
    states = list(window)
    if not states:
        raise ValueError("window must be a non-empty set of states")
    for m in states:
        _check_state(params, m, "window state")
    return np.unique(np.array(states, dtype=int))


def _certified_window(params: ModelParams, m0: int, t: float, window,
                      tol: float) -> tuple[float, bool]:
    """The window mass P with its truncation certified to tol/2 of itself
    and the states it drops to 1% more: (P, False) from the linear window
    chain, else (ln P, True) from the log one.

    The linear chain runs first on the kept range of _kept_range, whose
    edges absorb.  Its window mass P_r counts the paths that never reach a
    sink, so P_r <= P <= P_r + A + tail, with A the mass the sinks hold at
    the last order summed and tail <= tol/2 * P_r the Poisson weight past it
    (Munsky & Khammash, "The finite state projection algorithm for the
    solution of the chemical master equation", J. Chem. Phys. 2006).  Sinks
    only gain mass, so A is at most the chain's sink bound, and the answer
    stands where that bound is at most _SINK_SHARE * tol/2 * P_r: then
    P_r <= P <= P_r * (1 + 1.01 * tol/2).  Otherwise, or where that chain
    hands the query on, the linear chain runs on the whole chain 1..N, whose
    answer needs no sink bound, and then the log chain, with P below
    _LOG_SPACE_THRESHOLD at the bulk cutoff or the window more than K
    states from m0.  No linear pass runs that would hand the query on:
    not where the window lies past its _poisson_top(mu) >= K, nor, for a
    window more than 7 sd (sqrt(50 mu) states) from m0, where the reach
    bound from m0 (_log_reach_bound) is below _LOG_SPACE_THRESHOLD.  A
    pass not run builds no kernel and no weights; the last two step with
    one kernel 1..N and build its band once."""
    states = _normalize_window(params, window)
    _check_state(params, m0, "m0")
    _check_time_tol(t, tol)
    n, reach = params.n_states, int(np.abs(states - m0).min())
    kept = _kept_range(params, m0, t, states, tol)
    ranges = [(lo, hi) for lo, hi in ([kept] if kept else []) + [(1, n)]
              if reach <= _poisson_top(2.0 * params.lam * hi * t)]
    whole = functools.cache(lambda: _uniformized_kernel(params))
    if ranges and reach * reach > 100.0 * params.lam * n * t:
        # more than 7 sd out: the reach bound may put the window mass below the threshold
        if _log_reach_bound(whole(), m0, t, states) < math.log(_LOG_SPACE_THRESHOLD) - 1.0:
            ranges = []
    for lo, hi in ranges:
        kern = whole() if hi - lo + 1 == n else _uniformized_kernel(params, lo, hi)
        found = _window_chain(kern, m0, t, states, tol, log_space=False)
        if found is not None and found[1] <= _SINK_SHARE * 0.5 * tol * found[0]:
            return found[0], False
    return _window_chain(whole(), m0, t, states, tol, log_space=True), True


def _log_reach_bound(kern: _UniformizedKernel, m0: int, t: float, states: np.ndarray) -> float:
    """ln of an upper bound on the window mass from m0 on the chain 1..N:
    the least over R of h(m0) e^(mu (rho - 1)), the reach bound of
    _reach_weights summed over every Poisson order."""
    depth, rho_m1 = _reach_weights(kern, int(states[0]) - 1, int(states[-1]))
    zone = 0 if m0 < states[0] else 2 if m0 > states[-1] else 1  # below, in or above the hull
    return float(np.min(kern.rate * t * rho_m1[:, zone] - depth[:, m0 - 1]))


def _kept_range(params: ModelParams, m0: int, t: float, states: np.ndarray,
                tol: float) -> tuple[int, int] | None:
    """The states lo..hi of a truncated window query, sinks at a - 1 and
    b + 1 included, or None where the range saves little.  [a, b] is
    [min(m0, window), max(m0, window)] padded on each side by
    pad = _S + L + sqrt(2 L mu), L = ln(1 / (_SINK_SHARE * tol/2)), with
    mu = 2 lam (b + pad) t the Poisson mean at the range's top rate (van
    Moorsel & Sanders, "Adaptive uniformization", Stochastic Models 1994),
    solved for pad in closed form.  The chain reads about mu + sqrt(2 mu L)
    orders; after k of them, each a move of at most one state, and up and
    down equally likely inside 2..N-1, the mass that moved more than
    sqrt(2 k L) one way is at most e^-L (Azuma-Hoeffding), and
    sqrt(2 L (mu + sqrt(2 mu L))) <= sqrt(2 L mu) + L.  The rule is a guess,
    which the sink bound checks.  The range saves little where its state
    orders, (hi - lo + 1) * hi, exceed _KEEP_SHARE of the chain's N*N."""
    n = params.n_states
    a, b = min(m0, int(states[0])), max(m0, int(states[-1]))
    log_rel = -math.log(_SINK_SHARE * 0.5 * tol)
    v = 4.0 * log_rel * params.lam * t  # sqrt(2 L mu) = sqrt(v (b + pad))
    pad = math.ceil(0.5 * (v + math.sqrt(v * v + 4.0 * v * (b + log_rel + _S))) + log_rel) + _S
    lo, hi = max(1, a - pad - 1), min(n, b + pad + 1)
    return (lo, hi) if (hi - lo + 1) * hi <= _KEEP_SHARE * n * n else None


def window_probability(params: ModelParams, m0: int, t: float, window, tol: float = 1e-12) -> float:
    """P(X(t) in window | X(0) = m0), its Poisson truncation certified to
    tol/2 of the window mass.  A mass below _LOG_SPACE_THRESHOLD is
    exp(window_log_probability): with fewer digits below e^-708.4, 0.0 if
    exact (t = 0, m0 outside the window), and ValueError if it underflows."""
    value, in_log_space = _certified_window(params, m0, t, window, tol)
    if not in_log_space:
        return value
    prob = math.exp(value)
    if prob == 0.0 and value > -math.inf:
        raise ValueError(
            f"window probability exp({value}) underflows to zero in double precision; "
            "use window_log_probability")
    return prob


def window_log_probability(params: ModelParams, m0: int, t: float, window, tol: float = 1e-12) -> float:
    """ln P(X(t) in window | X(0) = m0); switches to a log-space product chain
    when the linear-space mass underflows.  Either way the Poisson truncation
    is certified to tol/2 of the window mass."""
    value, in_log_space = _certified_window(params, m0, t, window, tol)
    return value if in_log_space else math.log(value)


def _window_setup(kern: _UniformizedKernel, m0: int, states: np.ndarray, log_space: bool):
    """(lo, hi, c, powers): c[r] = K^r 1_W, r < _S, on the states lo..hi-1
    within _S - 1 of the window, outside which it is 0, and the powers of
    _block_powers from m0; in log space both are logarithms."""
    lo, hi = max(0, int(states[0]) - _S), min(kern.stay.size, int(states[-1]) + _S - 1)
    stay, up, down = kern.stay[lo:hi], kern.up[lo:hi], kern.down[lo:hi]
    c, start = np.zeros((_S, hi - lo)), np.zeros(kern.stay.size)
    c[0, states - 1 - lo] = start[m0 - 1] = 1.0
    for r in range(1, _S):  # (K v)[m] = stay[m] v[m] + down[m] v[m-1] + up[m] v[m+1]
        c[r] = c[r - 1] * stay
        c[r, 1:] += c[r - 1, :-1] * down[1:]
        c[r, :-1] += c[r - 1, 1:] * up[:-1]
    if log_space:
        with np.errstate(divide="ignore"):
            c, start = np.log(c), np.log(start)
    return lo, hi, c, _block_powers(kern, start, log_space)


def _window_chain(kern: _UniformizedKernel, m0: int, t: float, states: np.ndarray, tol: float,
                  log_space: bool) -> tuple[float, float] | float | None:
    """The window mass after time t from m0 (states numbered as in the
    chain, kern's from kern.first), its Poisson truncation certified to tol/2
    of itself (mu = Lam*t).

    In linear arithmetic the sum stops at the first order k where the
    weight of all later orders is at most tol/2 of the window mass so far:
    once k + 2 > mu the pmf falls at least by mu/(k+2) per order, so that
    weight is at most pmf(k+1) / (1 - mu/(k+2)) (after Fox & Glynn,
    "Computing Poisson probabilities", CACM 1988).  It is (P, sink bound),
    or None where the mass at K is below _LOG_SPACE_THRESHOLD, as for any
    window more than K states from m0.  The weights are those of _poisson_terms, whose orders 0..K are read
    in groups of powers, then pmf(k-1) * mu/k order by order; the sum is
    divided by the same sum over the total masses (as a law is normalised).
    The sink bound is the mass of the last power y_j it read, the one holding
    the last order summed, within _S - 1 states of each sink, sink included
    (0 with no sink): an order moves mass at most one state and sinks only
    gain it, so it bounds what the sinks hold at every order summed.

    In log arithmetic it is ln P, and nothing in it underflows (_log_chain):
    the stop rule bounds the later window masses by how far the mass lies
    from the window, and states that cannot matter are dropped into an
    error account of at most _SINK_SHARE of tol/2 of P, the guess of
    _log_mass_guess setting the budget; where the account comes out larger
    the pass reruns with no drops.  The caller has checked m0, t and tol."""
    m0, states = m0 - kern.first + 1, states - (kern.first - 1)
    mu = kern.rate * t
    if not log_space:
        weights = _poisson_terms(mu, tol)
        k = weights.size - 1
        if int(np.abs(states - m0).min()) > k:
            return None
        near_lo, near_hi, columns, powers = _window_setup(kern, m0, states, False)
        n, width = kern.stay.size, near_hi - near_lo
        group = max(1, min(64, 4096 // width, 32768 // n))  # temporaries of at most 256 KiB
        last = None  # the last power read: the one holding the last order summed

        def masses(count: int) -> np.ndarray:
            # (window mass, total mass of its power) per order of the next count <= group
            # powers, rows reduced alike: a window holding the chain (K^r 1 = 1) has mass = total
            nonlocal last
            y, out = np.empty((count, n)), np.empty((count, _S, 2))
            for j, (_, _, row) in zip(range(count), powers):
                y[j] = row
            np.add.reduce(y[:, None, near_lo:near_hi] * columns, axis=2, out=out[:, :, 0])
            out[:, :, 1] = np.add.reduce(y, axis=1)[:, None]
            last = y[-1]
            return out.reshape(-1, 2)
        blocks = k // _S + 1
        head = np.concatenate([masses(min(group, blocks - j)) for j in range(0, blocks, group)])
        acc, used = (weights[:, None] * head[:k + 1]).sum(axis=0).tolist()
        if acc / used < _LOG_SPACE_THRESHOLD:
            return None
        w = float(weights[-1])
        later = itertools.chain(head[k + 1:], (row for _ in itertools.count() for row in masses(1)))
        while not (k + 2 > mu and w * mu / (k + 1) / (1.0 - mu / (k + 2)) <= 0.5 * tol * acc):
            k += 1
            w *= mu / k
            mass, total = next(later)
            acc += w * mass
            used += w * total
        return acc / used, sum(float(last[max(0, s - _S + 1):s + _S].sum()) for s in kern.sinks)
    if mu == 0.0:
        return 0.0 if m0 in states else -math.inf
    log_share = math.log(_SINK_SHARE * 0.5 * tol)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # logs of 0 are -inf
        log_p, account = _log_chain(kern, m0, mu, states, tol,
                                    log_share + _log_mass_guess(kern, m0, t, states))
        if account > log_share + log_p:  # the guess was too high: no drops
            log_p, _ = _log_chain(kern, m0, mu, states, tol, -math.inf)
    return log_p


def _log_mass_guess(kern: _UniformizedKernel, m0: int, t: float, states: np.ndarray) -> float:
    """A guess at a lower bound on the window's ln P from m0 on the chain
    1..N: -N S(m0/N, w/N) - ln(N)/2 - 10, w the window state nearest m0 and
    S the action of optimal_paths.optimal_action.  On the 130 deep windows
    of the benchmark pool ln P lies 2.5 to 4.9 below -N S."""
    n, w = kern.stay.size, int(states[np.abs(states - m0).argmin()])
    return -n * optimal_action(m0 / n, w / n, t, kern.rate / (2.0 * n)) - 0.5 * math.log(n) - 10.0


def _reach_weights(kern: _UniformizedKernel, w0: int, w1: int) -> tuple[np.ndarray, np.ndarray]:
    """(depth, rho - 1): for each R in _REACH_R, -ln h(x) per state and the
    growth factor rho per zone (below, in, above the hull w0..w1-1 of
    entries), where h = 1 on the hull and E[h(X')] <= rho h(x) for every
    state x outside it: then h(X_i) / rho^i stops as a supermartingale at
    the hull, and the chain from x reaches it within i steps with
    probability at most rho^i h(x).  Away from the hull, with p and q the
    probabilities of a step toward it and away, h(toward) / h(x) = e^beta
    solves p e^beta + q e^-beta = p + q + R - 1, so beta grows where steps
    are rare; rho is the largest E[h(X')] / h(x) on the side, about R.
    R = 1 gives h = 1, the bound of a window mass by the total mass.  Every
    state outside the hull moves toward it (the chain on 1..N)."""
    r = _REACH_R[:, None]
    depth = np.zeros((r.size, kern.stay.size))
    rho_m1 = np.zeros((r.size, 3))
    for zone, toward, away, out in ((0, kern.up[:w0][::-1], kern.down[:w0][::-1], np.s_[:w0]),
                                    (2, kern.down[w1:], kern.up[w1:], np.s_[w1:])):
        if toward.size:  # the states ordered outward from the hull
            c = toward + away + (r - 1.0)
            # c^2 - 4 p q, as a sum of terms >= 0
            root = np.sqrt((r - 1.0) * (r - 1.0 + 2.0 * (toward + away)) + (toward - away) ** 2)
            ratio = (c + root) / (2.0 * toward)  # h(toward) / h(x)
            back = np.concatenate([1.0 / ratio[:, 1:], np.ones((r.size, 1))], axis=1)
            rho_m1[:, zone] = (toward * (ratio - 1.0) + away * (back - 1.0)).max(axis=1)
            depth[:, out] = np.cumsum(np.log(ratio), axis=1)[:, ::1 if zone else -1]
    return depth, rho_m1


def _log_chain(kern: _UniformizedKernel, m0: int, mu: float, states: np.ndarray, tol: float,
               log_budget: float) -> tuple[float, float]:
    """One pass of the log window chain: (ln P, ln of the drop account).

    The reach bound: by _reach_weights, mass y at a state x adds at most
    y h(x) rho^i to the window mass i orders on, and so over the orders
    k, k+1, ... from the power at order k_j <= k at most y h(x) times
    rho^(k - k_j) sum_i pmf(k+i) rho^i, which is at most
    rho^(-k_j) e^(mu (rho - 1)), and pmf(k) / (1 - mu rho/(k+1)) once
    k+1 > mu rho; the least over R in _REACH_R is taken per zone (below,
    in, above the window's hull) for a sum and per state for a drop.

    The powers are read in groups of up to _MAX_GROUP blocks, run to just
    past the window's distance from m0 while it lies ahead, a group's
    window masses by one log-sum-exp and the running ln P by
    np.logaddexp.accumulate.  At a group's end the states at each edge of
    the last power whose bounds fit half a share of the budget left
    (log_budget less the account) are dropped, sent to _block_powers, and
    the share charged once to the account (Munsky & Khammash 2006): the chain
    then counts fewer paths, and P lies between its sum and the sum plus
    the account plus the stop bound.  The sum stops at the first group end
    where the reach bound of the kept states on the orders still to come,
    plus the account, is at most tol/2 of the running sum (after Fox &
    Glynn 1988; at R = 1 it is the Poisson tail times the kept mass).  The
    same bound at the ends of the next _MAX_GROUP blocks sizes the next
    group, and the sum stops at the end of it where it holds.  The account
    takes at most _SINK_SHARE of that tol/2, and where it already exceeds
    that share of all the sum can reach the pass charges every state and
    ends; the caller reruns with no budget where the account is past that
    share of the sum."""
    n = kern.stay.size
    near_lo, near_hi, columns, powers = _window_setup(kern, m0, states, True)
    w0, w1 = int(states[0]) - 1, int(states[-1])  # the hull's entries w0..w1-1
    ahead = _S * np.arange(_MAX_GROUP + 1)  # the block ends a reach bound looks at
    depth, rho_m1 = _reach_weights(kern, w0, w1)
    log_rho = np.log1p(rho_m1)[:, :, None]
    mu_rho, grow = mu * (1.0 + rho_m1)[:, :, None], (_S + ahead) * log_rho
    log_mu, log_rel = math.log(mu), math.log(0.5 * tol)
    k_cap = int(mu + 10.0 * math.sqrt(mu + 1.0)) + 6 * n + 1000
    # start: ln pmf(0), then ln pmf(k0 - 1); the orders below the window's
    # distance from m0 have no window mass, and the groups run to just past it
    acc, start, k0, reach = -math.inf, -mu, 0, int(np.abs(states - m0).min())
    count = min(_MAX_GROUP, reach // _S + 1)
    account, cut, certified = -math.inf, None, math.inf
    while k0 <= k_cap:
        # the orders k0..k1-1 of the next count blocks, summed by one log-sum-exp
        y = np.empty((count, 1, near_hi - near_lo))
        for j in range(count):
            lo, hi, row = powers.send(cut)
            cut = None
            y[j, 0] = row[near_lo:near_hi]
        k1 = k0 + count * _S
        k = np.arange(k0, k1)
        steps = log_mu - np.log(k[k > 0])  # ln pmf(k) - ln pmf(k-1)
        log_pmf = np.add.accumulate(np.concatenate(([start], steps)))[-k.size:]
        terms = y + columns + log_pmf.reshape(count, _S, 1)
        peak = terms.max()
        if peak > -np.inf:  # else no order of the group has window mass
            acc = float(np.logaddexp(acc, math.log(np.exp(terms - peak).sum()) + peak))
        start, k0 = float(log_pmf[-1]), k1
        if k1 >= certified:
            return acc, account
        # the reach bound of the last power, at order k1 - _S, over the orders from k1 + s:
        # log_t per R, zone and s, and z = ln y - depth per R and state
        orders = k1 + ahead
        ratio = mu_rho / (orders + 1)
        lpmf = start + np.add.accumulate(log_mu - np.log(np.arange(k1, orders[-1] + 1)))[ahead]
        log_t = np.fmin(np.where(ratio < 1.0, grow + lpmf - np.log1p(-ratio), np.inf),
                        mu_rho - mu - (k1 - _S) * log_rho)
        z = row[lo:hi] - depth[:, lo:hi]
        cuts = np.array([0, min(max(w0 - lo, 0), hi - lo), min(max(w1 - lo, 0), hi - lo), hi - lo])
        if account < log_budget:
            # drop at each edge the states whose bounds sum to at most half the share, a
            # quarter of the budget left, and charge the share once (exp rounds far below it)
            share = log_budget + math.log1p(-math.exp(account - log_budget)) - math.log(4.0)
            each = np.exp((z + np.repeat(log_t[:, :, 0], np.diff(cuts), axis=1)).min(axis=0) - share)
            c_top = min(int(np.searchsorted(np.cumsum(each[::-1]), 0.5, side="right")), hi - lo - 1)
            c_bot = min(int(np.searchsorted(np.cumsum(each), 0.5, side="right")), hi - lo - 1 - c_top)
            if c_top or c_bot:  # one state stays
                account = float(np.logaddexp(account, share))
                z, lo, hi = z[:, c_bot:hi - lo - c_top], lo + c_bot, hi - c_top
                cut = lo, hi
                cuts = np.clip(cuts - c_bot, 0, hi - lo)
        live = np.flatnonzero(cuts[:-1] < cuts[1:])
        peak = np.maximum.reduceat(z, cuts[live], axis=1)
        peak[peak == -np.inf] = 0.0  # a zone with no mass: its sum is 0
        shifted = np.exp(z - np.repeat(peak, np.diff(cuts)[live], axis=1))
        zone_sums = np.log(np.add.reduceat(shifted, cuts[live], axis=1)) + peak
        bound = np.logaddexp.reduce((zone_sums[:, :, None] + log_t[:, live]).min(axis=0), axis=0)
        # tol/2 of the running sum, less the account or _SINK_SHARE of it if that is less
        allowed = log_rel + acc + np.log1p(-min(np.exp(account - log_rel - acc), _SINK_SHARE))
        within = np.flatnonzero(bound <= allowed)
        if within.size and within[0] == 0:
            return acc, account
        if account > log_rel + math.log(_SINK_SHARE) + np.logaddexp(acc, bound[0]):
            # past _SINK_SHARE of tol/2 of all the sum can reach: drop every state and end
            return acc, float(np.logaddexp(account, bound[0]))
        count = min(2 * count, _MAX_GROUP) if k1 > reach else min((reach - k1) // _S + 1, _MAX_GROUP)
        if within.size:
            count = min(count, int(within[0]))
            certified = k1 + count * _S if count == within[0] else math.inf
    raise ArithmeticError(f"the window chain did not converge within {k_cap} Poisson orders")


def lattice_window(n: int, center: float, half_width: float) -> tuple[int, int]:
    """The states round((center - h)N)..round((center + h)N) within 1..N, empty
    when lo > hi; each end is clamped to [0, N + 1] before it is rounded, so a
    window wider than the chain is the whole chain, however wide."""
    ends = (center - half_width, center + half_width)
    lo, hi = (round(min(max(x * n, 0.0), n + 1.0)) for x in ends)
    return max(1, lo), min(n, hi)


class RatePoint(NamedTuple):
    n: int
    rate: float        # a_N = -(1/N) ln P(window)
    window_prob: float


def empirical_rate_curve(params_list: Sequence[ModelParams], gamma0: float, gammaT: float,
                         T: float, half_width: float, tol: float = 1e-12) -> list[RatePoint]:
    """Finite-N decay rates a_N = -(1/N) ln P(X(T)/N near gammaT | X(0)/N = gamma0).

    The window is lattice_window(N, gammaT, h).  The returned curve is what gets compared against the optimal action.
    """
    if not (0.0 < gamma0 < 1.0 and 0.0 < gammaT < 1.0):
        raise ValueError("gamma0 and gammaT must lie in (0, 1)")
    if not (0.0 < half_width < math.inf and 0.0 < T < math.inf):
        raise ValueError("half_width and T must be positive and finite")
    points = []
    for params in params_list:
        n = params.n_states
        m0 = round(gamma0 * n)
        lo, hi = lattice_window(n, gammaT, half_width)
        if lo > hi:
            raise ValueError(f"empty window at N={n}")
        logp = window_log_probability(params, m0, T, range(lo, hi + 1), tol)
        points.append(RatePoint(n, -logp / n, math.exp(logp)))
    return points


def stationary_dwell_probability(params: ModelParams, u: float, times: Sequence[float],
                                 tol: float = 1e-12) -> float:
    """P(X(t_i)/N < u for every sample time t_i), starting from stationarity.

    Exact via masked forward evolution: X(t_1) is stationary, so mask pi at
    t_1; then evolve to the next sample time, zero out the states at or above
    the threshold, repeat.  The surviving mass is the joint probability.
    """
    times = sorted(float(t) for t in times)
    if not times:
        raise ValueError("times must be non-empty")
    if not all(map(math.isfinite, times)):
        raise ValueError(f"times must be finite, got {times}")
    if times[0] < 0.0:
        raise ValueError("times must be >= 0")
    if not 0.0 < u <= 1.0:
        raise ValueError(f"threshold u must lie in (0, 1], got {u}")
    check_tol(tol)
    n = params.n_states
    allowed = np.array([(m / n) < u for m in range(1, n + 1)])
    p = stationary_distribution(params).mass.copy()
    kern = _uniformized_kernel(params)  # with its band, for every interval
    prev = times[0]
    for t in times:
        total = float(p.sum())
        if total == 0.0:
            return 0.0
        if t > prev:
            acc = _poisson_mixture(p / total, kern, t - prev, tol)
            p = acc / acc.sum() * total
        p = np.where(allowed, p, 0.0)
        prev = t
    return float(p.sum())
