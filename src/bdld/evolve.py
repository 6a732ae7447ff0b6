"""Exact finite-N transition probabilities by uniformization.

The generator Q is tridiagonal, with the rates of chain.jump_rates off the
diagonal, so the law of X(t) is a Poisson mixture of powers of the
uniformized kernel K = I + Q/Lam, Lam = 2*lam*N.  Each kernel-vector product
costs O(N) and the Poisson truncation is certified: this is the brute-force
oracle every Monte Carlo estimate and large-deviation rate is checked against.

Powers are taken _S = 8 orders per numpy pass through the band of K^8
(_block_powers), built by squaring K -> K^2 -> K^4 -> K^8 (_block_gather):
every entry is a sum of products >= 0, within a few ulps of the band built
order by order.  Results differ from an order-by-order sum below 1e-13
relative.  The Poisson weights are built from the mode outward by the pmf
ratios, as products of mantissas and sums of binary exponents, so that none
underflows (_poisson_scaled), and a law's are cut at a certified tail bound
(_poisson_terms).  A law is the bulk mixture of _poisson_mixture.

A window query never builds a law.  One window chain (_window_chain) sums the
window masses y_j * (K^r 1_W) in one arithmetic: each power holds float64
mantissas under one binary exponent per tile of _TILE states.  Where no
value that matters can flush below 2^-1022 of one shared exponent, every
tile keeps it and a step is one np.einsum (untiled); otherwise each tile
steps at its own exponent and brings its halos there by products with
powers of two, so nothing is a logarithm and every rescaling is exact
(Higham, "Accuracy and Stability of Numerical Algorithms", 2002).

A query takes one of two routes, set once by its window's distance from m0
(_window_mass).  A near window, within 7 sd, runs on its kept range of
states, whose inner ends absorb, at the range's own top rate (1..N where
the range reaches both ends); its chain stops by the Poisson tail rule of
Fox & Glynn (1988), drops nothing, and stands where the mass near the sinks
is small enough, else it runs again on 1..N.  A deep window runs on 1..N: a
reach bound, a supermartingale that falls fastest where steps toward the
window are rarest (_reach_weights), bounds what the mass at each state can
still add to the window.  It stops the sum, and it drops edge states into a
charged error account (Munsky & Khammash 2006) sized by a guess at ln P,
which also takes what a tile may flush.  Against mpmath the chain is within
4e-14 of ln P at N = 400, 1600 (window 0.5 -> 0.8 +- 0.02, T = 1) and at a
query of ln P = -1724.  The README gives the measured cost of a query.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .chain import ModelParams, ProbabilityVector, _check_state, _dwell_times, stationary_distribution
from .optimal_paths import AdmissibilityError, optimal_action

__all__ = [
    "endpoint_distribution",
    "evolve_distribution",
    "window_probability",
    "window_log_probability",
    "empirical_rate_curve",
    "RatePoint",
    "stationary_dwell_probability",
]

# Poisson orders per numpy pass: both sums step by the band of K^_S.
_S = 8  # a power of two: _block_gather squares K up to K^_S
# States per tile: a window chain's powers hold one binary exponent per tile.
_TILE = 64
# A window chain starts from mass 2^_HEAD, and a tile stepped at its own
# exponent puts the largest value of it and its neighbours at 2^_HEAD: a
# value keeps full precision down to 2^-(_HEAD + 1022) of that.
_HEAD = 1000
# One step may flush at most 2^_FLUSH_LOG2 of 2^(exponent) in one tile: 64
# states, each below 60 * 2^-1075 off (its 17 products and 17 inputs).
_FLUSH_LOG2 = -1060
# The exponent of a tile without mass: below every other.
_NO_MASS = -(1 << 30)
# A state of a window chain's power below this mantissa may have flushed.
_TINY = 2.0 ** -1021
# The window chain reads its powers in groups of at most this many blocks.
_MAX_GROUP = 32
# The states the window chain drops and what its tiles flush may take at
# most this share of tol/2 of the answer.
_DROP_SHARE = 0.01
# The growth factors R over which the reach bound is least (_reach_weights):
# 1, and 1 + 0.005 ... 1 + 3.5 in geometric steps.
_REACH_R = np.r_[1.0, 1.0 + np.geomspace(5e-3, 3.5, 8)]
# The largest Poisson mean Lam*t a sum takes: at N = 10 and mu = 9.9e6 a
# window query takes 11 s and peaks at 460 MB (2-core machine).
_MU_MAX = 1e7
_LN2 = math.log(2.0)


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
        _block_gather (K squared three times), then rows of zeros to a whole
        number of tiles.  Built once, when a chain first steps past its
        start, and shared by every chain that steps with this kernel: 72 us
        at 430 states, 218 us at 1800 (timeit, 2-core machine)."""
        n = self.stay.size
        band = np.zeros((-(-n // _TILE) * _TILE, 2 * _S + 1))
        band[:n] = _block_gather(self).T
        return band


def _uniformized_kernel(params: ModelParams, lo: int = 1, hi: int | None = None,
                        sinks: Sequence[int] | None = None) -> _UniformizedKernel:
    """The kernel on the states lo..hi (default 1..N) at the rate
    Lam = 2*lam*hi, the rates of chain.jump_rates; the states sinks, by
    default the ends strictly inside 1..N, absorb (up = down = 0,
    stay = 1)."""
    n, lam = params.n_states, params.lam
    hi = n if hi is None else hi
    if sinks is None:
        sinks = [end for end in (lo, hi) if 1 < end < n]
    down = lam * np.arange(lo, hi + 1, dtype=float)
    up = down.copy()
    if hi == n:  # no step up from N
        up[-1] = 0.0
    if lo == 1:  # nor down from 1
        down[0] = 0.0
    sinks = tuple(m - lo for m in sinks)
    for i in sinks:
        up[i] = down[i] = 0.0
    lam_unif = 2.0 * lam * hi
    return _UniformizedKernel(up / lam_unif, down / lam_unif,
                              1.0 - (up + down) / lam_unif, lam_unif, lo, sinks)


def _kernel_apply(p: np.ndarray, kern: _UniformizedKernel) -> np.ndarray:
    """One step of the distribution under the uniformized kernel (p <- p K)."""
    q = p * kern.stay
    q[1:] += p[:-1] * kern.up[:-1]
    q[:-1] += p[1:] * kern.down[1:]
    return q


def _block_gather(kern: _UniformizedKernel) -> np.ndarray:
    """The band of B = K^_S in gather form: G[i, m] = B[m+i-_S, m], zero
    where row m+i-_S lies outside the chain, so that (y B)[m] is the sum over
    i of y[m+i-_S] G[i, m].  Built by squaring, K -> K^2 -> ... -> K^_S: in
    this form the band of A A, A of half-width b, reads
    (A A)[m+i-2b, m] = sum_j G[i-j, m+j-b] G[j, m], one np.einsum over a
    read-only strided view of G between 2b rows and b columns of zeros on
    each side.  Every term is a product of entries >= 0, so each entry keeps
    a relative error bound and no sum cancels (Higham 2002, ch. 3); a zero
    of the band, at the chain's ends and around a sink, stays exactly 0, and
    a sink's row stays e_s."""
    n = kern.stay.size
    g = np.zeros((3, n))
    g[0, 1:], g[1], g[2, :-1] = kern.up[:-1], kern.stay, kern.down[1:]
    b = 1
    while b < _S:
        pad = np.zeros((6 * b + 1, n + 2 * b))
        pad[2 * b:4 * b + 1, b:b + n] = g
        s0, s1 = pad.strides  # view[i, j, m] = pad[2b + i - j, m + j]
        view = as_strided(pad[2 * b:], (4 * b + 1, 2 * b + 1, n), (s0, s1 - s0, s1), writeable=False)
        g = np.einsum("ijm,jm->im", view, g)
        b *= 2
    return g


def _poisson_weights(mu: float, last: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(w, ratios, mode): the Poisson(mu) pmf at the orders 0..last, built
    from the mode outward by the pmf ratios (after Fox & Glynn, "Computing
    Poisson probabilities", CACM 1988) and normalised by its sum over the
    orders up to _poisson_top(mu) + 1, and those ratios."""
    mode = min(int(mu), last)
    ratios = np.empty(last + 1)
    ratios[:mode] = np.arange(1, mode + 1) / mu  # pmf(k) / pmf(k+1)
    ratios[mode] = 1.0
    ratios[mode + 1:] = mu / np.arange(mode + 1, last + 1)  # pmf(k) / pmf(k-1)
    w = np.empty(last + 1)
    w[mode::-1] = np.cumprod(ratios[mode::-1])
    w[mode + 1:] = np.cumprod(ratios[mode + 1:])
    w /= w[:min(last, _poisson_top(mu) + 1) + 1].sum()
    return w, ratios, mode


def _poisson_scaled(mu: float, last: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, f, a): the weights of _poisson_weights, and the same as
    pmf(k) = f[k] 2^a[k].  Where w falls below 2^-1000 the products go on
    in mantissas, renormalised every 1000 orders, and sums of binary
    exponents (np.frexp), so that no weight of (f, a) underflows."""
    w, ratios, mode = _poisson_weights(mu, last)
    f, a = np.frexp(w)
    for side in (np.s_[mode::-1], np.s_[mode + 1:]):
        done = int(np.argmax(w[side] < 2.0 ** -1000)) if w[side][-1:] < 2.0 ** -1000 else 0
        if not done:  # no weight of the side falls that low, or the first one does
            continue
        # 1000 mantissas of at least 1/2 each keep their product normal
        fs, es = np.frexp(ratios[side][done:])
        out_f, out_a = f[side][done:], a[side][done:]
        carry_f, carry_a = float(f[side][done - 1]), int(a[side][done - 1])
        for s in range(0, fs.size, 1000):
            out_f[s:s + 1000], e = np.frexp(np.cumprod(np.concatenate(([carry_f], fs[s:s + 1000])))[1:])
            out_a[s:s + 1000] = e + np.cumsum(es[s:s + 1000]) + carry_a
            carry_f, carry_a = float(out_f[s:s + 1000][-1]), int(out_a[s:s + 1000][-1])
    return w, f, a


def _poisson_terms(mu: float, tol: float) -> np.ndarray:
    """The Poisson(mu) pmf at the orders 0..K of _poisson_weights; K is
    _poisson_cutoff's.  For any tol check_tol admits, the orders built reach
    far past it."""
    w = _poisson_weights(mu, _poisson_top(mu) + 1)[0]
    return w[:_poisson_cutoff(w, mu, tol) + 1]


def _poisson_cutoff(w: np.ndarray, mu: float, tol: float) -> int:
    """K: the first order past mu - 2 whose tail bound w[K+1] / (1 - mu/(K+2))
    is at most tol/2, w the Poisson(mu) pmf from order 0."""
    first = max(int(mu) - 1, 0)  # the first k with k + 2 > mu
    k = np.arange(first, w.size - 1)
    return first + int((w[first + 1:] <= 0.5 * tol * (1.0 - mu / (k + 2))).argmax())


def _poisson_top(mu: float) -> int:
    """The last order _poisson_terms builds, so at least its cutoff K.  Every
    sum over Poisson orders asks it first, so a mean above _MU_MAX is
    refused here, before any weight is built."""
    if not mu <= _MU_MAX:
        raise ValueError(f"the Poisson mean mu = Lam*t = {mu!r} exceeds {_MU_MAX:g}, the "
                         "largest the exact oracle sums over; use Monte Carlo")
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
    """Forward-evolve an initial distribution by time t: a ProbabilityVector,
    or an array checked as one."""
    _check_time_tol(t, tol)
    if not isinstance(dist, ProbabilityVector):  # a copy: the caller's array stays writable
        dist = ProbabilityVector(np.array(dist, dtype=float))
    p = dist.mass
    if p.size != params.n_states:
        raise ValueError("distribution dimension does not match n_states")
    acc = _poisson_mixture(p, _uniformized_kernel(params), t, tol)
    return ProbabilityVector(acc / acc.sum())


def _block_powers(kern: _UniformizedKernel, p: np.ndarray, flushed: np.ndarray | None = None):
    """Yield (lo, hi, y_j, e_j): p K^(j*_S) is y_j 2^e_j, j = 0, 1, ..., with
    y_j float64 mantissas, 0 outside the states lo..hi-1 it can reach, and
    e_j[t] the binary exponent of the tile of states t*_TILE..(t+1)*_TILE-1.
    A step sums, per state, a sliding view of the last power (between empty
    tiles) times kern.band, the band of K^_S stored state by state, by one
    np.einsum, and every exponent stays 0: plain linear arithmetic.  Given
    flushed, one entry per tile, the steps are _tiled_stepper's, which
    raise flushed[t] to the largest exponent at which tile t may have
    flushed.  The band is asked for once a second power is; a yielded row
    is overwritten two steps on.

    A consumer may send (a, b), lo <= a < b <= hi, as simulate._blocks takes
    its counts: the last power's states outside a..b-1 are emptied, and the
    next step runs from a..b-1 (next() sends nothing)."""
    n, tiles = p.size, -(-p.size // _TILE)
    support = np.flatnonzero(p)
    lo, hi = (int(support[0]), int(support[-1]) + 1) if support.size else (0, 0)
    ring = np.zeros((2, (tiles + 2) * _TILE))  # y_j at row j mod 2, state m at _TILE + m
    ring[0, _TILE:_TILE + n] = p
    # tile t at t + 1; tiled, an empty tile's exponent is _NO_MASS
    exps = np.zeros((2, tiles + 2), dtype=np.int64)
    tiled = flushed is not None
    if tiled:
        exps[:] = _NO_MASS
        exps[0, ring[0].reshape(-1, _TILE).max(axis=1) > 0.0] = 0
    rows, tile_exps = ring[:, _TILE:_TILE + n], exps[:, 1:-1]
    rows, tile_exps = (rows[0], rows[1]), (tile_exps[0], tile_exps[1])
    keep = yield lo, hi, rows[0], tile_exps[0]
    g = kern.band
    if tiled:
        step = _tiled_stepper(ring, exps, g, flushed)
    else:
        views = sliding_window_view(ring[:, _TILE - _S:_TILE + n + _S], n, axis=1)
        views, whole = (views[0], views[1]), g[:n]
    for j in itertools.count(1):
        r = j % 2
        row = rows[r]
        if keep is not None:
            # empty the last power outside a..b-1, and the older power this
            # step overwrites outside what it writes
            (lo, hi), last = keep, rows[1 - r]
            last[:lo] = last[hi:] = row[:max(0, lo - _S)] = row[hi + _S:] = 0.0
            if tiled:  # the tiles now empty
                exps[:, 1:1 + lo // _TILE] = exps[:, 2 + (hi - 1) // _TILE:] = _NO_MASS
        lo, hi = max(0, lo - _S), min(n, hi + _S)
        if tiled:
            step(r, lo, hi)
        elif hi - lo == n:  # every state: the same product, with no slicing
            np.einsum("ij,ji->j", views[1 - r], whole, out=row)
        else:
            np.einsum("ij,ji->j", views[1 - r][:, lo:hi], g[lo:hi], out=row[lo:hi])
        keep = yield lo, hi, row, tile_exps[r]


def _tiled_stepper(ring: np.ndarray, exps: np.ndarray, band: np.ndarray, flushed: np.ndarray):
    """step(r, lo, hi): ring row r gets (y K^_S) on the tiles that hold the
    states lo..hi-1, y the other row, each tile at its own binary exponent
    (exps, a tile t at t + 1, an empty one's _NO_MASS).  A row holds state m
    at _TILE + m, between empty tiles.  A tile's exponent puts the largest
    value of it and its two neighbours at 2^_HEAD, but moves no input up by
    more than 2^1023; its inputs, its states and a halo of _S on each side,
    are brought there by products with powers of two, exact but for what
    falls below 2^-1074, and stepped through the band (stored state by
    state) by one np.einsum.  A tile that then holds a value of the states
    lo..hi-1 below _TINY may have flushed: flushed[t] is raised to its
    exponent."""
    tiles = exps.shape[1] - 2
    # inputs[r, t]: row r's states of tile t with its halos; around[t]: tiles t-1, t, t+1
    inputs = sliding_window_view(ring, _TILE + 2 * _S, axis=1)[:, _TILE - _S::_TILE]
    around = np.arange(tiles)[:, None] + np.arange(3)
    bands = band.reshape(tiles, _TILE, 2 * _S + 1)
    scaled = np.empty((tiles, _TILE + 2 * _S))
    shifted = sliding_window_view(scaled, 2 * _S + 1, axis=1)

    def step(r: int, lo: int, hi: int) -> None:
        a, b = lo // _TILE, -(-hi // _TILE)  # the tiles a..b-1, with a neighbour each side
        e = exps[1 - r, a:b + 2]
        top = e + np.frexp(ring[1 - r, a * _TILE:(b + 2) * _TILE].reshape(-1, _TILE).max(axis=1))[1]
        new = np.maximum(np.maximum(top[:-2], top[1:-1]), top[2:]) - _HEAD
        shift = e[around[:b - a]] - new[:, None]
        if shift.max() > 1023:  # each shift a double (what that flushes is charged)
            new = np.maximum(new, shift.max(axis=1) + new - 1023)
            shift = e[around[:b - a]] - new[:, None]
        np.multiply(inputs[1 - r, a:b], np.repeat(np.exp2(shift), (_S, _TILE, _S), axis=1),
                    out=scaled[:b - a])
        out = ring[r, (a + 1) * _TILE:(b + 1) * _TILE].reshape(b - a, _TILE)
        np.einsum("tki,tki->tk", shifted[:b - a], bands[a:b], out=out)
        exps[r, a + 1:b + 1] = new
        least = out.min(axis=1)  # of the states lo..hi-1: the others are empty
        row = ring[r, _TILE:]
        least[0] = row[lo:min(hi, (a + 1) * _TILE)].min()
        least[-1] = row[max(lo, (b - 1) * _TILE):hi].min()
        np.maximum(flushed[a:b], np.where(least < _TINY, new, _NO_MASS), out=flushed[a:b])
    return step


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
    for w_j, (lo, hi, y, _) in zip(w.reshape(blocks, _S)[:, :rows, None], _block_powers(kern, p)):
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
    """A window's distinct states in increasing order: a step-1 range within
    1..N as it is, any other window checked state by state, so that the
    first bad state words the error."""
    if (isinstance(window, range) and window.step == 1
            and 1 <= window.start < window.stop <= params.n_states + 1):
        return np.arange(window.start, window.stop)
    states = list(window)
    if not states:
        raise ValueError("window must be a non-empty set of states")
    for m in states:
        _check_state(params, m, "window state")
    return np.unique(np.array(states, dtype=int))


def _window_mass(params: ModelParams, m0: int, t: float, window, tol: float) -> tuple[float, float]:
    """(P, ln P), P the window mass of _window_chain, certified to tol/2 of
    itself and _DROP_SHARE of that more: P is 0.0 where it underflows a
    double, and ln P is then that of the scaled value.

    The route is set here, once.  A window more than 7 sd (sqrt(50 mu)
    states, mu = 2 lam N t) from m0 is deep and runs on 1..N.  A near one
    runs on the kept range of _kept_range, whose inner ends absorb.  Its
    window mass P_r counts the paths that never reach a sink, so
    P_r <= P <= P_r + A + tail, with A the mass the sinks hold at the last
    order summed and tail <= tol/2 * P_r (Munsky & Khammash, "The finite
    state projection algorithm for the solution of the chemical master
    equation", J. Chem. Phys. 2006).  Sinks only gain mass, so A is at most
    the chain's sink bound, and the answer stands where that bound is at
    most _DROP_SHARE * tol/2 * P_r; otherwise the near window runs again on
    1..N."""
    states = _normalize_window(params, window)
    _check_state(params, m0, "m0")
    _check_time_tol(t, tol)
    reach = int(np.abs(states - m0).min())
    deep = reach * reach > 100.0 * params.lam * params.n_states * t
    kept = () if deep else _kept_range(params, m0, t, states, tol)
    m, e, sinks = _window_chain(_uniformized_kernel(params, *kept), m0, t, states, tol, deep)
    if not sinks <= _DROP_SHARE * 0.5 * tol * math.ldexp(m, e):
        m, e, _ = _window_chain(_uniformized_kernel(params), m0, t, states, tol, deep)
    prob = math.ldexp(m, e)
    if prob >= 2.2250738585072014e-308:  # a normal double: its own log
        return prob, math.log(prob)
    return prob, (math.log(m) + e * _LN2) if m else -math.inf


def _kept_range(params: ModelParams, m0: int, t: float, states: np.ndarray,
                tol: float) -> tuple[int, int]:
    """The states lo..hi a near window query runs on, sinks at a - 1 and
    b + 1 included, within 1..N.  [a, b] is [min(m0, window),
    max(m0, window)] padded on each side by
    pad = _S + L + sqrt(2 L mu), L = ln(1 / (_DROP_SHARE * tol/2)), with
    mu = 2 lam (b + pad) t the Poisson mean at the range's top rate (van
    Moorsel & Sanders, "Adaptive uniformization", Stochastic Models 1994),
    solved for pad in closed form.  The chain reads about mu + sqrt(2 mu L)
    orders; after k of them, each a move of at most one state, and up and
    down equally likely inside 2..N-1, the mass that moved more than
    sqrt(2 k L) one way is at most e^-L (Azuma-Hoeffding), and
    sqrt(2 L (mu + sqrt(2 mu L))) <= sqrt(2 L mu) + L.  The rule is a guess,
    which the sink bound checks."""
    a, b = min(m0, int(states[0])), max(m0, int(states[-1]))
    log_rel = -math.log(_DROP_SHARE * 0.5 * tol)
    v = 4.0 * log_rel * params.lam * t  # sqrt(2 L mu) = sqrt(v (b + pad))
    pad = 0.5 * (v + math.sqrt(v * v + 4.0 * v * (b + log_rel + _S))) + log_rel
    pad = math.ceil(min(pad, params.n_states)) + _S  # a pad past N keeps all of 1..N
    return max(1, a - pad - 1), min(params.n_states, b + pad + 1)


def window_probability(params: ModelParams, m0: int, t: float, window, tol: float = 1e-12) -> float:
    """P(X(t) in window | X(0) = m0), its Poisson truncation certified to
    tol/2 of the window mass.  Below e^-708.4 it has fewer digits, it is 0.0
    if exact (t = 0, m0 outside the window), and ValueError if it underflows."""
    prob, log_p = _window_mass(params, m0, t, window, tol)
    if prob == 0.0 and log_p > -math.inf:
        raise ValueError(
            f"window probability exp({log_p}) underflows to zero in double precision; "
            "use window_log_probability")
    return prob


def window_log_probability(params: ModelParams, m0: int, t: float, window, tol: float = 1e-12) -> float:
    """ln P(X(t) in window | X(0) = m0), the log of window_probability where
    that is a normal double, and computed from the scaled window mass below
    it.  The Poisson truncation is certified to tol/2 of the window mass."""
    return _window_mass(params, m0, t, window, tol)[1]


def _window_setup(kern: _UniformizedKernel, states: np.ndarray):
    """(lo, hi, c): c[r] = K^r 1_W, r < _S, on the states lo..hi-1 within
    _S - 1 of the window, outside which it is 0."""
    lo, hi = max(0, int(states[0]) - _S), min(kern.stay.size, int(states[-1]) + _S - 1)
    stay, up, down = kern.stay[lo:hi], kern.up[lo:hi], kern.down[lo:hi]
    c = np.zeros((_S, hi - lo))
    c[0, states - 1 - lo] = 1.0
    for r in range(1, _S):  # (K v)[m] = stay[m] v[m] + down[m] v[m-1] + up[m] v[m+1]
        c[r] = c[r - 1] * stay
        c[r, 1:] += c[r - 1, :-1] * down[1:]
        c[r, :-1] += c[r - 1, 1:] * up[:-1]
    return lo, hi, c


def _window_chain(kern: _UniformizedKernel, m0: int, t: float, states: np.ndarray,
                  tol: float, deep: bool) -> tuple[float, int, float]:
    """(m, e, sink bound): the window mass P = m 2^e after time t from m0
    (states numbered as in the chain, kern's from kern.first) on the route
    deep sets (_chain_pass), its truncation certified to tol/2 of itself and
    what it drops and flushes to _DROP_SHARE of that more (mu = Lam*t).  One
    pass of _chain_pass, with a budget of that share of e^guess (deep, the
    guess at ln P of _log_mass_guess; near, 0: it drops nothing), answers;
    where its account comes out larger than that share of P, a pass with no
    budget, which drops nothing and steps every tile at its own exponent,
    answers instead.  The sink bound is the mass of the last power read, the
    one holding the last order summed, within _S - 1 states of each sink,
    sink included (0 with no sink): an order moves mass at most one state
    and sinks only gain it, so it bounds what the sinks hold at every order
    summed.  The caller has checked m0, t and tol."""
    m0, states = m0 - kern.first + 1, states - (kern.first - 1)
    mu = kern.rate * t
    if mu == 0.0:
        return float(m0 in states), 0, 0.0
    if states.size == kern.stay.size:  # the window holds every state: no mass leaves it
        return 1.0, 0, 0.0
    log_share = math.log(_DROP_SHARE * 0.5 * tol)
    guess = _log_mass_guess(kern, m0, t, states) if deep else 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # logs of 0 are -inf
        for budget in (log_share + guess, -math.inf):
            m, e, account, sinks = _chain_pass(kern, m0, mu, states, tol, budget, deep)
            if account <= log_share + np.log(m) + e * _LN2 or budget == -math.inf and m == 0.0:
                return m, e, sinks
    raise ArithmeticError(f"the window chain's error account e^{account} exceeds its share of P")


def _log_mass_guess(kern: _UniformizedKernel, m0: int, t: float, states: np.ndarray) -> float:
    """A guess at a lower bound on the window's ln P from m0 on the chain
    1..N: -N S(m0/N, w/N) - ln(N)/2 - 10, w the window state nearest m0 and
    S the action of optimal_paths.optimal_action.  On the 130 deep windows
    of the benchmark pool ln P lies 2.5 to 4.9 below -N S."""
    n, w = kern.stay.size, int(states[np.abs(states - m0).argmin()])
    try:
        return -n * optimal_action(m0 / n, w / n, t, kern.rate / (2.0 * n)) - 0.5 * math.log(n) - 10.0
    except AdmissibilityError:  # no path solved: no guess below P <= 1
        return 0.0


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
    state outside the hull steps toward it, p > 0: a deep window runs on
    1..N, and an exit query's sinks are its own window."""
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
            moves = toward * (ratio - 1.0) + away * (back - 1.0)
            rho_m1[:, zone] = moves.max(axis=1)
            depth[:, out] = np.cumsum(np.log(ratio), axis=1)[:, ::1 if zone else -1]
    return depth, rho_m1


def _chain_pass(kern: _UniformizedKernel, m0: int, mu: float, states: np.ndarray, tol: float,
                log_budget: float, deep: bool) -> tuple[float, int, float, float]:
    """One pass of the window chain: (m, e, ln of the error account, sink
    bound), the answer P = m 2^e, the last two in units of P.

    The powers come from _block_powers, from mass 2^_HEAD at m0.  Their
    window masses, times the weights of _poisson_scaled, are summed in
    groups of up to _MAX_GROUP blocks, the first to past the window's
    distance from m0 and the cutoff K of _poisson_cutoff.  The sum is
    divided by the same sum over the total masses, the dropped mass
    included, as a law is normalised: that cancels the rounding drift of the
    powers' mass, and as the orders past K weigh at most tol/2, it moves the
    answer by at most tol/2 of itself.

    The reach bound: by _reach_weights, mass y at a state x adds at most
    y h(x) rho^i to the window mass i orders on, and so over the orders
    k, k+1, ... from the power at order k_j <= k at most y h(x) times
    rho^(k - k_j) sum_i pmf(k+i) rho^i, which is at most
    rho^(-k_j) e^(mu (rho - 1)), and pmf(k) / (1 - mu rho/(k+1)) once
    k+1 > mu rho.  Deep, on 1..N, the least over R in _REACH_R is taken per
    zone (below, in, above the window's hull) for a sum and per state for a
    drop.  Near, R = 1 alone, h = 1, is taken, where larger R buy little:
    the bound is the Poisson tail times the mass, and nothing is dropped.

    Deep, at a group's end the states at each edge of the last power whose
    bounds fit half a share of the budget left (log_budget less the
    account) are dropped, sent to _block_powers, and the share charged once
    to the account (Munsky & Khammash 2006): the chain then counts fewer
    paths, and P lies within the account and the stop bound of its sum.  A
    pass steps untiled where every tile flushing 2^_FLUSH_LOG2 of the
    start's 2^_HEAD at every step up to the order cap fits a quarter of the
    budget, charged once; else tiled, each group end charging for each tile
    that may have flushed 2^_FLUSH_LOG2 of its largest such exponent per
    block, times the reach bound of its states from the group's start.  The
    sum stops at the first group end past K where the reach bound of the
    kept states on the orders still to come, plus the account, is at most
    tol/2 of the running sum (after Fox & Glynn 1988).  The same bound at
    the ends of the next _MAX_GROUP blocks sizes the next group, and the sum
    stops at the end of it where it holds.  The account takes at most
    _DROP_SHARE of that tol/2, and where it already exceeds that share of
    all the sum can reach the pass charges every state and ends.  The sink
    bound is that of _window_chain.  The caller ignores division by zero
    (np.errstate)."""
    top = _poisson_top(mu) + 2
    n = kern.stay.size
    tiles = -(-n // _TILE)
    near_lo, near_hi, columns = _window_setup(kern, states)
    w0, w1 = int(states[0]) - 1, int(states[-1])  # the hull's entries w0..w1-1

    def zones(lo: int, hi: int) -> np.ndarray:
        """How many of the states lo..hi-1 lie below, in and above the hull."""
        below, above = min(max(w0 - lo, 0), hi - lo), max(hi - max(w1, lo), 0)
        return np.array([below, hi - lo - below - above, above])
    ahead = _S * np.arange(_MAX_GROUP + 1)  # the block ends a reach bound looks at
    k_cap = int(mu + 10.0 * math.sqrt(mu + 1.0)) + 6 * n + 1000
    w, f, a = _poisson_scaled(mu, top + 2 * ahead[-1])  # built on as the sum reads further
    k_min = _poisson_cutoff(w[:top], mu, tol)
    reach = int(np.abs(states - m0).min())
    if deep:  # R > 1 can bound far tighter
        depth, rho_m1 = _reach_weights(kern, w0, w1)
    else:
        depth, rho_m1 = np.zeros((1, n)), np.zeros((1, 3))  # R = 1 alone: h = 1
    log_rho = np.log1p(rho_m1)[:, :, None]
    mu_rho, grow = mu * (1.0 + rho_m1)[:, :, None], (_S + ahead) * log_rho
    log_rel, head = math.log(0.5 * tol), _HEAD * _LN2
    budget = log_budget + head  # the sums run in units of the start's 2^_HEAD
    flush = math.log(tiles * (k_cap // _S + 1)) + _FLUSH_LOG2 * _LN2
    tiled = flush > budget - math.log(4.0)
    account = -math.inf if tiled else flush
    if tiled:  # per R and tile, ln of the largest h in it
        tile_starts, near_tiles = np.arange(0, n, _TILE), np.s_[near_lo // _TILE:(near_hi - 1) // _TILE + 1]
        near_tile = np.arange(near_lo, near_hi) // _TILE - near_lo // _TILE  # per state near the window
        nearest = -np.minimum.reduceat(depth, tile_starts, axis=1)
    start = np.zeros(n)
    start[m0 - 1] = 2.0 ** _HEAD
    # per tile, the largest exponent at which it may have flushed
    flushed = np.full(tiles, _NO_MASS) if tiled else None
    powers = _block_powers(kern, start, flushed)
    # the sums over pmf(k) times the window mass and times the total mass, as m 2^e
    acc, sums, sums_e, dropped = -math.inf, np.zeros(2), np.zeros(2, dtype=np.int64), 0.0
    k0 = 0
    count = min(_MAX_GROUP, max(reach, k_min) // _S + 1)
    cut, certified = None, math.inf
    while k0 <= k_cap:
        if k0 + count * _S + ahead[-1] >= f.size:
            _, f, a = _poisson_scaled(mu, 2 * f.size)
        # the next count blocks: untiled, their powers whole; tiled, the states near the
        # window at one exponent per block, and the total masses
        y = np.empty((count, n if not tiled else near_hi - near_lo))
        near_e = np.empty((count, near_tile[-1] + 1), np.int64) if tiled else None
        for j in range(count):
            lo, hi, row, row_e = powers.send(cut)
            cut = None
            if not tiled:
                y[j] = row
            else:
                y[j], near_e[j] = row[near_lo:near_hi], row_e[near_tiles]
        k1 = k0 + count * _S
        if not tiled:
            totals, y = np.add.reduce(y, axis=1), y[:, near_lo:near_hi]
        else:  # each block at its largest exponent near the window; the total mass of
            # the group's last power stands for its every order
            block_e = near_e.max(axis=1)
            y *= np.exp2(np.maximum(near_e - block_e[:, None], -1075))[:, near_tile]
            totals = np.full(count, np.ldexp(np.add.reduceat(row, tile_starts), row_e).sum())
        kept = totals[-1]
        # pmf(k) times each order's window mass, and times its total mass with the dropped
        # mass: in plain doubles at exponent 0, as fr 2^ex summed at their largest ex if tiled
        terms = np.empty((2, count, _S))
        np.multiply(f[k0:k1].reshape(count, _S), y @ columns.T, out=terms[0])
        np.multiply(f[k0:k1].reshape(count, _S), (totals + dropped)[:, None], out=terms[1])
        if not tiled:
            sums += np.ldexp(terms, a[k0:k1].reshape(count, _S)).sum(axis=(1, 2))
        else:
            fr, ex = np.frexp(terms)
            ex += a[k0:k1].reshape(count, _S)
            ex[0] += block_e[:, None]
            peak = np.maximum(ex.max(axis=(1, 2), where=fr > 0.0, initial=_NO_MASS),
                              np.where(sums > 0.0, sums_e, _NO_MASS))
            sums, shift = np.frexp(np.ldexp(sums, sums_e - peak)
                                   + np.ldexp(fr, ex - peak[:, None, None]).sum(axis=(1, 2)))
            sums_e = peak + shift
        acc = float(np.log(sums[0]) + sums_e[0] * _LN2)
        group_start, k0 = k0, k1
        if k1 >= certified:
            break
        if tiled:  # what the group's steps may have flushed, by the reach bound from its start
            tails = (mu_rho[:, :, 0] - mu - group_start * log_rho[:, :, 0]).max(axis=1)
            charges = (flushed + _FLUSH_LOG2) * _LN2 + (nearest + tails[:, None]).min(axis=0)
            account = float(np.logaddexp(account, math.log(count) + np.logaddexp.reduce(charges)))
            flushed[:] = _NO_MASS
        count = min(2 * count, _MAX_GROUP) if k1 > reach else min((reach - k1) // _S + 1, _MAX_GROUP)
        orders = k1 + ahead
        may_stop, may_drop = orders[-1] > k_min, deep and account < budget
        if not (may_stop or may_drop):
            continue
        # the reach bound of the last power, at order k1 - _S, over the orders from k1 + s:
        # log_t per R, zone and s, and z = ln y - depth per R and state
        ratio = mu_rho / (orders + 1)
        lpmf = np.log(f[orders]) + a[orders] * _LN2
        log_t = np.fmin(np.where(ratio < 1.0, grow + lpmf - np.log1p(-ratio), np.inf),
                        mu_rho - mu - (k1 - _S) * log_rho)
        if deep:
            z = np.log(row[lo:hi]) - depth[:, lo:hi]
            if tiled:
                z += np.repeat(row_e, _TILE)[lo:hi] * _LN2
        if may_drop:
            # drop at each edge the states whose bounds sum to at most half the share, a
            # quarter of the budget left, and charge the share once (exp rounds far below it)
            share = budget + math.log1p(-math.exp(account - budget)) - math.log(4.0)
            each = np.exp((z + np.repeat(log_t[:, :, 0], zones(lo, hi), axis=1)).min(axis=0) - share)
            c_top = min(int(np.searchsorted(np.cumsum(each[::-1]), 0.5, side="right")), hi - lo - 1)
            c_bot = min(int(np.searchsorted(np.cumsum(each), 0.5, side="right")), hi - lo - 1 - c_top)
            if c_top or c_bot:  # one state stays
                account = float(np.logaddexp(account, share))
                y_edge = np.exp(z[0])  # on 1..N depth is 0 at R = 1: z[0] is ln y
                lost = float(y_edge[:c_bot].sum() + y_edge[hi - lo - c_top:].sum())
                dropped, kept = dropped + lost, kept - lost
                z = z[:, c_bot:hi - lo - c_top]
                lo, hi = lo + c_bot, hi - c_top
                cut = lo, hi
        if not may_stop:
            continue
        if not deep:  # R = 1 alone: the kept mass times the Poisson tail
            bound = np.log(kept) + log_t[0, 0]
        else:
            sizes = zones(lo, hi)
            live = np.flatnonzero(sizes)
            starts = np.cumsum(sizes) - sizes
            peak_z = np.maximum.reduceat(z, starts[live], axis=1)
            peak_z[peak_z == -np.inf] = 0.0  # a zone with no mass: its sum is 0
            shifted = np.exp(z - np.repeat(peak_z, sizes[live], axis=1))
            zone_sums = np.log(np.add.reduceat(shifted, starts[live], axis=1)) + peak_z
            bound = np.logaddexp.reduce((zone_sums[:, :, None] + log_t[:, live]).min(axis=0), axis=0)
        # tol/2 of the running sum, less the account or _DROP_SHARE of it if that is less
        allowed = log_rel + acc + np.log1p(-min(np.exp(account - log_rel - acc), _DROP_SHARE))
        within = np.flatnonzero((bound <= allowed) & (orders > k_min))
        if within.size and within[0] == 0:
            break
        if account > log_rel + math.log(_DROP_SHARE) + np.logaddexp(acc, bound[0]):
            # past _DROP_SHARE of tol/2 of all the sum can reach: drop every state and end
            account = float(np.logaddexp(account, bound[0]))
            break
        if within.size:
            count = min(count, int(within[0]))
            certified = k1 + count * _S if count == within[0] else math.inf
    else:
        raise ArithmeticError(f"the window chain did not converge within {k_cap} Poisson orders")
    (num, den), (num_e, den_e) = np.frexp(sums)
    m, e = math.frexp(num / den)
    sinks = 0.0
    for s in kern.sinks:  # the last power read, near each sink
        near = np.s_[max(0, s - _S + 1):s + _S]
        sinks += float(np.ldexp(row[near], np.repeat(row_e, _TILE)[:n][near] - _HEAD).sum())
    return m, e + int(num_e + sums_e[0] - den_e - sums_e[1]), account - head, sinks


def _exit_probability(params: ModelParams, m0: int, t: float, lo: int, hi: int,
                      tol: float) -> float:
    """P(X leaves the band lo+1..hi-1 by time t | X(0) = m0): the mass that
    the hit states {lo, hi}, those of them within 1..N, absorb by t.  It is
    the window mass of _window_chain on the deep route, over the states
    max(lo, 1)..min(hi, N) with the hit states as window and as sinks, an
    end of 1..N among them (_uniformized_kernel's default leaves those
    reflecting); its truncation is certified to tol/2 of itself.  0 with
    no hit state in 1..N, 1 where m0 is one.  Never 1 - survival, which
    cancels where the exit is rare."""
    _check_state(params, m0, "m0")
    _check_time_tol(t, tol)
    n = params.n_states
    if m0 <= lo or m0 >= hi:
        return 1.0
    hits = [m for m in (lo, hi) if 1 <= m <= n]
    if not hits:
        return 0.0
    kern = _uniformized_kernel(params, max(lo, 1), min(hi, n), hits)
    m, e, _ = _window_chain(kern, m0, t, np.array(hits), tol, True)
    return math.ldexp(m, e)


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
    times = _dwell_times(u, times)
    check_tol(tol)
    n = params.n_states
    allowed = np.arange(1, n + 1) / n < u
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
