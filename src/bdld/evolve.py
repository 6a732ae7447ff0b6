"""Exact finite-N transition probabilities by uniformization.

The generator Q is tridiagonal, with the rates of chain.jump_rates off the
diagonal, so the law of X(t) is computed as a Poisson mixture of powers of
the uniformized kernel K = I + Q/Lam with Lam = 2*lam*N.  Each kernel-vector
product costs O(N) and the Poisson truncation error is certified, which
makes this the brute-force oracle that every Monte Carlo estimate and every
large-deviation rate in the package is checked against.

Both sums below take _S = 8 Poisson orders per numpy pass, stepping by the
band of B = K^8 (_poisson_mixture, _log_space_window).  That pays numpy's
cost per call once per eight orders, which is most of the cost at the N of
most queries (hundreds to a few thousand).  Summed in this order, results
differ from an order-by-order sum in their last digits (below 1e-13
relative).

Probabilities are carried in linear space.  A window query
(window_probability and window_log_probability alike) starts from the
point law of endpoint_distribution and runs the bulk mixture of
evolve_distribution up to its Poisson cutoff.  A window whose linear mass
is then at least 1e-280 keeps adding orders until it is certified; a
smaller one is answered by a log-space product chain instead, and so is a
window that a Chernoff bound puts below 1e-290 before any linear pass.
Both sums stop on a certified relative rule: once k + 2 > mu, the weight of
every Poisson order past k is at most pmf(k+1) / (1 - mu/(k+2)), and the sum
ends when that bound is at most tol/2 of the window mass accumulated so far
(after Fox & Glynn, "Computing Poisson probabilities", CACM 1988).  Measured
costs of one window query on a 2-core machine (gamma0 = 0.5, window
0.8 +- 0.02, T = 1): 0.3-0.4 s at N = 6400, 1.5-2.1 s at N = 12800,
17 s at N = 25600 (log space), 66 s at N = 51200; beyond that is Monte
Carlo territory.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np
from scipy.stats import poisson

from .chain import ModelParams, ProbabilityVector, stationary_distribution

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
# A window whose mass is certified below e^_LOG_SPACE_GATE goes to the
# log-space chain without a linear pass; the margin below the threshold
# covers the linear mass's rounding and its 1/(1 - tol/2) normalisation.
_LOG_SPACE_GATE = math.log(1e-290)
# Poisson orders per numpy pass: both sums step by the band of K^_S.
_S = 8


class _UniformizedKernel(NamedTuple):
    up: np.ndarray    # K(m, m+1), entry m-1
    down: np.ndarray  # K(m, m-1), entry m-1
    stay: np.ndarray  # K(m, m)
    rate: float       # the uniformization rate Lam


def _uniformized_kernel(params: ModelParams) -> _UniformizedKernel:
    # the rates of chain.jump_rates, for every state at once
    n, lam = params.n_states, params.lam
    m = np.arange(1, n + 1, dtype=float)
    up = np.where(m < n, lam * m, 0.0)
    down = np.where(m > 1, lam * m, 0.0)
    lam_unif = 2.0 * lam * n
    return _UniformizedKernel(up / lam_unif, down / lam_unif,
                              1.0 + -(up + down) / lam_unif, lam_unif)


def _kernel_apply(p: np.ndarray, kern: _UniformizedKernel) -> np.ndarray:
    """One step of the distribution under the uniformized kernel (p <- p K)."""
    q = p * kern.stay
    q[1:] += p[:-1] * kern.up[:-1]
    q[:-1] += p[1:] * kern.down[1:]
    return q


def _transposed(kern: _UniformizedKernel) -> _UniformizedKernel:
    """The kernel whose _kernel_apply is v <- K v: K transposed, with the
    up and down moves swapped and shifted by one state."""
    up = np.append(kern.down[1:], 0.0)
    down = np.insert(kern.up[:-1], 0, 0.0)
    return _UniformizedKernel(up, down, kern.stay, kern.rate)


def _block_gather(kern: _UniformizedKernel) -> np.ndarray:
    """The band of B = K^_S in gather form: G[i, m] = B[m+i-_S, m], zero
    where row m+i-_S lies outside the chain, so that (y B)[m] is the sum over
    i of y[m+i-_S] G[i, m].  Built by _S kernel steps from the identity's
    band, a step C <- C K reading in this form
    (C K)[m+i-_S, m] = C[i, m] stay[m] + C[i+1, m-1] up[m-1] + C[i-1, m+1] down[m+1]."""
    g = np.zeros((2 * _S + 1, kern.stay.size))
    g[_S] = 1.0
    for _ in range(_S):
        h = g * kern.stay
        h[:-1, 1:] += g[1:, :-1] * kern.up[:-1]
        h[1:, :-1] += g[:-1, 1:] * kern.down[1:]
        g = h
    return g


def _poisson_terms(mu: float, tol: float) -> np.ndarray:
    """The Poisson(mu) pmf at the orders 0..K, for a smallest-ish K with the
    omitted tail mass below tol/2."""
    if mu == 0.0:
        return np.ones(1)
    k_max = int(poisson.ppf(1.0 - 0.5 * tol, mu)) + 1
    while poisson.sf(k_max, mu) > 0.5 * tol:
        k_max += max(4, int(0.05 * k_max))
    return poisson.pmf(np.arange(k_max + 1), mu)


def check_tol(tol: float) -> None:
    """Raise ValueError unless tol is a usable truncation tolerance."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if tol > 1e-6:
        raise ValueError(f"tol must be at most 1e-6, got {tol!r}")
    if 1.0 - 0.5 * tol == 1.0:
        # the Poisson cutoff is the (1 - tol/2)-quantile, which must stay below 1
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
    acc, *_ = _poisson_mixture(p, _uniformized_kernel(params), t, tol)
    acc /= acc.sum()
    return ProbabilityVector(acc)


def _poisson_mixture(p: np.ndarray, kern: _UniformizedKernel, t: float, tol: float):
    """The bulk mixture: the sum over k of pmf(k) * p K^k for the Poisson(mu)
    orders k up to the cutoff K of _poisson_terms, mu = Lam*t.  Returns it with
    the last power p K^K, its order K, its weight pmf(K) and mu.

    The powers are taken _S at a time: y_j = p K^(j*_S) steps to y_(j+1) by
    one product with the band of K^_S (_block_gather) over the states y_j can
    reach, and Z_r collects pmf(j*_S + r) * y_j for r < _S.  The mixture is
    then the sum over r of Z_r K^r, by Horner's rule in _S - 1 kernel steps.
    With K < _S no band is built: Z_r = pmf(r) * p and Horner's rule takes
    the K steps.  Only y_j and y_(j+1) are held, never all the powers."""
    mu = kern.rate * t
    weights = _poisson_terms(mu, tol)
    k_max = weights.size - 1
    blocks, rows = k_max // _S + 1, min(_S, k_max + 1)
    w = np.zeros(blocks * _S)
    w[:k_max + 1] = weights
    w = w.reshape(blocks, _S)[:, :rows, None]
    n = p.size
    support = np.flatnonzero(p)
    lo, hi = (int(support[0]), int(support[-1]) + 1) if support.size else (0, 0)
    z = np.zeros((rows, n))
    z[:, lo:hi] += w[0] * p[lo:hi]
    y = p
    if blocks > 1:
        g = _block_gather(kern)
        ring = np.zeros((2, n + 2 * _S))  # y_j at row j mod 2, padded by _S zeros
        ring[0, _S:_S + n] = p
        views = np.lib.stride_tricks.sliding_window_view(ring, n, axis=1)
        for j in range(1, blocks):
            lo, hi = max(0, lo - _S), min(n, hi + _S)
            band = ring[j % 2, _S + lo:_S + hi]
            np.add.reduce(views[1 - j % 2, :, lo:hi] * g[:, lo:hi], axis=0, out=band)
            z[:, lo:hi] += w[j] * band
        y = ring[(blocks - 1) % 2, _S:_S + n].copy()
    for _ in range(k_max % _S):
        y = _kernel_apply(y, kern)
    acc = z[-1]
    for r in range(rows - 2, -1, -1):
        acc = _kernel_apply(acc, kern)
        acc += z[r]
    return acc, y, k_max, float(weights[-1]), mu


def _point(params: ModelParams, m0: int) -> np.ndarray:
    """The law of a chain started at state m0."""
    if not 1 <= m0 <= params.n_states:
        raise ValueError(f"m0={m0} outside the state space 1..{params.n_states}")
    point = np.zeros(params.n_states)
    point[m0 - 1] = 1.0
    return point


def endpoint_distribution(params: ModelParams, m0: int, t: float, tol: float = 1e-12) -> ProbabilityVector:
    """Law of X(t) given X(0) = m0, to certified truncation error below tol."""
    return evolve_distribution(params, _point(params, m0), t, tol)


def _normalize_window(params: ModelParams, window) -> np.ndarray:
    states = np.asarray(sorted(set(int(m) for m in window)), dtype=int)
    if states.size == 0:
        raise ValueError("window must be a non-empty set of states")
    if states[0] < 1 or states[-1] > params.n_states:
        raise ValueError(f"window {states[0]}..{states[-1]} outside 1..{params.n_states}")
    return states


def _log_window_bound(mu: float, m0: int, states: np.ndarray) -> float:
    """ln of an upper bound on the window mass at Lam*t = mu, or 0.0.

    Every uniformized step moves up, or down, with probability at most
    m/(2N) <= 1/2, so the count of steps toward one side of m0 is dominated
    by a Poisson(mu/2) count, and reaching a window side at distance d > mu/2
    has probability at most P(Poisson(nu) >= d) <= exp(-nu + d + d ln(nu/d)),
    nu = mu/2 (the Chernoff bound).  A window on both sides of m0 takes twice
    the bound of its nearer side."""
    offsets = states - m0
    d = int(np.abs(offsets).min())
    nu = 0.5 * mu
    if not d > nu > 0.0:
        return 0.0
    sides = int(offsets.min() < 0) + int(offsets.max() > 0)
    return math.log(sides) + d - nu + d * math.log(nu / d)


def _certified_window(params: ModelParams, m0: int, t: float, window,
                      tol: float) -> tuple[float, bool]:
    """The window mass with its truncation certified to tol/2 of itself:
    (P, False) from the linear-space mixture when P is at least
    _LOG_SPACE_THRESHOLD, else (ln P, True) from the log-space chain.

    The bulk cutoff of _poisson_terms leaves out at most tol/2 of the total
    mass, which says nothing about a small window fed by the orders near the
    cutoff.  A window of mass at least _LOG_SPACE_THRESHOLD therefore keeps
    adding orders until the bound of _log_space_window on the omitted weight,
    pmf(k+1) / (1 - mu/(k+2)), is at most tol/2 of its own mass.  A window
    already certified at the cutoff gets the endpoint_distribution answer
    bit for bit.  A window that _log_window_bound puts below
    _LOG_SPACE_GATE skips the linear mixture: its linear mass would read
    below _LOG_SPACE_THRESHOLD, so the answer is the same.
    """
    states = _normalize_window(params, window)
    point = _point(params, m0)
    _check_time_tol(t, tol)
    kern = _uniformized_kernel(params)
    idx = states - 1
    if _log_window_bound(kern.rate * t, m0, states) >= _LOG_SPACE_GATE:
        acc, p, k, w, mu = _poisson_mixture(point, kern, t, tol)
        if float((acc / acc.sum())[idx].sum()) >= _LOG_SPACE_THRESHOLD:
            while not (k + 2 > mu and w * mu / (k + 1) / (1.0 - mu / (k + 2))
                       <= 0.5 * tol * float(acc[idx].sum())):
                k += 1
                w *= mu / k
                p = _kernel_apply(p, kern)
                acc += w * p
            return float((acc / acc.sum())[idx].sum()), False
    return _log_space_window(params, m0, t, states, tol), True


def window_probability(params: ModelParams, m0: int, t: float, window, tol: float = 1e-12) -> float:
    """P(X(t) in window | X(0) = m0), with the Poisson truncation certified
    to tol/2 of the window mass.  A mass below _LOG_SPACE_THRESHOLD is
    exp(window_log_probability): below the smallest normal double (ln P <
    -708.4) it carries fewer digits, and ValueError if it underflows to zero."""
    value, in_log_space = _certified_window(params, m0, t, window, tol)
    if not in_log_space:
        return value
    prob = math.exp(value)
    if prob == 0.0:
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


def _log_space_window(params: ModelParams, m0: int, t: float, states: np.ndarray, tol: float) -> float:
    """ln of the window mass via a log-space uniformization chain.

    The truncation is adaptive: unlike the bulk computation, a deep-tail
    window draws its entire mass from Poisson orders far beyond the usual
    cutoff (the chain must make at least distance-many jumps), so the sum
    keeps extending until the omitted terms provably cannot change the
    accumulated window mass by more than tol/2 of itself.  Once k + 2 > mu
    the Poisson pmf falls at least by the ratio mu/(k+2) per order, so the
    weight of every order past k is at most pmf(k+1) / (1 - mu/(k+2)); each
    order's window mass is at most its weight.  The bound is carried in log
    space and nothing in it underflows; it is checked at every order.

    The chain steps _S orders at a time, as the bulk mixture does:
    ln y_(j+1) comes from ln y_j and the log of the band of K^_S by one
    max-shifted log-sum-exp over the 2*_S+1 band rows, on the states
    m0 - (j+1)*_S..m0 + (j+1)*_S alone, since no other state can hold mass.
    The window masses of the orders j*_S + r, r < _S, are sums of
    y_j * (K^r 1_W), and K^r 1_W is nonzero only within _S - 1 states of
    the window.  The buffers carry _S entries of -inf padding at either end,
    standing for the states below 1 and above N.  The caller has checked m0,
    t and tol.
    """
    kern = _uniformized_kernel(params)
    mu = kern.rate * t
    if mu == 0.0:
        return 0.0 if m0 in states else -math.inf
    n = params.n_states
    # the states within _S - 1 of the window, as indices of the chain's states
    near_lo, near_hi = max(0, int(states.min()) - _S), min(n, int(states.max()) + _S - 1)
    column = np.zeros(n)
    column[states - 1] = 1.0
    columns = [column]  # K^r 1_W
    transposed = _transposed(kern)
    for _ in range(_S - 1):
        columns.append(_kernel_apply(columns[-1], transposed))
    with np.errstate(divide="ignore"):
        log_g = np.log(_block_gather(kern))
        log_columns = np.log(np.array(columns)[:, near_lo:near_hi])
    ring = np.full((2, n + 2 * _S), -np.inf)  # ln y_j, alternating rows
    ring[0, _S + m0 - 1] = 0.0
    views = np.lib.stride_tricks.sliding_window_view(ring, n, axis=1)
    lo, hi = m0 - 1, m0  # the states y_j can reach, as indices
    log_pmf = -mu  # ln pmf(0)
    log_mu = math.log(mu)
    log_rel = math.log(0.5 * tol)
    acc = -math.inf
    k_cap = int(mu + 10.0 * math.sqrt(mu + 1.0)) + 6 * n + 1000
    j = 0
    while True:
        a, b = max(lo, near_lo), min(hi, near_hi)
        masses = [-math.inf] * _S
        if a < b:
            terms = ring[j % 2, _S + a:_S + b] + log_columns[:, a - near_lo:b - near_lo]
            peak = float(terms.max())
            if peak > -math.inf:
                np.exp(terms - peak, out=terms)
                with np.errstate(divide="ignore"):
                    masses = (np.log(terms.sum(axis=1)) + peak).tolist()
        for r, mass in enumerate(masses):
            k = j * _S + r
            if k:
                log_pmf += log_mu - math.log(k)
            if mass > -math.inf:
                acc = float(np.logaddexp(acc, log_pmf + mass))
            if k + 2 > mu and acc > -math.inf:
                log_tail = log_pmf + math.log(mu / (k + 1)) - math.log1p(-mu / (k + 2))
                if log_tail <= acc + log_rel:
                    return acc
            if k >= k_cap:
                raise ArithmeticError(
                    f"log-space uniformization did not converge within {k_cap} terms "
                    f"(window mass so far exp({acc}))")
        j += 1
        lo, hi = max(0, lo - _S), min(n, hi + _S)
        terms = views[1 - j % 2, :, lo:hi] + log_g[:, lo:hi]
        peak = terms.max(axis=0)
        terms -= peak
        np.exp(terms, out=terms)
        band = ring[j % 2, _S + lo:_S + hi]
        np.log(np.add.reduce(terms, axis=0), out=band)
        band += peak


class RatePoint(NamedTuple):
    n: int
    rate: float        # a_N = -(1/N) ln P(window)
    window_prob: float


def empirical_rate_curve(params_list: Sequence[ModelParams], gamma0: float, gammaT: float,
                         T: float, half_width: float, tol: float = 1e-12) -> list[RatePoint]:
    """Finite-N decay rates a_N = -(1/N) ln P(X(T)/N near gammaT | X(0)/N = gamma0).

    The window is the lattice interval round((gammaT - h)N)..round((gammaT + h)N).
    The returned curve is what gets compared against the optimal action.
    """
    if not (0.0 < gamma0 < 1.0 and 0.0 < gammaT < 1.0):
        raise ValueError("gamma0 and gammaT must lie in (0, 1)")
    if not (0.0 < half_width < math.inf and 0.0 < T < math.inf):
        raise ValueError("half_width and T must be positive and finite")
    points = []
    for params in params_list:
        n = params.n_states
        m0 = round(gamma0 * n)
        lo = max(1, round((gammaT - half_width) * n))
        hi = min(n, round((gammaT + half_width) * n))
        if lo > hi:
            raise ValueError(f"empty window at N={n}")
        logp = window_log_probability(params, m0, T, range(lo, hi + 1), tol)
        points.append(RatePoint(n, -logp / n, math.exp(logp)))
    return points


def stationary_dwell_probability(params: ModelParams, u: float, times: Sequence[float],
                                 tol: float = 1e-12) -> float:
    """P(X(t_i)/N < u for every sample time t_i), starting from stationarity.

    Exact via masked forward evolution: evolve, zero out the states at or
    above the threshold, repeat; the surviving mass is the joint probability.
    """
    times = sorted(float(t) for t in times)
    if not times:
        raise ValueError("times must be non-empty")
    if times[0] < 0.0:
        raise ValueError("times must be >= 0")
    if not 0.0 < u <= 1.0:
        raise ValueError(f"threshold u must lie in (0, 1], got {u}")
    n = params.n_states
    allowed = np.array([(m / n) < u for m in range(1, n + 1)])
    p = stationary_distribution(params).mass.copy()
    prev = 0.0
    for t in times:
        total = float(p.sum())
        if total == 0.0:
            return 0.0
        if t > prev:
            p = evolve_distribution(params, p / total, t - prev, tol).mass * total
        p = np.where(allowed, p, 0.0)
        prev = t
    return float(p.sum())
