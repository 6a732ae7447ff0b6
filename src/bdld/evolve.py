"""Exact finite-N transition probabilities by uniformization.

The generator Q is tridiagonal, with the rates of chain.jump_rates off the
diagonal, so the law of X(t) is computed as a Poisson mixture of powers of
the uniformized kernel K = I + Q/Lam with Lam = 2*lam*N.  Each kernel-vector
product costs O(N) and the Poisson truncation error is certified, which
makes this the brute-force oracle that every Monte Carlo estimate and every
large-deviation rate in the package is checked against.

Probabilities are carried in linear space.  A window query
(window_probability and window_log_probability alike) starts from the
point law of endpoint_distribution and runs the bulk mixture of
evolve_distribution up to its Poisson cutoff.  A window whose linear mass
is then at least 1e-280 keeps adding orders until it is certified; a
smaller one is answered by a log-space product chain instead.  Both stop
on a certified relative rule: once k + 2 > mu, the weight of every Poisson
order past k is at most pmf(k+1) / (1 - mu/(k+2)), and the sum ends when
that bound is at most tol/2 of the window mass accumulated so far (after
Fox & Glynn, "Computing Poisson probabilities", CACM 1988).  Measured
costs of one window query on a 2-core machine (gamma0 = 0.5, window
0.8 +- 0.02, T = 1): 1.1 s at N = 12800, 13.9 s at N = 25600 (log space),
57 s at N = 51200; beyond that is Monte Carlo territory.
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
    if not (0.0 < tol <= 1e-6):
        raise ValueError(f"tol must lie in (0, 1e-6], got {tol!r}")
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
    orders k up to the cutoff of _poisson_terms, mu = Lam*t.  Returns it with
    the last power p K^k, its order k, its weight pmf(k) and mu."""
    mu = kern.rate * t
    weights = _poisson_terms(mu, tol)
    acc = weights[0] * p
    for w in weights[1:]:
        p = _kernel_apply(p, kern)
        acc += w * p
    return acc, p, weights.size - 1, float(weights[-1]), mu


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
    bit for bit.
    """
    states = _normalize_window(params, window)
    point = _point(params, m0)
    _check_time_tol(t, tol)
    kern = _uniformized_kernel(params)
    acc, p, k, w, mu = _poisson_mixture(point, kern, t, tol)
    idx = states - 1
    if float((acc / acc.sum())[idx].sum()) < _LOG_SPACE_THRESHOLD:
        return _log_space_window(params, m0, t, states, tol), True
    while not (k + 2 > mu and w * mu / (k + 1) / (1.0 - mu / (k + 2))
               <= 0.5 * tol * float(acc[idx].sum())):
        k += 1
        w *= mu / k
        p = _kernel_apply(p, kern)
        acc += w * p
    return float((acc / acc.sum())[idx].sum()), False


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
    space and nothing in it underflows.

    After k steps only the states m0-k..m0+k can hold mass, so each step
    updates that band alone: one max-shifted three-way log-sum-exp on
    preallocated buffers, swapped from step to step.  The buffers carry one
    -inf entry of padding at either end, standing for the absent moves
    below state 1 and above state N.  The caller has checked m0, t and tol.
    """
    kern = _uniformized_kernel(params)
    mu = kern.rate * t
    if mu == 0.0:
        return 0.0 if m0 in states else -math.inf
    n = params.n_states
    pad = np.full(n + 2, -np.inf)
    l_up, l_down, l_stay = pad.copy(), pad.copy(), pad.copy()
    with np.errstate(divide="ignore"):
        np.log(kern.up, out=l_up[1:-1])
        np.log(kern.down, out=l_down[1:-1])
        np.log(kern.stay, out=l_stay[1:-1])
    lp, nxt = pad.copy(), pad.copy()  # state m sits at index m
    lp[m0] = 0.0
    work = np.empty((4, n))
    window = np.empty(states.size)
    log_pmf = -mu  # ln pmf(0)
    log_mu = math.log(mu)
    log_rel = math.log(0.5 * tol)
    acc = log_pmf if m0 in states else -math.inf  # the k = 0 term
    k = 0
    k_cap = int(mu + 10.0 * math.sqrt(mu + 1.0)) + 6 * n + 1000
    while True:
        if k + 2 > mu and acc > -math.inf:
            log_tail = log_pmf + math.log(mu / (k + 1)) - math.log1p(-mu / (k + 2))
            if log_tail <= acc + log_rel:
                return acc
        if k >= k_cap:
            raise ArithmeticError(
                f"log-space uniformization did not converge within {k_cap} terms "
                f"(window mass so far exp({acc}))")
        k += 1
        log_pmf += log_mu - math.log(k)
        lo, hi = max(1, m0 - k), min(n, m0 + k)
        w = hi - lo + 1
        a, b, c, mx = work[:, :w]  # stay, up, down terms and their maximum
        np.add(lp[lo:hi + 1], l_stay[lo:hi + 1], out=a)
        np.add(lp[lo - 1:hi], l_up[lo - 1:hi], out=b)
        np.add(lp[lo + 1:hi + 2], l_down[lo + 1:hi + 2], out=c)
        np.maximum(a, b, out=mx)
        np.maximum(mx, c, out=mx)
        for part in (a, b, c):
            np.subtract(part, mx, out=part)
            np.exp(part, out=part)
        a += b
        a += c
        np.log(a, out=a)
        np.add(a, mx, out=nxt[lo:hi + 1])
        lp, nxt = nxt, lp
        lp.take(states, out=window)
        peak = float(window.max())
        if peak > -math.inf:
            window -= peak
            np.exp(window, out=window)
            acc = float(np.logaddexp(acc, log_pmf + peak + math.log(float(window.sum()))))


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
