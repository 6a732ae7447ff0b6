"""Reference computations and tolerance rules shared by the benchmark and by
``make_pool.py``.

Nothing here is timed.  The dense ``scipy.linalg.expm`` references are an
algorithm independent of bdld's uniformization; they are used for queries
with N <= ``EXPM_MAX_N``, where a dense N x N exponential is cheap.
``log_window`` is an implementation of its own of the log-space
uniformization sum, for window masses too small for any linear-space method.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.linalg import expm
from scipy.sparse import diags
from scipy.special import logsumexp

EXPM_MAX_N = 200

#: Relative agreement required of a linear-space probability with its golden
#: value, on top of the query's own certified absolute truncation bound.
GOLDEN_REL = 1e-9
#: Below this mass bdld answers from its log-space chain, whose truncation
#: certificate is relative; goldens there are compared in log space.
LOG_SPACE_MASS = 1e-280
#: Relative agreement required of a probability with the dense-expm value.
EXPM_REL = 1e-8
#: Absolute accuracy assumed of the dense expm itself.
EXPM_ABS = 1e-14
#: The action integral's quadrature tolerance is 1e-9; two runs may differ
#: by up to twice that.
ACTION_ABS = 2e-9
#: A Monte Carlo pooled estimate must lie within this many pooled standard
#: errors of the exact value.
POOLED_SIGMAS = 4.0


def generator_rates(n: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Up and down rates out of states 1..N: lam*m, one-sided at the ends."""
    m = np.arange(1, n + 1, dtype=float)
    return np.where(m < n, lam * m, 0.0), np.where(m > 1, lam * m, 0.0)


def sparse_generator(n: int, lam: float):
    """The chain's generator as a sparse CSR matrix (row m-1 holds state m)."""
    up, down = generator_rates(n, lam)
    return diags([down[1:], -(up + down), up[:-1]], [-1, 0, 1], format="csr")


def dense_generator(n: int, lam: float) -> np.ndarray:
    return sparse_generator(n, lam).toarray()


def expm_window(n: int, lam: float, m0: int, t: float, lo: int, hi: int) -> float:
    """P(X(t) in lo..hi | X(0) = m0) from the dense matrix exponential."""
    row = expm(dense_generator(n, lam) * t)[m0 - 1]
    return float(row[lo - 1:hi].sum())


def expm_dwell(n: int, lam: float, u: float, times) -> float:
    """P(X(t_i)/N < u for all t_i) from stationarity, by dense exponentials."""
    q = dense_generator(n, lam)
    h = 1.0 / np.arange(1, n + 1, dtype=float)
    p = h / h.sum()
    allowed = np.arange(1, n + 1) / n < u
    prev = 0.0
    for t in sorted(times):
        if t > prev:
            p = p @ expm(q * (t - prev))
        p = np.where(allowed, p, 0.0)
        prev = t
    return float(p.sum())


def log_window(n: int, lam: float, m0: int, t: float, lo: int, hi: int, tol: float) -> float:
    """ln P(X(t) in lo..hi | X(0) = m0) for a window mass of any size.

    Uniformization at rate 2*lam*N with the state vector carried in log space
    and the Poisson weights from ``math.lgamma``, so nothing underflows.  The
    sum stops once a bound on every omitted term lies below tol/2 times the
    window mass so far: past k + 2 > mu the Poisson pmf falls at least by
    the ratio mu/(k+2) per term, so the omitted weight is at most
    pmf(k+1) / (1 - mu/(k+2)), and each term's window mass is at most its
    weight.
    """
    up, down = generator_rates(n, lam)
    rate = 2.0 * lam * n
    mu = rate * t
    with np.errstate(divide="ignore"):
        l_up, l_down = np.log(up / rate), np.log(down / rate)
        l_stay = np.log(1.0 - (up + down) / rate)
    lp = np.full(n, -np.inf)
    lp[m0 - 1] = 0.0
    log_mu, log_half_tol = math.log(mu), math.log(0.5 * tol)
    acc = -math.inf
    k = 0
    while True:
        log_pmf = k * log_mu - mu - math.lgamma(k + 1)
        acc = float(np.logaddexp(acc, log_pmf + logsumexp(lp[lo - 1:hi])))
        if k + 2 > mu and acc > -math.inf:
            log_tail = log_pmf + math.log(mu / (k + 1)) - math.log1p(-mu / (k + 2))
            if log_tail <= acc + log_half_tol:
                return acc
        k += 1
        nxt = lp + l_stay
        nxt[1:] = np.logaddexp(nxt[1:], lp[:-1] + l_up[:-1])
        nxt[:-1] = np.logaddexp(nxt[:-1], lp[1:] + l_down[1:])
        lp = nxt


def window_matches(log_p: float, golden_log_p: float, tol: float) -> bool:
    """A window query's log-probability against its stored golden value.

    Linear-space answers carry an absolute truncation bound ``tol``; the
    log-space chain certifies ``tol`` relative to the window mass.
    """
    if not math.isfinite(log_p):
        return False
    if golden_log_p < math.log(LOG_SPACE_MASS):
        return abs(log_p - golden_log_p) <= 2.0 * tol + 1e-12 * abs(golden_log_p)
    p, g = math.exp(log_p), math.exp(golden_log_p)
    return abs(p - g) <= tol + GOLDEN_REL * g


def matches_recorded(log_p: float, recorded: float | None, tol: float) -> bool:
    """A log-probability against the recorded wrong answer of a known defect
    (None for -inf), at the tolerance of the log-space rule above."""
    if recorded is None:
        return log_p == -math.inf
    return math.isfinite(log_p) and abs(log_p - recorded) <= 2.0 * tol + 1e-12 * abs(recorded)


def matches_expm(p: float, exact: float, tol: float) -> bool:
    return abs(p - exact) <= tol + EXPM_REL * exact + EXPM_ABS


def pooled(estimates, stderrs, reps: int) -> tuple[float, float, float]:
    """Pool equal-size Monte Carlo batches given as (mean, standard error)
    pairs.  Returns the pooled mean, its standard error and the standard
    deviation of a single sample."""
    means = np.asarray(estimates, dtype=float)
    var_within = np.asarray(stderrs, dtype=float) ** 2 * reps  # sample variance, ddof=1
    total = means.size * reps
    sum_sq = float(((reps - 1) * var_within + reps * means ** 2).sum())
    mean = float(means.mean())
    var = max(0.0, (sum_sq - total * mean * mean) / (total - 1))
    sd = math.sqrt(var)
    return mean, sd / math.sqrt(total), sd


def within_sigmas(estimate: float, stderr: float, exact: float) -> bool:
    return abs(estimate - exact) <= POOLED_SIGMAS * stderr + 1e-15 * exact


def trajectory_digest(trajectory) -> str:
    """SHA-256 of a trajectory's initial state, jump times and states; the CSV
    is a function of these, so equal digests mean byte-identical CSVs."""
    h = hashlib.sha256()
    h.update(np.int64(trajectory.initial_state).tobytes())
    h.update(np.asarray(trajectory.jump_times, dtype=np.float64).tobytes())
    h.update(np.asarray(trajectory.states_after_jump, dtype=np.int64).tobytes())
    return h.hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def occupation_matches(trajectory, occupation, n: int) -> bool:
    """Occupation fractions against an independent bincount of the path."""
    states = np.concatenate(([trajectory.initial_state], trajectory.states_after_jump))
    edges = np.concatenate(([0.0], trajectory.jump_times, [trajectory.horizon]))
    acc = np.bincount(states - 1, weights=np.diff(edges), minlength=n)
    mass = np.asarray(occupation.mass)
    return mass.shape == (n,) and float(np.abs(mass - acc / acc.sum()).max()) <= 1e-12
