"""Regenerate ``pool.json``: the benchmark's input pools and golden values.

    python3 benchmarks/make_pool.py

Each benchmark run draws its ops from these pools with its own ``--seed``,
so every op has a stored reference whatever seed is used.  Linear-space
goldens are bdld's own answers at the commit that generated the pool,
cross-checked against an independent method:

* window and dwell queries with N <= 200: dense ``scipy.linalg.expm``;
* every linear-space window, dwell and rate-curve or rare-event window:
  ``scipy.sparse.linalg.expm_multiply``.

Deep-tail goldens (window mass below 1e-280) do not come from bdld: they
are ``reference.log_window``, the benchmark's own log-space uniformization
sum; the smallest-N rows that bdld answers correctly and as many that it
misses are checked against the same sum carried out in ``mpmath``
arbitrary precision.  Deep-tail candidates are drawn without
regard to bdld's answer, so queries bdld gets wrong stay in the pool.  For
each of them the pool also records bdld's wrong answer (``deep_known_defect``,
``null`` for -inf): a run that draws one reports it as a known defect, and
fails it if bdld's answer is neither the golden nor the recorded one.

The pool's inputs and goldens are fixed by ``POOL_SEED``; rerunning
reproduces them exactly.  Each oracle row ends with the query's time in
seconds on the generating machine, used only to order the bulk and dwell
pools by cost (deep-tail rows are ordered by N^2 t, see workloads.py).
Regenerating it changes the benchmark and must be its own change.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.sparse.linalg import expm_multiply

ROOT = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT.parent / "src"))
import bdld  # noqa: E402
from bdld import evolve, optimal_paths, simulate  # noqa: E402

import reference  # noqa: E402
from workloads import window_of  # noqa: E402

POOL_SEED = 20221201
LAM = 1.0
BULK_TOL = 1e-12
DEEP_TOL = 1e-10
DWELL_TOL = 1e-12
DEEP_LOG_MASS = math.log(reference.LOG_SPACE_MASS)

RATE_CURVE = {"ladder": [100, 200, 400], "gamma0": 0.5, "gamma_t": 0.8,
              "horizon": 1.0, "half_width": 0.02, "tol": 1e-12}
LLN_POINT = {"n": 1000, "gamma0": 0.5, "eps": 0.2, "horizon": 1.0, "reps": 50}
LLN_STATIONARY = {"n": 10_000, "u": 0.1, "times": [0.25, 0.5, 0.75, 1.0], "reps": 50,
                  "tol": 1e-10}
RARE_EVENT = {"ladder": [100, 200, 400, 800], "gamma0": 0.5, "gamma_t": 0.8,
              "horizon": 1.0, "half_width": 0.02, "reps": 25, "tol": 1e-12}
PATH_SIZES = (3, 50, 1000, 10_000)
PATH_JUMPS = (2000, 10_000)
# Deep-tail goldens checked in mpmath: this many of the smallest-N rows that
# bdld answers correctly, and as many that it misses.
MP_CHECKS = 3
# Agreement required between the float64 and mpmath log-space sums, in ln P.
MP_LOG_ABS = 1e-9


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def timed(fn, *args):
    """fn(*args) and the faster of two timings.  The benchmark only uses the
    timing to order a pool by cost for stratified sampling."""
    costs = []
    for _ in range(2):
        start = time.perf_counter()
        value = fn(*args)
        costs.append(time.perf_counter() - start)
    return value, min(costs)


def sparse_evolve(n: int, p: np.ndarray, t: float) -> np.ndarray:
    """The row vector p evolved by time t, by ``expm_multiply``."""
    return expm_multiply(reference.sparse_generator(n, LAM).T * t, p)


def sparse_window(n: int, m0: int, t: float, lo: int, hi: int) -> float:
    start = np.zeros(n)
    start[m0 - 1] = 1.0
    return float(sparse_evolve(n, start, t)[lo - 1:hi].sum())


def sparse_dwell(n: int, u: float, times) -> float:
    h = 1.0 / np.arange(1, n + 1, dtype=float)
    p = h / h.sum()
    allowed = np.arange(1, n + 1) / n < u
    prev = 0.0
    for t in sorted(times):
        if t > prev:
            p = sparse_evolve(n, p, t - prev)
        p = np.where(allowed, p, 0.0)
        prev = t
    return float(p.sum())


def mp_log_window(n: int, m0: int, t: float, lo: int, hi: int, tol: float) -> float:
    """``reference.log_window`` carried out in mpmath at 30 digits, where no
    mass underflows; slow, so used only to check a few deep-tail goldens."""
    import mpmath
    from mpmath import mpf
    mpmath.mp.dps = 30
    rate = mpf(2.0 * LAM * n)
    up = [mpf(LAM * m) / rate if m < n else mpf(0) for m in range(1, n + 1)]
    down = [mpf(LAM * m) / rate if m > 1 else mpf(0) for m in range(1, n + 1)]
    stay = [1 - a - b for a, b in zip(up, down)]
    mu = rate * mpf(t)
    p = [mpf(0)] * n
    p[m0 - 1] = mpf(1)
    pmf, acc, k = mpmath.exp(-mu), mpf(0), 0
    while True:
        acc += pmf * mpmath.fsum(p[lo - 1:hi])
        if k + 2 > mu and acc > 0 and pmf * mu / (k + 1) / (1 - mu / (k + 2)) <= tol / 2 * acc:
            return float(mpmath.log(acc))
        k += 1
        pmf = pmf * mu / k
        nxt = p[:]
        for i in range(max(0, m0 - 1 - k), min(n - 1, m0 - 1 + k) + 1):
            term = p[i] * stay[i]
            if i > 0:
                term += p[i - 1] * up[i - 1]
            if i < n - 1:
                term += p[i + 1] * down[i + 1]
            nxt[i] = term
        p = nxt


def bulk_pool(rng, count: int) -> list:
    rows = []
    while len(rows) < count:
        n = int(round(math.exp(rng.uniform(math.log(100), math.log(3200)))))
        m0 = int(rng.integers(max(1, n // 10), 9 * n // 10 + 1))
        t = float(rng.uniform(0.05, 1.0))
        sigma = math.sqrt(2.0 * LAM * m0 * t)
        center = m0 + rng.uniform(-3.0, 3.0) * sigma
        half = rng.uniform(0.25, 1.0) * sigma
        lo, hi = max(1, int(round(center - half))), min(n, int(round(center + half)))
        if lo > hi:
            continue
        params = bdld.ModelParams(n, LAM)
        log_p, cost = timed(evolve.window_log_probability, params, m0, t, range(lo, hi + 1),
                            BULK_TOL)
        check = sparse_window(n, m0, t, lo, hi)
        if not reference.matches_expm(math.exp(log_p), check, 1e-6 * check):
            raise AssertionError(f"bulk golden disagrees with expm_multiply: {n, m0, t, lo, hi}")
        if n <= reference.EXPM_MAX_N:
            exact = reference.expm_window(n, LAM, m0, t, lo, hi)
            if not reference.matches_expm(math.exp(log_p), exact, BULK_TOL):
                raise AssertionError(f"bulk golden disagrees with expm: {n, m0, t, lo, hi}")
        rows.append([n, m0, t, lo, hi, BULK_TOL, log_p, cost])
    return rows


def deep_pool(rng, count: int) -> tuple[list, list]:
    """Deep-tail windows with their goldens from ``reference.log_window``,
    and the known defects: the windows whose golden bdld misses, each with
    bdld's answer.  An mpmath check covers a few of both."""
    rows, missed, defects = [], [], []
    while len(rows) < count:
        n = int(rng.integers(600, 2001))
        gamma0 = float(rng.uniform(0.3, 0.7))
        gamma_t = float(rng.uniform(0.02, 0.1) if rng.random() < 0.5 else rng.uniform(0.9, 0.98))
        t = float(rng.uniform(0.04, 0.12))
        if n * optimal_paths.optimal_action(gamma0, gamma_t, t, LAM) < -DEEP_LOG_MASS:
            continue
        m0, center = round(gamma0 * n), round(gamma_t * n)
        lo, hi = max(1, center - n // 100), min(n, center + n // 100)
        golden = reference.log_window(n, LAM, m0, t, lo, hi, DEEP_TOL)
        if golden >= DEEP_LOG_MASS:
            continue
        log_p, cost = timed(evolve.window_log_probability, bdld.ModelParams(n, LAM), m0, t,
                            range(lo, hi + 1), DEEP_TOL)
        if not reference.window_matches(log_p, golden, DEEP_TOL):
            missed.append(len(rows))
            defects.append([n, m0, t, lo, hi, log_p if math.isfinite(log_p) else None])
        rows.append([n, m0, t, lo, hi, DEEP_TOL, golden, cost])
    log(f"  {len(rows)} deep-tail windows; bdld misses the golden of {len(missed)}")
    hits = [i for i in range(len(rows)) if i not in missed]
    for group in (hits, missed):
        for i in sorted(group, key=lambda i: rows[i][0])[:MP_CHECKS]:
            n, m0, t, lo, hi, tol, golden, _ = rows[i]
            exact = mp_log_window(n, m0, t, lo, hi, tol)
            if not abs(exact - golden) <= MP_LOG_ABS:
                raise AssertionError(f"deep golden disagrees with mpmath: {rows[i]}, {exact}")
            log(f"  mpmath agrees with the deep golden at N={n}: ln P = {exact:.12g}")
    return rows, defects


def dwell_pool(rng, count: int) -> list:
    rows = []
    for _ in range(count):
        n = int(round(math.exp(rng.uniform(math.log(100), math.log(4000)))))
        u = float(rng.uniform(0.1, 0.6))
        times = sorted(float(x) for x in rng.uniform(0.05, 1.0, size=int(rng.integers(1, 5))))
        p, cost = timed(evolve.stationary_dwell_probability, bdld.ModelParams(n, LAM), u, times,
                        DWELL_TOL)
        check = sparse_dwell(n, u, times)
        if not reference.matches_expm(p, check, 1e-6 * check):
            raise AssertionError(f"dwell golden disagrees with expm_multiply: {n, u, times}")
        if n <= reference.EXPM_MAX_N:
            exact = reference.expm_dwell(n, LAM, u, times)
            if not reference.matches_expm(p, exact, len(times) * DWELL_TOL):
                raise AssertionError(f"dwell golden disagrees with expm: {n, u, times}")
        rows.append([n, u, times, DWELL_TOL, p, cost])
    return rows


def rate_curve_golden() -> dict:
    spec = dict(RATE_CURVE)
    spec["action"] = optimal_paths.optimal_action(spec["gamma0"], spec["gamma_t"],
                                                  spec["horizon"], LAM, tol=1e-9)
    curve = evolve.empirical_rate_curve([bdld.ModelParams(n, LAM) for n in spec["ladder"]],
                                        spec["gamma0"], spec["gamma_t"], spec["horizon"],
                                        spec["half_width"], tol=spec["tol"])
    spec["log_probs"] = [-pt.rate * pt.n for pt in curve]
    for n, log_p in zip(spec["ladder"], spec["log_probs"]):
        check_ladder_window(n, spec, log_p)
    return spec


def check_ladder_window(n: int, spec: dict, log_p: float) -> None:
    """A rate-curve or rare-event window against expm_multiply and, for
    N <= 200, dense expm."""
    m0, lo, hi = window_of(n, spec)
    check = sparse_window(n, m0, spec["horizon"], lo, hi)
    if not reference.matches_expm(math.exp(log_p), check, 1e-6 * check):
        raise AssertionError(f"ladder window at N={n} disagrees with expm_multiply")
    if n <= reference.EXPM_MAX_N:
        exact = reference.expm_window(n, LAM, m0, spec["horizon"], lo, hi)
        if not reference.matches_expm(math.exp(log_p), exact, spec["tol"]):
            raise AssertionError(f"ladder window at N={n} disagrees with expm")


def path_pool(rng, per_size: int, tmp: Path) -> list:
    rows = []
    for n in PATH_SIZES:
        h_n = bdld.harmonic_partial(n).total
        kept = 0
        while kept < per_size:
            target = rng.uniform(*PATH_JUMPS)
            if rng.random() < 0.5:
                initial = int(rng.integers(1, n + 1))
                rate = 2.0 * LAM * max(initial, 1.5)
            else:
                initial = "stationary"
                rate = 2.0 * LAM * n / h_n
            horizon = float(target / rate)
            seed = int(rng.integers(0, 2**63))
            config = bdld.SimConfig(horizon=horizon, seed=seed, initial=initial)
            traj = simulate.sample_path(bdld.ModelParams(n, LAM), config)
            if not PATH_JUMPS[0] <= traj.n_jumps <= PATH_JUMPS[1]:
                continue
            kept += 1
            traj.to_csv(tmp)
            rows.append([n, horizon, initial, seed, int(traj.n_jumps),
                         reference.trajectory_digest(traj), reference.file_digest(tmp)])
        log(f"  paths N={n} done")
    tmp.unlink()
    return rows


def rare_event_golden() -> dict:
    spec = dict(RARE_EVENT)
    exact = {}
    for n in spec["ladder"]:
        m0, lo, hi = window_of(n, spec)
        log_p = evolve.window_log_probability(bdld.ModelParams(n, LAM), m0, spec["horizon"],
                                              range(lo, hi + 1), spec["tol"])
        check_ladder_window(n, spec, log_p)
        exact[str(n)] = math.exp(log_p)
    spec["exact"] = exact
    return spec


def main() -> None:
    rng = np.random.default_rng(POOL_SEED)
    log("bulk windows")
    bulk = bulk_pool(rng, 600)
    log("deep-tail windows")
    deep, deep_known_defect = deep_pool(rng, 130)
    log("dwell queries")
    dwell = dwell_pool(rng, 40)
    log("paths")
    paths = path_pool(rng, 300, ROOT / "make_pool.tmp.csv")
    lln_stationary = dict(LLN_STATIONARY)
    lln_stationary["exact"] = evolve.stationary_dwell_probability(
        bdld.ModelParams(lln_stationary["n"], LAM), lln_stationary["u"],
        lln_stationary["times"], lln_stationary["tol"])
    pool = {
        "pool_seed": POOL_SEED,
        "generated_with": {"bdld": bdld.__version__, "numpy": np.__version__,
                           "scipy": scipy.__version__},
        "lam": LAM,
        "oracle": {"bulk": bulk, "deep": deep, "deep_known_defect": deep_known_defect,
                   "dwell": dwell, "rate_curve": rate_curve_golden()},
        "lln": {"point": LLN_POINT, "stationary": lln_stationary},
        "paths": paths,
        "rare_event": rare_event_golden(),
    }
    with open(ROOT / "pool.json", "w") as fh:
        json.dump(pool, fh, separators=(",", ":"), allow_nan=False)
        fh.write("\n")
    log("wrote pool.json")


if __name__ == "__main__":
    main()
