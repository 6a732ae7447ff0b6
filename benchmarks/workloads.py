"""The benchmark's four workloads.

Each workload draws its ops from ``pool.json`` with the run's seed, runs
one op per call into bdld's public functions, reduces each op's output to a
small record right after the op returns, and checks the records against
their references after the timed phase.

Ops come in slots.  A slot holds one op per pass of the timed phase; the
ops of one slot are distinct but of the same class and cost (neighbours in
a cost-sorted pool, or the same experiment on different seeds), so a slot's
median latency measures one op of that class at three moments of the run
without repeating an input.  Ops call bdld through module
attributes (``bd.evolve.window_log_probability``) so the traced run's
wrappers see every call.

Inputs are drawn by stratified sampling: each op class's pool is sorted by
cost and split into as many strata as the class has slots, and each slot
draws its ops from its own stratum.  Runs on different seeds then do nearly
the same amount of work, which keeps their timings comparable.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from functools import lru_cache

import numpy as np
from scipy.stats import poisson

import reference


def stratified(rows: list, n: int, k: int, rng, key) -> list[list]:
    """n slots of k rows: the pool sorted by ``key`` is cut into n strata and
    slot j draws k distinct rows from the middle half of stratum j
    (repeating only when that holds fewer than k rows)."""
    order = sorted(range(len(rows)), key=lambda i: key(rows[i]))
    slots = []
    for j in range(n):
        lo = j * len(order) // n
        hi = max(lo + 1, (j + 1) * len(order) // n)
        width = max(k, (hi - lo) // 2)
        lo = max(lo, min((lo + hi - width) // 2, len(order) - width))
        band = np.arange(lo, min(lo + width, len(order)))
        picks = rng.choice(band, size=k, replace=band.size < k)
        slots.append([rows[order[int(i)]] for i in picks])
    return slots


def class_counts(n: int, shares: dict[str, float], main: str) -> dict[str, int]:
    """Ops per class: every minor class gets at least one op, ``main`` the rest."""
    counts = {kind: max(1, round(share * n)) for kind, share in shares.items()}
    counts[main] = max(1, n - sum(counts.values()))
    return counts


def op_seeds(rng, k: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**63, size=k)]


@lru_cache(maxsize=None)
def kernel_steps(n: int, lam: float, t: float, tol: float) -> int:
    """Computed: kernel steps K of one linear-space uniformization pass,
    from scipy.stats.poisson at Lambda*t = 2*lam*N*t and the query's tol.
    This mirrors bdld's ``evolve._poisson_k_max`` (tail below tol/2) and must
    change with it, or ``evolve.poisson_terms`` and the per-step costs
    follow the old rule."""
    mu = 2.0 * lam * n * t
    if mu == 0.0:
        return 0
    k = int(poisson.ppf(1.0 - 0.5 * tol, mu)) + 1
    while poisson.sf(k, mu) > 0.5 * tol:
        k += max(4, int(0.05 * k))
    return k


# Calibrated on the calibration VM; see speed.py.
DEEP_SPEED_ELASTICITY = 0.75
#: Prefix of the verify message of an op that misses its golden with the
#: answer recorded for a known defect (pool.json ``deep_known_defect``).
#: Such an op is reported, and counted in ``fail_frac``, but not in
#: ``failed``; any other wrong answer is a failure.
KNOWN_DEFECT = "known defect: "


class Workload:
    """Interface: ``make_slots``, ``warmups``, ``run``, ``record``,
    ``verify``, ``work``.  ``verify`` returns one failure message (or None)
    per op."""

    name = ""
    work_unit = ""

    def __init__(self, bd, pool: dict, out_dir):
        self.bd = bd
        self.pool = pool
        self.lam = pool["lam"]
        self.out_dir = out_dir

    def params(self, n: int):
        return self.bd.ModelParams(n, self.lam)

    def speed_elasticity(self, op) -> float:
        """How the op's latency grows with the reference time (see speed.py)."""
        return 1.0


class Oracle(Workload):
    """Exact window, dwell and rate-curve queries; nothing is simulated."""

    name = "oracle"
    work_unit = "queries"
    # Bulk windows set p50.  Deep-tail windows are the slowest class, and a
    # share well above 10% keeps p90 inside it rather than at its edge.
    SHARES = {"deep": 0.15, "dwell": 0.03, "rate": 0.03}
    # Cost keys for stratified sampling.  A deep-tail query's time follows
    # its log-space state-steps, N * Lambda*t ~ N^2 t, far more closely than
    # the single timing stored with it; the other classes use that timing.
    COST = {"bulk": lambda r: r[-1], "deep": lambda r: r[0] * r[0] * r[2],
            "dwell": lambda r: r[-1]}

    def __init__(self, bd, pool: dict, out_dir):
        super().__init__(bd, pool, out_dir)
        self.known_defects = {tuple(row[:5]): row[5]
                              for row in pool["oracle"]["deep_known_defect"]}

    def make_slots(self, n: int, k: int, rng) -> list:
        pool = self.pool["oracle"]
        counts = class_counts(n, self.SHARES, "bulk")
        slots = [[(kind, row) for row in rows] for kind in ("bulk", "deep", "dwell")
                 for rows in stratified(pool[kind], counts[kind], k, rng, key=self.COST[kind])]
        return slots + [[("rate", pool["rate_curve"])] * k for _ in range(counts["rate"])]

    def speed_elasticity(self, op) -> float:
        return DEEP_SPEED_ELASTICITY if op[0] == "deep" else 1.0

    def warmups(self) -> list:
        pool = self.pool["oracle"]
        return [(kind, min(pool[kind], key=lambda row: row[-1]))
                for kind in ("bulk", "deep", "dwell")] + [("rate", pool["rate_curve"])]

    def run(self, op, index: int):
        kind, q = op
        ev = self.bd.evolve
        if kind in ("bulk", "deep"):
            n, m0, t, lo, hi, tol, *_ = q
            return ev.window_log_probability(self.params(n), m0, t, range(lo, hi + 1), tol)
        if kind == "dwell":
            n, u, times, tol, *_ = q
            return ev.stationary_dwell_probability(self.params(n), u, times, tol)
        action = self.bd.optimal_paths.optimal_action(q["gamma0"], q["gamma_t"], q["horizon"],
                                                      self.lam, tol=1e-9)
        curve = ev.empirical_rate_curve([self.params(n) for n in q["ladder"]], q["gamma0"],
                                        q["gamma_t"], q["horizon"], q["half_width"],
                                        tol=q["tol"])
        return action, curve

    def record(self, op, out):
        if op[0] == "rate":
            action, curve = out
            return action, [-pt.rate * pt.n for pt in curve]
        return out

    def verify(self, ops, records) -> list:
        return [self._check(op, rec) for op, rec in zip(ops, records)]

    def _check(self, op, rec):
        kind, q = op
        if kind in ("bulk", "deep"):
            n, m0, t, lo, hi, tol, golden, _ = q
            if not reference.window_matches(rec, golden, tol):
                key = (n, m0, t, lo, hi)
                if key in self.known_defects and reference.matches_recorded(
                        rec, self.known_defects[key], tol):
                    return f"{KNOWN_DEFECT}{kind} {key}: log P {rec!r}, golden {golden!r}"
                return f"{kind} N={n}: log P {rec!r} misses golden {golden!r}"
            if n <= reference.EXPM_MAX_N and not reference.matches_expm(
                    math.exp(rec), _expm_window(n, self.lam, m0, t, lo, hi), tol):
                return f"{kind} N={n}: P misses dense expm"
            return None
        if kind == "dwell":
            n, u, times, tol, golden, _ = q
            slack = len(times) * tol
            if not abs(rec - golden) <= slack + reference.GOLDEN_REL * golden:
                return f"dwell N={n}: {rec!r} misses golden {golden!r}"
            if n <= reference.EXPM_MAX_N and not reference.matches_expm(
                    rec, _expm_dwell(n, self.lam, u, tuple(times)), slack):
                return f"dwell N={n}: misses dense expm"
            return None
        action, log_probs = rec
        if not abs(action - q["action"]) <= reference.ACTION_ABS:
            return f"rate curve: action {action!r} misses golden {q['action']!r}"
        for n, log_p, golden in zip(q["ladder"], log_probs, q["log_probs"]):
            if not reference.window_matches(log_p, golden, q["tol"]):
                return f"rate curve N={n}: log P {log_p!r} misses golden {golden!r}"
            if n <= reference.EXPM_MAX_N:
                m0, lo, hi = window_of(n, q)
                if not reference.matches_expm(math.exp(log_p),
                                              _expm_window(n, self.lam, m0, q["horizon"], lo, hi),
                                              q["tol"]):
                    return f"rate curve N={n}: misses dense expm"
        return None

    def work(self, op, rec) -> int:
        """Queries answered: one per window or dwell op, three per rate curve."""
        return len(op[1]["ladder"]) if op[0] == "rate" else 1


def window_of(n: int, spec: dict) -> tuple[int, int, int]:
    m0 = round(spec["gamma0"] * n)
    lo = max(1, round((spec["gamma_t"] - spec["half_width"]) * n))
    hi = min(n, round((spec["gamma_t"] + spec["half_width"]) * n))
    return m0, lo, hi


@lru_cache(maxsize=None)
def _expm_window(n, lam, m0, t, lo, hi):
    return reference.expm_window(n, lam, m0, t, lo, hi)


@lru_cache(maxsize=None)
def _expm_dwell(n, lam, u, times):
    return reference.expm_dwell(n, lam, u, times)


class Lln(Workload):
    """Plain Gillespie law-of-large-numbers experiments at README settings."""

    name = "lln"
    work_unit = "replications"

    def make_slots(self, n: int, k: int, rng) -> list:
        counts = class_counts(n, {"point": 0.5}, "stationary")
        kinds = ["point"] * counts["point"] + ["stationary"] * counts["stationary"]
        return [[(kind, seed) for seed in op_seeds(rng, k)] for kind in kinds]

    def warmups(self) -> list:
        return [("point", 0), ("stationary", 0)]

    def run(self, op, index: int):
        kind, seed = op
        sim, spec = self.bd.simulate, self.pool["lln"][kind]
        horizon = max(spec["times"]) if kind == "stationary" else spec["horizon"]
        config = self.bd.SimConfig(horizon=horizon, seed=seed, initial="stationary",
                                   replications=spec["reps"])
        if kind == "point":
            return sim.lln_point_experiment(self.params(spec["n"]), spec["gamma0"], spec["eps"],
                                            config)
        return sim.lln_stationary_experiment(self.params(spec["n"]), spec["u"], spec["times"],
                                             config)

    def record(self, op, out):
        return out.estimate, out.stderr, out.extra.get("bound")

    def verify(self, ops, records) -> list:
        failures = [None] * len(ops)
        stationary = [i for i, (kind, _) in enumerate(ops) if kind == "stationary"]
        for i, (kind, _) in enumerate(ops):
            if kind == "point" and not records[i][0] <= records[i][2]:
                failures[i] = f"lln-point estimate {records[i][0]} above bound {records[i][2]}"
        if stationary:
            spec = self.pool["lln"]["stationary"]
            mean, stderr, _ = reference.pooled([records[i][0] for i in stationary],
                                               [records[i][1] for i in stationary], spec["reps"])
            if not reference.within_sigmas(mean, stderr, spec["exact"]):
                message = (f"lln-stationary pooled {mean} +- {stderr} misses exact "
                           f"{spec['exact']} by more than {reference.POOLED_SIGMAS} sigma")
                for i in stationary:
                    failures[i] = message
        return failures

    def work(self, op, rec) -> int:
        return self.pool["lln"][op[0]]["reps"]


class Paths(Workload):
    """Long single trajectories, their occupation fractions and, for one op
    in four, the trajectory CSV."""

    name = "paths"
    work_unit = "jumps"
    CSV_EVERY = 4

    def make_slots(self, n: int, k: int, rng) -> list:
        by_size = defaultdict(list)
        for row in self.pool["paths"]:
            by_size[row[0]].append(row)
        sizes = sorted(by_size)
        slots = []
        for j, size in enumerate(sizes):
            count = n // len(sizes) + (1 if j < n % len(sizes) else 0)
            offset = int(rng.integers(self.CSV_EVERY))
            for i, rows in enumerate(stratified(by_size[size], count, k, rng,
                                                key=lambda row: row[4])):
                write = (i + offset) % self.CSV_EVERY == 0
                slots.append([(row, write) for row in rows])
        return slots

    def warmups(self) -> list:
        first = self.pool["paths"][0]
        return [(first, False), (first, True)]

    def run(self, op, index: int):
        (n, horizon, initial, seed, *_), write = op
        sim = self.bd.simulate
        traj = sim.sample_path(self.params(n),
                               self.bd.SimConfig(horizon=horizon, seed=seed, initial=initial))
        occupation = sim.occupation_fractions(traj, n)
        csv = None
        if write:
            csv = self.out_dir / f"path-{index}.csv"
            traj.to_csv(csv)
        return traj, occupation, csv

    def record(self, op, out):
        traj, occupation, csv = out
        return (int(traj.n_jumps), reference.trajectory_digest(traj),
                reference.occupation_matches(traj, occupation, op[0][0]), csv)

    def verify(self, ops, records) -> list:
        failures = []
        for op, (jumps, digest, occupation_ok, csv) in zip(ops, records):
            (n, _, _, seed, want_jumps, want_digest, want_csv), _ = op
            message = None
            if jumps != want_jumps or digest != want_digest:
                message = f"path N={n} seed={seed}: trajectory differs from its stored digest"
            elif not occupation_ok:
                message = f"path N={n} seed={seed}: occupation fractions disagree with the path"
            elif csv is not None:
                if not csv.is_file() or reference.file_digest(csv) != want_csv:
                    message = f"path N={n} seed={seed}: CSV bytes differ from the stored digest"
            failures.append(message)
        return failures

    def work(self, op, rec) -> int:
        return rec[0]


class RareEvent(Workload):
    """Importance sampling of a window probability steered by the dual tilt,
    on the ladder N = 100..800."""

    name = "rare-event"
    work_unit = "replications"
    # N=400 gets a double share so that the median slot lies inside one rung.
    RUNG_WEIGHTS = {100: 1, 200: 1, 400: 2, 800: 1}

    def make_slots(self, n: int, k: int, rng) -> list:
        total = sum(self.RUNG_WEIGHTS.values())
        shares = {rung: w / total for rung, w in self.RUNG_WEIGHTS.items() if rung != 400}
        counts = class_counts(n, shares, 400)
        rungs = [rung for rung in sorted(counts) for _ in range(counts[rung])]
        return [[(rung, seed) for seed in op_seeds(rng, k)] for rung in rungs]

    def warmups(self) -> list:
        return [(min(self.RUNG_WEIGHTS), 0)]

    def run(self, op, index: int):
        n, seed = op
        spec, bd = self.pool["rare_event"], self.bd
        parabola = bd.optimal_paths.solve_boundary(spec["gamma0"], spec["gamma_t"],
                                                   spec["horizon"], self.lam)
        tilt = bd.optimal_paths.dual_tilt(parabola)
        m0, lo, hi = window_of(n, spec)
        config = bd.SimConfig(horizon=spec["horizon"], seed=seed, initial=m0,
                              replications=spec["reps"])
        return bd.simulate.tilted_window_experiment(self.params(n), tilt, (lo, hi), config)

    def record(self, op, out):
        return out.estimate, out.stderr

    def rung_stats(self, ops, records) -> dict:
        """Per rung: pooled estimate, its standard error, and the standard
        deviation of one replication."""
        reps = self.pool["rare_event"]["reps"]
        by_rung = defaultdict(list)
        for (n, _), rec in zip(ops, records):
            by_rung[n].append(rec)
        return {n: reference.pooled([r[0] for r in recs], [r[1] for r in recs], reps)
                for n, recs in sorted(by_rung.items())}

    def verify(self, ops, records) -> list:
        exact = self.pool["rare_event"]["exact"]
        bad = {}
        for n, (mean, stderr, _) in self.rung_stats(ops, records).items():
            if not reference.within_sigmas(mean, stderr, exact[str(n)]):
                bad[n] = (f"rare-event N={n}: pooled {mean} +- {stderr} misses exact "
                          f"{exact[str(n)]} by more than {reference.POOLED_SIGMAS} sigma")
        return [bad.get(n) for n, _ in ops]

    def work(self, op, rec) -> int:
        return self.pool["rare_event"]["reps"]


WORKLOADS = {cls.name: cls for cls in (Oracle, Lln, Paths, RareEvent)}


def op_class(workload: Workload, op) -> str:
    if isinstance(workload, Paths):
        return f"N{op[0][0]}" + ("+csv" if op[1] else "")
    if isinstance(workload, RareEvent):
        return f"N{op[0]}"
    return op[0]


def class_histogram(workload: Workload, slots) -> dict[str, int]:
    """Slots per op class."""
    return dict(sorted(Counter(op_class(workload, slot[0]) for slot in slots).items()))
