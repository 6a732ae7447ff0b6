"""Time each layer's pool requests in an old checkout and this one, in process.

    python3 scripts/layer_ab.py OLD [--classes C,...] [--best-of K] [--json OUT]

OLD is a checkout to compare against NEW, the checkout holding this
script; each runs in a worker process that imports ``bdld`` from its
``src/`` and times one call at a time with ``time.perf_counter``, so
process start-up, imports and set-up are not timed.  The requests follow
``benchmarks/pool.json``:

- oracle: ``bulk``, ``deep`` and ``dwell``, the pool's ``oracle`` rows, and
  ``ladder``, the window 0.5 -> 0.8 +- 0.02 at T = 1 for N = 1600, 6400, 12800;
- sampler: ``rare N100`` .. ``rare N800``, ``tilted_window_experiment`` at
  the ``rare_event`` settings (the dual tilt of the optimal path, from the
  start to the window of ``benchmarks/workloads.window_of``), and
  ``lln-point`` and ``lln-stationary``, the ``lln`` experiments, each for
  seeds 1..SEEDS; ``paths N<n>``,
  ``sample_path`` for every PATHS_EVERY-th ``paths`` row;
- CSV writer: ``csv N<n>``, ``Trajectory.to_csv`` alone of every ``paths``
  row's path (simulated untimed), each write a new file.

Answers are checked as the benchmark checks them, by the digests and the
tolerance rules of ``benchmarks/reference.py``.

``--classes`` takes class names or their first words (``rare``, ``paths``,
``csv``).  Each request runs K times on each side, the sides taking turns
at going first, and keeps its best time.

A window log-probability must pass ``reference.window_matches`` against its
golden, a dwell probability lie within (sample times) * tol +
``reference.GOLDEN_REL`` P.  A ladder log-probability must lie within 2 tol
+ 1e-12 |ln P| of its golden: its goldens (ln P from -52 to -399) lie above
ln 1e-280, where ``window_matches`` compares P with tol = 1e-12 absolutely
and so passes any answer.  They are mpmath's at N = 1600 and the linear
window chain's on 1..N above (scripts/mp_window.py).  A path must have its
row's jump count and digest, a CSV file its row's digest, and the sampler
and the CSV writer the same results on both sides bit for bit (estimate,
stderr and every extra field both report).  Per class the script prints the
summed best times, the quantiles of the per-call ratios NEW / OLD, the
calls slower on NEW, the results equal bit for bit, the misses on each
side, the largest move between the sides (of ln P for windows, relative
for dwell) and µs per CSV row.  It exits 1 on any miss or sampler or CSV
difference.  One run can show a false move of a quarter on a class:
repeat a run before trusting a move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "benchmarks"))
import reference  # noqa: E402  benchmarks/reference.py, the benchmark's checks
from workloads import window_of  # noqa: E402  the rare-event workload's start and window

SEEDS = 20
PATHS_EVERY = 10
# (N, m0, T, lo, hi, tol, ln P): lattice_window(N, 0.8, 0.02) from N/2
LADDER = [
    (1600, 800, 1.0, 1248, 1312, 1e-12, -52.644492142339774455),
    (6400, 3200, 1.0, 4992, 5248, 1e-12, -201.52551545570373),
    (12800, 6400, 1.0, 9984, 10496, 1e-12, -399.46467060415006),
]
QUANTILES = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


def worker() -> None:
    """Answer one JSON request [call, lam, spec, arg] per input line with
    [seconds, result], the seconds those of the bdld call alone."""
    import tempfile
    from functools import partial

    from bdld import ModelParams, SimConfig, evolve, simulate
    from bdld.optimal_paths import dual_tilt, solve_boundary

    def sample(lam, row):
        n, horizon, initial, seed = row[:4]
        return partial(simulate.sample_path, ModelParams(n, lam),
                       SimConfig(horizon=horizon, seed=seed, initial=initial))

    def path_digest(path) -> list:
        return [path.n_jumps, reference.trajectory_digest(path)]

    def experiment(res) -> dict:
        fields = {"estimate": res.estimate, "stderr": res.stderr, **res.extra}
        return {key: value.hex() if isinstance(value, float) else value
                for key, value in fields.items()}

    def csv_digest(path, _) -> list:
        digest = reference.file_digest(out)
        out.unlink()  # each write makes a new file, as the benchmark's do
        return [path.n_jumps + 1, digest]

    written = (None, None)  # (row, path) of the last csv request
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "path.csv"
        for line in sys.stdin:
            call, lam, spec, arg = json.loads(line)
            finish = experiment
            if call in ("window", "ladder"):
                n, m0, t, lo, hi, tol = arg[:6]
                run, finish = partial(evolve.window_log_probability, ModelParams(n, lam), m0, t,
                                      range(lo, hi + 1), tol), float
            elif call == "dwell":
                n, u, times, tol = arg[:4]
                run, finish = partial(evolve.stationary_dwell_probability, ModelParams(n, lam),
                                      u, times, tol), float
            elif call == "rare":
                n, seed = arg
                tilt = dual_tilt(solve_boundary(spec["gamma0"], spec["gamma_t"], spec["horizon"], lam))
                m0, lo, hi = window_of(n, spec)
                config = SimConfig(horizon=spec["horizon"], seed=seed, initial=m0,
                                   replications=spec["reps"])
                run = partial(simulate.tilted_window_experiment, ModelParams(n, lam), tilt, (lo, hi),
                              config)
            elif call == "lln-point":
                config = SimConfig(horizon=spec["horizon"], seed=arg, replications=spec["reps"])
                run = partial(simulate.lln_point_experiment, ModelParams(spec["n"], lam),
                              spec["gamma0"], spec["eps"], config)
            elif call == "lln-stationary":
                config = SimConfig(horizon=max(spec["times"]), seed=arg, replications=spec["reps"])
                run = partial(simulate.lln_stationary_experiment, ModelParams(spec["n"], lam),
                              spec["u"], spec["times"], config)
            elif call == "path":
                run, finish = sample(lam, arg), path_digest
            else:  # csv: the path is simulated once, untimed, and written each time
                if written[0] != arg:
                    written = (arg, sample(lam, arg)())
                run, finish = partial(written[1].to_csv, out), partial(csv_digest, written[1])
            t0 = time.perf_counter()
            value = run()
            seconds = time.perf_counter() - t0
            print(json.dumps([seconds, finish(value)]), flush=True)


class Side:
    """A worker process importing bdld from one checkout's ``src/``."""

    def __init__(self, checkout: Path):
        env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
        self.proc = subprocess.Popen([sys.executable, __file__, "--worker"], env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, request: list) -> list:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def classes(pool: dict) -> dict[str, list]:
    """Every class's requests [call, lam, spec, arg], classes in print order."""
    lam, rare = pool["lam"], pool["rare_event"]
    table = {kind: [["dwell" if kind == "dwell" else "window", lam, None, row]
                    for row in pool["oracle"][kind]] for kind in ("bulk", "deep", "dwell")}
    table["ladder"] = [["ladder", lam, None, list(row)] for row in LADDER]
    for n in rare["ladder"]:
        table[f"rare N{n}"] = [["rare", lam, rare, [n, seed]] for seed in range(1, SEEDS + 1)]
    for kind in ("point", "stationary"):
        table[f"lln-{kind}"] = [[f"lln-{kind}", lam, pool["lln"][kind], seed]
                                for seed in range(1, SEEDS + 1)]
    for call, name, rows in (("path", "paths", pool["paths"][::PATHS_EVERY]), ("csv", "csv", pool["paths"])):
        for row in sorted(rows, key=lambda row: row[0]):
            table.setdefault(f"{name} N{row[0]}", []).append([call, lam, None, row])
    return table


def passes(request: list, result) -> bool | None:
    """Whether a result meets its golden or its digest; None for an experiment."""
    call, row = request[0], request[3]
    if call == "path":
        return result == row[4:6]
    if call == "csv":
        return result[1] == row[6]
    if call == "dwell":
        times, tol, golden = row[2], row[3], row[4]
        return abs(result - golden) <= len(times) * tol + reference.GOLDEN_REL * golden
    if call == "window":
        return reference.window_matches(result, row[6], row[5])
    if call == "ladder":
        tol, golden = row[5], row[6]
        return math.isfinite(result) and abs(result - golden) <= 2.0 * tol + 1e-12 * abs(golden)
    return None


def same(old, new) -> bool:
    """Equal bit for bit; experiments compare the fields both sides report."""
    if isinstance(old, dict):
        return all(old[key] == new[key] for key in old.keys() & new.keys())
    return old == new


def quantiles(values: list[float]) -> list[float]:
    ordered = sorted(values)
    return [round(ordered[round(q * (len(ordered) - 1))], 4) for q in QUANTILES]


def compare(sides: tuple[Side, Side], requests: list, best_of: int) -> dict:
    """Run each request best_of times on each side, the side going first
    alternating, and report the class."""
    best = [[math.inf] * len(requests) for _ in sides]
    results = [[None] * len(requests) for _ in sides]
    for i, request in enumerate(requests):
        for rep in range(best_of):
            for s in ((0, 1) if (i + rep) % 2 == 0 else (1, 0)):
                seconds, results[s][i] = sides[s].run(request)
                best[s][i] = min(best[s][i], seconds)
    old, new = results
    call = requests[0][0]
    report = {
        "calls": len(requests),
        "summed_s": {"old": round(sum(best[0]), 4), "new": round(sum(best[1]), 4)},
        "ratio_of_sums": round(sum(best[1]) / sum(best[0]), 4),
        "ratio_quantiles": quantiles([b / a for a, b in zip(*best)]),
        "slower": sum(b > a for a, b in zip(*best)),
        "equal": sum(map(same, old, new)),
        "must_agree": call not in ("window", "ladder", "dwell"),  # the oracle may move within tol
    }
    if passes(requests[0], new[0]) is not None:
        report["misses"] = {side: sum(not passes(r, v) for r, v in zip(requests, values))
                            for side, values in (("old", old), ("new", new))}
    if call == "dwell":
        report["largest_move"] = max(abs(b - a) / a if a else abs(b) for a, b in zip(old, new))
    elif call in ("window", "ladder"):
        report["largest_move"] = max(0.0 if a == b else abs(b - a) for a, b in zip(old, new))
    elif call == "csv":
        csv_rows = sum(v[0] for v in new)
        report["us_per_row"] = {side: round(sum(best[s]) / csv_rows * 1e6, 4)
                                for s, side in enumerate(("old", "new"))}
    return report


def measure(old: Path, table: dict[str, list], best_of: int) -> dict:
    """Each class's report, its requests run on OLD and on this checkout."""
    sides = (Side(old.resolve()), Side(REPO))
    try:
        return {name: compare(sides, requests, best_of) for name, requests in table.items()}
    finally:
        for side in sides:
            side.close()


def failures(report: dict) -> list[str]:
    """The classes with a miss, or with a sampler or CSV result that differs."""
    out = []
    for name, res in report.items():
        misses = res.get("misses", {})
        if any(misses.values()):
            out.append(f"{name}: misses old {misses['old']}, new {misses['new']}")
        if res["must_agree"] and res["equal"] < res["calls"]:
            out.append(f"{name}: {res['calls'] - res['equal']} results differ")
    return out


def main(argv: list[str]) -> int:
    if argv == ["--worker"]:
        worker()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("--classes", help="class names or first words, comma-separated (default all)")
    parser.add_argument("--best-of", type=int, default=3)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    table = classes(json.loads((REPO / "benchmarks" / "pool.json").read_text()))
    if args.classes:
        chosen = args.classes.split(",")
        unknown = set(chosen) - set(table) - {name.split()[0] for name in table}
        if unknown:
            parser.error(f"unknown classes {sorted(unknown)}; choose among {list(table)}")
        table = {name: reqs for name, reqs in table.items() if {name, name.split()[0]} & set(chosen)}
    if args.best_of < 1:
        parser.error("--best-of must be at least 1")
    report = measure(args.old, table, args.best_of)
    print(f"best of {args.best_of} per call; per-call new/old at q {list(QUANTILES)}")
    for name, res in report.items():
        pairs = "; ".join(f"{key} old {res[key]['old']:.4g}, new {res[key]['new']:.4g}"
                          for key in ("summed_s", "us_per_row", "misses") if key in res)
        print(f"{name}: {res['calls']} calls; {pairs}; new/old {res['ratio_of_sums']:.3f}")
        move = f"; largest move {res['largest_move']:.3g}" if "largest_move" in res else ""
        print(f"  per call new/old {res['ratio_quantiles']}; slower {res['slower']}; "
              f"equal bit for bit {res['equal']}{move}")
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    bad = failures(report)
    print("\n".join(bad) if bad else "no misses; sampler and CSV results equal on every call")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
