"""Time the oracle pool's window and dwell queries in an old checkout and this one, in process.

    python3 scripts/oracle_ab.py OLD [--classes bulk,deep,dwell,ladder] [--best-of K] [--json OUT]

OLD is a checkout to compare against NEW, the checkout holding this
script; each runs in a worker process that imports ``bdld`` from its
``src/`` and times one query at a time with ``time.perf_counter``, so
process start-up and imports are not timed.  The rows are those of
``benchmarks/pool.json`` (``oracle`` ``bulk``, ``deep`` and ``dwell``; the
only file read under ``benchmarks/``), and the ``ladder``: the window
0.5 -> 0.8 +- 0.02 at T = 1 for N = 1600, 6400 and 12800.  Each row runs K
times on each side, the sides taking turns at going first, and keeps its
best time.

Each answer is checked against its golden: a log-probability below
ln 1e-280, or of the ladder, within 2 tol + 1e-12 |ln P| of it, a larger
one within tol + 1e-9 P, a dwell probability within (sample times) * tol +
1e-9 P.  The ladder's goldens are mpmath's at N = 1600 and the linear
window chain's on 1..N at N = 6400 and 12800 (scripts/mp_window.py).  Per
class the script prints the summed best times, the quantiles of the
per-row ratios NEW / OLD, the answers that miss their golden, the answers
equal bit for bit, and the largest difference between the two sides (of
ln P for window queries, relative for dwell queries).
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
CLASSES = ("bulk", "deep", "dwell", "ladder")
# (N, m0, T, lo, hi, tol, ln P): lattice_window(N, 0.8, 0.02) from N/2
LADDER = [
    (1600, 800, 1.0, 1248, 1312, 1e-12, -52.644492142339774455),
    (6400, 3200, 1.0, 4992, 5248, 1e-12, -201.52551545570373),
    (12800, 6400, 1.0, 9984, 10496, 1e-12, -399.46467060415006),
]
QUANTILES = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


def worker() -> None:
    """Answer one JSON request [kind, lam, row] per input line with [seconds, value]."""
    from bdld import ModelParams, evolve

    for line in sys.stdin:
        kind, lam, row = json.loads(line)
        if kind == "dwell":
            n, u, times, tol = row[:4]
            t0 = time.perf_counter()
            value = evolve.stationary_dwell_probability(ModelParams(n, lam), u, times, tol)
        else:
            n, m0, t, lo, hi, tol = row[:6]
            t0 = time.perf_counter()
            value = evolve.window_log_probability(ModelParams(n, lam), m0, t, range(lo, hi + 1), tol)
        seconds = time.perf_counter() - t0
        print(json.dumps([seconds, value]), flush=True)


class Side:
    def __init__(self, checkout: Path):
        env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
        self.proc = subprocess.Popen([sys.executable, __file__, "--worker"], env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, kind: str, lam: float, row: list) -> tuple[float, float]:
        self.proc.stdin.write(json.dumps([kind, lam, row]) + "\n")
        self.proc.stdin.flush()
        seconds, value = json.loads(self.proc.stdout.readline())
        return seconds, value

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def matches_golden(kind: str, row: list, value: float) -> bool:
    if kind == "dwell":
        times, tol, golden = row[2], row[3], row[4]
        return abs(value - golden) <= len(times) * tol + 1e-9 * golden
    tol, golden = row[5], row[6]
    if not math.isfinite(value):
        return False
    if golden < math.log(1e-280) or kind == "ladder":
        return abs(value - golden) <= 2.0 * tol + 1e-12 * abs(golden)
    return abs(math.exp(value) - math.exp(golden)) <= tol + 1e-9 * math.exp(golden)


def quantiles(values: list[float]) -> list[float]:
    ordered = sorted(values)
    return [round(ordered[round(q * (len(ordered) - 1))], 4) for q in QUANTILES]


def compare(sides: tuple[Side, Side], kind: str, lam: float, rows: list, best_of: int) -> dict:
    best = [[math.inf] * len(rows) for _ in sides]
    values: list[list[float]] = [[math.nan] * len(rows) for _ in sides]
    for i, row in enumerate(rows):
        for rep in range(best_of):
            order = (0, 1) if (i + rep) % 2 == 0 else (1, 0)
            for s in order:
                seconds, values[s][i] = sides[s].run(kind, lam, row)
                best[s][i] = min(best[s][i], seconds)
    old, new = values
    if kind == "dwell":
        moves = [abs(b - a) / a if a else abs(b) for a, b in zip(old, new)]
    else:
        moves = [0.0 if a == b else abs(b - a) for a, b in zip(old, new)]
    return {
        "rows": len(rows),
        "summed_s": {"old": round(sum(best[0]), 4), "new": round(sum(best[1]), 4)},
        "ratio_of_sums": round(sum(best[1]) / sum(best[0]), 4),
        "row_ratio_quantiles": {"q": list(QUANTILES),
                                "new_over_old": quantiles([b / a for a, b in zip(*best)])},
        "golden_misses": {"old": sum(not matches_golden(kind, r, v) for r, v in zip(rows, old)),
                          "new": sum(not matches_golden(kind, r, v) for r, v in zip(rows, new))},
        "bit_identical": sum(a == b for a, b in zip(old, new)),
        "largest_move": max(moves),
    }


def main(argv: list[str]) -> int:
    if argv == ["--worker"]:
        worker()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("--classes", default=",".join(CLASSES))
    parser.add_argument("--best-of", type=int, default=3)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    classes = args.classes.split(",")
    if not set(classes) <= set(CLASSES) or args.best_of < 1:
        parser.error(f"classes must be among {CLASSES}; --best-of at least 1")
    pool = json.loads((REPO / "benchmarks" / "pool.json").read_text())
    sides = (Side(args.old.resolve()), Side(REPO))
    try:
        report = {kind: compare(sides, kind, pool["lam"],
                                LADDER if kind == "ladder" else pool["oracle"][kind], args.best_of)
                  for kind in classes}
    finally:
        for side in sides:
            side.close()
    for kind, res in report.items():
        print(f"{kind}: {res['rows']} rows, summed best of {args.best_of} "
              f"old {res['summed_s']['old']:.3f} s, new {res['summed_s']['new']:.3f} s "
              f"(new/old {res['ratio_of_sums']:.3f})")
        print(f"  per-row new/old at q {list(QUANTILES)}: {res['row_ratio_quantiles']['new_over_old']}")
        print(f"  golden misses old {res['golden_misses']['old']}, new {res['golden_misses']['new']}; "
              f"bit-identical {res['bit_identical']}; largest move {res['largest_move']:.3g}")
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
