"""Time the paths pool's trajectory CSVs in an old checkout and this one, in process.

    python3 scripts/csv_ab.py OLD [--best-of K] [--json OUT]

OLD is a checkout to compare against NEW, the checkout holding this
script; each runs in a worker process that imports ``bdld`` from its
``src/``.  The rows are all of ``benchmarks/pool.json``'s ``paths`` (the
only file read under ``benchmarks/``).  Each worker simulates its rows'
paths once, untimed, and then times ``Trajectory.to_csv`` alone with
``time.perf_counter``, writing into its own temporary directory.  Each row is written K times on each side, the
sides taking turns at going first, and keeps its best time.

Every file written is checked against the row's stored CSV digest.  Per N
class the script prints the rows, the CSV rows written, the summed best
times as microseconds a CSV row on each side, NEW / OLD, and the files
whose digest misses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def worker() -> None:
    """Answer ["path", lam, row] with the path's CSV row count and
    ["write", index] with [seconds, SHA-256 of the file written]."""
    from bdld import ModelParams, SimConfig, sample_path

    paths = []
    with tempfile.TemporaryDirectory() as tmp:
        for line in sys.stdin:
            request = json.loads(line)
            if request[0] == "path":
                _, lam, (n, horizon, initial, seed, *_) = request
                config = SimConfig(horizon=horizon, seed=seed, initial=initial)
                paths.append(sample_path(ModelParams(n, lam), config))
                reply = paths[-1].n_jumps + 1
            else:
                out = Path(tmp) / f"path-{request[1]}.csv"
                t0 = time.perf_counter()
                paths[request[1]].to_csv(out)
                seconds = time.perf_counter() - t0
                reply = [seconds, hashlib.sha256(out.read_bytes()).hexdigest()]
                out.unlink()  # each write makes a new file, as the benchmark's do
            print(json.dumps(reply), flush=True)


class Side:
    def __init__(self, checkout: Path):
        env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
        self.proc = subprocess.Popen([sys.executable, __file__, "--worker"], env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def ask(self, request: list):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def compare(sides: tuple[Side, Side], lam: float, rows: list, best_of: int) -> dict:
    csv_rows = [[side.ask(["path", lam, row]) for side in sides] for row in rows]
    if any(a != b for a, b in csv_rows):
        raise SystemExit("the two checkouts simulate different paths")
    best = [[math.inf] * len(rows) for _ in sides]
    misses = [0, 0]
    for i, row in enumerate(rows):
        for rep in range(best_of):
            for s in ((0, 1) if (i + rep) % 2 == 0 else (1, 0)):
                seconds, digest = sides[s].ask(["write", i])
                best[s][i] = min(best[s][i], seconds)
                misses[s] += rep == 0 and digest != row[6]
    by_n = defaultdict(list)
    for i, row in enumerate(rows):
        by_n[row[0]].append(i)
    report = {}
    for n, idx in sorted(by_n.items()):
        written = sum(csv_rows[i][0] for i in idx)
        old, new = (sum(best[s][i] for i in idx) / written * 1e6 for s in (0, 1))
        report[f"N{n}"] = {"rows": len(idx), "csv_rows": written,
                           "us_per_row": {"old": round(old, 4), "new": round(new, 4)},
                           "new_over_old": round(new / old, 4)}
    report["digest_misses"] = {"old": misses[0], "new": misses[1]}
    return report


def main(argv: list[str]) -> int:
    if argv == ["--worker"]:
        worker()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("--best-of", type=int, default=3)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    if args.best_of < 1:
        parser.error("--best-of must be at least 1")
    pool = json.loads((REPO / "benchmarks" / "pool.json").read_text())
    sides = (Side(args.old.resolve()), Side(REPO))
    try:
        report = compare(sides, pool["lam"], pool["paths"], args.best_of)
    finally:
        for side in sides:
            side.close()
    print(f"best of {args.best_of}, us per CSV row:")
    for name, res in report.items():
        if name != "digest_misses":
            print(f"  {name:>7}: {res['rows']:4d} paths, {res['csv_rows']:8d} rows, "
                  f"old {res['us_per_row']['old']:.3f}, new {res['us_per_row']['new']:.3f} "
                  f"(new/old {res['new_over_old']:.3f})")
    print(f"digest misses: old {report['digest_misses']['old']}, "
          f"new {report['digest_misses']['new']}")
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
