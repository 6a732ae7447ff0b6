"""Time the sampler layer in an old checkout and this one, in process.

    python3 scripts/sampler_ab.py OLD

OLD is a checkout to compare against NEW, the checkout holding this
script; each runs in a worker process that imports ``bdld`` from its
``src/`` and times one call at a time with ``time.perf_counter``, so
process start-up and imports are not timed.  The calls follow
``benchmarks/pool.json`` (the only file read under ``benchmarks/``):

- ``rare N100`` .. ``rare N800``: ``tilted_window_experiment`` at the
  ``rare_event`` settings, the dual tilt of the optimal path from
  round(gamma0 N) on its window, seeds 1..SEEDS;
- ``lln-point`` and ``lln-stationary``: the ``lln`` experiments, seeds
  1..SEEDS;
- ``paths N<n>``: ``sample_path`` for every PATHS_EVERY-th ``paths`` row.

Each call runs ROUNDS times on each side, the sides taking turns at going
first, and keeps its best time.  The two sides must return the same
results: estimate, stderr and every extra field both report, bit for bit,
and for a path the same jump count and digest as its pool row.  Per class
the script prints the calls, the summed best times, and the median and
quartiles of the per-call ratios NEW / OLD.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEEDS = 20
PATHS_EVERY = 10
ROUNDS = 3


def worker() -> None:
    """Answer one JSON request [kind, lam, spec, arg] per input line with
    [seconds, result]."""
    from bdld import ModelParams, SimConfig, simulate
    from bdld.optimal_paths import dual_tilt, solve_boundary

    def experiment(res) -> dict:
        fields = {"estimate": res.estimate, "stderr": res.stderr, **res.extra}
        return {key: value.hex() if isinstance(value, float) else value
                for key, value in fields.items()}

    for line in sys.stdin:
        kind, lam, spec, arg = json.loads(line)
        if kind == "rare":
            n, seed = arg
            tilt = dual_tilt(solve_boundary(spec["gamma0"], spec["gamma_t"], spec["horizon"], lam))
            lo = max(1, round((spec["gamma_t"] - spec["half_width"]) * n))
            hi = min(n, round((spec["gamma_t"] + spec["half_width"]) * n))
            config = SimConfig(horizon=spec["horizon"], seed=seed,
                               initial=round(spec["gamma0"] * n), replications=spec["reps"])
            t0 = time.perf_counter()
            res = simulate.tilted_window_experiment(ModelParams(n, lam), tilt, (lo, hi), config)
        elif kind in ("lln-point", "lln-stationary"):
            horizon = max(spec["times"]) if kind == "lln-stationary" else spec["horizon"]
            config = SimConfig(horizon=horizon, seed=arg, replications=spec["reps"])
            t0 = time.perf_counter()
            if kind == "lln-point":
                res = simulate.lln_point_experiment(ModelParams(spec["n"], lam), spec["gamma0"],
                                                    spec["eps"], config)
            else:
                res = simulate.lln_stationary_experiment(ModelParams(spec["n"], lam), spec["u"],
                                                         spec["times"], config)
        else:
            n, horizon, initial, seed = arg[:4]
            config = SimConfig(horizon=horizon, seed=seed, initial=initial)
            t0 = time.perf_counter()
            res = simulate.sample_path(ModelParams(n, lam), config)
        seconds = time.perf_counter() - t0
        if kind == "path":
            digest = hashlib.sha256()
            digest.update(res.initial_state.to_bytes(8, "little", signed=True))
            digest.update(res.jump_times.tobytes())
            digest.update(res.states_after_jump.tobytes())
            result = [res.n_jumps, digest.hexdigest()]
        else:
            result = experiment(res)
        print(json.dumps([seconds, result]), flush=True)


class Side:
    def __init__(self, checkout: Path):
        env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
        self.proc = subprocess.Popen([sys.executable, __file__, "--worker"], env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, request: list):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def calls(pool: dict) -> list[tuple[str, list]]:
    """(class, request) of every call, classes in print order."""
    lam, rare = pool["lam"], pool["rare_event"]
    out = [(f"rare N{n}", ["rare", lam, rare, [n, seed]])
           for n in rare["ladder"] for seed in range(1, SEEDS + 1)]
    for kind in ("point", "stationary"):
        out += [(f"lln-{kind}", [f"lln-{kind}", lam, pool["lln"][kind], seed])
                for seed in range(1, SEEDS + 1)]
    rows = sorted(pool["paths"][::PATHS_EVERY], key=lambda row: row[0])
    return out + [(f"paths N{row[0]}", ["path", lam, None, row]) for row in rows]


def agree(request: list, old, new) -> bool:
    if request[0] == "path":
        row = request[3]
        return old == new == [row[4], row[5]]
    return all(old[key] == new[key] for key in old.keys() & new.keys())


def quartiles(values: list[float]) -> list[float]:
    ordered = sorted(values)
    return [round(ordered[round(q * (len(ordered) - 1))], 4) for q in (0.25, 0.5, 0.75)]


def main(argv: list[str]) -> int:
    if argv == ["--worker"]:
        worker()
        return 0
    if len(argv) != 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    pool = json.loads((REPO / "benchmarks" / "pool.json").read_text())
    sides = (Side(Path(argv[0]).resolve()), Side(REPO))
    by_class = defaultdict(list)
    disagree = []
    try:
        for i, (name, request) in enumerate(calls(pool)):
            best, results = [math.inf, math.inf], [None, None]
            for rnd in range(ROUNDS):
                for s in ((0, 1) if (i + rnd) % 2 == 0 else (1, 0)):
                    seconds, results[s] = sides[s].run(request)
                    best[s] = min(best[s], seconds)
            if not agree(request, *results):
                disagree.append(f"{name} {request[3]}")
            by_class[name].append(best)
    finally:
        for side in sides:
            side.close()
    print(f"best of {ROUNDS} per call; new/old ratio quartiles per class (q25, median, q75):")
    for name, best in by_class.items():
        old, new = (sum(b[s] for b in best) for s in (0, 1))
        print(f"  {name:>15}: {len(best):3d} calls, summed old {old:.3f} s, new {new:.3f} s, "
              f"new/old {quartiles([b / a for a, b in best])}")
    if disagree:
        print(f"results differ on {len(disagree)} calls: {disagree[:5]}")
        return 1
    print("results equal on every call")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
