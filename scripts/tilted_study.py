"""Importance-sampling efficiency of the dual tilt on a ladder of chain sizes.

    PYTHONPATH=src python3 scripts/tilted_study.py

Each rung (N, replications) runs ``tilted_window_experiment`` as
``tilted-mc`` does: the dual tilt of the optimal path 0.5 -> 0.8 over
T = 1, from round(0.5 N), on the window 0.8 +- 0.02, once per seed.  Per
rung and seed the script prints the estimate's distance from the exact
window probability in standard errors, ``rel_err_per_sample``, the ESS
as a fraction of the replications, the seconds per replication and the
time to a 1% relative error, s/rep * (rel_err_per_sample / 0.01)^2; then
the mean of each over the seeds.

``bdld`` is imported from PYTHONPATH, so pointing PYTHONPATH at another
checkout's ``src`` measures that checkout with the same script.
"""

from __future__ import annotations

import time

from bdld import ModelParams, SimConfig, dual_tilt, solve_boundary, tilted_window_experiment
from bdld.evolve import lattice_window, window_probability

RUNGS = ((100, 4000), (400, 4000), (1600, 2000))
SEEDS = (3, 4)
GAMMA0, GAMMA_T, HALF_WIDTH, HORIZON, LAM = 0.5, 0.8, 0.02, 1.0, 1.0


def main() -> None:
    tilt = dual_tilt(solve_boundary(GAMMA0, GAMMA_T, HORIZON, LAM))
    print(f"{'N':>5} {'reps':>5} {'seed':>5} {'sigma off':>9} {'rel/sample':>10} "
          f"{'ESS frac':>8} {'s/rep':>9} {'s to 1%':>8}")
    for n, reps in RUNGS:
        params = ModelParams(n, LAM)
        m0 = round(GAMMA0 * n)
        lo, hi = lattice_window(n, GAMMA_T, HALF_WIDTH)
        exact = window_probability(params, m0, HORIZON, range(lo, hi + 1), tol=1e-10)
        rows = []
        for seed in SEEDS:
            config = SimConfig(horizon=HORIZON, seed=seed, initial=m0, replications=reps)
            t0 = time.perf_counter()
            res = tilted_window_experiment(params, tilt, (lo, hi), config)
            per_rep = (time.perf_counter() - t0) / reps
            rel = res.extra["rel_err_per_sample"]
            rows.append(((res.estimate - exact) / res.stderr, rel, res.extra["ess"] / reps,
                         per_rep, per_rep * (rel / 0.01) ** 2))
            print(f"{n:5d} {reps:5d} {seed:5d} {rows[-1][0]:+9.2f} {rel:10.3f} "
                  f"{rows[-1][2]:8.3f} {per_rep:9.2e} {rows[-1][4]:8.2f}")
        mean = [sum(col) / len(col) for col in zip(*rows)]
        print(f"{n:5d} {reps:5d} {'mean':>5} {mean[0]:+9.2f} {mean[1]:10.3f} "
              f"{mean[2]:8.3f} {mean[3]:9.2e} {mean[4]:8.2f}")


if __name__ == "__main__":
    main()
