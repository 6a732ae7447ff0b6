"""Reference window probabilities by uniformization in mpmath.

    python3 scripts/mp_window.py [N M0 T LO HI [DPS]] ...

Prints ln P(X(T) in LO..HI | X(0) = M0) for the chain on 1..N with lam = 1,
one line per query, as ``(N, M0, T, LO, HI): ln P``.  With no arguments it
recomputes the references pinned in ``tests/test_evolve.py``
(``ROUND_OFF_REFERENCES``): window 0.5 -> 0.8 +- 0.02 at T = 1, N = 400 and
1600, and one deep query below 1e-280.  The N = 1600 reference takes about a
minute.  ``tests/test_evolve.py`` also loads ``log_window`` as its mpmath
reference.

The law of X(k) of the uniformized chain, K = I + Q / (2 N), is carried in
mpmath at DPS digits (default 30), where nothing underflows, and the window
masses are summed with their Poisson(2 N T) weights.  The sum stops past the
mode once the next weight, which bounds the window mass of every later order
up to the geometric factor 1 / (1 - mu / (k + 2)), falls below 1e-40 of the
sum.
"""

from __future__ import annotations

import sys

import mpmath as mp

# (N, m0, T, lo, hi): the windows of lattice_window(N, 0.8, 0.02) from N/2 at
# T = 1, and a deep query (ln P about -1724) that steps its tiles apart
PINNED = [(400, 200, 1.0, 312, 328), (1600, 800, 1.0, 1248, 1312), (400, 380, 0.01, 1, 3)]


def log_window(n: int, m0: int, t: float, lo: int, hi: int, dps: int = 30) -> mp.mpf:
    """ln of the window mass, as above."""
    with mp.workdps(dps):
        rate = 2 * n
        mu = mp.mpf(rate) * mp.mpf(t)
        up = [mp.mpf(m) / rate if m < n else mp.mpf(0) for m in range(n + 2)]
        down = [mp.mpf(m) / rate if m > 1 else mp.mpf(0) for m in range(n + 2)]
        stay = [1 - up[m] - down[m] for m in range(n + 2)]
        p = {m0: mp.mpf(1)}
        pmf = mp.exp(-mu)
        total, k, cut = mp.mpf(0), 0, mp.mpf(10) ** -40
        while True:
            total += pmf * mp.fsum(v for m, v in p.items() if lo <= m <= hi)
            nxt = pmf * mu / (k + 1)
            if k + 2 > mu and total > 0 and nxt / (1 - mu / (k + 2)) < cut * total:
                return mp.log(total)
            k, pmf = k + 1, nxt
            step: dict[int, mp.mpf] = {}
            for m, v in p.items():
                step[m] = step.get(m, 0) + v * stay[m]
                if up[m]:
                    step[m + 1] = step.get(m + 1, 0) + v * up[m]
                if down[m]:
                    step[m - 1] = step.get(m - 1, 0) + v * down[m]
            p = step


def main(argv: list[str]) -> int:
    if argv and len(argv) not in (5, 6):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    queries = [(int(argv[0]), int(argv[1]), float(argv[2]), int(argv[3]), int(argv[4]))] if argv \
        else PINNED
    dps = int(argv[5]) if len(argv) == 6 else 30
    for query in queries:
        print(f"{query}: {mp.nstr(log_window(*query, dps=dps), 20)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
