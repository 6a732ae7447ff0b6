"""Machine-speed normalization of the benchmark's timings.

A shared machine's speed swings by up to 2x over seconds to minutes as its
other tenants load it, far more than the changes the benchmark must detect.
So before every timed op the benchmark times a fixed reference workload (a
pure-Python loop and a small-array numpy stencil; benchmark code that never
changes), and reports each op's latency at the reference speed:

    latency * REF_S / (median of the 11 reference times around the op)

REF_S is about the reference's time on the machine the benchmark was
calibrated on (a 2-core x86-64 VM at 2.0 GHz) when it ran unloaded, so
timings read close to that machine's unloaded wall-clock times.  Any change
to bdld's speed still shows in full; what cancels is the slowdown that the
reference and the op share.

An op class whose latency does not grow in proportion to the reference
time gets the scale raised to a power below one instead (see ``scales``).
On the calibration VM the log-space deep-tail window queries slowed as the
reference time to the power 0.59-0.65 (fitted over pairs of equal-cost ops
timed at different reference speeds), while bulk window queries slowed in
proportion (power 0.94-1.02).  Their power, 0.75, is the one that gave the
smallest run-to-run spread of the oracle workload's wall_s and op_p90_ms
over 45 runs in five sets.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_LOOPS = 4000
REF_STEPS = 60
REF_S = 5.8e-4
WINDOW = 5  # references on each side of an op that set its scale

# A uniformization-like stencil whose weights sum to one, so values stay
# normal floats.
_P0 = np.linspace(1.0, 2.0, 600)
_STAY = np.full(600, 0.5)
_MOVE = np.full(600, 0.25)


def reference_time() -> float:
    """Time of the reference: a pure-Python loop, then a small-array numpy
    stencil, the two kinds of work bdld's hot paths do."""
    start = time.perf_counter()
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    p = _P0
    for _ in range(REF_STEPS):
        q = p * _STAY
        q[1:] += p[:-1] * _MOVE[:-1]
        q[:-1] += p[1:] * _MOVE[1:]
        p = q
    return time.perf_counter() - start


def scales(refs: list[float], elasticities: list[float]) -> list[float]:
    """Per-op factor (REF_S / median of the reference times around op i),
    raised to the power of op i's speed elasticity."""
    return [(REF_S / statistics.median(refs[max(0, i - WINDOW):i + WINDOW + 1])) ** e
            for i, e in enumerate(elasticities)]
