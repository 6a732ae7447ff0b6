"""Adaptive Gauss-Kronrod (G7/K15) quadrature.

Plain bisection-adaptive scheme: integrate every interval with the 15-point
Kronrod rule, estimate the local error from the embedded 7-point Gauss rule,
and keep splitting the worst interval until the summed error estimate drops
below the tolerance.  The Kronrod nodes are strictly interior, so integrable
endpoint singularities (the log blow-up of the action integrand where a path
touches zero) are handled by subdivision alone; callers may pre-split at
known trouble spots via ``split_at``.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, NamedTuple

__all__ = ["integrate", "QuadratureResult", "NonIntegrableError"]

# QUADPACK's qk15 rule (Piessens et al. 1983), rounded to the nearest double:
# the Kronrod nodes x >= 0 on [-1, 1], each standing for +x and -x, with their
# Kronrod weights and the embedded 7-point Gauss weights (0 off the Gauss nodes).
_NODES = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
          0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
          0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
          0.207784955007898467600689403773245, 0.0)
_WEIGHTS_K = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
              0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
              0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
              0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WEIGHTS_G = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
              0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)


# Past this many intervals the sum is returned with its error estimate as it
# stands.
_MAX_INTERVALS = 4000


class NonIntegrableError(ArithmeticError):
    """The integrand evaluated to a non-finite value inside an interval."""


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    n_intervals: int


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    total_k = 0.0
    total_g = 0.0
    for x, wk, wg in zip(_NODES, _WEIGHTS_K, _WEIGHTS_G):
        for t in (mid + half * x, mid - half * x) if x else (mid,):
            y = f(t)
            if not math.isfinite(y):
                raise NonIntegrableError(f"integrand is non-finite at t={t}: {y!r}")
            total_k += wk * y
            total_g += wg * y
    delta = abs(total_k - total_g) * half
    # QUADPACK-style sharpening of the raw |K15 - G7| gap.
    err = delta if delta >= 1.25e-7 else (200.0 * delta) ** 1.5
    return total_k * half, err


def integrate(f, a: float, b: float, abs_tol: float = 1e-9,
              split_at: Iterable[float] = ()) -> QuadratureResult:
    """Integrate f over [a, b] to the requested absolute tolerance."""
    if not b >= a:  # NaN too
        raise ValueError(f"bad interval [{a}, {b}]")
    cuts = sorted({a, b, *(t for t in split_at if a < t < b)})
    heap = []  # entries: (-err, tie_break, left, right, value)
    tick = 0
    for left, right in zip(cuts[:-1], cuts[1:]):
        value, err = _gk15(f, left, right)
        heap.append((-err, tick, left, right, value))
        tick += 1
    heapq.heapify(heap)
    while True:
        total_err = math.fsum(-item[0] for item in heap)
        if not heap or total_err <= abs_tol or len(heap) >= _MAX_INTERVALS:
            value = math.fsum(item[4] for item in heap)
            return QuadratureResult(value, total_err, len(heap))
        _, _, left, right, _ = heapq.heappop(heap)
        mid = 0.5 * (left + right)
        if mid <= left or mid >= right:
            # interval at float resolution: accept its estimate as-is
            value, err = _gk15(f, left, right)
            heapq.heappush(heap, (-0.0, tick, left, right, value))
            tick += 1
            continue
        for lo, hi in ((left, mid), (mid, right)):
            value, err = _gk15(f, lo, hi)
            heapq.heappush(heap, (-err, tick, lo, hi, value))
            tick += 1
