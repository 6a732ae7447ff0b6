"""Time-dependent exponential tilts z(t) for rare-event sampling.

A tilt multiplies the up rate by z and divides the down rate by z.  The
tilted sampler reads ``value`` alone, at time 0 and after every
``simulate._HOLD`` jumps, and holds the value in between (see
``bdld.simulate``), so any schedule with positive finite values gives an
exact weight.

Each schedule also knows the two compensator integrals of a tilt that
moves between jumps,

    int_a^b (z(s) - 1) ds      (up excess)
    int_a^b (1/z(s) - 1) ds    (down excess)

and a finite upper bound on max(z, 1/z) over the horizon.  No sampler uses
them; ``benchmarks/tracing.py`` wraps them by name on every class.
Closed-form schedules integrate exactly; the generic callable schedule uses
adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quadrature import integrate

__all__ = ["ConstantTilt", "ClosedFormDualTilt", "CallableTilt"]

# Absolute tolerance of CallableTilt's compensator integrals.
_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class ConstantTilt:
    """z(t) = z for all t.  z = 1 is the identity (no tilt)."""

    z: float

    def __post_init__(self):
        if not (self.z > 0.0 and math.isfinite(self.z)):
            raise ValueError(f"tilt value must be positive and finite, got {self.z!r}")

    def value(self, t: float) -> float:
        return self.z

    def up_excess_integral(self, a: float, b: float) -> float:
        return (self.z - 1.0) * (b - a)

    def down_excess_integral(self, a: float, b: float) -> float:
        return (1.0 / self.z - 1.0) * (b - a)

    def sup_bound(self, horizon: float) -> float:
        return max(self.z, 1.0 / self.z)


@dataclass(frozen=True)
class ClosedFormDualTilt:
    """The rational schedule z(t) = 1/(lam*t - c1) + 1.

    This is the dual variable of the closed-form optimal paths, so driving the
    chain with it steers trajectories along the minimizing parabola.  Valid on
    a horizon T only if lam*t - c1 stays out of [-1, 0] (otherwise z hits 0 or
    blows up); since lam*t - c1 is increasing it suffices to check at the ends.
    """

    c1: float
    lam: float

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError("lam must be positive and finite")
        if not math.isfinite(self.c1):
            raise ValueError("c1 must be finite")

    def _x(self, t: float) -> float:
        return self.lam * t - self.c1

    def validate_horizon(self, horizon: float) -> None:
        x0, xT = self._x(0.0), self._x(horizon)
        if not ((x0 > 0.0 and xT > 0.0) or (x0 < -1.0 and xT < -1.0)):
            raise ValueError(
                f"dual schedule singular or non-positive on [0, {horizon}]: "
                f"lam*t - c1 spans [{x0}, {xT}] which meets [-1, 0]")

    def value(self, t: float) -> float:
        return 1.0 / self._x(t) + 1.0

    def up_excess_integral(self, a: float, b: float) -> float:
        # z - 1 = 1/(lam*t - c1)
        return math.log(self._x(b) / self._x(a)) / self.lam

    def down_excess_integral(self, a: float, b: float) -> float:
        # 1/z - 1 = -1/(lam*t - c1 + 1)
        return -math.log((self._x(b) + 1.0) / (self._x(a) + 1.0)) / self.lam

    def sup_bound(self, horizon: float) -> float:
        self.validate_horizon(horizon)
        zs = (self.value(0.0), self.value(horizon))  # z is monotone in t
        return max(max(zs), 1.0 / min(zs))


class CallableTilt:
    """Wrap an arbitrary positive z(t).

    An explicit bound on max(z, 1/z) over the horizon must be supplied, and
    every evaluation is checked against it, so a schedule that strays past
    what its caller declared fails loudly.
    """

    def __init__(self, fn, bound: float):
        if not (bound >= 1.0 and math.isfinite(bound)):
            raise ValueError("bound must be finite and >= 1")
        self._fn = fn
        self._bound = float(bound)

    def value(self, t: float) -> float:
        z = float(self._fn(t))
        if not (z > 0.0 and math.isfinite(z)):
            raise ValueError(f"tilt must be positive and finite, got z({t}) = {z!r}")
        if max(z, 1.0 / z) > self._bound * (1.0 + 1e-9):
            raise ValueError(f"tilt exceeds its declared bound at t={t}: z={z}")
        return z

    def up_excess_integral(self, a: float, b: float) -> float:
        return integrate(lambda s: self.value(s) - 1.0, a, b, abs_tol=_QUAD_TOL).value

    def down_excess_integral(self, a: float, b: float) -> float:
        return integrate(lambda s: 1.0 / self.value(s) - 1.0, a, b, abs_tol=_QUAD_TOL).value

    def sup_bound(self, horizon: float) -> float:
        return self._bound
