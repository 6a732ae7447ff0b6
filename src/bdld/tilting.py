"""Time-dependent exponential tilts z(t) for rare-event sampling.

A tilt multiplies the up rate by z(t) and divides the down rate by z(t).
Besides the pointwise value, each schedule knows the two compensator
integrals that enter the likelihood ratio,

    int_a^b (z(s) - 1) ds      (up excess)
    int_a^b (1/z(s) - 1) ds    (down excess)

and a finite upper bound on max(z, 1/z) over the horizon, which the thinning
sampler uses as its proposal-rate majorant.  Closed-form schedules integrate
exactly; the generic callable schedule falls back to adaptive quadrature, so
its weight bias stays far below Monte Carlo noise.

``value`` and the two integrals also take numpy arrays (of times, and of
interval ends) and then apply, element by element, the IEEE operations they
apply to floats, so the vectorised sampler gets bit-identical numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import integrate

__all__ = ["ConstantTilt", "ClosedFormDualTilt", "CallableTilt"]

# Absolute tolerance of CallableTilt's compensator integrals.
_QUAD_TOL = 1e-10


def _log(x):
    """math.log, element by element on an array: np.log differs from it in
    the last bit on some inputs."""
    if isinstance(x, np.ndarray):
        return np.array(list(map(math.log, x.tolist())))
    return math.log(x)


@dataclass(frozen=True)
class ConstantTilt:
    """z(t) = z for all t.  z = 1 is the identity (no tilt)."""

    z: float

    def __post_init__(self):
        if not (self.z > 0.0 and math.isfinite(self.z)):
            raise ValueError(f"tilt value must be positive and finite, got {self.z!r}")

    def value(self, t):
        return np.full(t.shape, self.z) if isinstance(t, np.ndarray) else self.z

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

    def value(self, t):
        return 1.0 / self._x(t) + 1.0

    def up_excess_integral(self, a, b):
        # z - 1 = 1/(lam*t - c1)
        return _log(self._x(b) / self._x(a)) / self.lam

    def down_excess_integral(self, a, b):
        # 1/z - 1 = -1/(lam*t - c1 + 1)
        return -_log((self._x(b) + 1.0) / (self._x(a) + 1.0)) / self.lam

    def sup_bound(self, horizon: float) -> float:
        self.validate_horizon(horizon)
        zs = (self.value(0.0), self.value(horizon))  # z is monotone in t
        return max(max(zs), 1.0 / min(zs))


class CallableTilt:
    """Wrap an arbitrary positive piecewise-continuous z(t).

    An explicit bound on max(z, 1/z) over the horizon must be supplied; every
    evaluation is checked against it so a wrong bound fails loudly instead of
    silently biasing the sampler.
    """

    def __init__(self, fn, bound: float):
        if not (bound >= 1.0 and math.isfinite(bound)):
            raise ValueError("bound must be finite and >= 1")
        self._fn = fn
        self._bound = float(bound)

    def value(self, t):
        if isinstance(t, np.ndarray):
            return np.array([self._checked(s) for s in t.tolist()])
        return self._checked(t)

    def _checked(self, t: float) -> float:
        z = float(self._fn(t))
        if not (z > 0.0 and math.isfinite(z)):
            raise ValueError(f"tilt must be positive and finite, got z({t}) = {z!r}")
        if max(z, 1.0 / z) > self._bound * (1.0 + 1e-9):
            raise ValueError(f"tilt exceeds its declared bound at t={t}: z={z}")
        return z

    def _excess(self, integrand, a, b):
        if isinstance(b, np.ndarray):
            a, b = np.broadcast_arrays(a, b)
            return np.array([self._excess(integrand, x, y)
                             for x, y in zip(a.tolist(), b.tolist())])
        if a == b:
            return 0.0
        return integrate(integrand, a, b, abs_tol=_QUAD_TOL).value

    def up_excess_integral(self, a, b):
        return self._excess(lambda s: self._checked(s) - 1.0, a, b)

    def down_excess_integral(self, a, b):
        return self._excess(lambda s: 1.0 / self._checked(s) - 1.0, a, b)

    def sup_bound(self, horizon: float) -> float:
        return self._bound
