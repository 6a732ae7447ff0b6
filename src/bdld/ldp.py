"""The large-deviation calculus of the scaled chain.

Core objects, for gamma in [0,1] and dual variable kappa:

    H(gamma, kappa) = lam*gamma*(e^kappa - 1) + lam*gamma*(e^-kappa - 1)
    L(gamma, u)     = sup_kappa { kappa*u - H(gamma, kappa) }
                    = u*asinh(u/a) + a - sqrt(u^2 + a^2),      a = 2*lam*gamma
                    = u*(asinh(u/a) - u/(a + sqrt(u^2 + a^2)))
    I(path)         = integral of L(gamma(t), dgamma(t)) dt

``lagrangian`` evaluates the last form, since a - sqrt(u^2 + a^2) =
-u^2/(a + sqrt(u^2 + a^2)): nothing in it cancels.  The second form loses
about 2*log10(a/|u|) digits in a - sqrt(u^2 + a^2) where |u| << a, and the
rationalized form with denominator u + sqrt(u^2 + a^2) cancels for u < 0 as
gamma -> 0.  Their equality is itself one of the tested invariants.

At the boundary gamma = 0 the Legendre limit gives L(0, 0) = 0 and
L(0, u != 0) = +inf, so paths resting at zero are cost-free and paths leaving
zero at positive speed pay only an integrable log singularity.

``rate_functional`` integrates I by adaptive quadrature along any path.  A
solved path needs none: ``optimal_paths.optimal_action`` gives its action in
closed form, and the ``action`` subcommand checks the quadrature against it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chain import ModelParams
from .quadrature import NonIntegrableError, integrate
from .serialize import read_csv

__all__ = [
    "KAPPA_LIMIT",
    "GridPath",
    "hamiltonian",
    "lagrangian",
    "prelimit_hamiltonian",
    "rate_functional",
    "rate_functional_report",
]

#: |kappa| beyond which e^kappa overflows double precision.
KAPPA_LIMIT = 700.0

# Grid nodes this close to zero trigger quadrature pre-splitting.
_SINGULAR_VALUE = 1e-6


def hamiltonian(gamma: float, kappa: float, lam: float) -> float:
    """H(gamma, kappa); non-negative, zero iff kappa = 0 or gamma = 0."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if abs(kappa) > KAPPA_LIMIT:
        raise ValueError(f"|kappa| > {KAPPA_LIMIT} would overflow, got {kappa}")
    return lam * gamma * (math.expm1(kappa) + math.expm1(-kappa))


def lagrangian(gamma: float, u: float, lam: float) -> float:
    """Closed-form L(gamma, u); returns +inf at gamma=0 with u != 0."""
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if gamma == 0.0:
        return 0.0 if u == 0.0 else math.inf
    a = 2.0 * lam * gamma
    return u * (math.asinh(u / a) - u / (a + math.hypot(u, a)))


def prelimit_hamiltonian(f: Callable[[float], float], params: ModelParams, gamma: float) -> float:
    """The finite-N nonlinear generator applied to the probe function f at a
    lattice point gamma = j/N:

        lam*gamma*(e^{N(f(gamma+1/N)-f(gamma))} - 1)   for j < N
      + lam*gamma*(e^{N(f(gamma-1/N)-f(gamma))} - 1)   for j > 1

    At j = 1 only the up term survives (prefactor lam/N) and at j = N only
    the down term (prefactor lam), exactly as the generator dictates.  For a
    C^1 probe with f'(1) = 0 it converges to H(gamma, f'(gamma)) at rate 1/N.
    """
    n = params.n_states
    j = round(gamma * n)
    if not 1 <= j <= n or abs(gamma * n - j) > 1e-6:
        raise ValueError(f"gamma={gamma} is not a lattice point j/N for N={n}")
    x = j / n
    f_here = f(x)
    prefactor = params.lam * x
    total = 0.0
    if j < n:
        total += prefactor * _expm1_guarded(n * (f((j + 1) / n) - f_here))
    if j > 1:
        total += prefactor * _expm1_guarded(n * (f((j - 1) / n) - f_here))
    return total


def _expm1_guarded(exponent: float) -> float:
    if abs(exponent) > KAPPA_LIMIT:
        raise ValueError(f"probe increment N*df = {exponent} would overflow")
    return math.expm1(exponent)


@dataclass(frozen=True)
class GridPath:
    """A smooth candidate path sampled on a time grid, with derivative values
    and optionally the closed form it was sampled from.

    The closed form, ``descriptor``, is any object whose methods ``value(t)``
    and ``derivative(t)`` evaluate the path and its time derivative exactly,
    such as ``ParabolaParams``.  When it is present, integration uses it
    directly; otherwise the samples are interpolated with a cubic Hermite
    spline.  Derivatives omitted at construction are filled by central
    differences (one-sided at the ends, the chord's slope on two points):
    analytic where possible, differencing only as a fallback.
    """

    times: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    descriptor: object | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        derivs = np.asarray(self.derivatives, dtype=float)
        for name, arr in (("times", times), ("values", values), ("derivatives", derivs)):
            object.__setattr__(self, name, arr)
        if not (times.ndim == 1 and times.size >= 2):
            raise ValueError("need at least two grid points")
        if values.shape != times.shape or derivs.shape != times.shape:
            raise ValueError("times, values and derivatives must have equal shapes")
        if not (np.isfinite(times).all() and np.isfinite(values).all() and np.isfinite(derivs).all()):
            raise ValueError("times, values and derivatives must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if float(values.min()) < -1e-12 or float(values.max()) > 1.0 + 1e-12:
            raise ValueError("path values must lie in [0, 1]")
        if self.descriptor is not None:
            sampled = np.array([self.descriptor.value(float(t)) for t in times])
            gap = float(np.abs(sampled - values).max())
            if gap > 1e-12:
                raise ValueError(f"grid values disagree with the closed form by {gap}")

    @property
    def horizon(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    @classmethod
    def from_samples(cls, times, values, derivatives=None) -> "GridPath":
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.size < 2:
            raise ValueError("need at least two grid points")
        if derivatives is None:
            derivatives = np.gradient(values, times, edge_order=min(2, times.size - 1))
        return cls(times, values, np.asarray(derivatives, dtype=float))

    @classmethod
    def from_descriptor(cls, descriptor, t0: float, t1: float,
                        n_points: int = 1001) -> "GridPath":
        times = np.linspace(t0, t1, n_points)
        values = np.array([descriptor.value(float(t)) for t in times])
        derivs = np.array([descriptor.derivative(float(t)) for t in times])
        return cls(times, values, derivs, descriptor=descriptor)

    @classmethod
    def from_csv(cls, path) -> "GridPath":
        header, rows = read_csv(path)
        if header[:2] != ["t", "gamma"]:
            raise ValueError(f"expected columns t,gamma[,dgamma], got {header}")
        width = 3 if header[2:3] == ["dgamma"] else 2
        parsed = []
        for i, row in enumerate(rows, start=1):
            if len(row) < width:
                raise ValueError(f"{path}: data row {i} {row} has {len(row)} field(s) "
                                 f"for {width} columns")
            try:
                parsed.append([float(x) for x in row[:width]])
            except ValueError as exc:
                raise ValueError(f"{path}: data row {i} {row}: {exc}") from None
        columns = np.array(parsed, dtype=float).reshape(-1, width).T.copy()
        return cls.from_samples(*columns)


def rate_functional(path: GridPath, lam: float, tol: float = 1e-9) -> float:
    """The action I = int L(gamma(t), dgamma(t)) dt along the path.

    Adaptive quadrature to the given absolute tolerance, with pre-splitting
    next to grid nodes where gamma is within 1e-6 of zero (the integrand has
    an integrable log singularity where an admissible path touches zero).
    Returns +inf if the path sits at zero with nonzero velocity somewhere in
    the interior.
    """
    return rate_functional_report(path, lam, tol)["I"]


def rate_functional_report(path: GridPath, lam: float, tol: float = 1e-9) -> dict:
    """Same as rate_functional but with the quadrature diagnostics attached."""
    value, err, n_intervals = _integrate_action(path, lam, tol)
    return {
        "I": value,
        "quadrature_error_estimate": err,
        "grid_size": int(path.times.size),
        "quadrature_intervals": n_intervals,
    }


def _cubic_hermite(path: GridPath) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """The cubic Hermite interpolant of a grid path and its derivative, with
    scipy's CubicHermiteSpline coefficients, by Horner's rule in s = t - t_i
    on [t_i, t_i+1); the last interval also takes its right end."""
    x, y, d = path.times, path.values, path.derivatives
    dx = np.diff(x)
    slope = np.diff(y) / dx
    c = (d[:-1] + d[1:] - 2 * slope) / dx
    coef, knots = np.stack([c / dx, (slope - d[:-1]) / dx - c, d[:-1], y[:-1]], 1).tolist(), x.tolist()

    def at(t: float, derivative: bool) -> float:
        i = min(max(bisect.bisect_right(knots, t) - 1, 0), len(coef) - 1)
        (c0, c1, c2, c3), s = coef[i], t - knots[i]
        return (3.0 * c0 * s + 2.0 * c1) * s + c2 if derivative else ((c0 * s + c1) * s + c2) * s + c3
    return (lambda t: at(t, False)), (lambda t: at(t, True))


def _integrate_action(path: GridPath, lam: float, tol: float) -> tuple[float, float, int]:
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("lam must be positive and finite")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    t0, t1 = path.horizon
    interior = slice(1, -1)
    zero_moving = (path.values[interior] == 0.0) & (path.derivatives[interior] != 0.0)
    if bool(zero_moving.any()):
        return math.inf, math.inf, 0

    exact = path.descriptor
    gamma_of, dgamma_of = ((exact.value, exact.derivative) if exact is not None
                           else _cubic_hermite(path))

    def integrand(t: float) -> float:
        g = gamma_of(t)
        g = 0.0 if g < 0.0 else (1.0 if g > 1.0 else g)  # clamp roundoff spill
        return lagrangian(g, dgamma_of(t), lam)

    split = [float(t) for t, v in zip(path.times, path.values)
             if v < _SINGULAR_VALUE and t0 < t < t1]
    # Give the adaptive scheme a head start next to singular endpoints.
    span = t1 - t0
    if path.values[0] < _SINGULAR_VALUE:
        split.append(t0 + 1e-6 * span)
    if path.values[-1] < _SINGULAR_VALUE:
        split.append(t1 - 1e-6 * span)
    try:
        result = integrate(integrand, t0, t1, abs_tol=tol, split_at=split)
    except NonIntegrableError:
        return math.inf, math.inf, 0
    return result.value, result.error_estimate, result.n_intervals
