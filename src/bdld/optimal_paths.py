"""Closed-form minimizers of the action between fixed endpoints.

For boundary data gamma(0) = g0, gamma(T) = gT the minimizing path is either
constant (equal endpoints) or the parabola

    gamma(t) = c2 * (lam*t - c1) * (lam*t - c1 + 1),      c2 > 0,

with the dual variable z(t) = e^kappa(t) = 1/(lam*t - c1) + 1.  The pair
solves the characteristic system

    dgamma/dt = lam*gamma*(z - 1/z)
    dkappa/dt = -lam*(z + 1/z - 2)

exactly, so the residual check below is pure round-off.  Five cases fix
(c1, c2): constant, start at zero, end at zero, and the two generic monotone
cases, where c1 solves a quadratic and the branch (smaller root for
increasing paths, larger for decreasing) is the one keeping the parabola's
vertex outside (0, T).  The branch choice is re-verified instead of being
trusted: the path is checked against [0, 1] at both ends and at its vertex,
where a parabola takes its extremes.

The action of a solved path is a closed form.  Along an extremal the
Hamiltonian is the constant lam*c2 (Freidlin & Wentzell, *Random
Perturbations of Dynamical Systems*, 3rd ed.), so

    S = int (kappa*gamma' - H) dt = gamma(T)*kappa(T) - gamma(0)*kappa(0)
      = c2 * [x*(x+1)*ln(1 + 1/x)] from x0 = -c1 to x1 = lam*T - c1,

which ``optimal_action`` evaluates to round-off without sampling the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .tilting import ClosedFormDualTilt, ConstantTilt

__all__ = [
    "PathCase",
    "ParabolaParams",
    "AdmissibilityError",
    "solve_boundary",
    "hamiltonian_residual",
    "optimal_action",
    "dual_tilt",
    "sample_rows",
]

_EQUAL_ENDPOINT_TOL = 1e-14


class PathCase(str, Enum):
    CONSTANT = "constant"
    FROM_ZERO = "from_zero"
    TO_ZERO = "to_zero"
    GENERAL_INCREASING = "general_increasing"
    GENERAL_DECREASING = "general_decreasing"


class AdmissibilityError(ValueError):
    """The solved parabola leaves [0, 1] inside the horizon."""


@dataclass(frozen=True)
class ParabolaParams:
    """The solved path: (c1, c2) and the case tag, plus the boundary data it
    was solved for.  For the constant case c1 = c2 = 0 and the path's value
    is gamma0."""

    c1: float
    c2: float
    case: PathCase
    lam: float
    horizon: float
    gamma0: float
    gammaT: float

    def value(self, t: float) -> float:
        if self.case is PathCase.CONSTANT:
            return self.gamma0
        x = self.lam * t - self.c1
        return self.c2 * x * (x + 1.0)

    def derivative(self, t: float) -> float:
        if self.case is PathCase.CONSTANT:
            return 0.0
        x = self.lam * t - self.c1
        return self.c2 * self.lam * (2.0 * x + 1.0)

    def dual(self, t: float) -> float:
        """z(t) = e^kappa(t); always > 0 for admissible params, errors where the
        closed form is singular (a path touching zero at an endpoint)."""
        if self.case is PathCase.CONSTANT:
            return 1.0
        x = self.lam * t - self.c1
        if -1.0 <= x <= 0.0:
            raise ValueError(
                f"dual variable singular or non-positive at t={t}: lam*t - c1 = {x} in [-1, 0]")
        return 1.0 / x + 1.0

    def to_json_obj(self) -> dict:
        return {
            "c1": self.c1,
            "c2": self.c2,
            "case": self.case.value,
            "lambda": self.lam,
            "T": self.horizon,
            "gamma0": self.gamma0,
            "gammaT": self.gammaT,
        }


def solve_boundary(gamma0: float, gammaT: float, T: float, lam: float) -> ParabolaParams:
    """Solve the boundary-value problem for the minimizing path."""
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError(f"T must be positive, got {T!r}")
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"lam must be positive, got {lam!r}")
    for name, g in (("gamma0", gamma0), ("gammaT", gammaT)):
        if not 0.0 <= g <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {g}")

    if abs(gamma0 - gammaT) <= _EQUAL_ENDPOINT_TOL:
        return ParabolaParams(0.0, 0.0, PathCase.CONSTANT, lam, T, gamma0, gammaT)

    lt = lam * T
    span = lt * (lt + 1.0)
    if span == 0.0 or not math.isfinite(span):
        raise _out_of_range(lt, span)
    if gamma0 == 0.0:
        params = ParabolaParams(0.0, gammaT / span, PathCase.FROM_ZERO, lam, T, gamma0, gammaT)
    elif gammaT == 0.0:
        params = ParabolaParams(lt + 1.0, gamma0 / span, PathCase.TO_ZERO, lam, T, gamma0, gammaT)
    else:
        increasing = gammaT > gamma0
        delta = gammaT - gamma0
        b = 2.0 * lt * gamma0 / delta - 1.0
        c = -span * gamma0 / delta
        try:
            disc = 1.0 + (2.0 * lt / delta) ** 2 * gamma0 * gammaT  # = b*b - 4c, exactly >= 1
        except OverflowError:
            raise _out_of_range(lt, math.inf) from None
        # Stable quadratic: q and c/q are the two roots of x^2 + b x + c.
        s = math.sqrt(disc)
        q = -0.5 * (b + math.copysign(s, b)) if b != 0.0 else -0.5 * s
        roots = (q, c / q) if q != 0.0 else (0.0, 0.0)
        c1 = min(roots) if increasing else max(roots)
        den = c1 * (c1 - 1.0)
        if den == 0.0 or not math.isfinite(den):
            raise _out_of_range(lt, den)
        c2 = gamma0 / den
        case = PathCase.GENERAL_INCREASING if increasing else PathCase.GENERAL_DECREASING
        params = ParabolaParams(c1, c2, case, lam, T, gamma0, gammaT)

    _verify_admissible(params)
    return params


def _out_of_range(lt: float, value: float) -> ValueError:
    """The error of lam*T = lt whose closed-form intermediate, value,
    underflowed to 0 or overflowed (inf or nan)."""
    size, way = ("small", "underflow") if value == 0.0 else ("large", "overflow")
    return ValueError(f"lam*T = {lt!r} is too {size} for the closed-form path: "
                      f"its intermediates {way} a double")


def _verify_admissible(params: ParabolaParams) -> None:
    """Raise AdmissibilityError unless the path stays in [0, 1] on [0, T] and
    meets its boundary data.  A parabola's extremes on [0, T] lie at the ends
    or at its vertex t = (c1 - 1/2)/lam, so those points are checked, in
    order of t."""
    ts = [0.0, params.horizon]
    vertex = (params.c1 - 0.5) / params.lam
    if 0.0 < vertex < params.horizon:  # never for the constant case, c1 = 0
        ts.insert(1, vertex)
    for t in ts:
        g = params.value(t)
        if not -1e-12 <= g <= 1.0 + 1e-12:  # NaN fails too
            raise AdmissibilityError(
                f"solved path leaves [0, 1]: gamma({t}) = {g} "
                f"(gamma0={params.gamma0}, gammaT={params.gammaT})")
    if not abs(params.value(0.0) - params.gamma0) <= 1e-12:
        raise AdmissibilityError(f"gamma(0) misses gamma0 by "
                                 f"{params.value(0.0) - params.gamma0}")
    if not abs(params.value(params.horizon) - params.gammaT) <= 1e-10:
        raise AdmissibilityError(f"gamma(T) misses gammaT by "
                                 f"{params.value(params.horizon) - params.gammaT}")


def hamiltonian_residual(params: ParabolaParams, grid_size: int = 1000) -> tuple[float, float]:
    """Max residuals of the two characteristic equations on an interior grid
    (endpoints excluded: that is where paths may touch zero and the dual
    becomes singular), kappa's against the analytic dkappa/dt = -lam / (x*(x+1))
    with x = lam*t - c1.  Each is relative to max(lam, the largest |left-hand
    side| of its equation on the grid), |gamma'| and lam/|x*(x+1)|: its
    round-off scales with those terms, which reach lam/|x*(x+1)| ~ 1e13 on a
    path leaving zero at lam*T = 1e-8."""
    if params.case is PathCase.CONSTANT:
        return 0.0, 0.0
    lam, T = params.lam, params.horizon
    worst_gamma = worst_kappa = 0.0
    scale_gamma = scale_kappa = lam
    for i in range(1, grid_size + 1):
        t = T * i / (grid_size + 1)
        z = params.dual(t)
        x = lam * t - params.c1
        dgamma, dkappa = params.derivative(t), -lam / (x * (x + 1.0))
        worst_gamma = max(worst_gamma, abs(dgamma - lam * params.value(t) * (z - 1.0 / z)))
        worst_kappa = max(worst_kappa, abs(dkappa + lam * (z + 1.0 / z - 2.0)))
        scale_gamma, scale_kappa = max(scale_gamma, abs(dgamma)), max(scale_kappa, abs(dkappa))
    return worst_gamma / scale_gamma, worst_kappa / scale_kappa


def optimal_action(gamma0: float, gammaT: float, T: float, lam: float,
                   tol: float = 1e-9) -> float:
    """Action of the solved path; zero iff the endpoints coincide.

    The closed form S = gamma*kappa from 0 to T is exact to round-off (within
    2e-14 relative of a 60-digit evaluation), so ``tol``, which must be
    positive and finite, bounds nothing and is kept for callers that pass it.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    params = solve_boundary(gamma0, gammaT, T, lam)
    if params.case is PathCase.CONSTANT:
        return 0.0
    # S = c2*(g(x1) - g(x0)) with g(x) = x(x+1)ln(1 + 1/x) = x + 1/2 + h(x);
    # g(0) = 0 and g(-1) = 0 give h's limits at paths from and to zero.
    h0 = -0.5 if params.case is PathCase.FROM_ZERO else _h(-params.c1)
    h1 = 0.5 if params.case is PathCase.TO_ZERO else _h(lam * T - params.c1)
    return params.c2 * (lam * T + h1 - h0)


def _h(x: float) -> float:
    """x(x+1)*log1p(1/x) - x - 1/2 for x outside [-1, 0]; for |x| >= 8 by its
    series, sum over k >= 1 of (-x)^-k / ((k+1)(k+2)), which the direct form
    loses to cancellation (17 terms leave a remainder below 8^-18/380)."""
    if abs(x) < 8.0:
        return x * (x + 1.0) * math.log1p(1.0 / x) - x - 0.5
    return math.fsum((-1.0 / x) ** k / ((k + 1) * (k + 2)) for k in range(1, 18))


def dual_tilt(params: ParabolaParams):
    """The sampling tilt z(t) matching the solved path.

    Only defined when z is positive and finite on the whole horizon, which
    rules out the cases touching zero (their dual blows up or vanishes at an
    endpoint).
    """
    if params.case is PathCase.CONSTANT:
        return ConstantTilt(1.0)
    tilt = ClosedFormDualTilt(c1=params.c1, lam=params.lam)
    tilt.validate_horizon(params.horizon)
    return tilt


def sample_rows(params: ParabolaParams, n_points: int = 201) -> list[tuple]:
    """Rows (t, gamma, z, kappa) for plotting; z and kappa are NaN where the
    dual is singular (endpoints of paths touching zero)."""
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    rows = []
    for i in range(n_points):
        t = params.horizon * i / (n_points - 1)
        g = params.value(t)
        try:
            z = params.dual(t)
            kappa = math.log(z)
        except ValueError:
            z = math.nan
            kappa = math.nan
        rows.append((t, g, z, kappa))
    return rows
