"""Numerical Legendre transforms: independent references for the closed forms
of ``bdld.ldp``.

``lagrangian_numeric`` maximizes kappa*u - H by golden-section search and
never touches the asinh expression of L; ``fenchel_hamiltonian`` recovers H
from L the same way.
"""

import math
from typing import Callable

from bdld.ldp import hamiltonian, lagrangian


class BracketError(RuntimeError):
    """The 1-d maximizer left its analytic bracket; indicates a bug, not a
    domain problem."""


def lagrangian_numeric(gamma: float, u: float, lam: float, tol: float = 1e-12) -> float:
    """sup_kappa (kappa*u - H) by golden-section search; independent of the
    closed form.  The maximizer satisfies |kappa*| <= asinh(|u|/(2*lam*gamma)),
    so the bracket pads that bound by 2."""
    if not gamma > 0.0:
        raise ValueError("lagrangian_numeric requires gamma > 0")
    bracket = math.asinh(abs(u) / (2.0 * lam * gamma)) + 2.0

    def objective(kappa: float) -> float:
        return kappa * u - hamiltonian(gamma, kappa, lam)

    kappa_hat, value = _golden_max(objective, -bracket, bracket, tol)
    if abs(kappa_hat) > bracket - 1.0:
        raise BracketError(
            f"maximizer {kappa_hat} escaped the bracket [-{bracket}, {bracket}]")
    return value


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f: Callable[[float], float], lo: float, hi: float,
                tol: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def fenchel_hamiltonian(gamma: float, kappa: float, lam: float, tol: float = 1e-10) -> float:
    """Recover H(gamma, kappa) as sup_u (kappa*u - L(gamma, u)), numerically.

    The inverse Fenchel transform; the optimal u is 2*lam*gamma*sinh(kappa),
    which fixes the search bracket.
    """
    if not gamma > 0.0:
        raise ValueError("fenchel_hamiltonian requires gamma > 0")
    u_star = 2.0 * lam * gamma * math.sinh(kappa)
    bracket = abs(u_star) + 1.0

    def objective(u: float) -> float:
        return kappa * u - lagrangian(gamma, u, lam)

    _, value = _golden_max(objective, -bracket, bracket, tol)
    return value
