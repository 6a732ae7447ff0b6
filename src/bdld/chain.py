"""Closed-form analytics of the linear-rate chain on {1, ..., N}.

The continuous-time chain jumps m -> m+1 and m -> m-1, each at rate lam*m,
with the up move suppressed at m = N and the down move suppressed at m = 1
(reflecting ends).  This module holds everything that has a closed form:
jump rates, the stationary law (proportional to 1/m), harmonic partial sums
with their Euler residual, and the embedded jump chain.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "EULER_MASCHERONI",
    "ModelParams",
    "ProbabilityVector",
    "jump_rates",
    "stationary_distribution",
    "prefix_mass",
    "harmonic_partial",
    "HarmonicPartial",
    "embedded_transition_row",
    "embedded_stationary",
]

#: Euler-Mascheroni constant to 20 decimal digits (hard-coded on purpose:
#: no runtime dependency for a constant).
EULER_MASCHERONI = 0.57721566490153286061

# H_k is one pairwise sum up to here, and ln k + gamma + eps_k beyond
_DIRECT_SUM_LIMIT = 1 << 20


@dataclass(frozen=True)
class ModelParams:
    """Chain size and rate scale: state space {1..n_states}, unit rate lam."""

    n_states: int
    lam: float

    def __post_init__(self):
        if not isinstance(self.n_states, (int, np.integer)) or isinstance(self.n_states, bool):
            raise ValueError(f"n_states must be an integer, got {self.n_states!r}")
        if self.n_states < 1:
            raise ValueError(f"n_states must be >= 1, got {self.n_states}")
        if not (isinstance(self.lam, (int, float)) and math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be a positive finite real, got {self.lam!r}")
        object.__setattr__(self, "n_states", int(self.n_states))
        object.__setattr__(self, "lam", float(self.lam))


@dataclass(frozen=True)
class ProbabilityVector:
    """A distribution over states 1..N, stored densely (index 0 = state 1)."""

    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=float)
        object.__setattr__(self, "mass", mass)
        if mass.ndim != 1 or mass.size < 1:
            raise ValueError("mass must be a one-dimensional non-empty array")
        if not np.isfinite(mass).all():
            raise ValueError("mass entries must be finite")
        if np.any(mass < 0.0):
            raise ValueError("mass entries must be non-negative")
        total = float(mass.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mass must sum to 1 within 1e-12, got {total!r}")
        self.mass.flags.writeable = False

    @property
    def n_states(self) -> int:
        return self.mass.size

    def prob(self, state: int) -> float:
        """Mass at a 1-based state index."""
        if not 1 <= state <= self.n_states:
            raise ValueError(f"state {state} outside 1..{self.n_states}")
        return float(self.mass[state - 1])

    def tv_distance(self, other: "ProbabilityVector") -> float:
        if self.n_states != other.n_states:
            raise ValueError("dimension mismatch")
        return 0.5 * float(np.abs(self.mass - other.mass).sum())

    @cached_property
    def _cumulative(self) -> np.ndarray:
        """Running sums of the mass (read-only, computed once per vector)."""
        cumulative = np.cumsum(self.mass)
        cumulative.flags.writeable = False
        return cumulative

    def sample_state(self, uniform: float) -> int:
        """Inverse-CDF draw: map a uniform in [0,1) to a 1-based state."""
        idx = int(np.searchsorted(self._cumulative, uniform, side="right"))
        return min(idx, self.n_states - 1) + 1

    def csv_table(self) -> tuple[list[str], np.ndarray]:
        """Header and (state, mass) rows, as a structured array, state 1 first."""
        rows = np.empty(self.n_states, dtype=[("state", np.int64), ("mass", np.float64)])
        rows["state"] = np.arange(1, self.n_states + 1)
        rows["mass"] = self.mass
        return ["state", "mass"], rows


def jump_rates(params: ModelParams, m: int) -> tuple[float, float]:
    """Up/down rates out of state m: (lam*m, lam*m) in the interior, one-sided
    at the reflecting ends (m=1 has no down move, m=N no up move)."""
    _check_state(params, m)
    up = params.lam * m if m < params.n_states else 0.0
    down = params.lam * m if m > 1 else 0.0
    return up, down


def stationary_distribution(params: ModelParams) -> ProbabilityVector:
    """Stationary law of the chain: mass(m) = (1/m) / H_N.

    Detailed balance pi(m)*lam*m = pi(m+1)*lam*(m+1) holds because both sides
    equal lam / H_N.
    """
    n = params.n_states
    h_n = harmonic_partial(n).total
    mass = np.reciprocal(np.arange(1, n + 1, dtype=float)) / h_n
    return ProbabilityVector(mass)


def prefix_mass(params: ModelParams, m_max: int) -> float:
    """Stationary probability of {1..m_max}, i.e. H_{m_max} / H_N."""
    _check_state(params, m_max, name="m_max")
    return harmonic_partial(m_max).total / harmonic_partial(params.n_states).total


class HarmonicPartial(NamedTuple):
    total: float
    euler_residual: float


def harmonic_partial(k: int) -> HarmonicPartial:
    """Partial sum H_k = sum_{m<=k} 1/m and its Euler residual
    eps_k = H_k - ln k - gamma_EM, each by the rule exact at k.

    H_k is numpy's pairwise sum of 1/m up to k = 2**20, and ln k + gamma_EM
    + eps_k above.  From k = 20 on, eps_k is the Euler-Maclaurin series
    1/(2k) - sum_{j<=5} B_2j / (2j k**2j), within 2.2e-16 relative of the
    true residual, where H_k - ln k - gamma_EM would lose up to seven digits
    to cancellation; below 20 it is that difference.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    k = int(k)
    if k < 20:
        total = _harmonic_direct(k)
        return HarmonicPartial(total, total - math.log(k) - EULER_MASCHERONI)
    x = float(k)
    y = 1.0 / (x * x)
    residual = 0.5 / x - y * (1 / 12 - y * (1 / 120 - y * (1 / 252 - y * (1 / 240 - y / 132))))
    if k <= _DIRECT_SUM_LIMIT:
        return HarmonicPartial(_harmonic_direct(k), residual)
    return HarmonicPartial(math.log(x) + EULER_MASCHERONI + residual, residual)


@lru_cache(maxsize=256)
def _harmonic_direct(k: int) -> float:
    return float(np.reciprocal(np.arange(1, k + 1, dtype=float)).sum())


def embedded_transition_row(params: ModelParams, m: int) -> dict[int, float]:
    """One row of the embedded jump chain: 1/2 to each neighbour in the
    interior, forced reflection at the ends.  Undefined for N = 1."""
    if params.n_states < 2:
        raise ValueError("embedded chain requires n_states >= 2")
    _check_state(params, m)
    if m == 1:
        return {2: 1.0}
    if m == params.n_states:
        return {params.n_states - 1: 1.0}
    return {m - 1: 0.5, m + 1: 0.5}


def embedded_stationary(params: ModelParams) -> ProbabilityVector:
    """Stationary law of the embedded chain: uniform on the interior, half
    weight on each reflecting end."""
    n = params.n_states
    if n < 2:
        raise ValueError("embedded chain requires n_states >= 2")
    mass = np.full(n, 1.0 / (n - 1))
    mass[0] = mass[-1] = 0.5 / (n - 1)
    return ProbabilityVector(mass)


def _check_state(params: ModelParams, m: int, name: str = "m") -> None:
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise ValueError(f"{name} must be an integer, got {m!r}")
    if not 1 <= m <= params.n_states:
        raise ValueError(f"{name}={m} outside the state space 1..{params.n_states}")


def _dwell_times(u: float, times) -> list[float]:
    """The sorted sample times of the dwell event {X(t_i)/N < u at every t_i};
    ValueError unless u lies in (0, 1] and they are non-empty, finite and >= 0."""
    if not 0.0 < u <= 1.0:
        raise ValueError(f"threshold u must lie in (0, 1], got {u}")
    times = sorted(float(t) for t in times)
    if not times:
        raise ValueError("sample times must be non-empty")
    if not all(map(math.isfinite, times)):
        raise ValueError(f"sample times must be finite, got {times}")
    if times[0] < 0.0:
        raise ValueError(f"sample times must be >= 0, got {times}")
    return times
