"""Transition rates of the three-state illness-death model.

The model has states Healthy, Diseased and Dead.  Healthy people of age ``a``
at calendar time ``t`` contract the disease at the incidence rate and die at
the Gompertz disease-free mortality rate; diseased people die at the
disease-free rate scaled by a quadratic function of the disease duration
``d``.  Along a 45-degree life line in the (time, age) plane all three
cumulative hazards have closed forms, which the analytic formulas, the
microsimulation and the likelihood all build on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

# adaptive_quad is unused here but kept importable: the benchmark tracer (perfbench/spans.py) patches it
from idmodds.quadrature import adaptive_quad  # noqa: F401

__all__ = [
    "RateDomainError",
    "GompertzParams",
    "PositivePartIncidence",
    "ExponentialIncidence",
    "TabulatedIncidence",
    "IncidenceSpec",
    "MortalityRatioParams",
    "RateModel",
    "course_moments",
    "ratio_coefficients",
    "reference_rate_model",
    "smallest_ratio",
]


class RateDomainError(ValueError):
    """A rate was evaluated outside its valid domain."""


def _all_finite(*values):
    return all(math.isfinite(v) for v in values)


@dataclass(frozen=True)
class GompertzParams:
    """Disease-free mortality exp(xi1 + xi2*a + xi3*t).

    ``xi2 + xi3`` is the growth rate along a life line and must be nonzero:
    it is the denominator of the closed-form cumulative hazard.
    """

    xi1: float
    xi2: float
    xi3: float

    def __post_init__(self):
        if not _all_finite(self.xi1, self.xi2, self.xi3):
            raise ValueError("Gompertz parameters must be finite")
        if self.xi2 + self.xi3 == 0.0:
            raise ValueError("xi2 + xi3 must be nonzero")

    @property
    def slope(self) -> float:
        return self.xi2 + self.xi3

    def rate(self, t, a):
        return np.exp(self.xi1 + self.xi2 * a + self.xi3 * t)

    def cumulative(self, t, a, delta):
        """Integral of the rate over the last ``delta`` years of the life line ending at (t, a)."""
        return (self.rate(t, a) - self.rate(t - delta, a - delta)) / self.slope


@dataclass(frozen=True)
class PositivePartIncidence:
    """Incidence max(a - onset_age, 0) / denominator, independent of calendar time."""

    onset_age: float = 30.0
    denominator: float = 3000.0

    def __post_init__(self):
        if not _all_finite(self.onset_age, self.denominator):
            raise ValueError("incidence parameters must be finite")
        if self.denominator <= 0.0:
            raise ValueError("denominator must be positive")

    @property
    def kink_ages(self) -> tuple:
        return (self.onset_age,)

    @property
    def kink_times(self) -> tuple:
        return ()

    def rate(self, t, a):
        return np.maximum(np.asarray(a, dtype=float) - self.onset_age, 0.0) / self.denominator

    def cumulative(self, t, a, delta):
        # Three cases by where the life line segment sits relative to the onset age:
        # entirely below it, straddling it, entirely above it.
        alpha = self.onset_age
        a = np.asarray(a, dtype=float)
        delta = np.asarray(delta, dtype=float)
        start_age = a - delta
        above = delta * (start_age - alpha) + 0.5 * delta * delta
        straddle = 0.5 * np.square(np.maximum(a - alpha, 0.0))
        value = np.where(start_age >= alpha, above, straddle)
        value = np.where(a <= alpha, 0.0, value)
        out = value / self.denominator
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ExponentialIncidence:
    """Incidence exp(k0 + k1*a + k2*t)."""

    k0: float = -9.0
    k1: float = 0.03
    k2: float = 0.0

    def __post_init__(self):
        if not _all_finite(self.k0, self.k1, self.k2):
            raise ValueError("incidence parameters must be finite")

    @property
    def kink_ages(self) -> tuple:
        return ()

    @property
    def kink_times(self) -> tuple:
        return ()

    def rate(self, t, a):
        return np.exp(self.k0 + self.k1 * np.asarray(a, dtype=float) + self.k2 * t)

    def cumulative(self, t, a, delta):
        kappa = self.k1 + self.k2
        base = self.rate(t - delta, a - delta)
        if kappa == 0.0:
            return base * delta
        return base * np.expm1(kappa * np.asarray(delta, dtype=float)) / kappa


@dataclass(frozen=True, eq=False)
class TabulatedIncidence:
    """Incidence given on a rectangular (time, age) grid, bilinearly interpolated.

    Evaluations outside the grid are clamped to the nearest edge.  Along a
    life line the clamped interpolant is linear in time and in age between
    grid-line crossings, hence quadratic there, so the cumulative hazard is
    exact: Simpson's rule on each piece between the grid lines the segment
    actually crosses, with one cell lookup per piece.
    """

    times: np.ndarray
    ages: np.ndarray
    table: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        ages = np.asarray(self.ages, dtype=float)
        table = np.asarray(self.table, dtype=float)
        if times.ndim != 1 or ages.ndim != 1 or len(times) < 2 or len(ages) < 2:
            raise ValueError("grids must be 1-D with at least two points")
        if np.any(np.diff(times) <= 0.0) or np.any(np.diff(ages) <= 0.0):
            raise ValueError("grids must be strictly increasing")
        if table.shape != (len(times), len(ages)):
            raise ValueError("table shape must be (len(times), len(ages))")
        if not np.all(np.isfinite(table)) or np.any(table < 0.0):
            raise ValueError("tabulated rates must be finite and nonnegative")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "ages", ages)
        object.__setattr__(self, "table", table)
        # one column per grid cell, time-major: its lower corner, its sides and its four corner values
        t0, a0 = np.meshgrid(times[:-1], ages[:-1], indexing="ij")
        ht, ha = np.meshgrid(np.diff(times), np.diff(ages), indexing="ij")
        cells = [t0, ht, a0, ha, table[:-1, :-1], table[:-1, 1:], table[1:, :-1], table[1:, 1:]]
        object.__setattr__(self, "_cells", np.stack([c.ravel() for c in cells]))

    @cached_property
    def kink_ages(self) -> tuple:
        return tuple(self.ages.tolist())

    @cached_property
    def kink_times(self) -> tuple:
        return tuple(self.times.tolist())

    def _cell_of(self, t, a):
        """Index of the grid cell holding (t, a) in the cell table; points outside the grid get an edge cell."""
        it = np.searchsorted(self.times[1:-1], t, side="right")
        return it * (len(self.ages) - 1) + np.searchsorted(self.ages[1:-1], a, side="right")

    @staticmethod
    def _interpolate(corners, t, a):
        """The interpolant at (t, a) of the cells whose cell-table columns are ``corners``, clamped into each cell."""
        t0, ht, a0, ha, v00, v01, v10, v11 = corners
        wt = np.clip((t - t0) / ht, 0.0, 1.0)
        wa = np.clip((a - a0) / ha, 0.0, 1.0)
        return v00 * (1 - wt) * (1 - wa) + v01 * (1 - wt) * wa + v10 * wt * (1 - wa) + v11 * wt * wa

    def rate(self, t, a):
        t, a = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(a, dtype=float))
        out = self._interpolate(np.take(self._cells, self._cell_of(t, a), axis=1), t, a)
        return float(out) if out.ndim == 0 else out

    def cumulative(self, t, a, delta):
        t, a, delta = np.broadcast_arrays(*(np.asarray(x, dtype=float)[..., None] for x in (t, a, delta)))
        # lookbacks from (t, a) to the grid lines crossed strictly inside the segment, sorted; the
        # others move to its far end, and columns that hold no crossing of any segment are dropped
        crossings = np.concatenate([a - self.ages, t - self.times], axis=-1)
        inside = (crossings > 0.0) & (crossings < delta)
        width = inside.sum(axis=-1).max(initial=0)
        crossings = np.sort(np.where(inside, crossings, delta), axis=-1)[..., :width]
        edges = np.concatenate([np.zeros_like(delta), crossings, delta], axis=-1)
        lo, hi = edges[..., :-1], edges[..., 1:]
        mid = 0.5 * (hi + lo)
        # Simpson's three points of each piece, all in the cell that holds the piece's midpoint
        corners = np.take(self._cells, self._cell_of(t - mid, a - mid), axis=1)
        at_lo, at_mid, at_hi = (self._interpolate(corners, t - u, a - u) for u in (lo, mid, hi))
        pieces = (hi - lo) / 6.0 * (at_lo + 4.0 * at_mid + at_hi)
        # summed left to right, so the padding the batch's widest segment forces cannot change the rounding
        out = np.cumsum(pieces, axis=-1)[..., -1]
        return float(out) if out.ndim == 0 else out


IncidenceSpec = Union[PositivePartIncidence, ExponentialIncidence, TabulatedIncidence]


@dataclass(frozen=True)
class MortalityRatioParams:
    """Mortality rate ratio R(d) = gamma1*(d - gamma2)**2 + gamma3.

    Positivity of R is checked at construction over [0, max_duration].
    """

    gamma1: float
    gamma2: float
    gamma3: float
    max_duration: float = 100.0

    def __post_init__(self):
        if not _all_finite(self.gamma1, self.gamma2, self.gamma3, self.max_duration):
            raise ValueError("mortality-ratio parameters must be finite")
        if self.max_duration <= 0.0:
            raise ValueError("max_duration must be positive")
        low = smallest_ratio(self.gamma1, self.gamma2, self.gamma3, self.max_duration)
        if low <= 0.0:
            raise ValueError(
                f"mortality ratio must stay positive on [0, {self.max_duration}]; minimum {low:.4g}"
            )

    def ratio(self, d):
        d = np.asarray(d, dtype=float)
        out = self.gamma1 * np.square(d - self.gamma2) + self.gamma3
        return float(out) if out.ndim == 0 else out

    @property
    def coefficients(self) -> tuple:
        """(c0, c1, c2) with R(d) = c0 + c1*d + c2*d**2."""
        return ratio_coefficients(self.gamma1, self.gamma2, self.gamma3)


def ratio_coefficients(gamma1: float, gamma2: float, gamma3: float) -> tuple:
    """(c0, c1, c2) with gamma1*(d - gamma2)**2 + gamma3 = c0 + c1*d + c2*d**2."""
    return (gamma1 * gamma2 * gamma2 + gamma3, -(2.0 * gamma1 * gamma2), gamma1)


def smallest_ratio(gamma1: float, gamma2: float, gamma3: float, max_duration: float) -> float:
    """Smallest R(d) = gamma1*(d - gamma2)**2 + gamma3 over [0, max_duration]: at an end, or at a vertex inside."""
    ends = [0.0, max_duration] + ([gamma2] if gamma1 > 0.0 and 0.0 <= gamma2 <= max_duration else [])
    return min(gamma1 * ((d - gamma2) * (d - gamma2)) + gamma3 for d in ends)


def _poly_exp_integrals(lam, d):
    """Integrals of d**k * exp(lam*d) over [0, d] for k = 0, 1, 2.

    Direct formulas cancel badly for |lam*d| << 1, so a short series takes
    over below 1e-3.
    """
    d = np.asarray(d, dtype=float)
    x = lam * d
    with np.errstate(invalid="ignore"):
        ex = np.exp(x)
        j0 = np.expm1(x) / lam
        j1_direct = (ex * (x - 1.0) + 1.0) / lam**2
        j2_direct = (ex * (x * x - 2.0 * x + 2.0) - 2.0) / lam**3
    small = np.abs(x) < 1e-3
    d2 = d * d
    j1_series = d2 * (0.5 + x * (1.0 / 3.0 + x * (0.125 + x * (1.0 / 30.0 + x / 144.0))))
    j2_series = d2 * d * (1.0 / 3.0 + x * (0.25 + x * (0.1 + x * (1.0 / 36.0 + x / 168.0))))
    j1 = np.where(small, j1_series, j1_direct)
    j2 = np.where(small, j2_series, j2_direct)
    return j0, j1, j2


def course_moments(m0: GompertzParams, t, a, d):
    """Duration moments of the healthy mortality over a disease course of length ``d`` ending at (t, a).

    The k-th moment is the integral of u**k * m0 over the course, u being the
    duration, for k = 0, 1, 2.  Along the life line m0 grows as exp(slope*u)
    from its value at the course start, so each moment is that start rate
    times a polynomial-exponential integral; both factors are returned, as
    ``(start_rate, (j0, j1, j2))``.  The diseased cumulative hazard is the
    moments combined with the coefficients of R, the one place where gamma
    enters.
    """
    return m0.rate(t - d, a - d), _poly_exp_integrals(m0.slope, d)


@dataclass(frozen=True)
class RateModel:
    """The three transition rates and their closed-form cumulative hazards."""

    incidence: IncidenceSpec
    m0: GompertzParams
    ratio: MortalityRatioParams

    # -- rates ------------------------------------------------------------

    def incidence_rate(self, t, a):
        if np.any(np.asarray(a) < 0.0):
            raise RateDomainError("age must be nonnegative")
        return self.incidence.rate(t, a)

    def mortality_healthy(self, t, a):
        return self.m0.rate(t, a)

    def mortality_ratio(self, d):
        if np.any(np.asarray(d) < 0.0):
            raise RateDomainError("duration must be nonnegative")
        out = self.ratio.ratio(d)
        if np.any(np.asarray(out) <= 0.0):
            raise RateDomainError("mortality ratio must be positive")
        return out

    def mortality_diseased(self, t, a, d):
        d_arr = np.asarray(d)
        if np.any(d_arr < 0.0) or np.any(d_arr > np.asarray(a)):
            raise RateDomainError("duration must satisfy 0 <= d <= a")
        return self.mortality_healthy(t, a) * self.mortality_ratio(d)

    # -- cumulative hazards along a life line ending at (t, a) ------------

    def _check_span(self, a, delta):
        delta_arr = np.asarray(delta)
        if np.any(delta_arr < 0.0) or np.any(delta_arr > np.asarray(a)):
            raise RateDomainError("lookback must satisfy 0 <= delta <= a")

    def cumulative_m0(self, t, a, delta):
        self._check_span(a, delta)
        return self.m0.cumulative(t, a, delta)

    def cumulative_incidence(self, t, a, delta):
        self._check_span(a, delta)
        return self.incidence.cumulative(t, a, delta)

    def cumulative_exit(self, t, a, delta):
        """Cumulative hazard of leaving the healthy state, by death or onset, over the last ``delta`` years."""
        return self.cumulative_m0(t, a, delta) + self.cumulative_incidence(t, a, delta)

    def cumulative_m1(self, t, a, d):
        """Integral of the diseased mortality over a disease course of length ``d`` ending at (t, a).

        The course starts at (t - d, a - d) with duration zero.  Factorizing
        m1 = m0 * R and expanding the quadratic R gives the course moments
        combined with the coefficients of R.
        """
        self._check_span(a, d)
        c0, c1, c2 = self.ratio.coefficients
        base, (j0, j1, j2) = course_moments(self.m0, t, a, d)
        return base * (c2 * j2 + c1 * j1 + c0 * j0)


def reference_rate_model() -> RateModel:
    """Rate configuration of the reference study; a run configuration's omitted rate keys take these values."""
    return RateModel(
        incidence=PositivePartIncidence(),
        m0=GompertzParams(-10.7, 0.1, math.log(0.998)),
        ratio=MortalityRatioParams(0.04, 5.0, 1.0),
    )
