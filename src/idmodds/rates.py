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
    "RatioHorizonError",
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


class RatioHorizonError(RateDomainError):
    """The mortality ratio is not positive on every disease duration a computation reaches."""


def _all_finite(*values):
    return all(math.isfinite(v) for v in values)


class _GatheredLines:
    """A closed-form cumulative hazard along the life lines ending at the points (t[k], a[k]), node by node.

    Node j lies ``delta[j]`` years back on line ``k[j]``: ``lookback`` covers the
    line's last ``delta`` years and ``from_birth`` the life before them, each by
    one ``cumulative`` call.  Nothing checks 0 <= delta <= a[k].
    """

    def __init__(self, cumulative, t, a):
        self._cumulative, self._t, self._a = cumulative, t, a

    def lookback(self, delta, k):
        return self._cumulative(self._t[k], self._a[k], delta)

    def from_birth(self, delta, k):
        start = self._a[k] - delta
        return self._cumulative(self._t[k] - delta, start, start)


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
        return self.cumulative_and_rate(t, a, delta)[0]

    def cumulative_and_rate(self, t, a, delta):
        """:meth:`cumulative` and the rate at (t, a), which it contains, from one evaluation of that rate."""
        end = self.rate(t, a)
        return (end - self.rate(t - delta, a - delta)) / self.slope, end


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

    def lines(self, t, a) -> _GatheredLines:
        """The cumulative incidence along the life lines ending at the points (t[k], a[k])."""
        return _GatheredLines(self.cumulative, t, a)

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

    def lines(self, t, a) -> _GatheredLines:
        """The cumulative incidence along the life lines ending at the points (t[k], a[k])."""
        return _GatheredLines(self.cumulative, t, a)

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
    actually crosses, with one cell lookup per piece.  :meth:`lines`
    integrates each line of a batch once, up to its grid-line crossings, and
    then answers every node on it with one partial piece;
    :meth:`cumulative` is its one-line-per-segment use, and both give the
    same bits.
    """

    times: np.ndarray
    ages: np.ndarray
    table: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        ages = np.asarray(self.ages, dtype=float)
        try:
            table = np.asarray(self.table, dtype=float)
        except ValueError:  # ragged rows: an object array keeps their outer shape for the shape rule below
            table = np.asarray(self.table, dtype=object)
        if times.ndim != 1 or ages.ndim != 1 or len(times) < 2 or len(ages) < 2:
            raise ValueError("grids must be 1-D with at least two points")
        if np.any(np.diff(times) <= 0.0) or np.any(np.diff(ages) <= 0.0):
            raise ValueError("grids must be strictly increasing")
        if table.shape != (len(times), len(ages)):
            raise ValueError("table shape must be (len(times), len(ages))")
        table = np.asarray(table, dtype=float)
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

    def _interpolate(self, cell, t, a, back=0.0):
        """The interpolant at (t - back, a - back) in the cells ``cell``, clamped into each, one table row at a time."""
        t0, ht, a0, ha, v00, v01, v10, v11 = self._cells
        wt = np.clip((t - back - t0[cell]) / ht[cell], 0.0, 1.0)
        wa = np.clip((a - back - a0[cell]) / ha[cell], 0.0, 1.0)
        out = v00[cell] * (1 - wt) * (1 - wa)
        for v, w_t, w_a in ((v01, 1 - wt, wa), (v10, wt, 1 - wa), (v11, wt, wa)):
            out += v[cell] * w_t * w_a
        return out

    def rate(self, t, a):
        t, a = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(a, dtype=float))
        out = self._interpolate(self._cell_of(t, a), t, a)
        return float(out) if out.ndim == 0 else out

    def _simpson(self, t, a, lo, hi):
        """Simpson's rule over the lookbacks [lo, hi] of the life lines ending at (t, a), each inside one grid cell.

        The three points are interpolated in the cell that holds the piece's midpoint.
        """
        mid = 0.5 * (hi + lo)
        cell = self._cell_of(t - mid, a - mid)
        total = self._interpolate(cell, t, a, lo)
        total += 4.0 * self._interpolate(cell, t, a, mid)
        total += self._interpolate(cell, t, a, hi)
        return (hi - lo) / 6.0 * total

    def lines(self, t, a) -> "_TabulatedLines":
        """The cumulative incidence along the life lines ending at the points (t[k], a[k]), each integrated once."""
        return _TabulatedLines(self, t, a, a)

    def cumulative(self, t, a, delta):
        t, a, delta = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (t, a, delta)))
        reach = delta.ravel()
        out = _TabulatedLines(self, t.ravel(), a.ravel(), reach).lookback(reach, np.arange(reach.size))
        return float(out[0]) if delta.ndim == 0 else out.reshape(delta.shape)


class _TabulatedLines:
    """A tabulated incidence's cumulative hazard along the life lines ending at (t[k], a[k]), up to lookback reach[k].

    The table is built once: each line's lookbacks to the grid lines it
    crosses inside (0, reach), sorted, Simpson's rule on the piece between
    each two consecutive ones, and the running sums of the pieces.  A node
    ``delta`` in [0, reach[k]] then costs one partial piece: the m crossings
    below it give ``prefix[k, m]``, and Simpson's rule on [crossing m,
    delta] is added.  The pieces are summed left to right along the line, so
    the node gets the bits of ``cumulative(t[k], a[k], delta)``.  Nothing
    checks that a node lies within its line's reach.
    """

    def __init__(self, incidence: TabulatedIncidence, t, a, reach):
        t, a, reach = (np.asarray(x, dtype=float) for x in (t, a, reach))
        self._incidence, self._t, self._a, self._reach = incidence, t, a, reach
        # crossings outside (0, reach) move to the reach, where no node counts them, and columns
        # that hold no crossing of any line are dropped
        crossings = np.concatenate([a[:, None] - incidence.ages, t[:, None] - incidence.times], axis=1)
        inside = (crossings > 0.0) & (crossings < reach[:, None])
        width = inside.sum(axis=1).max(initial=0)
        crossings = np.sort(np.where(inside, crossings, reach[:, None]), axis=1)[:, :width]
        self._edges = np.column_stack((np.zeros_like(reach), crossings))
        pieces = incidence._simpson(t[:, None], a[:, None], self._edges[:, :-1], crossings)
        self._prefix = np.column_stack((np.zeros_like(reach), np.cumsum(pieces, axis=1)))

    def lookback(self, delta, k):
        """Integrals over the last ``delta`` years of the lines ``k``."""
        below = np.zeros(len(k), dtype=np.intp)
        for crossing in self._edges.T[1:]:
            below += crossing[k] < delta
        # the partial piece first, so its temporaries are freed before the prefix is gathered (addition commutes)
        return self._incidence._simpson(self._t[k], self._a[k], self._edges[k, below], delta) + self._prefix[k, below]

    def from_birth(self, delta, k):
        """Integrals over the lines ``k`` from their reach, the birth when it is the age, up to ``delta`` years back."""
        return self._whole[k] - self.lookback(delta, k)

    @cached_property
    def _whole(self):
        return self.lookback(self._reach, np.arange(self._reach.size))


IncidenceSpec = Union[PositivePartIncidence, ExponentialIncidence, TabulatedIncidence]


@dataclass(frozen=True)
class MortalityRatioParams:
    """Mortality rate ratio R(d) = gamma1*(d - gamma2)**2 + gamma3.

    R must be positive on the durations a computation reaches, which only
    the computation knows, so :class:`RateModel` checks it where R is read.
    """

    gamma1: float
    gamma2: float
    gamma3: float

    def __post_init__(self):
        if not _all_finite(self.gamma1, self.gamma2, self.gamma3):
            raise ValueError("mortality-ratio parameters must be finite")

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


def smallest_ratio(gamma1: float, gamma2: float, gamma3: float, horizon: float) -> float:
    """Smallest R(d) = gamma1*(d - gamma2)**2 + gamma3 over [0, horizon]: at an end, or at a vertex inside."""
    ends = [0.0, horizon] + ([gamma2] if gamma1 > 0.0 and 0.0 <= gamma2 <= horizon else [])
    return min(gamma1 * ((d - gamma2) * (d - gamma2)) + gamma3 for d in ends)


def _poly_exp_integrals(lam, d):
    """Integrals of d**k * exp(lam*d) over [0, d] for k = 0, 1, 2.

    Direct formulas cancel badly for |lam*d| << 1, so a short series takes
    over below 1e-3; it is evaluated at those nodes alone, usually none.
    """
    d = np.asarray(d, dtype=float)
    x = np.asarray(lam * d)
    with np.errstate(invalid="ignore"):
        ex = np.exp(x)
        j0 = np.expm1(x) / lam
        j1 = np.asarray((ex * (x - 1.0) + 1.0) / lam**2)
        j2 = np.asarray((ex * (x * x - 2.0 * x + 2.0) - 2.0) / lam**3)
    small = np.abs(x) < 1e-3
    if small.any():
        x, d = x[small], d[small]
        d2 = d * d
        j1[small] = d2 * (0.5 + x * (1.0 / 3.0 + x * (0.125 + x * (1.0 / 30.0 + x / 144.0))))
        j2[small] = d2 * d * (1.0 / 3.0 + x * (0.25 + x * (0.1 + x * (1.0 / 36.0 + x / 168.0))))
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

    # -- cumulative hazards along a life line ending at (t, a) ------------

    def check_span(self, a, delta):
        """Raise RateDomainError unless 0 <= delta <= a: a lookback must stay on its life line."""
        delta_arr = np.asarray(delta)
        if np.any(delta_arr < 0.0) or np.any(delta_arr > np.asarray(a)):
            raise RateDomainError("lookback must satisfy 0 <= delta <= a")

    def check_ratio(self, d) -> None:
        """Raise RatioHorizonError unless R > 0 on [0, longest of the durations ``d``]; no durations, no check."""
        d = np.asarray(d, dtype=float)
        if d.size == 0:
            return
        horizon = float(d.max())
        low = smallest_ratio(self.ratio.gamma1, self.ratio.gamma2, self.ratio.gamma3, horizon)
        if low <= 0.0:
            raise RatioHorizonError(
                f"the mortality ratio must stay positive on the disease durations reached, [0, {horizon:g}]; "
                f"its minimum there is {low:.4g}"
            )

    def cumulative_m0(self, t, a, delta):
        self.check_span(a, delta)
        return self.m0.cumulative(t, a, delta)

    def cumulative_incidence(self, t, a, delta):
        self.check_span(a, delta)
        return self.incidence.cumulative(t, a, delta)

    def exit_hazard_rate(self, t, a, delta):
        """Unchecked hazard CM0 + CI of leaving the healthy state, by death or onset, over the last ``delta`` years.

        Returned with its slope in ``delta``, the exit rate m0 + i at (t, a),
        which shares its m0 evaluation.  The healthy survivor fraction and
        the simulator's first-exit inversion read it.
        """
        m0_cumulative, m0_rate = self.m0.cumulative_and_rate(t, a, delta)
        return m0_cumulative + self.incidence.cumulative(t, a, delta), m0_rate + self.incidence.rate(t, a)

    def exit_lines(self, t, a) -> "_ExitLines":
        """The healthy-exit hazard CM0 + CI along the life lines ending at the points (t[k], a[k]).

        ``lookback(delta, k)`` and ``from_birth(delta, k)`` as for each
        family's ``lines``; a tabulated incidence integrates each line once
        for all its nodes.  Nothing checks 0 <= delta <= a[k].
        """
        return _ExitLines(self.m0, self.incidence, t, a)

    def cumulative_m1(self, t, a, d):
        """Integral of the diseased mortality over a disease course of length ``d`` ending at (t, a).

        The course starts at (t - d, a - d) with duration zero.  Factorizing
        m1 = m0 * R and expanding the quadratic R gives the course moments
        combined with the coefficients of R, which must be positive up to
        the longest ``d`` (:meth:`check_ratio`).
        """
        self.check_span(a, d)
        self.check_ratio(d)
        return self.course_hazard(t, a, d)

    def course_hazard(self, t, a, d):
        """:meth:`cumulative_m1` without its checks, for callers that checked R on the durations up front."""
        c0, c1, c2 = self.ratio.coefficients
        base, (j0, j1, j2) = course_moments(self.m0, t, a, d)
        return base * (c2 * j2 + c1 * j1 + c0 * j0)

    def course_hazard_rate(self, t, a, d):
        """Unchecked :meth:`course_hazard` and its slope in ``d``, the diseased mortality m0 R at (t, a)."""
        return self.course_hazard(t, a, d), self.m0.rate(t, a) * self.ratio.ratio(d)


class _ExitLines:
    """Sums of the healthy-mortality and incidence line hazards; see :meth:`RateModel.exit_lines`."""

    def __init__(self, m0: GompertzParams, incidence: IncidenceSpec, t, a):
        self._m0, self._incidence = _GatheredLines(m0.cumulative, t, a), incidence.lines(t, a)

    def lookback(self, delta, k):
        return self._m0.lookback(delta, k) + self._incidence.lookback(delta, k)

    def from_birth(self, delta, k):
        return self._m0.from_birth(delta, k) + self._incidence.from_birth(delta, k)


def reference_rate_model() -> RateModel:
    """Rate configuration of the reference study; a run configuration's omitted rate keys take these values."""
    return RateModel(
        incidence=PositivePartIncidence(),
        m0=GompertzParams(-10.7, 0.1, math.log(0.998)),
        ratio=MortalityRatioParams(0.04, 5.0, 1.0),
    )
