"""Closed-form population quantities of the illness-death model.

Everything here follows life lines in the (calendar time, age) plane.  The
healthy and diseased population densities solve first-order transport
equations whose solutions are explicit integrals of the transition rates;
this module evaluates them by adaptive quadrature over the closed-form
cumulative hazards, and provides the prevalence odds in two algebraically
distinct forms so they can be cross-checked against each other:

* a convolution-style integral of past incidence against a damping kernel
  (``pseudo_convolution``, and ``convolution_special`` for exponential incidence),
* a ratio of survivor functions integrated over the onset age (``keiding``),
  or the same integral over disease duration as diseased over healthy cohort
  counts (``cohort_ratio``).

Each route's integrand is written once, over arrays of (time, age) points,
and every integral of a call runs in one batch of
:func:`~idmodds.quadrature.adaptive_quad_many`: a whole age profile costs a
few integrand calls per sweep, and one point is the batch of one.

On top of these sit the transport-equation residual checks and the
reconstruction of incidence from two cross-sectional prevalence profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from idmodds.quadrature import DEFAULT_QUADRATURE, EDGE_NODE_OFFSET, QuadratureConfig, adaptive_quad_many

# adaptive_quad is unused here but kept importable: the benchmark tracer (perfbench/spans.py) patches it
from idmodds.quadrature import adaptive_quad  # noqa: F401
from idmodds.rates import ExponentialIncidence, RateModel

__all__ = [
    "PrevalenceResult",
    "AgeProfile",
    "PREVALENCE_METHODS",
    "survivor_fraction",
    "healthy_population",
    "case_density",
    "diseased_population",
    "effective_diseased_mortality",
    "prevalence_odds_keiding",
    "prevalence_odds_pseudo_convolution",
    "prevalence_odds_exponential",
    "prevalence",
    "pde_residual_prevalence",
    "pde_residual_odds",
    "reconstruct_incidence",
    "cross_section_profile",
]


PREVALENCE_METHODS = ("pseudo_convolution", "keiding", "cohort_ratio", "convolution_special")


@dataclass(frozen=True)
class PrevalenceResult:
    """Prevalence odds and the matching prevalence, 1 once the odds pass 2**53, at one (time, age) point."""

    t: float
    a: float
    odds: float
    prevalence: float
    method: str

    def __post_init__(self):
        if self.method not in PREVALENCE_METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if not (self.odds >= 0.0 and math.isfinite(self.odds)):
            raise ValueError(f"odds must be finite and nonnegative, got {self.odds}")
        if not 0.0 <= self.prevalence <= 1.0:
            raise ValueError(f"prevalence must lie in [0, 1], got {self.prevalence}")


@dataclass(frozen=True, eq=False)
class AgeProfile:
    """Values sampled over age at one fixed calendar time (a cross-section)."""

    time: float
    ages: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ages = np.asarray(self.ages, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if ages.ndim != 1 or ages.shape != values.shape:
            raise ValueError("ages and values must be matching 1-D arrays")
        if len(ages) >= 2 and np.any(np.diff(ages) <= 0.0):
            raise ValueError("ages must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "ages", ages)
        object.__setattr__(self, "values", values)


def _onset_layer(rate, span):
    """Durations, graded by factors of 2, that resolve the layer of just-begun disease courses.

    A course that ends at a point after duration d survives as exp(-m1 d)
    for small d, with m1 = ``rate`` = m0 R(0) there: integrands over the
    duration fall by e within 1/m1 of zero duration.  When the outermost
    node of the 15-point rule on [0, ``span``] lies beyond that, every node
    reads about zero and the error estimate passes, so edges are placed at
    1/m1, 2/m1, 4/m1, ... up to ``span``.  Otherwise the rule sees the layer
    and nothing is added.  One row per point, padded with NaN.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        reach = rate * span
        # the edge count comes from log2(reach), which must stay finite
        graded = (1.0 < rate * EDGE_NODE_OFFSET * span) & (reach < math.inf)
        count = np.ceil(np.log2(np.where(graded, reach, 1.0))).astype(int)
        k = np.arange(count.max(initial=0))
        return np.where(k < count[:, None], 2.0**k / rate[:, None], np.nan)


def _lookback_edges(incidence, t, a, onset_rate):
    """Edges for the integrals over the lookback delta ending at the points (t, a), one NaN-padded row each.

    The kinks are the lookbacks in (0, a) where the life line crosses an
    incidence kink.  The recent-onset layer of :func:`_onset_layer`, for the
    diseased mortality ``onset_rate`` just after onset, is graded over the
    whole lookback: a kink inside the layer leaves the piece after it
    starting there too.  A zero rate gives the kinks alone.
    """
    kinks = np.column_stack(
        (a[:, None] - np.asarray(incidence.kink_ages), t[:, None] - np.asarray(incidence.kink_times))
    )
    kinks = np.where((0.0 < kinks) & (kinks < a[:, None]), kinks, np.nan)
    return np.column_stack((kinks, _onset_layer(onset_rate, a)))


def _onset_rate(model: RateModel, t, a):
    """Diseased mortality just after onset, m0(t, a) R(0), at the points (t, a)."""
    return model.mortality_healthy(t, a) * model.ratio.coefficients[0]


def _points(t, a):
    """Times and ages broadcast to matching flat float arrays, and their common shape."""
    t, a = np.asarray(t, dtype=float), np.asarray(a, dtype=float)
    if t.shape != a.shape:
        t, a = np.broadcast_arrays(t, a)
    if (a < 0.0).any():
        raise ValueError("age must be nonnegative")
    return t.ravel(), a.ravel(), a.shape


def _shaped(values, shape):
    """Per-point values in the callers' shape: a float for a scalar point."""
    return float(values[0]) if shape == () else values.reshape(shape)


def _over_lookback(model: RateModel, t, a, integrand, quadrature: QuadratureConfig):
    """Integrals of ``integrand(delta, k)`` over the lookback [0, a[k]] ending at (t[k], a[k]), in one batch."""
    edges = _lookback_edges(model.incidence, t, a, _onset_rate(model, t, a))
    return adaptive_quad_many(integrand, np.zeros(len(a)), a, quadrature, edges)


def survivor_fraction(model: RateModel, t, a, y):
    """Probability of still being healthy and alive at age ``y`` on the life line through (t, a).

    The exits from the healthy state are death and disease onset, so this is
    exp minus the combined cumulative hazard from birth to age ``y``.
    Accepts arrays; returns a float for a scalar point.
    """
    y_arr = np.asarray(y, dtype=float)
    if not np.all((y_arr >= 0.0) & (y_arr <= np.asarray(a))):
        raise ValueError("age on the life line must satisfy 0 <= y <= a")
    out = np.exp(-model.cumulative_exit((t - a) + y, y, y))
    return float(out) if np.ndim(out) == 0 else out


def healthy_population(model: RateModel, t, a):
    """Number of healthy people of age ``a`` at time ``t`` in a birth cohort of size 1; accepts arrays."""
    t, a, shape = _points(t, a)
    return _shaped(survivor_fraction(model, t, a, a), shape)


def case_density(model: RateModel, t, a, d):
    """Density over disease duration ``d`` of the diseased population at (t, a).

    Onset happened at (t-d, a-d); the density is the flow into the diseased
    state there times survival against the duration-dependent mortality
    since.  The three cumulative hazards are combined into one exponent so
    long life lines cannot underflow stepwise.
    """
    d = np.asarray(d, dtype=float)
    exponent = -(model.cumulative_exit(t - d, a - d, a - d) + model.cumulative_m1(t, a, d))
    out = model.incidence_rate(t - d, a - d) * np.exp(exponent)
    return float(out) if out.ndim == 0 else out


def _surviving_onsets(model: RateModel, t, a):
    """Case density over the healthy survivor fraction, as a batch integrand over duration.

    ``density(d, k)`` is the onset flow ``d`` years before (t[k], a[k]) that
    survives with disease to there, divided by the fraction still healthy
    there.  The fraction's hazard is folded into the exponent, as
    :func:`case_density` folds its three, so the ratio stays finite where
    both underflow.
    """
    exit_here = model.cumulative_exit(t, a, a)

    def density(d, k):
        tk, ak = t[k], a[k]
        exponent = exit_here[k] - model.cumulative_exit(tk - d, ak - d, ak - d) - model.cumulative_m1(tk, ak, d)
        return model.incidence_rate(tk - d, ak - d) * np.exp(exponent)

    return density


def diseased_population(model: RateModel, t, a):
    """Total diseased people of age ``a`` at time ``t``: the case density integrated over duration.

    Counts are per birth cohort of size 1, as in :func:`healthy_population`.
    Accepts arrays, whose integrals run as one batch; returns a float for a
    scalar point.
    """
    t, a, shape = _points(t, a)
    value = _over_lookback(model, t, a, lambda d, k: case_density(model, t[k], a[k], d), DEFAULT_QUADRATURE)
    return _shaped(np.where(value < 0.0, 0.0, value), shape)


def effective_diseased_mortality(model: RateModel, t, a, quadrature: QuadratureConfig = DEFAULT_QUADRATURE):
    """Mortality of the diseased at (t, a) averaged over the disease-duration distribution.

    Defined as 0 where there are no cases.  When the mortality ratio does not
    depend on duration the average is exact without any integration.
    Accepts arrays, whose integrals run as one batch; returns a float for a
    scalar point.
    """
    t, a, shape = _points(t, a)
    base = model.mortality_healthy(t, a)
    if model.ratio.gamma1 == 0.0:
        return _shaped(base * model.ratio.gamma3, shape)
    # integrals 0..n-1 count the cases, n..2n-1 weight them by the mortality ratio; both are
    # scaled by one over the healthy survivor fraction, which cancels in their ratio
    n = len(a)
    t2, a2 = np.tile(t, 2), np.tile(a, 2)
    density = _surviving_onsets(model, t2, a2)

    def integrand(d, k):
        value = density(d, k)
        return np.where(k < n, value, model.ratio.ratio(d) * value)

    total, weighted = np.split(_over_lookback(model, t2, a2, integrand, quadrature), 2)
    cases = total > 0.0
    return _shaped(np.where(cases, base * weighted / np.where(cases, total, 1.0), 0.0), shape)


def _odds_kernel(model: RateModel, t, a, delta):
    """Weight the pseudo-convolution odds give to incidence from ``delta`` years back.

    Equals exp of (cumulative incidence + healthy mortality - diseased
    mortality) over the last ``delta`` years of the life line ending at
    (t, a); strictly decreasing in ``delta`` whenever the diseased mortality
    exceeds the combined healthy exit rate pointwise.
    """
    return np.exp(model.cumulative_exit(t, a, delta) - model.cumulative_m1(t, a, delta))


def _odds_at(model: RateModel, t, ages, method: str, quadrature: QuadratureConfig) -> np.ndarray:
    """Prevalence odds by ``method`` at the points (t, ages), flattened; all integrals run as one batch.

    Each route's integrand is written once, over arrays of points: node j of
    integral k belongs to the point (t[k], a[k]).
    """
    if method not in PREVALENCE_METHODS:
        raise ValueError(f"unknown prevalence method {method!r}; choose one of {PREVALENCE_METHODS}")
    inc = model.incidence
    if method == "convolution_special" and not isinstance(inc, ExponentialIncidence):
        raise ValueError("factorized convolution requires an exponential incidence")
    t, a, _ = _points(t, ages)
    if method == "keiding":
        # onset flow times survival with disease up to age a, over the onset age y,
        # divided by the healthy survivor fraction at a
        flow = _surviving_onsets(model, t, a)
        # the lookback edges mapped through y = a - delta: the same kinks and recent-onset layer
        edges = a[:, None] - _lookback_edges(inc, t, a, _onset_rate(model, t, a))
        return adaptive_quad_many(lambda y, k: flow(a[k] - y, k), np.zeros(len(a)), a, quadrature, edges)
    if method == "pseudo_convolution":
        # past incidence convolved with the damping kernel
        def past_incidence(delta, k):
            tk, ak = t[k], a[k]
            return model.incidence_rate(tk - delta, ak - delta) * _odds_kernel(model, tk, ak, delta)

        return _over_lookback(model, t, a, past_incidence, quadrature)
    if method == "convolution_special":
        # exp(k0 + k1*a + k2*t - (k1+k2)*delta) splits into a (t, a) front times a function of t - delta
        front = np.array([math.exp(inc.k0 + inc.k1 * ak - inc.k1 * tk) for tk, ak in zip(t.tolist(), a.tolist())])
        kappa = inc.k1 + inc.k2
        def factor(delta, k):
            tk = t[k]
            return np.exp(kappa * (tk - delta)) * _odds_kernel(model, tk, a[k], delta)

        return front * _over_lookback(model, t, a, factor, quadrature)
    # diseased over healthy cohort counts, the survivor fraction divided out under the integral
    return _over_lookback(model, t, a, _surviving_onsets(model, t, a), quadrature)


def prevalence_odds_keiding(model: RateModel, t: float, a: float) -> PrevalenceResult:
    """Prevalence odds as survivor-weighted onset flow over the healthy survivor fraction.

    Integrates, over the onset age y, the flow into disease times survival
    with disease up to age ``a``, divided under the integral by the healthy
    survivor fraction at ``a``.
    """
    return prevalence(model, t, a, "keiding")


def prevalence_odds_pseudo_convolution(model: RateModel, t: float, a: float) -> PrevalenceResult:
    """Prevalence odds as past incidence convolved with the damping kernel."""
    return prevalence(model, t, a, "pseudo_convolution")


def prevalence_odds_exponential(model: RateModel, t: float, a: float) -> PrevalenceResult:
    """Prevalence odds for exponential incidence, via the factorized convolution.

    exp(k0 + k1*a + k2*t - (k1+k2)*delta) splits into a (t, a) factor times a
    function of t - delta alone, so the odds become that factor times a true
    convolution of the two single-argument functions.
    """
    return prevalence(model, t, a, "convolution_special")


def _nonnegative_odds(odds: np.ndarray, ages) -> np.ndarray:
    """Odds with quadrature's tiny negative roundings of zero set to 0; raises unless finite and nonnegative."""
    odds = np.where((-1e-12 < odds) & (odds < 0.0), 0.0, odds)
    bad = ~(np.isfinite(odds) & (odds >= 0.0))
    if np.any(bad):
        raise ValueError(f"odds must be finite and nonnegative, got {odds[bad][0]} at age {np.ravel(ages)[bad][0]:g}")
    return odds


def prevalence(model: RateModel, t: float, a: float, method: str = "pseudo_convolution") -> PrevalenceResult:
    """Fraction diseased among those alive at (t, a), by any of the odds routes.

    No cohort baseline enters: the diseased and the healthy count both scale
    linearly in the cohort size, which cancels in their ratio.  The one-point
    case of :func:`cross_section_profile`.
    """
    odds = _nonnegative_odds(_odds_at(model, t, a, method, DEFAULT_QUADRATURE), a).item()
    return PrevalenceResult(t, a, odds, odds / (1.0 + odds), method)


_RESIDUAL_QUADRATURE = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15, max_subdivisions=400)


def _transport_residuals(model: RateModel, t: float, a: float, h):
    """Prevalence and odds transport residuals at (t, a) for each step in ``h``, from one odds batch.

    As :func:`pde_residual_prevalence` and :func:`pde_residual_odds` define
    them; the odds residual is None unless gamma1 = 0.
    """
    steps = np.asarray(h, dtype=float).ravel()
    if not np.all((0.0 < steps) & (steps <= a)):
        raise ValueError("step must satisfy 0 < h <= a")
    times = np.concatenate(([t], t + steps, t - steps))
    ages = np.concatenate(([a], a + steps, a - steps))
    odds = _nonnegative_odds(_odds_at(model, times, ages, "pseudo_convolution", _RESIDUAL_QUADRATURE), ages)
    here, ahead, behind = odds[0], odds[1 : 1 + len(steps)], odds[1 + len(steps) :]
    i_here = float(model.incidence_rate(t, a))
    m0_here = float(model.mortality_healthy(t, a))
    m1_star = effective_diseased_mortality(model, t, a, _RESIDUAL_QUADRATURE)
    p_here, p_ahead, p_behind = (x / (1.0 + x) for x in (here, ahead, behind))
    drift = (p_ahead - p_behind) / (2.0 * steps)
    prevalence_residual = _shaped(drift - (1.0 - p_here) * (i_here - p_here * (m1_star - m0_here)), np.shape(h))
    if model.ratio.gamma1 != 0.0:
        return prevalence_residual, None
    # with gamma1 = 0 the effective diseased mortality is m1 itself
    drift = (ahead - behind) / (2.0 * steps)
    return prevalence_residual, _shaped(drift - ((i_here - (m1_star - m0_here)) * here + i_here), np.shape(h))


def pde_residual_prevalence(model: RateModel, t: float, a: float, h):
    """Residual of the prevalence transport equation at (t, a), discretized with step ``h``.

    The directional derivative of p along the life line is approximated by a
    central difference; the exact balance says it equals
    (1 - p) * (i - p * (effective diseased mortality - healthy mortality)).
    Shrinks as h**2 for smooth rates.  ``h`` may be one step, giving a
    float, or an array of steps, giving one residual per step: all their
    odds run as one batch and the effective mortality is computed once.
    """
    return _transport_residuals(model, t, a, h)[0]


def pde_residual_odds(model: RateModel, t: float, a: float, h):
    """Residual of the odds transport equation, valid only for duration-independent diseased mortality.

    With m1 independent of duration the odds satisfy
    (d/d life line) pi = (i - (m1 - m0)) * pi + i.  ``h`` may be one step or
    an array of steps, as in :func:`pde_residual_prevalence`.
    """
    if model.ratio.gamma1 != 0.0:
        raise ValueError("odds balance requires a duration-independent mortality ratio (gamma1 = 0)")
    return _transport_residuals(model, t, a, h)[1]


def reconstruct_incidence(
    start: AgeProfile,
    end: AgeProfile,
    effective_mortality: Callable[[float, np.ndarray], object],
    healthy_mortality: Callable[[float, np.ndarray], object],
) -> AgeProfile:
    """Estimate the incidence rate from prevalence at two cross-sections.

    Inverts the prevalence balance: the incidence equals the directional
    derivative of p along life lines divided by (1 - p), plus
    p * (effective diseased mortality - healthy mortality).  The derivative
    pairs age ``a`` in the earlier profile with age ``a + h`` in the later
    one (h = time gap), placing each estimate at the midpoint of that life
    line segment.  Both mortality callables take the midpoint time and the
    array of midpoint ages, and return a scalar or an array over those ages.
    """
    if not np.array_equal(start.ages, end.ages):
        raise ValueError("the two profiles must share the same age grid")
    h = end.time - start.time
    if not h > 0.0:
        raise ValueError("the second profile must be later than the first")
    if np.any(start.values >= 1.0) or np.any(end.values >= 1.0):
        raise ValueError("prevalence must stay below 1 to invert the balance")
    shifted_ages = start.ages + h
    usable = shifted_ages <= end.ages[-1] + 1e-12
    if not np.any(usable):
        raise ValueError("the time gap exceeds the age range of the profiles")
    p_end = np.interp(shifted_ages[usable], end.ages, end.values)
    p_start = start.values[usable]
    p_mid = 0.5 * (p_start + p_end)
    t_mid = start.time + 0.5 * h
    ages_mid = start.ages[usable] + 0.5 * h
    drift = (p_end - p_start) / h
    gap = np.asarray(effective_mortality(t_mid, ages_mid), dtype=float) - np.asarray(
        healthy_mortality(t_mid, ages_mid), dtype=float
    )
    estimates = drift / (1.0 - p_mid) + p_mid * gap
    return AgeProfile(t_mid, ages_mid, estimates)


def _profiles(
    model: RateModel,
    times,
    ages,
    kind: str = "prevalence",
    method: str = "pseudo_convolution",
    quadrature: QuadratureConfig = DEFAULT_QUADRATURE,
) -> list:
    """Cross-sections over one age grid at each of several calendar times, all their integrals in one batch."""
    if kind not in ("prevalence", "odds"):
        raise ValueError("kind must be 'prevalence' or 'odds'")
    times = np.asarray(times, dtype=float).ravel()
    ages = np.asarray(ages, dtype=float)
    grid = np.tile(ages.ravel(), len(times))
    odds = _nonnegative_odds(_odds_at(model, np.repeat(times, ages.size), grid, method, quadrature), grid)
    rows = np.split(odds if kind == "odds" else odds / (1.0 + odds), len(times))
    return [AgeProfile(time, ages, row.reshape(ages.shape)) for time, row in zip(times.tolist(), rows)]


def cross_section_profile(
    model: RateModel,
    time: float,
    ages,
    kind: str = "prevalence",
    method: str = "pseudo_convolution",
    quadrature: QuadratureConfig = DEFAULT_QUADRATURE,
) -> AgeProfile:
    """Prevalence (or odds) over an age grid at one calendar time, all ages' integrals in one batch."""
    return _profiles(model, [time], ages, kind, method, quadrature)[0]
