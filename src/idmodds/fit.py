"""Maximum-likelihood recovery of the mortality-ratio parameters.

A current-status table gives, per age group, the number alive and the number
diseased.  Holding incidence and healthy mortality fixed, the three
mortality-ratio parameters determine the analytic prevalence at each group's
midpoint age, and the diseased counts are binomial around it.

The group odds are the pseudo-convolution integral of past incidence times
exp(CI + CM0 - CM1) over the lookback.  Only CM1 depends on the parameters,
and it is linear in the coefficients c of the quadratic mortality ratio, so
``fit`` builds one plan per call: a fixed composite Gauss-Legendre rule over
the lookbacks past incidence onset, all groups' nodes in one flat array with
every parameter-free factor stored at them.  A likelihood evaluation is one
product of c with the moments, one exponential over the nodes, one sum per
group and two dot products with the counts.  At the optimum the plan is
checked against adaptive quadrature of the same odds at the same midpoints,
all groups in one batch, and the largest relative gap is reported.

The likelihood is maximized over one fixed box, ``_BOUNDS``, by a
derivative-free simplex search from four start points inside it: the
bounded Nelder-Mead method of ``scipy.optimize.minimize``, restated here
step for step on Python floats, so the package needs no scipy at run time.
Each search has the fixed budget ``_MAX_EVALUATIONS``, checked between
iterations; every search that stops on its tolerances takes scipy's steps
bit for bit.  The same plan gives the exact derivatives of the odds in those
coefficients, hence the exact observed information at the optimum, whose
inverse yields the confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from idmodds.prevalence import _lookback_edges, cross_section_profile
# prevalence is unused here but kept importable: the benchmark tracer (perfbench/spans.py) patches it
from idmodds.prevalence import prevalence  # noqa: F401
from idmodds.quadrature import QuadratureConfig, QuadratureError
from idmodds.rates import (
    GompertzParams,
    IncidenceSpec,
    MortalityRatioParams,
    PositivePartIncidence,
    RateModel,
    _ExitLines,
    course_moments,
    ratio_coefficients,
    reference_rate_model,
    smallest_ratio,
)
from idmodds.simulate import AgeGroupTable, check_age_groups

__all__ = [
    "FitConfig",
    "FitResult",
    "FitInputError",
    "group_prevalence",
    "log_likelihood",
    "fit",
    "wald_intervals",
]

# The box searched for gamma; it holds every start.
_BOUNDS = ((0.0, 1.0), (0.0, 50.0), (0.0, 20.0))
_DEFAULT_STARTS = ((0.01, 2.0, 1.0), (0.001, 1.0, 0.5), (0.1, 10.0, 1.5), (0.3, 20.0, 3.0))
# Largest R(0) in the box, at its upper corner: 2520.
_LARGEST_INITIAL_RATIO = ratio_coefficients(*(hi for _, hi in _BOUNDS))[0]
# Largest condition number of an information matrix that wald_intervals inverts.
_CONDITION_LIMIT = 1e12
_FIT_QUADRATURE = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-14, max_subdivisions=400)
# Nelder-Mead stops once the simplex spans less than _XATOL in every parameter
# and its log-likelihood values differ by less than _FATOL, or at the first
# iteration end with _MAX_EVALUATIONS likelihood evaluations spent.
_XATOL = 1e-6
_FATOL = 1e-8
_MAX_EVALUATIONS = 4000


@dataclass(frozen=True)
class FitConfig:
    """The model the likelihood is taken under, besides the data.

    Incidence and healthy mortality are treated as known; only the three
    mortality-ratio parameters are estimated, within the fixed box
    ``_BOUNDS``.  Components of ``fixed_gamma`` that carry a value are
    pinned, within the box, and excluded from the search.  Every age group
    is evaluated at its midpoint, and the adaptive check of the likelihood
    plan at the optimum has fixed tolerances.  The simplex searches start
    from ``_DEFAULT_STARTS`` and stop at the fixed tolerances ``_XATOL`` and
    ``_FATOL``, or at the fixed cap of ``_MAX_EVALUATIONS`` likelihood
    evaluations per search, checked between iterations.  No setting bounds
    where R must be positive: the likelihood needs it up to the table's
    oldest group midpoint.  ``fixed_gamma`` is stored as a tuple.
    """

    incidence: IncidenceSpec = field(default_factory=PositivePartIncidence)
    m0: GompertzParams = field(default_factory=lambda: reference_rate_model().m0)
    fixed_gamma: tuple = (None, None, None)

    def __post_init__(self):
        object.__setattr__(self, "fixed_gamma", tuple(self.fixed_gamma))
        if len(self.fixed_gamma) != 3:
            raise ValueError("fixed_gamma must have three entries")
        for j, (pinned, (lo, hi)) in enumerate(zip(self.fixed_gamma, _BOUNDS)):
            # the box is finite, so it also refuses NaN and the infinities
            if pinned is not None and not lo <= pinned <= hi:
                raise ValueError(f"pinned gamma{j + 1} = {pinned} must be finite and within its bounds [{lo}, {hi}]")

    @property
    def free_indices(self) -> tuple:
        return tuple(j for j, pinned in enumerate(self.fixed_gamma) if pinned is None)

    def full_gamma(self, free_values) -> np.ndarray:
        gamma = np.array([0.0 if p is None else float(p) for p in self.fixed_gamma])
        gamma[list(self.free_indices)] = np.asarray(free_values, dtype=float)
        return gamma

    def build_model(self, gamma) -> RateModel:
        g1, g2, g3 = (float(x) for x in gamma)
        return RateModel(self.incidence, self.m0, MortalityRatioParams(g1, g2, g3))


@dataclass(frozen=True, eq=False)
class FitResult:
    """Point estimate with curvature-based uncertainty and search diagnostics.

    ``hessian`` is the exact observed information, the negative Hessian of the
    log-likelihood, at ``gamma_hat`` itself, also when that lies on a bound;
    rows/columns of pinned components are NaN.  ``covariance`` and ``ci95``
    are None when the information matrix could not be inverted (see
    ``diagnostics``).  A free component is listed in
    ``diagnostics["flat_components"]`` when its row of the free information
    is at most that matrix's largest entry over ``_CONDITION_LIMIT``, the
    largest condition number ``wald_intervals`` inverts.
    """

    gamma_hat: np.ndarray
    loglik: float
    hessian: np.ndarray
    covariance: Optional[np.ndarray]
    ci95: Optional[np.ndarray]
    converged: bool
    iterations: int
    function_evals: int
    diagnostics: dict

    def to_json_dict(self) -> dict:
        def clean(array):
            return None if array is None else np.asarray(array).tolist()

        return {
            "gamma_hat": clean(self.gamma_hat),
            "loglik": self.loglik,
            "hessian": clean(self.hessian),
            "cov": clean(self.covariance),
            "ci95": clean(self.ci95),
            "converged": self.converged,
            "iterations": self.iterations,
            "function_evals": self.function_evals,
            "diagnostics": self.diagnostics,
        }


def group_prevalence(model: RateModel, age_lo, age_hi, t: float):
    """Model prevalence of age groups at the study time, each at its midpoint age.

    ``age_lo`` and ``age_hi`` are one group's limits, or arrays of groups,
    that keep :func:`~idmodds.simulate.check_age_groups`; every midpoint is
    integrated in one adaptive batch at the fit's fixed tolerances.  Returns
    a float for one scalar group, else one value per group.
    """
    lo, hi = np.asarray(age_lo, dtype=float), np.asarray(age_hi, dtype=float)
    check_age_groups(lo, hi)
    ages = 0.5 * (lo.ravel() + hi.ravel())
    values = cross_section_profile(model, t, ages, "prevalence", "pseudo_convolution", _FIT_QUADRATURE).values
    return float(values[0]) if lo.ndim == 0 else values


class FitInputError(ValueError):
    """No fit exists: no finite study time, nothing free, too few informative rows, too old groups, or no finite start.

    A start is not finite, for one, where R is not positive up to the oldest group midpoint.
    """


# Gauss-Legendre points per lookback piece of the likelihood plan.
_PLAN_RULE = leggauss(20)
# Longest piece, in years.  Where R is large early in a course and small late
# in it, the kernel has an interior bump a few years wide; 20 points on 40
# years miss it at 1e-8, 20 points on 10 years resolve it to 1e-14.
_PLAN_PIECE = 10.0
# Most plan nodes one table may use (the bundled table uses 3080), so that an
# absurd age is refused before its nodes exhaust memory.
_MAX_PLAN_NODES = 100_000
# Largest relative gap between the plan and adaptive quadrature tolerated at the optimum.
_PLAN_GAP_LIMIT = 1e-8


def _lookback_rule(kinks, m0: GompertzParams, t: float, ages: np.ndarray):
    """Composite Gauss-Legendre rules over the lookbacks [0, a] of all ``ages``: node age indices, lookbacks, weights.

    Each lookback is cut at its incidence ``kinks`` (a NaN-padded row of
    :func:`~idmodds.prevalence._lookback_edges`) and at a/2, a/4, ..., down to
    the shortest decay length 1/(m0(t, a) * _LARGEST_INITIAL_RATIO) that the
    kernel exp(-CM1) can have just after onset, so the recent-onset layer is
    resolved anywhere in the box.  Intervals between cuts are split into
    pieces of at most _PLAN_PIECE years at the points np.linspace gives.
    """
    rate = m0.rate(t, ages)
    depth = np.clip(np.where(rate > 0.0, rate * _LARGEST_INITIAL_RATIO * ages, 0.0), 2.0, 2.0**60)
    halvings = np.ceil(np.log2(depth)).astype(int)
    k = np.arange(1, halvings.max() + 1)
    halves = np.where(k <= halvings[:, None], ages[:, None] * 0.5**k, np.nan)
    edges = np.sort(np.column_stack((np.zeros_like(ages), ages, kinks, halves)), axis=1)
    # consecutive distinct edges bound an interval; repeated edges and the NaN padding bound none
    bounded = edges[:, 1:] > edges[:, :-1]
    lo, hi, owner = edges[:, :-1][bounded], edges[:, 1:][bounded], np.nonzero(bounded)[0]
    count = np.ceil((hi - lo) / _PLAN_PIECE).astype(int)
    interval = np.repeat(np.arange(len(count)), count)
    i = np.arange(len(interval)) - (np.cumsum(count) - count)[interval]
    lo, hi, step, owner = lo[interval], hi[interval], ((hi - lo) / count)[interval], owner[interval]
    start = (i * step + lo)[:, None]
    end = np.where(i + 1 == count[interval], hi, (i + 1) * step + lo)[:, None]
    x, w = _PLAN_RULE
    half = 0.5 * (end - start)
    return np.repeat(owner, len(x)), (start + half * (x + 1.0)).ravel(), (half * w).ravel()


@dataclass(frozen=True, eq=False)
class _LikelihoodPlan:
    """Parameter-free factors of the odds at every group's midpoint age, on one flat array of nodes.

    Group g owns the nodes from ``starts[g]`` to the next start; its odds are
    sum(weighted * exp(exponent - c @ moments)) over them, c the coefficients
    of R.  Nodes of zero weight (before incidence onset) are dropped; a group
    left with none keeps one node of zero weight, exponent and moments, so its
    odds are exactly 0.  The plan keeps its table and configuration, the
    oldest group midpoint as ``horizon``, the longest disease duration its
    odds reach, and the nonzero counts: ``cases`` c at ``case_rows``,
    ``rest`` n - c at ``rest_rows``.
    """

    table: AgeGroupTable
    config: FitConfig
    horizon: float
    weighted: np.ndarray
    exponent: np.ndarray
    moments: np.ndarray
    starts: np.ndarray
    case_rows: np.ndarray
    cases: np.ndarray
    rest_rows: np.ndarray
    rest: np.ndarray

    @staticmethod
    def build(table: AgeGroupTable, config: FitConfig) -> "_LikelihoodPlan":
        """The plan for this table and configuration.

        Raises FitInputError when the table's ``cross_section_time`` is not
        finite, or when its group midpoints need more than _MAX_PLAN_NODES
        nodes, naming the group that passes the limit.
        """
        t = float(table.cross_section_time)
        if not math.isfinite(t):
            raise FitInputError(f"the table's cross_section_time must be finite, got {t}")
        with np.errstate(over="ignore"):  # an infinite midpoint is refused below
            ages = 0.5 * (table.age_lo + table.age_hi)
        # a lookback of a years takes at least ceil(a / _PLAN_PIECE) pieces, counted before any is made
        over = np.flatnonzero(np.cumsum(np.ceil(ages / _PLAN_PIECE)) * len(_PLAN_RULE[0]) > _MAX_PLAN_NODES)
        if len(over):
            g = over[0]
            group = f"group {g + 1} [{table.age_lo[g]:g}, {table.age_hi[g]:g})"
            raise FitInputError(f"{group} takes the likelihood plan past {_MAX_PLAN_NODES} nodes")
        times = np.full(len(ages), t)
        kinks = _lookback_edges(config.incidence, times, ages, np.zeros(len(ages)))
        owner, delta, weights = _lookback_rule(kinks, config.m0, t, ages)
        weighted = weights * config.incidence.rate(t - delta, ages[owner] - delta)
        keep = weighted != 0.0
        empty = np.flatnonzero(np.bincount(owner[keep], minlength=len(ages)) == 0)
        keep[np.searchsorted(owner, empty)] = True
        owner, delta, weighted = owner[keep], delta[keep], weighted[keep]
        exponent = _ExitLines(config.m0, config.incidence, times, ages).lookback(delta, owner)
        base, integrals = course_moments(config.m0, t, ages[owner], delta)
        moments = base * np.stack(integrals)
        blank = weighted == 0.0
        exponent[blank], moments[:, blank] = 0.0, 0.0
        starts = np.searchsorted(owner, np.arange(len(ages)))
        cases, rest = table.c.astype(float), (table.n - table.c).astype(float)
        case_rows, rest_rows = np.flatnonzero(cases), np.flatnonzero(rest)
        binomial = (case_rows, cases[case_rows], rest_rows, rest[rest_rows])
        return _LikelihoodPlan(table, config, float(np.max(ages)), weighted, exponent, moments, starts, *binomial)

    def _terms(self, coefficients) -> np.ndarray:
        # in place: this is the likelihood's inner loop
        terms = np.asarray(coefficients, dtype=float) @ self.moments
        np.subtract(self.exponent, terms, out=terms)
        np.exp(terms, out=terms)
        terms *= self.weighted
        return terms

    def group_prevalence(self, coefficients) -> np.ndarray:
        """Model prevalence of every group, as ``group_prevalence`` defines it."""
        odds = np.add.reduceat(self._terms(coefficients), self.starts)
        return odds / (1.0 + odds)

    def log_likelihood_at(self, g1: float, g2: float, g3: float) -> float:
        """``log_likelihood`` at gamma = (g1, g2, g3), given as floats: every evaluation of the fit passes here."""
        (lo1, hi1), (lo2, hi2), (lo3, hi3) = _BOUNDS
        # the box is finite, so NaN and the infinities fall outside it
        if not (lo1 <= g1 <= hi1 and lo2 <= g2 <= hi2 and lo3 <= g3 <= hi3):
            return -math.inf
        # the rule RateModel.check_ratio enforces, on the durations up to the oldest midpoint
        if smallest_ratio(g1, g2, g3, self.horizon) <= 0.0:
            return -math.inf
        p = self.group_prevalence(ratio_coefficients(g1, g2, g3))
        p_cases, p_rest = p[self.case_rows], p[self.rest_rows]
        # p lies in [0, 1] or is NaN, so a count is impossible exactly where its probability is 0 or 1
        if 0.0 in p_cases.tolist() or 1.0 in p_rest.tolist():
            return -math.inf
        return float(self.cases.dot(np.log(p_cases)) + self.rest.dot(np.log1p(-p_rest)))

    def derivatives(self, gamma):
        """Exact gradient and Hessian in gamma of ``log_likelihood`` at a feasible ``gamma``.

        A group with odds o and c cases of n contributes c*log(o) - n*log(1 + o),
        without the first term when c = 0.  Only exp(-coefficients @ moments)
        depends on the coefficients of R, so the derivatives of o in them are
        group sums of the node terms times -moments[k] and moments[k] * moments[l].
        They chain to gamma through c(gamma) = (g1*g2**2 + g3, -2*g1*g2, g1).
        """
        g1, g2, g3 = (float(x) for x in gamma)
        terms = self._terms(ratio_coefficients(g1, g2, g3))
        odds = np.add.reduceat(terms, self.starts)
        # first and second derivatives of each group's contribution in its odds
        slope, bend = -self.table.n / (1.0 + odds), self.table.n / (1.0 + odds) ** 2
        slope[self.case_rows] += self.cases / odds[self.case_rows]
        bend[self.case_rows] -= self.cases / odds[self.case_rows] ** 2
        weighted_moments = terms * self.moments
        odds_gradient = -np.add.reduceat(weighted_moments, self.starts, axis=1)
        node_slope = np.repeat(slope, np.diff(self.starts, append=len(terms)))
        gradient_c = odds_gradient @ slope
        hessian_c = (odds_gradient * bend) @ odds_gradient.T + (weighted_moments * node_slope) @ self.moments.T
        jacobian = np.array([[g2 * g2, 2.0 * g1 * g2, 1.0], [-2.0 * g2, -2.0 * g1, 0.0], [1.0, 0.0, 0.0]])
        mixed = 2.0 * g2 * gradient_c[0] - 2.0 * gradient_c[1]
        second = np.array([[0.0, mixed, 0.0], [mixed, 2.0 * g1 * gradient_c[0], 0.0], [0.0, 0.0, 0.0]])
        return jacobian.T @ gradient_c, jacobian.T @ hessian_c @ jacobian + second


def log_likelihood(gamma, table: AgeGroupTable, config: FitConfig = FitConfig()) -> float:
    """Binomial log-likelihood of the table under the given mortality-ratio parameters.

    Minus infinity encodes every way the parameters can fail: outside the
    box ``_BOUNDS``, a mortality ratio not positive up to the oldest group
    midpoint, the longest disease duration the odds reach, or a group whose
    predicted prevalence makes the observed count impossible.  Terms with zero count
    against zero prevalence contribute zero (the 0*log(0) convention), so a
    disease-free model fits an all-zero table perfectly.  The binomial
    coefficient is a constant in the parameters and is omitted.  Each call
    builds the table's likelihood plan (``fit`` builds it once); a table
    whose study time is not finite, or whose midpoints are too old for the
    plan, raises FitInputError.
    """
    plan = _LikelihoodPlan.build(table, config)
    gamma = np.asarray(gamma, dtype=float)
    return plan.log_likelihood_at(*gamma.tolist()) if gamma.shape == (3,) else -math.inf


def wald_intervals(gamma_hat, hessian):
    """95% intervals from the inverse observed information.

    Returns (covariance, intervals); intervals may extend beyond the search
    bounds, which is meaningful (a bound-crossing interval flags weak
    identification).  Raises when the information matrix is singular or not
    positive definite.
    """
    hessian = np.asarray(hessian, dtype=float)
    eigenvalues = np.linalg.eigvalsh(hessian)
    smallest, largest = eigenvalues[0], eigenvalues[-1]
    if smallest <= 0.0 or not np.all(np.isfinite(eigenvalues)):
        raise ValueError(
            f"information matrix is not positive definite (eigenvalues {eigenvalues.tolist()})"
        )
    condition = largest / smallest
    if condition > _CONDITION_LIMIT:
        raise ValueError(f"information matrix is numerically singular (condition number {condition:.3e})")
    covariance = np.linalg.inv(hessian)
    covariance = 0.5 * (covariance + covariance.T)
    half_width = 1.96 * np.sqrt(np.diag(covariance))
    gamma_hat = np.asarray(gamma_hat, dtype=float)
    intervals = np.column_stack((gamma_hat - half_width, gamma_hat + half_width))
    return covariance, intervals


def _quadrature_gap(plan: _LikelihoodPlan, gamma) -> float:
    """Largest relative gap between the plan's group prevalences and adaptive quadrature at ``gamma``.

    All groups' adaptive integrals run in one batch at ``_FIT_QUADRATURE``.
    Raises QuadratureError when they miss their tolerance or the gap exceeds
    the plan's limit.
    """
    model = plan.config.build_model(gamma)
    table = plan.table
    fast = plan.group_prevalence(model.ratio.coefficients)
    oracle = group_prevalence(model, table.age_lo, table.age_hi, table.cross_section_time)
    with np.errstate(divide="ignore", invalid="ignore"):
        gaps = np.abs(fast - oracle) / np.abs(oracle)
    gaps[fast == oracle] = 0.0
    gap = float(gaps.max())
    if gap > _PLAN_GAP_LIMIT:
        raise QuadratureError(
            f"likelihood quadrature deviates from adaptive quadrature by {gap:.3e} at {gamma.tolist()} "
            f"(limit {_PLAN_GAP_LIMIT:.0e})"
        )
    return gap


class _Search(NamedTuple):
    """Outcome of one simplex search: best vertex, its value, iterations, evaluations, and whether it converged."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool


def _simplex_search(objective, x0, lo, hi, max_evaluations: int) -> _Search:
    """Minimize ``objective`` over the box [lo, hi] by scipy's bounded Nelder-Mead, step for step.

    The non-adaptive method of ``scipy.optimize.minimize(method="Nelder-Mead",
    bounds=...)``, each operation in scipy's order on Python floats, so the
    search returns scipy's bits: reflection 1, expansion 2, contraction and
    shrinkage 1/2, every vertex clipped into the box as np.clip clips it.  The
    initial simplex steps each component of x0 by 5%, or to 0.00025 from 0, and
    reflects a vertex past an upper bound back inside.  The search stops once
    every vertex lies within _XATOL of the best in every component and every
    value within _FATOL of the best, and ``success`` says it stopped so.  The
    whole initial simplex is always evaluated, and ``max_evaluations`` is
    checked only between iterations: the search stops at the first iteration
    end with that many evaluations spent.  Vertices are ordered by argsort
    and ``fun`` is np.min of the final values, so ties, infinities and NaN fall
    as in scipy.
    """
    lo, hi = [float(b) for b in lo], [float(b) for b in hi]
    box, n = list(zip(lo, hi)), len(lo)
    evals = 0

    def clip(point):
        # np.clip's rule: NaN passes, and a value equal to a bound becomes the bound (so -0.0 becomes 0.0)
        return [b if v <= b else t if v >= t else v for v, (b, t) in zip(point, box)]

    def evaluate(point):
        nonlocal evals
        evals += 1
        return objective(point)

    def ordered(simplex, values):
        order = np.array(values).argsort().tolist()
        return [simplex[i] for i in order], [values[i] for i in order]

    start = clip([float(v) for v in x0])
    simplex = [start]
    for k in range(n):
        vertex = list(start)
        vertex[k] = 1.05 * vertex[k] if vertex[k] != 0 else 0.00025
        simplex.append(vertex)
    # reflected inside, so that a start at an upper bound does not clip to a flat simplex
    simplex = [clip([2 * b - v if v > b else v for v, b in zip(vertex, hi)]) for vertex in simplex]
    simplex, values = ordered(simplex, [evaluate(vertex) for vertex in simplex])

    # scipy counts from 1
    iterations = 1
    while evals < max_evaluations:
        best, worst = simplex[0], simplex[-1]
        if all(abs(values[0] - f) <= _FATOL for f in values[1:]) and all(
            abs(v - b) <= _XATOL for vertex in simplex[1:] for v, b in zip(vertex, best)
        ):
            break
        total = best
        for vertex in simplex[1:-1]:
            total = [s + v for s, v in zip(total, vertex)]
        centroid = [s / n for s in total]
        reflected = clip([2 * c - w for c, w in zip(centroid, worst)])
        f_reflected = evaluate(reflected)
        if f_reflected < values[0]:
            expanded = clip([3 * c - 2 * w for c, w in zip(centroid, worst)])
            f_expanded = evaluate(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = clip([1.5 * c - 0.5 * w for c, w in zip(centroid, worst)])
                f_contracted = evaluate(contracted)
                accepted = f_contracted <= f_reflected
            else:
                contracted = clip([0.5 * c + 0.5 * w for c, w in zip(centroid, worst)])
                f_contracted = evaluate(contracted)
                accepted = f_contracted < values[-1]
            if accepted:
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                for j in range(1, n + 1):
                    simplex[j] = clip([b + 0.5 * (v - b) for v, b in zip(simplex[j], best)])
                    values[j] = evaluate(simplex[j])
        iterations += 1
        simplex, values = ordered(simplex, values)
    # the loop ends early only on the tolerances
    return _Search(np.array(simplex[0]), np.min(values), iterations, evals, evals < max_evaluations)


def fit(table: AgeGroupTable, config: FitConfig = FitConfig()) -> FitResult:
    """Maximize the likelihood over the free mortality-ratio parameters.

    Runs the simplex search ``_simplex_search``, to the tolerances ``_XATOL``
    and ``_FATOL`` within ``_MAX_EVALUATIONS`` evaluations, from each of
    ``_DEFAULT_STARTS``, all inside the box ``_BOUNDS``, keeps the best, and
    restarts once from the incumbent to escape premature contraction;
    ``converged`` says the kept search stopped on the tolerances.
    ``diagnostics["searches"]`` records the five searches in that order:
    start, log-likelihood reached, iterations, evaluations and whether each
    converged.  ``diagnostics["boundary_hits"]`` lists the free components
    within 1e-4 * (hi - lo) of a bound of the box.  Once the search can
    start, the result always comes back; ``converged`` and the diagnostics
    say how much to trust it.
    Raises FitInputError when the table's study time is not finite, nothing
    is free, too few rows are informative, the groups are too old for the
    likelihood plan, or every start is impossible, naming the mortality
    ratio when it is not positive up to the oldest group midpoint at any
    start.
    """
    free = config.free_indices
    if len(free) == 0:
        raise FitInputError("at least one component must be free")
    informative = np.count_nonzero((table.n > 0) & (table.c > 0) & (table.c < table.n))
    if informative < len(free):
        raise FitInputError(
            f"{len(free)} free parameters need at least that many informative rows, got {informative}"
        )
    plan = _LikelihoodPlan.build(table, config)
    lower, upper = zip(*(_BOUNDS[j] for j in free))
    starts = [[start[j] for j in free] for start in _DEFAULT_STARTS]
    # the pinned components, into which each evaluation writes the free ones as floats
    gamma, evaluate = config.full_gamma(starts[0]).tolist(), plan.log_likelihood_at

    def objective(free_values):
        for j, value in zip(free, free_values):
            gamma[j] = float(value)
        return -evaluate(*gamma)

    # screened outside the searches, whose evaluations alone ``function_evals`` counts
    if not any(math.isfinite(objective(x0)) for x0 in starts):
        if all(smallest_ratio(*config.full_gamma(x0).tolist(), plan.horizon) <= 0.0 for x0 in starts):
            raise FitInputError(f"the mortality ratio is not positive up to age {plan.horizon:g} at any start point")
        raise FitInputError("the likelihood is minus infinity at every start point")

    searches = []

    def search(x0):
        outcome = _simplex_search(objective, x0, lower, upper, _MAX_EVALUATIONS)
        searches.append({
            "start": config.full_gamma(x0).tolist(), "loglik": -float(outcome.fun), "iterations": outcome.nit,
            "evaluations": outcome.nfev, "converged": outcome.success,
        })
        return outcome

    best = None
    for x0 in starts:
        outcome = search(x0)
        if np.isfinite(outcome.fun) and (best is None or outcome.fun < best.fun):
            best = outcome
    restart = search(best.x)
    if np.isfinite(restart.fun) and restart.fun <= best.fun:
        best = restart
    gamma_hat = config.full_gamma(best.x)

    diagnostics = {
        "free_components": list(free),
        "boundary_hits": [],
        "flat_components": [],
        "quadrature_gap": _quadrature_gap(plan, gamma_hat),
        "searches": searches,
    }
    for j in free:
        lo, hi = _BOUNDS[j]
        if gamma_hat[j] - lo < 1e-4 * (hi - lo) or hi - gamma_hat[j] < 1e-4 * (hi - lo):
            diagnostics["boundary_hits"].append(j)

    information = -plan.derivatives(gamma_hat)[1][np.ix_(free, free)]
    hessian = np.full((3, 3), np.nan)
    hessian[np.ix_(free, free)] = information
    # a row below the condition limit of wald_intervals carries no information
    rows = np.abs(information).max(axis=1)
    diagnostics["flat_components"].extend(j for j, row in zip(free, rows) if row <= rows.max() / _CONDITION_LIMIT)

    covariance_full = ci_full = None
    try:
        covariance_free, ci_free = wald_intervals(gamma_hat[list(free)], information)
        covariance_full = np.full((3, 3), np.nan)
        covariance_full[np.ix_(free, free)] = covariance_free
        ci_full = np.full((3, 2), np.nan)
        ci_full[list(free)] = ci_free
    except ValueError as error:
        diagnostics["covariance_error"] = str(error)

    return FitResult(
        gamma_hat=gamma_hat, loglik=-float(best.fun), hessian=hessian, covariance=covariance_full, ci95=ci_full,
        converged=bool(best.success), iterations=sum(entry["iterations"] for entry in searches),
        function_evals=sum(entry["evaluations"] for entry in searches), diagnostics=diagnostics,
    )
