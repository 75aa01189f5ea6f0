"""Maximum-likelihood recovery of the mortality-ratio parameters.

A current-status table gives, per age group, the number alive and the number
diseased.  Holding incidence and healthy mortality fixed, the three
mortality-ratio parameters determine the analytic prevalence at each group's
midpoint age, and the diseased counts are binomial around it.

The group odds are the pseudo-convolution integral of past incidence times
exp(CI + CM0 - CM1) over the lookback.  Only CM1 depends on the parameters,
and it is linear in the coefficients of the quadratic mortality ratio, so
``fit`` builds one plan per call, holding a fixed composite Gauss-Legendre
rule and every parameter-free factor at its nodes; each likelihood
evaluation is then one array contraction.  At the optimum the plan is
checked against adaptive quadrature of the same odds at the same midpoints,
all groups in one batch, and the largest relative gap is reported.

The likelihood is maximized by a derivative-free simplex search.  The same
plan gives the exact derivatives of the odds in those coefficients, hence the
exact observed information at the optimum, whose inverse yields the
confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

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
    course_moments,
    reference_rate_model,
)
from idmodds.simulate import AgeGroupTable

__all__ = [
    "FitConfig",
    "FitResult",
    "FitInputError",
    "RatioHorizonError",
    "group_prevalence",
    "log_likelihood",
    "fit",
    "wald_intervals",
]

_DEFAULT_BOUNDS = ((0.0, 1.0), (0.0, 50.0), (0.0, 20.0))
_DEFAULT_STARTS = ((0.01, 2.0, 1.0), (0.001, 1.0, 0.5), (0.1, 10.0, 1.5), (0.3, 20.0, 3.0))
_FIT_QUADRATURE = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-14, max_subdivisions=400)
# Nelder-Mead stops once the simplex spans less than _XATOL in every parameter
# and its log-likelihood values differ by less than _FATOL.
_XATOL = 1e-6
_FATOL = 1e-8


@dataclass(frozen=True)
class FitConfig:
    """Everything the likelihood needs besides the data.

    Incidence and healthy mortality are treated as known; only the three
    mortality-ratio parameters are estimated.  Components of ``fixed_gamma``
    that carry a value are pinned and excluded from the search.  Every age
    group is evaluated at its midpoint, and the adaptive check of the
    likelihood plan at the optimum has fixed tolerances.  The simplex search
    stops at the fixed tolerances ``_XATOL`` and ``_FATOL``;
    ``max_iterations`` caps its iterations and likelihood evaluations per
    search.
    """

    incidence: IncidenceSpec = field(default_factory=PositivePartIncidence)
    m0: GompertzParams = field(default_factory=lambda: reference_rate_model().m0)
    bounds: tuple = _DEFAULT_BOUNDS
    starts: tuple = _DEFAULT_STARTS
    fixed_gamma: tuple = (None, None, None)
    max_iterations: int = 4000
    max_duration: float = 100.0

    def __post_init__(self):
        if len(self.bounds) != 3 or any(len(b) != 2 or not b[0] < b[1] for b in self.bounds):
            raise ValueError("bounds must be three increasing (lo, hi) pairs")
        if len(self.fixed_gamma) != 3:
            raise ValueError("fixed_gamma must have three entries")
        if not self.starts:
            raise ValueError("at least one start point is required")
        for start in self.starts:
            if len(start) != 3:
                raise ValueError("start points must have three components")
            for value, (lo, hi), pinned in zip(start, self.bounds, self.fixed_gamma):
                if pinned is None and not lo <= value <= hi:
                    raise ValueError(f"start point {start} lies outside the bounds")

    @property
    def free_indices(self) -> tuple:
        return tuple(j for j, pinned in enumerate(self.fixed_gamma) if pinned is None)

    def full_gamma(self, free_values) -> np.ndarray:
        gamma = np.array([0.0 if p is None else float(p) for p in self.fixed_gamma])
        gamma[list(self.free_indices)] = np.asarray(free_values, dtype=float)
        return gamma

    def build_model(self, gamma) -> RateModel:
        g1, g2, g3 = (float(x) for x in gamma)
        ratio = MortalityRatioParams(g1, g2, g3, max_duration=self.max_duration)
        return RateModel(self.incidence, self.m0, ratio)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Point estimate with curvature-based uncertainty and search diagnostics.

    ``hessian`` is the exact observed information, the negative Hessian of the
    log-likelihood, at ``gamma_hat`` itself, also when that lies on a bound;
    rows/columns of pinned components are NaN.  ``covariance`` and ``ci95``
    are None when the information matrix could not be inverted (see
    ``diagnostics``).  A free component is listed in
    ``diagnostics["flat_components"]`` when its row of the free information
    is at most 1e-12 of that matrix's largest entry, the condition limit of
    ``wald_intervals``.
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

    ``age_lo`` and ``age_hi`` are one group's limits, or arrays of groups of
    positive width, ascending and disjoint; every midpoint is integrated in
    one adaptive batch at the fit's fixed tolerances.  Returns a float for
    one scalar group, else one value per group.
    """
    lo, hi = np.asarray(age_lo, dtype=float), np.asarray(age_hi, dtype=float)
    if np.any(lo >= hi) or np.any(lo.ravel()[1:] < hi.ravel()[:-1]):
        raise ValueError("age groups must have positive width and be ascending and disjoint")
    ages = 0.5 * (lo.ravel() + hi.ravel())
    values = cross_section_profile(model, t, ages, "prevalence", "pseudo_convolution", _FIT_QUADRATURE).values
    return float(values[0]) if lo.ndim == 0 else values


class FitInputError(ValueError):
    """No fit exists: an age is negative, nothing is free, too few rows are informative, or no start is finite."""


class RatioHorizonError(FitInputError):
    """The table needs the mortality ratio at durations beyond those checked for positivity."""


# Gauss-Legendre points per lookback piece of the likelihood plan.
_PLAN_RULE = leggauss(20)
# Longest piece, in years.  Where R is large early in a course and small late
# in it, the kernel has an interior bump a few years wide; 20 points on 40
# years miss it at 1e-8, 20 points on 10 years resolve it to 1e-14.
_PLAN_PIECE = 10.0
# Largest relative gap between the plan and adaptive quadrature tolerated at the optimum.
_PLAN_GAP_LIMIT = 1e-8


def _largest_initial_ratio(bounds) -> float:
    """Largest R(0) = gamma1 * gamma2**2 + gamma3 over the bounds box.

    R(0) is linear in gamma1, in gamma2**2 and in gamma3, so its maximum sits at
    an end of each range, the range of gamma2**2 ending at 0 when the gamma2
    range contains 0.  A zero factor gives 0, even times an infinite one.
    """
    (g1_lo, g1_hi), (g2_lo, g2_hi), (_, g3_hi) = bounds
    squares = [g2_lo * g2_lo, g2_hi * g2_hi] + ([0.0] if g2_lo <= 0.0 <= g2_hi else [])
    return max(g1 * sq if g1 and sq else 0.0 for g1 in (g1_lo, g1_hi) for sq in squares) + g3_hi


def _lookback_rule(kinks, m0: GompertzParams, t: float, a: float, initial_ratio: float):
    """Composite Gauss-Legendre nodes and weights over the lookback [0, a].

    Pieces end at the incidence ``kinks`` (a NaN-padded row of
    :func:`~idmodds.prevalence._lookback_edges`) and at a/2, a/4, ..., down to the
    shortest decay length 1/(m0(t, a) * initial_ratio) that the kernel
    exp(-CM1) can have just after onset, so the recent-onset layer is
    resolved anywhere in the bounds box.
    """
    rate = float(m0.rate(t, a))
    depth = min(max(rate * initial_ratio * a if rate else 0.0, 2.0), 2.0**60)
    edges = {0.0, a, *kinks[~np.isnan(kinks)].tolist()}
    edges.update(a * 0.5**k for k in range(1, math.ceil(math.log2(depth)) + 1))
    edges = sorted(edges)
    cuts = [
        np.linspace(lo, hi, math.ceil((hi - lo) / _PLAN_PIECE) + 1) for lo, hi in zip(edges[:-1], edges[1:])
    ]
    lo = np.concatenate([c[:-1] for c in cuts])[:, None]
    hi = np.concatenate([c[1:] for c in cuts])[:, None]
    x, w = _PLAN_RULE
    return (lo + 0.5 * (hi - lo) * (x + 1.0)).ravel(), (0.5 * (hi - lo) * w).ravel()


@dataclass(frozen=True, eq=False)
class _LikelihoodPlan:
    """Parameter-free factors of the odds at every group's midpoint age.

    Row g holds the lookback nodes of group g's midpoint; the odds there are
    sum(weighted_incidence * exp(exponent - moments @ c)) over the row, with
    c the coefficients of R.  Rows are padded with zero weights.  The plan
    keeps the table and configuration it was built for.
    """

    table: AgeGroupTable
    config: FitConfig
    weighted_incidence: np.ndarray
    exponent: np.ndarray
    moments: np.ndarray

    @staticmethod
    def build(table: AgeGroupTable, config: FitConfig) -> "_LikelihoodPlan":
        """The plan for this table and configuration.

        Raises RatioHorizonError when the oldest group midpoint exceeds
        ``config.max_duration``, and FitInputError when an age is negative.
        """
        ages = 0.5 * (table.age_lo + table.age_hi)
        oldest = float(np.max(ages))
        if oldest > config.max_duration:
            raise RatioHorizonError(
                f"the likelihood evaluates the mortality ratio up to duration {oldest:g}, beyond "
                f"max_duration={config.max_duration:g} where its positivity is checked"
            )
        if np.any(table.age_lo < 0.0):
            raise FitInputError("age groups must start at nonnegative ages")
        t = float(table.cross_section_time)
        initial_ratio = _largest_initial_ratio(config.bounds)
        kinks = _lookback_edges(config.incidence, np.full(len(ages), t), ages, np.zeros(len(ages)))
        rules = [_lookback_rule(row, config.m0, t, a, initial_ratio) for row, a in zip(kinks, ages.tolist())]
        width = max(len(nodes) for nodes, _ in rules)
        weighted = np.zeros((len(ages), width))
        exponent = np.zeros((len(ages), width))
        moments = np.zeros((len(ages), width, 3))
        for row, (a, (delta, weights)) in enumerate(zip(ages, rules)):
            size = len(delta)
            weighted[row, :size] = weights * config.incidence.rate(t - delta, a - delta)
            exponent[row, :size] = config.incidence.cumulative(t, a, delta) + config.m0.cumulative(t, a, delta)
            base, integrals = course_moments(config.m0, t, a, delta)
            moments[row, :size] = base[:, None] * np.column_stack(integrals)
        return _LikelihoodPlan(table, config, weighted, exponent, moments)

    def _terms(self, coefficients) -> np.ndarray:
        kernel = np.exp(self.exponent - self.moments @ np.asarray(coefficients, dtype=float))
        return self.weighted_incidence * kernel

    def group_prevalence(self, coefficients) -> np.ndarray:
        """Model prevalence of every group, as ``group_prevalence`` defines it."""
        odds = self._terms(coefficients).sum(axis=1)
        return odds / (1.0 + odds)

    def odds_derivatives(self, coefficients):
        """Odds of every group with their gradient and Hessian in c.

        Only exp(-moments @ c) depends on c, so the derivatives are the row
        sums of the same terms times -moments[k] and moments[k] * moments[l].
        """
        terms = self._terms(coefficients)
        weighted_moments = terms[:, :, None] * self.moments
        return terms.sum(axis=1), -weighted_moments.sum(axis=1), weighted_moments.transpose(0, 2, 1) @ self.moments

    def log_likelihood(self, gamma) -> float:
        """``log_likelihood`` of the plan's table and configuration at ``gamma``."""
        gamma = np.asarray(gamma, dtype=float)
        if gamma.shape != (3,) or not np.all(np.isfinite(gamma)):
            return -math.inf
        if not all(lo <= value <= hi for value, (lo, hi) in zip(gamma, self.config.bounds)):
            return -math.inf
        try:
            ratio = self.config.build_model(gamma).ratio
        except ValueError:
            return -math.inf
        table = self.table
        total = 0.0
        for n, c, p in zip(table.n.tolist(), table.c.tolist(), self.group_prevalence(ratio.coefficients).tolist()):
            if c > 0:
                if p <= 0.0:
                    return -math.inf
                total += c * math.log(p)
            if n - c > 0:
                if p >= 1.0:
                    return -math.inf
                total += (n - c) * math.log1p(-p)
        return total

    def derivatives(self, gamma):
        """Exact gradient and Hessian in gamma of ``log_likelihood`` at a feasible ``gamma``.

        The odds derivatives in c chain through p = odds / (1 + odds), the
        binomial terms and c(gamma) = (g1*g2**2 + g3, -2*g1*g2, g1).  As in
        ``log_likelihood``, a term with zero count contributes nothing.
        """
        g1, g2, _ = (float(x) for x in gamma)
        odds, odds_gradient, odds_hessian = self.odds_derivatives(self.config.build_model(gamma).ratio.coefficients)
        # p = odds / (1 + odds) of every group
        scale = 1.0 / (1.0 + odds)
        outer = np.einsum("gk,gl->gkl", odds_gradient, odds_gradient)
        p = odds * scale
        gradient = scale[:, None] ** 2 * odds_gradient
        hessian = scale[:, None, None] ** 2 * (odds_hessian - 2.0 * scale[:, None, None] * outer)
        cases, rest = self.table.c.astype(float), (self.table.n - self.table.c).astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(cases > 0, cases / p, 0.0) - np.where(rest > 0, rest / (1.0 - p), 0.0)
            bend = -np.where(cases > 0, cases / p**2, 0.0) - np.where(rest > 0, rest / (1.0 - p) ** 2, 0.0)
        # the binomial terms in c, then in gamma through the Jacobian of c and its second derivatives
        gradient_c = slope @ gradient
        hessian_c = np.einsum("g,gk,gl->kl", bend, gradient, gradient) + np.einsum("g,gkl->kl", slope, hessian)
        jacobian = np.array([[g2 * g2, 2.0 * g1 * g2, 1.0], [-2.0 * g2, -2.0 * g1, 0.0], [1.0, 0.0, 0.0]])
        mixed = 2.0 * g2 * gradient_c[0] - 2.0 * gradient_c[1]
        second = np.array([[0.0, mixed, 0.0], [mixed, 2.0 * g1 * gradient_c[0], 0.0], [0.0, 0.0, 0.0]])
        return jacobian.T @ gradient_c, jacobian.T @ hessian_c @ jacobian + second


def log_likelihood(gamma, table: AgeGroupTable, config: FitConfig = FitConfig()) -> float:
    """Binomial log-likelihood of the table under the given mortality-ratio parameters.

    Minus infinity encodes every way the parameters can fail: outside the
    bounds, a nonpositive mortality ratio, or a group whose predicted
    prevalence makes the observed count impossible.  Terms with zero count
    against zero prevalence contribute zero (the 0*log(0) convention), so a
    disease-free model fits an all-zero table perfectly.  The binomial
    coefficient is a constant in the parameters and is omitted.  Each call
    builds the table's likelihood plan (about 3 ms for the bundled table;
    ``fit`` builds it once); a table the plan cannot serve raises
    RatioHorizonError.
    """
    return _LikelihoodPlan.build(table, config).log_likelihood(gamma)


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
    if condition > 1e12:
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


def fit(table: AgeGroupTable, config: FitConfig = FitConfig()) -> FitResult:
    """Maximize the likelihood over the free mortality-ratio parameters.

    Runs the simplex search, to the tolerances ``_XATOL`` and ``_FATOL``,
    from every configured start, keeps the best, and restarts once from the
    incumbent to escape premature contraction.  Once the search can start,
    the result always comes back; ``converged`` and the diagnostics say how
    much to trust it.  Raises FitInputError when an age is negative, nothing
    is free, too few rows are informative, or every start is impossible.
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
    starts = [np.array([start[j] for j in free]) for start in config.starts]
    # screened outside ``evals``, which counts the search's evaluations alone
    if not any(math.isfinite(plan.log_likelihood(config.full_gamma(x0))) for x0 in starts):
        raise FitInputError("the likelihood is minus infinity at every start point")

    evals = 0

    def objective(free_values):
        nonlocal evals
        evals += 1
        return -plan.log_likelihood(config.full_gamma(free_values))

    # imported here, its only user, so commands that never fit skip its half-second import
    from scipy import optimize

    bounds = [config.bounds[j] for j in free]
    options = {
        "xatol": _XATOL,
        "fatol": _FATOL,
        "maxiter": config.max_iterations,
        "maxfev": config.max_iterations,
    }
    best = None
    iterations = 0
    for x0 in starts:
        outcome = optimize.minimize(objective, x0, method="Nelder-Mead", bounds=bounds, options=options)
        iterations += outcome.nit
        if np.isfinite(outcome.fun) and (best is None or outcome.fun < best.fun):
            best = outcome
    restart = optimize.minimize(objective, best.x, method="Nelder-Mead", bounds=bounds, options=options)
    iterations += restart.nit
    if np.isfinite(restart.fun) and restart.fun <= best.fun:
        best = restart
    converged = bool(best.success)

    gamma_hat = config.full_gamma(best.x)
    loglik = -float(best.fun)

    diagnostics = {
        "free_components": list(free),
        "starts_used": len(config.starts),
        "boundary_hits": [],
        "flat_components": [],
        "quadrature_gap": _quadrature_gap(plan, gamma_hat),
    }
    for j in free:
        lo, hi = config.bounds[j]
        span = hi - lo
        if min(gamma_hat[j] - lo, hi - gamma_hat[j]) < 1e-4 * span:
            diagnostics["boundary_hits"].append(j)

    information = -plan.derivatives(gamma_hat)[1][np.ix_(free, free)]
    hessian = np.full((3, 3), np.nan)
    hessian[np.ix_(free, free)] = information
    # a row below the condition limit of wald_intervals carries no information
    rows = np.abs(information).max(axis=1)
    diagnostics["flat_components"].extend(j for j, row in zip(free, rows) if row <= 1e-12 * rows.max())

    covariance_full = None
    ci_full = None
    try:
        covariance_free, ci_free = wald_intervals(gamma_hat[list(free)], information)
        covariance_full = np.full((3, 3), np.nan)
        covariance_full[np.ix_(free, free)] = covariance_free
        ci_full = np.full((3, 2), np.nan)
        ci_full[list(free)] = ci_free
    except ValueError as error:
        diagnostics["covariance_error"] = str(error)

    return FitResult(
        gamma_hat=gamma_hat,
        loglik=loglik,
        hessian=hessian,
        covariance=covariance_full,
        ci95=ci_full,
        converged=converged,
        iterations=int(iterations),
        function_evals=int(evals),
        diagnostics=diagnostics,
    )
