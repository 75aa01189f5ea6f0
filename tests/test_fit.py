"""Tests for maximum-likelihood estimation of the mortality-ratio parameters."""

import importlib
import itertools
import json
import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy import optimize

from idmodds.fit import (
    _BOUNDS,
    _DEFAULT_STARTS,
    _FATOL,
    _LARGEST_INITIAL_RATIO,
    _MAX_EVALUATIONS,
    _XATOL,
    FitConfig,
    FitInputError,
    _LikelihoodPlan,
    _lookback_rule,
    _simplex_search,
    fit,
    group_prevalence,
    log_likelihood,
    wald_intervals,
)
from idmodds.prevalence import _lookback_edges, prevalence
from idmodds.rates import (
    ExponentialIncidence,
    GompertzParams,
    PositivePartIncidence,
    RateModel,
    RatioHorizonError,
    TabulatedIncidence,
    ratio_coefficients,
    reference_rate_model,
    smallest_ratio,
)
from idmodds.simulate import AgeGroupTable

REFERENCE_N = (9858, 9786, 9597, 9328, 8857, 8040, 6873, 5329, 3706, 2104, 910)
REFERENCE_C = (283, 501, 781, 1145, 1228, 1347, 1240, 997, 679, 370, 164)

# Published reference fit for the study table: estimates with 95% intervals,
# simulation input (0.04, 5, 1).
PUBLISHED_GAMMA = np.array([0.0330, 3.06, 1.01])
PUBLISHED_CI = np.array([[-0.0127, 0.0787], [-5.70, 11.8], [0.625, 1.39]])


def reference_table(cross_section_time=100.0) -> AgeGroupTable:
    age_lo = np.arange(40.0, 95.0, 5.0)
    return AgeGroupTable(
        cross_section_time=cross_section_time,
        age_lo=age_lo,
        age_hi=age_lo + 5.0,
        n=np.array(REFERENCE_N),
        c=np.array(REFERENCE_C),
    )


def edge_table(edge) -> AgeGroupTable:
    """The bundled table with no cases in its first group, all cases in its last, or its first group empty.

    So the plan's likelihood reads the groups with cases, with non-cases, or both, from gathered rows.
    """
    n, c = np.array(REFERENCE_N), np.array(REFERENCE_C)
    if edge == "first-no-cases":
        c[0] = 0
    elif edge == "last-all-cases":
        c[-1] = n[-1]
    else:
        n[0] = c[0] = 0
    table = reference_table()
    return AgeGroupTable(table.cross_section_time, table.age_lo, table.age_hi, n, c)


EDGE_TABLES = ("first-no-cases", "last-all-cases", "first-empty")


def zero_incidence_model() -> RateModel:
    # exp(-1000) underflows to exactly 0, giving a disease-free model.
    incidence = ExponentialIncidence(-1000.0, 0.0, 0.0)
    return RateModel(incidence, GompertzParams(-10.7, 0.1, math.log(0.998)), reference_rate_model().ratio)


class TestGroupPrevalence:
    def test_zero_incidence_gives_zero_for_every_group(self):
        model = zero_incidence_model()
        for lo in range(40, 95, 5):
            assert group_prevalence(model, lo, lo + 5.0, 100.0) == 0.0

    def test_group5_midpoint_matches_study_scale(self):
        model = reference_rate_model()
        p = group_prevalence(model, 60.0, 65.0, 100.0)
        assert p == pytest.approx(0.14587153995427685, rel=1e-10)
        assert p == pytest.approx(1228 / 8857, abs=0.01)

    def test_midpoint_equals_pointwise_prevalence(self):
        model = reference_rate_model()
        direct = prevalence(model, 100.0, 72.5).prevalence
        assert group_prevalence(model, 70.0, 75.0, 100.0) == pytest.approx(direct, rel=1e-12)

    def test_array_of_groups_matches_per_group_calls(self):
        model = reference_rate_model()
        age_lo = np.arange(40.0, 95.0, 5.0)
        batch = group_prevalence(model, age_lo, age_lo + 5.0, 100.0)
        single = [group_prevalence(model, lo, lo + 5.0, 100.0) for lo in age_lo.tolist()]
        assert all(type(p) is float for p in single)
        np.testing.assert_array_equal(batch, single)
        with pytest.raises(ValueError, match="ascending"):
            group_prevalence(model, age_lo[::-1], age_lo[::-1] + 5.0, 100.0)


class TestLogLikelihood:
    def test_all_zero_counts_with_zero_incidence(self):
        age_lo = np.arange(40.0, 95.0, 5.0)
        table = AgeGroupTable(
            cross_section_time=100.0,
            age_lo=age_lo,
            age_hi=age_lo + 5.0,
            n=np.array(REFERENCE_N),
            c=np.zeros(11, dtype=int),
        )
        config = FitConfig(incidence=ExponentialIncidence(-1000.0, 0.0, 0.0))
        assert log_likelihood((0.04, 5.0, 1.0), table, config) == 0.0
        # zero counts against zero prevalence contribute no derivative and no NaN
        gradient, hessian = _LikelihoodPlan.build(table, config).derivatives((0.04, 5.0, 1.0))
        assert np.all(gradient == 0.0) and np.all(hessian == 0.0)

    def test_reference_value_reproducible(self):
        table = reference_table()
        # the sum over adaptive-quadrature group prevalences is pinned exactly; the plan must match it
        model = reference_rate_model()
        oracle = 0.0
        for lo, hi, n, c in zip(table.age_lo, table.age_hi, REFERENCE_N, REFERENCE_C):
            p = group_prevalence(model, float(lo), float(hi), 100.0)
            oracle += c * math.log(p)
            oracle += (n - c) * math.log1p(-p)
        assert oracle == -25635.46410247066
        value = log_likelihood((0.04, 5.0, 1.0), table, FitConfig())
        assert abs(value - oracle) <= 1e-9
        assert value == log_likelihood((0.04, 5.0, 1.0), table, FitConfig())

    def test_outside_bounds_is_minus_infinity(self):
        table = reference_table()
        assert log_likelihood((-0.01, 5.0, 1.0), table, FitConfig()) == -math.inf
        assert log_likelihood((0.04, 60.0, 1.0), table, FitConfig()) == -math.inf
        assert log_likelihood((0.04, 5.0, 25.0), table, FitConfig()) == -math.inf

    def test_ratio_positivity_failure_is_minus_infinity(self):
        # gamma3 = 0 makes R vanish at the parabola vertex.
        assert log_likelihood((0.04, 5.0, 0.0), reference_table(), FitConfig()) == -math.inf

    def test_impossible_data_is_minus_infinity(self):
        # zero-incidence model predicts p = 0 while cases were observed
        config = FitConfig(incidence=ExponentialIncidence(-1000.0, 0.0, 0.0))
        assert log_likelihood((0.04, 5.0, 1.0), reference_table(), config) == -math.inf

    @pytest.mark.parametrize(
        "gamma", [(0.04, 5.0), (0.04, 5.0, 1.0, 0.0), ((0.04, 5.0, 1.0),)], ids=["two", "four", "row"]
    )
    def test_gamma_of_the_wrong_shape_is_minus_infinity(self, gamma):
        assert log_likelihood(gamma, reference_table()) == -math.inf

    def test_non_finite_gamma_is_minus_infinity(self):
        assert log_likelihood((math.nan, 5.0, 1.0), reference_table(), FitConfig()) == -math.inf


def _tabulated_incidence() -> TabulatedIncidence:
    ages = np.array([0.0, 25.0, 50.0, 75.0, 110.0])
    times = np.array([0.0, 30.0, 60.0, 90.0, 120.0])
    drift = np.linspace(0.8, 1.2, len(times))[:, None]
    return TabulatedIncidence(times, ages, drift * np.maximum(ages - 30.0, 0.0)[None, :] / 3000.0)


PLAN_INCIDENCES = {
    "positive_part": PositivePartIncidence(),
    "exponential": ExponentialIncidence(-9.0, 0.04, 0.005),
    "tabulated": _tabulated_incidence(),
}


def _five_point(values, step):
    """Fourth-order central difference from the values at -2, -1, 1 and 2 steps."""
    return (8.0 * (values[1] - values[-1]) - (values[2] - values[-2])) / (12.0 * step)


def _component(lo, hi):
    """Values of one component inside, on and beyond [lo, hi], and the non-finite ones."""
    span = hi - lo
    return st.one_of(
        st.floats(lo, hi),
        st.sampled_from([lo, hi, math.nan, math.inf, -math.inf]),
        st.floats(lo - span, hi + span),
    )


def _array_log_likelihood(plan, gamma) -> float:
    """The plan's log-likelihood on arrays, its counts gathered at their nonzero rows: the oracle of its scalar core."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (3,):
        return -math.inf
    g1, g2, g3 = values = gamma.tolist()
    if not all(math.isfinite(value) and lo <= value <= hi for value, (lo, hi) in zip(values, _BOUNDS)):
        return -math.inf
    if smallest_ratio(g1, g2, g3, plan.horizon) <= 0.0:
        return -math.inf
    p = plan.group_prevalence(ratio_coefficients(g1, g2, g3))
    cases, rest = plan.table.c.astype(float), (plan.table.n - plan.table.c).astype(float)
    case_rows, rest_rows = np.flatnonzero(cases > 0), np.flatnonzero(rest > 0)
    p_cases, p_rest = p[case_rows], p[rest_rows]
    if 0.0 in p_cases.tolist() or 1.0 in p_rest.tolist():
        return -math.inf
    return float(cases[case_rows] @ np.log(p_cases) + rest[rest_rows] @ np.log1p(-p_rest))


def _adaptive_log_likelihood(gamma, table, config) -> float:
    """The binomial log-likelihood from adaptive group prevalences; zero counts contribute nothing."""
    p = group_prevalence(config.build_model(gamma), table.age_lo, table.age_hi, table.cross_section_time)
    total = 0.0
    for n, c, q in zip(table.n.tolist(), table.c.tolist(), p.tolist()):
        total += (c * math.log(q) if c else 0.0) + ((n - c) * math.log1p(-q) if n - c else 0.0)
    return total


def _table_with_empty_group(layout, cases):
    """A configuration, a table with one group of zero prevalence and ``cases`` cases, and that group's row."""
    if layout == "first":
        age_lo = np.append(10.0, np.arange(40.0, 95.0, 5.0))
        age_hi = np.append(20.0, age_lo[1:] + 5.0)
        table = AgeGroupTable(100.0, age_lo, age_hi, np.append(500, REFERENCE_N), np.append(cases, REFERENCE_C))
        return FitConfig(), table, 0
    # incidence only from time 91 on and below age 25: the group at 55 was 45 by then
    rates = np.zeros((4, 4))
    rates[2:, :2] = 0.01
    incidence = TabulatedIncidence(np.array([0.0, 90.0, 91.0, 200.0]), np.array([0.0, 20.0, 25.0, 120.0]), rates)
    n, c = np.array([500, 500]), np.array([5, cases])
    table = AgeGroupTable(100.0, np.array([10.0, 50.0]), np.array([20.0, 60.0]), n, c)
    return FitConfig(incidence=incidence), table, 1


# R(0) = gamma1 * gamma2**2 + gamma3 at the upper corner of the fit's box, its largest value there
LARGEST_INITIAL_RATIO = 1.0 * 50.0**2 + 20.0


def _looped_lookback_rule(kinks, m0, t, ages):
    """The plan's quadrature rule built one age and one interval at a time with np.linspace."""
    x, w = leggauss(20)
    owner, nodes, weights = [], [], []
    for g, (row, a) in enumerate(zip(kinks, ages.tolist())):
        rate = float(m0.rate(t, a))
        depth = min(max(rate * LARGEST_INITIAL_RATIO * a if rate else 0.0, 2.0), 2.0**60)
        halves = [a * 0.5**k for k in range(1, math.ceil(math.log2(depth)) + 1)]
        edges = sorted({0.0, a, *row[~np.isnan(row)].tolist(), *halves})
        for lo, hi in zip(edges[:-1], edges[1:]):
            cuts = np.linspace(lo, hi, math.ceil((hi - lo) / 10.0) + 1)
            for start, end in zip(cuts[:-1], cuts[1:]):
                owner.append(np.full(len(x), g))
                nodes.append(start + 0.5 * (end - start) * (x + 1.0))
                weights.append(0.5 * (end - start) * w)
    return np.concatenate(owner), np.concatenate(nodes), np.concatenate(weights)


class TestLikelihoodPlan:
    # the whole box, corners included
    @pytest.mark.parametrize(
        "family", [pytest.param(family, id=f"{family}-midpoint") for family in sorted(PLAN_INCIDENCES)]
    )
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        g1=st.floats(0.0, 1.0),
        g2=st.floats(0.0, 50.0),
        g3=st.floats(0.0, 20.0),
        t=st.floats(50.0, 150.0),
    )
    def test_plan_matches_adaptive_oracle(self, family, g1, g2, g3, t):
        config = FitConfig(incidence=PLAN_INCIDENCES[family])
        model = config.build_model((g1, g2, g3))
        table = reference_table(t)
        try:
            oracle = group_prevalence(model, table.age_lo, table.age_hi, t)
        except RatioHorizonError:
            assume(False)
        fast = _LikelihoodPlan.build(table, config).group_prevalence(model.ratio.coefficients)
        np.testing.assert_allclose(fast, oracle, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("family", sorted(PLAN_INCIDENCES))
    def test_exponent_is_the_exit_hazard_at_every_node(self, family):
        # the plan's CM0 + CI comes from the odds routes' exit lines, with the bits of the closed forms' sum
        config = FitConfig(incidence=PLAN_INCIDENCES[family])
        table = reference_table()
        t = table.cross_section_time
        ages = 0.5 * (table.age_lo + table.age_hi)
        kinks = _lookback_edges(config.incidence, np.full(len(ages), t), ages, np.zeros(len(ages)))
        owner, delta, weights = _lookback_rule(kinks, config.m0, t, ages)
        a = ages[owner]
        weighted = weights * config.incidence.rate(t - delta, a - delta)
        kept = weighted != 0.0
        plan = _LikelihoodPlan.build(table, config)
        live = plan.weighted != 0.0
        np.testing.assert_array_equal(plan.weighted[live], weighted[kept])
        want = config.m0.cumulative(t, a, delta) + config.incidence.cumulative(t, a, delta)
        np.testing.assert_array_equal(plan.exponent[live], want[kept])

    # every family with all components free, and one fit with gamma1 pinned at 0
    @pytest.mark.parametrize(
        "family, fixed",
        [pytest.param(family, (None, None, None), id=f"{family}-midpoint") for family in sorted(PLAN_INCIDENCES)]
        + [pytest.param("positive_part", (0.0, None, None), id="positive_part-midpoint-pinned")],
    )
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        g1=st.floats(0.0, 1.0),
        g2=st.floats(0.0, 50.0),
        g3=st.floats(0.0, 20.0),
    )
    def test_derivatives_match_finite_differences(self, family, fixed, g1, g2, g3):
        # Fourth-order central differences with steps of 1e-6 of each bound range, the stencil
        # kept inside the box.  In units of the ranges, the gradient must match differences of
        # log_likelihood to 1e-6 and the Hessian differences of the exact gradient to 1e-5,
        # both relative to the largest entry.  Near the box's corners the likelihood bends on
        # the scale of the step, where a second-order stencil is off by about 1e-5.
        config = FitConfig(incidence=PLAN_INCIDENCES[family], fixed_gamma=fixed)
        free = list(config.free_indices)
        lo, hi = np.array(_BOUNDS).T
        span = hi - lo
        step = 1e-6 * span
        gamma = config.full_gamma(np.clip([g1, g2, g3], lo + 3.0 * step, hi - 3.0 * step)[free])
        table = reference_table()
        try:
            group_prevalence(config.build_model(gamma), table.age_lo, table.age_hi, table.cross_section_time)
        except RatioHorizonError:
            assume(False)
        plan = _LikelihoodPlan.build(table, config)
        gradient, hessian = plan.derivatives(gamma)
        differences = np.empty(len(free))
        curvature = np.empty((len(free), len(free)))
        for col, j in enumerate(free):
            shift = np.zeros(3)
            shift[j] = step[j]
            values = {k: plan.log_likelihood_at(*(gamma + k * shift)) for k in (-2, -1, 1, 2)}
            assume(all(math.isfinite(v) for v in values.values()))
            differences[col] = _five_point(values, step[j])
            slopes = {k: plan.derivatives(gamma + k * shift)[0][free] for k in values}
            curvature[:, col] = _five_point(slopes, step[j])
        scaled_gradient = gradient[free] * span[free]
        np.testing.assert_allclose(
            differences * span[free], scaled_gradient, rtol=0.0, atol=1e-6 * np.abs(scaled_gradient).max()
        )
        scale = np.outer(span[free], span[free])
        scaled_hessian = hessian[np.ix_(free, free)] * scale
        np.testing.assert_allclose(
            curvature * scale, scaled_hessian, rtol=0.0, atol=1e-5 * np.abs(scaled_hessian).max()
        )
        if fixed[0] == 0.0:
            # R does not depend on gamma2 when gamma1 = 0, so its row carries no information
            assert np.all(hessian[1, free] == 0.0)

    @pytest.mark.parametrize("edge", ["bundled", *EDGE_TABLES])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_minus_infinity_exactly_where_gamma_is_rejected(self, edge, data):
        # inside, on and beyond the box, NaN and infinities included.  The oracle is the odds
        # layer's own rule: adaptive group prevalences refuse the gamma.  The edge tables read
        # their counts from gathered rows, and refuse exactly the same gammas.
        config = FitConfig()
        table = reference_table() if edge == "bundled" else edge_table(edge)
        gamma = tuple(data.draw(_component(lo, hi)) for lo, hi in _BOUNDS)
        accepted = all(lo <= g <= hi for g, (lo, hi) in zip(gamma, _BOUNDS))
        if accepted:
            try:
                group_prevalence(config.build_model(gamma), table.age_lo, table.age_hi, table.cross_section_time)
            except RatioHorizonError:
                accepted = False
        value = _LikelihoodPlan.build(table, config).log_likelihood_at(*gamma)
        assert math.isfinite(value) if accepted else value == -math.inf

    @pytest.mark.parametrize("edge", ["bundled", *EDGE_TABLES])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_scalar_core_returns_the_bits_of_the_array_evaluation(self, edge, data):
        # inside, on and beyond the box, NaN and infinities included, so minus infinity is compared too
        table = reference_table() if edge == "bundled" else edge_table(edge)
        plan = _LikelihoodPlan.build(table, FitConfig())
        gamma = tuple(data.draw(_component(lo, hi)) for lo, hi in _BOUNDS)
        expected = np.float64(_array_log_likelihood(plan, gamma)).tobytes()
        assert np.float64(plan.log_likelihood_at(*gamma)).tobytes() == expected
        assert np.float64(log_likelihood(gamma, table)).tobytes() == expected

    def test_row_selectors_are_the_groups_with_a_nonzero_count(self):
        for edge in ["bundled", *EDGE_TABLES]:
            table = reference_table() if edge == "bundled" else edge_table(edge)
            plan = _LikelihoodPlan.build(table, FitConfig())
            assert plan.case_rows.tolist() == [g for g, c in enumerate(table.c.tolist()) if c]
            assert plan.rest_rows.tolist() == [g for g, r in enumerate((table.n - table.c).tolist()) if r]
            assert plan.cases.tolist() == [c for c in table.c.tolist() if c]
            assert plan.rest.tolist() == [r for r in (table.n - table.c).tolist() if r]

    @pytest.mark.parametrize("layout", ["first", "last"])
    @pytest.mark.parametrize("cases", [0, 3])
    def test_group_without_incidence_has_zero_odds(self, layout, cases):
        # the empty group's midpoint precedes onset: before age 30 ("first"), or a cohort
        # born before incidence began ("last"), so the plan keeps none of its nodes
        config, table, empty = _table_with_empty_group(layout, cases)
        gamma = (0.04, 5.0, 1.0)
        plan = _LikelihoodPlan.build(table, config)
        prevalence = plan.group_prevalence(config.build_model(gamma).ratio.coefficients)
        assert prevalence[empty] == 0.0 and np.all(np.delete(prevalence, empty) > 0.0)
        value = log_likelihood(gamma, table, config)
        if cases:
            assert value == -math.inf
        else:
            assert abs(value - _adaptive_log_likelihood(gamma, table, config)) <= 1e-9
            assert np.all(np.isfinite(plan.derivatives(gamma)[1]))

    @pytest.mark.parametrize("family", sorted(PLAN_INCIDENCES))
    def test_batched_rule_equals_looped_rule(self, family):
        incidence = PLAN_INCIDENCES[family]
        m0 = reference_rate_model().m0
        # the bundled table's midpoints, and ages whose lookback pieces do not split exactly
        midpoints = (np.arange(42.5, 95.0, 5.0), np.linspace(41.3, 93.7, 11))
        for t, ages in itertools.product((50.0, 100.0, 150.0), midpoints):
            kinks = _lookback_edges(incidence, np.full(len(ages), t), ages, np.zeros(len(ages)))
            owner, nodes, weights = _lookback_rule(kinks, m0, t, ages)
            looped = _looped_lookback_rule(kinks, m0, t, ages)
            for batched, reference in zip((owner, nodes, weights), looped):
                np.testing.assert_array_equal(batched, reference)

    def test_largest_initial_ratio_is_the_upper_corner_of_the_box(self):
        # the lookback depth of the plan is set by the largest R(0) = gamma1 * gamma2**2 + gamma3 in the box
        corners = itertools.product(*_BOUNDS)
        assert _LARGEST_INITIAL_RATIO == max(g1 * g2**2 + g3 for g1, g2, g3 in corners) == LARGEST_INITIAL_RATIO
        assert _LARGEST_INITIAL_RATIO == 2520.0

    def test_ratio_horizon_beyond_max_duration_rejected(self):
        # pinned at gamma2 = 45 and gamma3 = 0, R(d) = gamma1 * (d - 45)**2 is positive only below d = 45.
        # The horizon is the oldest group midpoint, not the oldest age a group reaches: a last group
        # [40, 49) is accepted, [40, 50) and the bundled table with a group [100, 110) added are refused
        config, gamma = FitConfig(fixed_gamma=(None, 45.0, 0.0)), (0.04, 45.0, 0.0)
        model = config.build_model(gamma)
        young, middle = (
            AgeGroupTable(100.0, np.array([30.0, 35.0, 40.0]), np.array([35.0, 40.0, top]), np.full(3, 10000),
                          np.array([10, 83, 244]))
            for top in (49.0, 50.0)
        )
        age_lo = np.append(np.arange(40.0, 95.0, 5.0), 100.0)
        age_hi = np.append(age_lo[:-1] + 5.0, 110.0)
        old = AgeGroupTable(100.0, age_lo, age_hi, np.append(REFERENCE_N, 500), np.append(REFERENCE_C, 100))
        for table, horizon, accepted in ((young, 44.5, True), (middle, 45.0, False), (old, 105.0, False)):
            plan = _LikelihoodPlan.build(table, config)
            assert plan.horizon == horizon
            if accepted:
                assert math.isfinite(plan.log_likelihood_at(*gamma))
                group_prevalence(model, table.age_lo, table.age_hi, 100.0)
                result = fit(table, config)
                assert math.isfinite(result.loglik) and result.diagnostics["quadrature_gap"] <= 1e-8
                continue
            assert plan.log_likelihood_at(*gamma) == -math.inf
            with pytest.raises(RatioHorizonError):
                group_prevalence(model, table.age_lo, table.age_hi, 100.0)
            with pytest.raises(FitInputError, match=f"not positive up to age {horizon:g} at any start point"):
                fit(table, config)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        g1=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        g2=st.floats(0.0, 50.0),
        g3=st.one_of(st.just(0.0), st.sampled_from([5e-324, 2.2250738585072014e-308]), st.floats(0.0, 1e-300),
                     st.floats(0.0, 20.0)),
    )
    def test_positive_ratio_rule_is_stated_once(self, g1, g2, g3):
        # RateModel.check_ratio, the plan's minus-infinity rule and the fit's start screen state the
        # same rule; in the default box R's least value up to the horizon is gamma3, so the rule is its edge
        config, table = FitConfig(), reference_table()
        plan = _LikelihoodPlan.build(table, config)
        assert g2 <= plan.horizon
        try:
            config.build_model((g1, g2, g3)).check_ratio([plan.horizon])
            refused = False
        except RatioHorizonError:
            refused = True
        value = plan.log_likelihood_at(g1, g2, g3)
        assert value == -math.inf if refused else math.isfinite(value)
        # gamma2 and gamma3 pinned, so every start has gamma1 > 0 and the vertex gamma2 within the
        # horizon: R's least value is gamma3 there too, and the screen refuses exactly these
        screened = FitConfig(fixed_gamma=(None, g2, g3))

        class Searched(Exception):
            pass

        def searched(*args):
            raise Searched

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(importlib.import_module("idmodds.fit"), "_simplex_search", searched)
            with pytest.raises(FitInputError if refused else Searched, match="not positive" if refused else None):
                fit(table, screened)


@pytest.fixture(scope="module")
def reference_fit():
    start = time.perf_counter()
    result = fit(reference_table(), FitConfig())
    elapsed = time.perf_counter() - start
    return result, elapsed


class TestFitReferenceTable:
    def test_point_estimate_matches_published_values(self, reference_fit):
        result, _ = reference_fit
        assert result.converged
        assert abs(result.gamma_hat[0] - PUBLISHED_GAMMA[0]) <= 0.005
        assert abs(result.gamma_hat[1] - PUBLISHED_GAMMA[1]) <= 0.5
        assert abs(result.gamma_hat[2] - PUBLISHED_GAMMA[2]) <= 0.05

    def test_intervals_match_published_endpoints(self, reference_fit):
        result, _ = reference_fit
        tolerance = 0.15 * (PUBLISHED_CI[:, 1] - PUBLISHED_CI[:, 0])
        deviation = np.abs(result.ci95 - PUBLISHED_CI)
        assert np.all(deviation <= tolerance[:, None])

    def test_intervals_contain_simulation_input(self, reference_fit):
        result, _ = reference_fit
        truth = (0.04, 5.0, 1.0)
        for j in range(3):
            assert result.ci95[j, 0] <= truth[j] <= result.ci95[j, 1]

    def test_runtime_within_budget(self, reference_fit):
        _, elapsed = reference_fit
        assert elapsed < 60.0

    def test_optimum_at_least_as_good_as_truth(self, reference_fit):
        result, _ = reference_fit
        assert result.loglik >= log_likelihood((0.04, 5.0, 1.0), reference_table(), FitConfig()) - 1e-6

    def test_covariance_symmetric_positive_semidefinite(self, reference_fit):
        result, _ = reference_fit
        cov = result.covariance
        assert np.max(np.abs(cov - cov.T)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-12
        np.testing.assert_allclose(
            result.ci95[:, 1] - result.gamma_hat, 1.96 * np.sqrt(np.diag(cov)), rtol=1e-10
        )

    def test_no_boundary_or_flat_warnings(self, reference_fit):
        result, _ = reference_fit
        assert result.diagnostics["boundary_hits"] == []
        assert result.diagnostics["flat_components"] == []

    def test_quadrature_gap_recorded(self, reference_fit):
        result, _ = reference_fit
        assert 0.0 <= result.diagnostics["quadrature_gap"] <= 1e-12

    def test_each_search_recorded(self, reference_fit):
        result, _ = reference_fit
        searches = result.diagnostics["searches"]
        # the four starts, then the restart from the best point they reached
        assert [entry["start"] for entry in searches[:-1]] == [list(start) for start in _DEFAULT_STARTS]
        best_of_starts = max(entry["loglik"] for entry in searches[:-1])
        assert log_likelihood(searches[-1]["start"], reference_table()) == best_of_starts
        assert sum(entry["evaluations"] for entry in searches) == result.function_evals
        assert sum(entry["iterations"] for entry in searches) == result.iterations
        assert max(entry["loglik"] for entry in searches) == result.loglik
        assert all(entry["converged"] for entry in searches)

    def test_json_serialization(self, reference_fit):
        result, _ = reference_fit
        payload = json.loads(json.dumps(result.to_json_dict()))
        assert payload["converged"] is True
        np.testing.assert_allclose(payload["gamma_hat"], result.gamma_hat)
        np.testing.assert_allclose(payload["ci95"], result.ci95)
        assert payload["loglik"] == result.loglik


def analytic_table(n_per_group) -> AgeGroupTable:
    model = reference_rate_model()
    age_lo = np.arange(40.0, 95.0, 5.0)
    p = np.array([prevalence(model, 100.0, lo + 2.5).prevalence for lo in age_lo])
    n = np.full(11, n_per_group, dtype=int)
    return AgeGroupTable(
        cross_section_time=100.0,
        age_lo=age_lo,
        age_hi=age_lo + 5.0,
        n=n,
        c=np.round(n * p).astype(int),
    )


class TestFitProperties:
    def test_self_consistency_on_rounded_analytic_data(self):
        # n = 1e6 per group keeps the rounding perturbation of order 5e-7,
        # small enough that the flat ridge cannot carry the optimum away.
        result = fit(analytic_table(1_000_000), FitConfig())
        deviation = np.abs(result.gamma_hat - np.array([0.04, 5.0, 1.0]))
        assert deviation[0] < 1e-3
        assert deviation[1] < 1e-1
        assert deviation[2] < 1e-3

    def test_self_consistency_at_study_scale(self):
        # at realistic group sizes the rounding noise moves the estimate along
        # the likelihood ridge; agreement is correspondingly looser
        result = fit(analytic_table(9000), FitConfig())
        deviation = np.abs(result.gamma_hat - np.array([0.04, 5.0, 1.0]))
        assert deviation[0] < 0.005
        assert deviation[1] < 0.5
        assert deviation[2] < 0.05

    def test_fit_deterministic(self):
        config = FitConfig()
        table = reference_table()
        first = fit(table, config)
        second = fit(table, config)
        np.testing.assert_array_equal(first.gamma_hat, second.gamma_hat)
        assert first.loglik == second.loglik
        np.testing.assert_array_equal(first.ci95, second.ci95)

    def test_each_fit_builds_one_plan(self, monkeypatch):
        builds = []
        build = _LikelihoodPlan.build

        def counted(table, config):
            builds.append(table)
            return build(table, config)

        monkeypatch.setattr(_LikelihoodPlan, "build", staticmethod(counted))
        config = FitConfig()
        table = reference_table()
        fit(table, config)
        assert len(builds) == 1
        fit(table, config)
        assert len(builds) == 2

    def test_function_evals_count_every_search_evaluation(self, monkeypatch):
        calls = []
        evaluate = _LikelihoodPlan.log_likelihood_at

        def counted(plan, g1, g2, g3):
            calls.append((g1, g2, g3))
            return evaluate(plan, g1, g2, g3)

        monkeypatch.setattr(_LikelihoodPlan, "log_likelihood_at", counted)
        result = fit(reference_table(), FitConfig())
        # the start screen stops at the first start with a finite likelihood, here the first
        assert len(calls) == result.function_evals + 1
        assert result.function_evals == 1256 and result.iterations == 669

    def test_boundary_hit_reported(self):
        # this resample's optimum lies on the gamma3 = 0 edge of the box, where R touches zero
        table = resample(1, 1)
        result = fit(table, FitConfig())
        assert result.gamma_hat[2] < 1e-4
        assert result.diagnostics["boundary_hits"] == [2]
        # curvature is the exact information at the optimum on the edge, so intervals still exist
        information = -_LikelihoodPlan.build(table, FitConfig()).derivatives(result.gamma_hat)[1]
        np.testing.assert_array_equal(result.hessian, information)
        assert np.all(np.isfinite(result.hessian))
        assert result.ci95 is not None
        assert np.all(np.isfinite(result.ci95))
        np.testing.assert_array_equal(result.ci95, wald_intervals(result.gamma_hat, information)[1])

    def test_bound_of_an_edge_table_optimum_is_hit(self):
        # with no cases in its first group, the table's optimum lies on the gamma3 = 0 edge of the box
        result = fit(edge_table("first-no-cases"), FitConfig())
        assert result.gamma_hat[2] < 1e-4
        assert result.diagnostics["boundary_hits"] == [2]

    @pytest.mark.parametrize(
        "fixed",
        [(0.0, None, None), (1.0, None, None), (None, 50.0, None), (None, None, 20.0)],
        ids=["gamma1-at-0", "gamma1-at-1", "gamma2-at-50", "gamma3-at-20"],
    )
    def test_pinned_component_on_a_bound_is_never_hit(self, fixed):
        # only free components are searched, so only they can be reported on a bound: within
        # 1e-4 of the box's width of either end
        result = fit(reference_table(), FitConfig(fixed_gamma=fixed))
        pinned = next(j for j, value in enumerate(fixed) if value is not None)
        assert result.gamma_hat[pinned] == fixed[pinned]
        near = [
            j for j, (lo, hi) in enumerate(_BOUNDS)
            if j != pinned and min(result.gamma_hat[j] - lo, hi - result.gamma_hat[j]) < 1e-4 * (hi - lo)
        ]
        assert result.diagnostics["boundary_hits"] == near

    def test_pinned_gamma1_flags_gamma2_unidentifiable(self):
        # with gamma1 = 0 the ratio is flat in gamma2, so the likelihood
        # carries no information about it
        config = FitConfig(fixed_gamma=(0.0, None, None))
        result = fit(reference_table(), config)
        assert result.gamma_hat[0] == 0.0
        assert 1 in result.diagnostics["flat_components"]
        assert result.covariance is None
        assert "covariance_error" in result.diagnostics

    def test_monotone_sanity_more_cases_never_raise_gamma3(self):
        # duration-free sub-fit: only gamma3 free; inflating every case count
        # lengthens apparent survival with disease, so gamma3 cannot go up
        config = FitConfig(fixed_gamma=(0.0, 0.0, None))
        base = fit(reference_table(), config)
        age_lo = np.arange(40.0, 95.0, 5.0)
        n = np.array(REFERENCE_N)
        inflated = AgeGroupTable(
            cross_section_time=100.0,
            age_lo=age_lo,
            age_hi=age_lo + 5.0,
            n=n,
            c=np.minimum(n, np.ceil(1.3 * np.array(REFERENCE_C)).astype(int)),
        )
        more_cases = fit(inflated, config)
        assert more_cases.gamma_hat[2] <= base.gamma_hat[2] + 1e-6

    def test_needs_informative_rows(self):
        table = AgeGroupTable(
            cross_section_time=100.0,
            age_lo=np.array([40.0, 45.0]),
            age_hi=np.array([45.0, 50.0]),
            n=np.array([100, 100]),
            c=np.array([0, 10]),
        )
        with pytest.raises(ValueError, match="informative"):
            fit(table, FitConfig())

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_all_starts_impossible_raises(self):
        # zero-incidence model cannot produce the observed cases at any gamma
        config = FitConfig(incidence=ExponentialIncidence(-1000.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="minus infinity"):
            fit(reference_table(), config)

    def test_impossible_starts_rejected_before_search(self, monkeypatch):
        calls = []
        evaluate = _LikelihoodPlan.log_likelihood_at

        def counted(plan, g1, g2, g3):
            calls.append((g1, g2, g3))
            return evaluate(plan, g1, g2, g3)

        monkeypatch.setattr(_LikelihoodPlan, "log_likelihood_at", counted)
        config = FitConfig(incidence=ExponentialIncidence(-1000.0, 0.0, 0.0))
        with pytest.raises(FitInputError, match="every start point"):
            fit(reference_table(), config)
        assert 0 < len(calls) <= len(_DEFAULT_STARTS)

    def test_default_box_holds_every_start(self):
        # so the searches start inside the box, with nothing clipped
        for start in _DEFAULT_STARTS:
            assert all(lo <= value <= hi for value, (lo, hi) in zip(start, _BOUNDS))

    @pytest.mark.parametrize("time", [math.nan, math.inf], ids=["nan", "inf"])
    def test_study_time_must_be_finite(self, time):
        # the NaN default of from_csv once met every start with minus infinity, and an infinite time
        # returned the first start as converged
        table = reference_table(cross_section_time=time)
        with pytest.raises(FitInputError, match="cross_section_time"):
            fit(table)
        with pytest.raises(FitInputError, match="cross_section_time"):
            log_likelihood((0.04, 5.0, 1.0), table)

    @pytest.mark.parametrize(
        "last", [(50.0, 1e9), (50.0, 1e300), (1e308, 1.7e308)], ids=["1e9", "1e300", "overflowing-midpoint"]
    )
    def test_too_old_group_refused_before_the_plan(self, last, monkeypatch):
        # a last group ending at 1e300 once overflowed the plan's piece count, and one ending at 1e9
        # would have allocated about 10^9 nodes; the limit is met before any lookback is cut, also
        # where the midpoint itself overflows
        def no_rule(*args):
            raise AssertionError("the plan was built")

        monkeypatch.setattr(importlib.import_module("idmodds.fit"), "_lookback_rule", no_rule)
        lo, hi = last
        table = AgeGroupTable(100.0, np.array([40.0, 45.0, lo]), np.array([45.0, 50.0, hi]),
                              np.array(REFERENCE_N[:3]), np.array(REFERENCE_C[:3]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitInputError, match=re.escape(f"group 3 [{lo:g}, {hi:g}) takes the likelihood plan")):
                fit(table)


def scipy_search(objective, x0, lo, hi, max_evaluations, callback=None):
    """scipy's bounded Nelder-Mead at the fit's tolerances and a budget: the oracle of ``_simplex_search``."""
    options = {"xatol": _XATOL, "fatol": _FATOL, "maxiter": max_evaluations, "maxfev": max_evaluations}
    return optimize.minimize(
        objective, x0, method="Nelder-Mead", bounds=list(zip(lo, hi)), options=options, callback=callback
    )


def scipy_budget(ours, max_evaluations):
    """The budget at which scipy takes the steps of ``ours``, a ``_simplex_search`` capped at ``max_evaluations``.

    scipy stops as soon as its budget is spent, inside an iteration if need be;
    ``_simplex_search`` checks its cap only between iterations.  So a search
    that stops on its tolerances matches scipy at the same cap, and one that
    the cap stops matches scipy given exactly the evaluations it spent.
    """
    return max_evaluations if ours.success else ours.nfev


def assert_same_search(ours, theirs):
    assert np.asarray(ours.x, dtype=float).tobytes() == np.asarray(theirs.x, dtype=float).tobytes()
    assert np.float64(ours.fun).tobytes() == np.float64(theirs.fun).tobytes()
    assert (ours.nit, ours.nfev, ours.success) == (theirs.nit, theirs.nfev, theirs.success)


def resample(seed, index) -> AgeGroupTable:
    """A binomial resample of the reference table, drawn as the benchmark draws its odd rounds."""
    table = reference_table()
    counts = np.random.default_rng([seed, index]).binomial(table.n, table.c / table.n)
    return AgeGroupTable(100.0, table.age_lo, table.age_hi, table.n, counts)


class TestSimplexSearch:
    """``_simplex_search`` takes scipy's Nelder-Mead steps bit for bit."""

    @staticmethod
    def fit_with_both(table, config, monkeypatch):
        """Fit with every search run by both engines; the fit goes on with ours.  Returns the number of searches."""
        pairs = []

        def both(objective, x0, lo, hi, max_evaluations):
            ours = _simplex_search(objective, x0, lo, hi, max_evaluations)
            pairs.append((ours, scipy_search(objective, x0, lo, hi, scipy_budget(ours, max_evaluations))))
            return ours

        monkeypatch.setattr(importlib.import_module("idmodds.fit"), "_simplex_search", both)
        result = fit(table, config)
        for ours, theirs in pairs:
            assert_same_search(ours, theirs)
        return result, len(pairs)

    @pytest.mark.parametrize(
        "config, max_evaluations",
        [
            (FitConfig(), _MAX_EVALUATIONS),
            (FitConfig(fixed_gamma=(None, 5.0, None)), _MAX_EVALUATIONS),
            (FitConfig(), 3),
            (FitConfig(fixed_gamma=(0.0, None, None)), _MAX_EVALUATIONS),
            (FitConfig(fixed_gamma=(0.0, 0.0, None)), _MAX_EVALUATIONS),
            (FitConfig(fixed_gamma=(None, None, 20.0)), _MAX_EVALUATIONS),
        ],
        # searches of two free components, one of them flat, of one, and against the gamma1 = 0 edge
        ids=["default", "gamma2-pinned", "cap-of-three", "gamma1-pinned-at-0", "gamma3-alone-free",
             "gamma3-pinned-at-20"],
    )
    def test_every_search_of_a_reference_fit_matches_scipy(self, config, max_evaluations, monkeypatch):
        monkeypatch.setattr(importlib.import_module("idmodds.fit"), "_MAX_EVALUATIONS", max_evaluations)
        result, searches = self.fit_with_both(reference_table(), config, monkeypatch)
        assert searches == len(_DEFAULT_STARTS) + 1
        assert result.converged == (max_evaluations == _MAX_EVALUATIONS)
        if max_evaluations == 3:
            # a cap below the initial simplex stops each search once that simplex is evaluated
            assert [entry["evaluations"] for entry in result.diagnostics["searches"]] == [4] * searches

    @pytest.mark.parametrize("seed, index", list(itertools.product((1, 2, 3), (1, 3, 5, 7))))
    def test_every_search_of_a_resample_fit_matches_scipy(self, seed, index, monkeypatch):
        table = resample(seed, index)
        result, searches = self.fit_with_both(table, FitConfig(), monkeypatch)
        assert searches == len(_DEFAULT_STARTS) + 1
        # what the benchmark's fit-tables workload requires of every resample fit
        assert result.converged
        assert result.loglik >= log_likelihood((0.04, 5.0, 1.0), table)
        if (seed, index) == (1, 1):
            # its optimum lies on the gamma3 = 0 edge, where R touches zero
            assert result.diagnostics["boundary_hits"] == [2] and result.gamma_hat[2] < 1e-6

    @pytest.mark.parametrize("edge", ["first-no-cases", "last-all-cases"])
    def test_every_search_of_an_edge_table_fit_matches_scipy(self, edge, monkeypatch):
        # the likelihood reads gathered rows, which no resample of the bundled table needs
        result, searches = self.fit_with_both(edge_table(edge), FitConfig(), monkeypatch)
        assert searches == len(_DEFAULT_STARTS) + 1
        assert result.converged

    @pytest.mark.parametrize("max_evaluations", [1, 2, 3, 4, 7, 40, 4000])
    @pytest.mark.parametrize(
        "objective, x0, lo, hi",
        [
            # Rosenbrock's valley, bounded below at the optimum's x
            (lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2, (1.2, -1.0), (1.0, -2.0), (2.0, 2.0)),
            # a start on an upper bound and at zero, and a region where the objective is infinite
            (lambda x: math.inf if x[0] + x[1] > 1.5 else (x[0] - 1) ** 2 + 3 * x[1] ** 2 + x[2] ** 2,
             (1.0, 0.0, -0.5), (-math.inf, -1.0, -1.0), (1.0, 1.0, math.inf)),
            # one dimension, ties where the objective is flat
            (lambda x: max(abs(x[0]) - 0.25, 0.0), (3.0,), (-5.0,), (5.0,)),
            # a staircase, where trial points often tie with the vertices
            (lambda x: float(math.floor(4 * x[0]) + math.floor(3 * x[1])), (0.9, 0.7), (-1.0, -1.0), (1.0, 1.0)),
            # a start at -0.0 on a lower bound of 0.0, which clipping turns into 0.0
            (lambda x: (x[1] - 0.3) ** 2, (-0.0, 1.0), (0.0, -1.0), (1.0, 1.0)),
        ],
        ids=["rosenbrock", "infinite-region", "flat-1d", "staircase", "signed-zero"],
    )
    def test_toy_objectives_match_scipy(self, objective, x0, lo, hi, max_evaluations):
        ours = _simplex_search(objective, x0, lo, hi, max_evaluations)
        assert_same_search(ours, scipy_search(objective, np.array(x0), lo, hi, scipy_budget(ours, max_evaluations)))
        if ours.success:
            assert ours.nfev < max_evaluations
            return
        # the evaluations spent when the initial simplex and each iteration of scipy's uncapped search end
        calls, ends = [], [len(x0) + 1]

        def counted(x):
            calls.append(x)
            return objective(x)

        scipy_search(counted, np.array(x0), lo, hi, _MAX_EVALUATIONS, callback=lambda _: ends.append(len(calls)))
        # the cap stops the search at the first of those ends at or past it
        assert min(end for end in ends if end >= max_evaluations) == ours.nfev

    def test_a_fit_returns_the_bits_of_a_scipy_driven_fit(self, monkeypatch):
        table = resample(1, 3)
        ours = fit(table, FitConfig()).to_json_dict()
        monkeypatch.setattr(importlib.import_module("idmodds.fit"), "_simplex_search", scipy_search)
        theirs = fit(table, FitConfig()).to_json_dict()
        assert json.dumps(ours) == json.dumps(theirs)


class TestFitConfigValidation:
    # fields since removed: the starts, the bounds and the search budget are the module
    # constants _DEFAULT_STARTS, _BOUNDS and _MAX_EVALUATIONS, so every value is refused by name
    @pytest.mark.parametrize(
        "name, value",
        [("starts", ((0.01, 2.0, 1.0),)), ("bounds", _BOUNDS), ("max_iterations", 0), ("max_iterations", -3),
         ("max_iterations", 2.5), ("max_iterations", True), ("max_iterations", 17.0)],
        ids=["starts", "bounds", "max_iterations-zero", "max_iterations-negative", "max_iterations-fractional",
             "max_iterations-bool", "max_iterations-integral-float"],
    )
    def test_removed_field_is_refused_by_name(self, name, value):
        with pytest.raises(TypeError, match=name):
            FitConfig(**{name: value})
        assert not hasattr(FitConfig(), name)
        assert type(_MAX_EVALUATIONS) is int and _MAX_EVALUATIONS >= 1

    @pytest.mark.parametrize(
        "fixed, name",
        [((math.nan, None, None), "gamma1"), ((None, 80.0, None), "gamma2"), ((None, None, -1.0), "gamma3"),
         ((None, math.inf, None), "gamma2")],
        ids=["nan", "above-bounds", "below-bounds", "infinite"],
    )
    def test_pinned_component_outside_bounds_rejected(self, fixed, name):
        with pytest.raises(ValueError, match=f"pinned {name} "):
            FitConfig(fixed_gamma=fixed)

    def test_pinned_component_on_its_bound_accepted(self):
        assert FitConfig(fixed_gamma=(0.0, 50.0, None)).free_indices == (2,)

    def test_lists_are_stored_as_tuples(self):
        listed = FitConfig(fixed_gamma=[None, 5.0, None])
        assert listed == FitConfig(fixed_gamma=(None, 5.0, None))
        assert listed.fixed_gamma == (None, 5.0, None)
        assert hash(listed) == hash(FitConfig(fixed_gamma=(None, 5.0, None)))


class TestWaldIntervals:
    def test_diagonal_hessian_exact(self):
        sigma = np.array([0.5, 2.0, 0.1])
        hessian = np.diag(1.0 / sigma**2)
        gamma_hat = np.array([0.04, 5.0, 1.0])
        cov, ci = wald_intervals(gamma_hat, hessian)
        np.testing.assert_allclose(np.diag(cov), sigma**2, rtol=1e-12)
        np.testing.assert_allclose(ci[:, 0], gamma_hat - 1.96 * sigma, rtol=1e-12)
        np.testing.assert_allclose(ci[:, 1], gamma_hat + 1.96 * sigma, rtol=1e-12)

    def test_intervals_may_cross_zero(self):
        cov, ci = wald_intervals(np.array([0.033]), np.array([[1200.0]]))
        assert ci[0, 0] < 0.0 < ci[0, 1]

    def test_flat_direction_raises(self):
        with pytest.raises(ValueError, match="positive definite"):
            wald_intervals(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_near_singular_raises_with_condition_number(self):
        with pytest.raises(ValueError, match="condition number"):
            wald_intervals(np.zeros(2), np.diag([1.0, 1e-13]))
