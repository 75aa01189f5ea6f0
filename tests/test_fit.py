"""Tests for maximum-likelihood estimation of the mortality-ratio parameters."""

import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from idmodds.fit import (
    _DEFAULT_BOUNDS,
    FitConfig,
    FitInputError,
    _largest_initial_ratio,
    _LikelihoodPlan,
    _lookback_rule,
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
    TabulatedIncidence,
    reference_rate_model,
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


# a box in which R may turn nonpositive on [0, max_duration] away from its bounds
WIDE_BOUNDS = ((-0.01, 1.0), (-10.0, 60.0), (-1.0, 20.0))


def _component(lo, hi):
    """Values of one component inside, on and beyond [lo, hi], and the non-finite ones."""
    span = hi - lo
    return st.one_of(
        st.floats(lo, hi),
        st.sampled_from([lo, hi, math.nan, math.inf, -math.inf]),
        st.floats(lo - span, hi + span),
    )


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


def _looped_lookback_rule(kinks, m0, t, ages, initial_ratio):
    """The plan's quadrature rule built one age and one interval at a time with np.linspace."""
    x, w = leggauss(20)
    owner, nodes, weights = [], [], []
    for g, (row, a) in enumerate(zip(kinks, ages.tolist())):
        rate = float(m0.rate(t, a))
        depth = min(max(rate * initial_ratio * a if rate else 0.0, 2.0), 2.0**60)
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
    # the whole default bounds box, corners included
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
        try:
            model = config.build_model((g1, g2, g3))
        except ValueError:
            assume(False)
        table = reference_table(t)
        fast = _LikelihoodPlan.build(table, config).group_prevalence(model.ratio.coefficients)
        oracle = group_prevalence(model, table.age_lo, table.age_hi, t)
        np.testing.assert_allclose(fast, oracle, rtol=1e-9, atol=0.0)

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
        lo, hi = np.array(config.bounds).T
        span = hi - lo
        step = 1e-6 * span
        gamma = config.full_gamma(np.clip([g1, g2, g3], lo + 3.0 * step, hi - 3.0 * step)[free])
        try:
            config.build_model(gamma)
        except ValueError:
            assume(False)
        plan = _LikelihoodPlan.build(reference_table(), config)
        gradient, hessian = plan.derivatives(gamma)
        differences = np.empty(len(free))
        curvature = np.empty((len(free), len(free)))
        for col, j in enumerate(free):
            shift = np.zeros(3)
            shift[j] = step[j]
            values = {k: plan.log_likelihood(gamma + k * shift) for k in (-2, -1, 1, 2)}
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

    @pytest.mark.parametrize("bounds", [_DEFAULT_BOUNDS, WIDE_BOUNDS], ids=["default-box", "wide-box"])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_minus_infinity_exactly_where_gamma_is_rejected(self, bounds, data):
        # inside, on and beyond the box, NaN and infinities included; the wide box lets R turn
        # negative inside it, so the positivity rule is probed away from the bounds too
        config = FitConfig(bounds=bounds, starts=((0.01, 2.0, 1.0),))
        gamma = tuple(data.draw(_component(lo, hi)) for lo, hi in bounds)
        in_bounds = all(lo <= g <= hi for g, (lo, hi) in zip(gamma, bounds))
        try:
            config.build_model(gamma)
            accepted = in_bounds
        except ValueError:
            accepted = False
        value = _LikelihoodPlan.build(reference_table(), config).log_likelihood(gamma)
        assert math.isfinite(value) if accepted else value == -math.inf

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
    @pytest.mark.parametrize("bounds", [_DEFAULT_BOUNDS, WIDE_BOUNDS], ids=["default-box", "wide-box"])
    def test_batched_rule_equals_looped_rule(self, family, bounds):
        incidence = PLAN_INCIDENCES[family]
        m0, initial_ratio = reference_rate_model().m0, _largest_initial_ratio(bounds)
        # the bundled table's midpoints, and ages whose lookback pieces do not split exactly
        midpoints = (np.arange(42.5, 95.0, 5.0), np.linspace(41.3, 93.7, 11))
        for t, ages in itertools.product((50.0, 100.0, 150.0), midpoints):
            kinks = _lookback_edges(incidence, np.full(len(ages), t), ages, np.zeros(len(ages)))
            owner, nodes, weights = _lookback_rule(kinks, m0, t, ages, initial_ratio)
            looped = _looped_lookback_rule(kinks, m0, t, ages, initial_ratio)
            for batched, reference in zip((owner, nodes, weights), looped):
                np.testing.assert_array_equal(batched, reference)

    def test_largest_initial_ratio_of_unbounded_boxes(self):
        # a zero end times an infinite (or overflowing) square contributes 0, not NaN
        assert _largest_initial_ratio(((-math.inf, 1.0), (0.0, 50.0), (0.0, 20.0))) == 2520.0
        assert _largest_initial_ratio(((0.0, 1.0), (-1e200, 1e200), (0.0, 20.0))) == math.inf

    def test_ratio_horizon_beyond_max_duration_rejected(self):
        # gamma1 < 0 is allowed by these bounds, so R may turn negative past max_duration
        age_lo = np.append(np.arange(40.0, 95.0, 5.0), 100.0)
        age_hi = np.append(age_lo[:-1] + 5.0, 110.0)
        table = AgeGroupTable(100.0, age_lo, age_hi, np.append(REFERENCE_N, 500), np.append(REFERENCE_C, 100))
        config = FitConfig(bounds=((-0.01, 1.0), (0.0, 50.0), (0.0, 20.0)))
        with pytest.raises(ValueError, match=r"105.*max_duration=100"):
            fit(table, config)


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
        config = FitConfig(starts=((0.01, 2.0, 1.0),))
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
        config = FitConfig(starts=((0.01, 2.0, 1.0),))
        table = reference_table()
        fit(table, config)
        assert len(builds) == 1
        fit(table, config)
        assert len(builds) == 2

    def test_boundary_hit_reported(self):
        config = FitConfig(
            bounds=((0.0, 1.0), (0.0, 50.0), (1e-6, 1.0)),
            starts=((0.01, 2.0, 0.9),),
        )
        result = fit(reference_table(), config)
        # unconstrained optimum has gamma3 slightly above 1, so the cap binds
        assert result.gamma_hat[2] == pytest.approx(1.0, abs=1e-6)
        assert 2 in result.diagnostics["boundary_hits"]
        # curvature is the exact information at the optimum on the cap, so intervals still exist
        information = -_LikelihoodPlan.build(reference_table(), config).derivatives(result.gamma_hat)[1]
        np.testing.assert_array_equal(result.hessian, information)
        assert np.all(np.isfinite(result.hessian))
        assert result.ci95 is not None
        assert np.all(np.isfinite(result.ci95))
        np.testing.assert_array_equal(result.ci95, wald_intervals(result.gamma_hat, information)[1])

    def test_pinned_gamma1_flags_gamma2_unidentifiable(self):
        # with gamma1 = 0 the ratio is flat in gamma2, so the likelihood
        # carries no information about it
        config = FitConfig(fixed_gamma=(0.0, None, None), starts=((0.0, 2.0, 1.0), (0.0, 10.0, 3.0)))
        result = fit(reference_table(), config)
        assert result.gamma_hat[0] == 0.0
        assert 1 in result.diagnostics["flat_components"]
        assert result.covariance is None
        assert "covariance_error" in result.diagnostics

    def test_monotone_sanity_more_cases_never_raise_gamma3(self):
        # duration-free sub-fit: only gamma3 free; inflating every case count
        # lengthens apparent survival with disease, so gamma3 cannot go up
        config = FitConfig(fixed_gamma=(0.0, 0.0, None), starts=((0.0, 0.0, 1.0), (0.0, 0.0, 4.0)))
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
        evaluate = _LikelihoodPlan.log_likelihood

        def counted(plan, gamma):
            calls.append(gamma)
            return evaluate(plan, gamma)

        monkeypatch.setattr(_LikelihoodPlan, "log_likelihood", counted)
        config = FitConfig(incidence=ExponentialIncidence(-1000.0, 0.0, 0.0))
        with pytest.raises(FitInputError, match="every start point"):
            fit(reference_table(), config)
        assert 0 < len(calls) <= len(config.starts)


class TestFitConfigValidation:
    def test_start_outside_bounds_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            FitConfig(starts=((2.0, 5.0, 1.0),))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            FitConfig(bounds=((1.0, 0.0), (0.0, 50.0), (0.0, 20.0)))

    def test_pinned_start_component_ignored_by_bounds_check(self):
        config = FitConfig(fixed_gamma=(0.0, 0.0, None), starts=((5.0, -3.0, 1.0),))
        assert config.free_indices == (2,)


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
