"""Checks the closed-form population quantities against raw-rate quadrature.

Frozen reference numbers below were produced by nested QUADPACK integration
of the raw transition rates (no shared code with the module under test); the
generating snippets live next to each constant.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from idmodds.prevalence import (
    AgeProfile,
    PrevalenceResult,
    _odds_kernel,
    _recent_onset_edges,
    case_density,
    cross_section_profile,
    diseased_population,
    effective_diseased_mortality,
    healthy_population,
    pde_residual_odds,
    pde_residual_prevalence,
    prevalence,
    prevalence_odds_exponential,
    prevalence_odds_keiding,
    prevalence_odds_pseudo_convolution,
    reconstruct_incidence,
    survivor_fraction,
)
from idmodds.quadrature import QuadratureConfig
from idmodds.rates import (
    ExponentialIncidence,
    GompertzParams,
    MortalityRatioParams,
    PositivePartIncidence,
    RateModel,
    TabulatedIncidence,
    reference_rate_model,
)


@pytest.fixture(scope="module")
def model():
    return reference_rate_model()


def zero_rate_model():
    # exp(-1000) underflows to exactly 0.0, giving a model with no events.
    return RateModel(
        ExponentialIncidence(-1000.0, 0.0, 0.0),
        GompertzParams(-1000.0, 0.1, 0.0),
        MortalityRatioParams(0.0, 0.0, 1.0),
    )


def constant_incidence_model(c):
    # R identically 1: diseased and healthy die at the same rate.
    return RateModel(
        ExponentialIncidence(math.log(c), 0.0, 0.0),
        GompertzParams(-10.7, 0.1, math.log(0.998)),
        MortalityRatioParams(0.0, 0.0, 1.0),
    )


class TestSurvivorFraction:
    def test_zero_age(self, model):
        assert survivor_fraction(model, 100.0, 60.0, 0.0) == 1.0

    def test_zero_rates(self):
        m = zero_rate_model()
        for y in (0.0, 10.0, 60.0):
            assert survivor_fraction(m, 100.0, 60.0, y) == 1.0

    def test_reference_point(self, model):
        # integrate.quad(lambda tau: m0(40+tau, tau) + i(40+tau, tau), 0, 30)
        assert survivor_fraction(model, 100.0, 60.0, 30.0) == pytest.approx(
            0.9962030273895139, rel=1e-12
        )
        assert 0.0 < survivor_fraction(model, 100.0, 60.0, 30.0) <= 1.0

    def test_domain(self, model):
        with pytest.raises(ValueError):
            survivor_fraction(model, 100.0, 60.0, 61.0)
        with pytest.raises(ValueError):
            survivor_fraction(model, 100.0, 60.0, -1.0)


class TestHealthyPopulation:
    def test_newborn_equals_baseline(self, model):
        # counts are per birth cohort of size 1
        assert healthy_population(model, 100.0, 0.0) == 1.0

    def test_zero_rates(self):
        m = zero_rate_model()
        assert healthy_population(m, 100.0, 60.0) == 1.0

    def test_reference_point(self, model):
        assert healthy_population(model, 100.0, 60.0) == pytest.approx(
            0.7979099539363237, rel=1e-12
        )


class TestCaseDensity:
    def test_full_life_duration_vanishes(self, model):
        # onset at age zero has zero incidence under the positive-part rate
        assert case_density(model, 100.0, 60.0, 60.0) == 0.0

    def test_zero_duration(self, model):
        t, a = 100.0, 60.0
        want = float(model.incidence_rate(t, a)) * healthy_population(model, t, a)
        assert case_density(model, t, a, 0.0) == pytest.approx(want, rel=1e-14)

    def test_reference_point(self, model):
        # i(90,50)*exp(-exit_hazard(90,50))*exp(-quad(m1 along the course))
        assert case_density(model, 100.0, 60.0, 10.0) == pytest.approx(
            0.0056881171110463, rel=1e-12
        )


class TestDiseasedPopulation:
    def test_zero_age(self, model):
        assert diseased_population(model, 100.0, 0.0) == 0.0

    def test_zero_incidence(self):
        m = RateModel(
            ExponentialIncidence(-1000.0, 0.0, 0.0),
            GompertzParams(-10.7, 0.1, math.log(0.998)),
            MortalityRatioParams(0.04, 5.0, 1.0),
        )
        assert diseased_population(m, 100.0, 60.0) == 0.0

    def test_reference_point(self, model):
        assert diseased_population(model, 100.0, 60.0) == pytest.approx(
            0.11969808974021, rel=1e-10
        )

    def test_matches_odds_times_healthy(self, model):
        t, a = 100.0, 60.0
        odds = prevalence_odds_pseudo_convolution(model, t, a).odds
        want = odds * healthy_population(model, t, a)
        assert diseased_population(model, t, a) == pytest.approx(want, rel=1e-6)


class TestEffectiveDiseasedMortality:
    def test_duration_independent_case_is_exact(self):
        m = RateModel(
            PositivePartIncidence(),
            GompertzParams(-10.7, 0.1, math.log(0.998)),
            MortalityRatioParams(0.0, 0.0, 1.7),
        )
        t, a = 100.0, 60.0
        assert effective_diseased_mortality(m, t, a) == float(m.mortality_healthy(t, a)) * 1.7

    def test_zero_age(self, model):
        assert effective_diseased_mortality(model, 100.0, 0.0) == 0.0

    def test_no_cases_branch(self, model):
        assert effective_diseased_mortality(model, 100.0, 20.0) == 0.0

    def test_reference_point_and_bounds(self, model):
        t, a = 100.0, 60.0
        got = effective_diseased_mortality(model, t, a)
        base = float(model.mortality_healthy(t, a))
        # weighted mean of the ratio, frozen from nested raw-rate quadrature
        assert got / base == pytest.approx(3.5934790386179682, rel=1e-9)
        lo = min(model.mortality_ratio(d) for d in np.linspace(0.0, a, 601))
        hi = max(model.mortality_ratio(d) for d in np.linspace(0.0, a, 601))
        assert base * lo <= got <= base * hi


class TestOddsFormulas:
    def test_zero_age(self, model):
        for fn in (prevalence_odds_keiding, prevalence_odds_pseudo_convolution):
            r = fn(model, 100.0, 0.0)
            assert r.odds == 0.0 and r.prevalence == 0.0

    def test_zero_incidence(self):
        m = RateModel(
            ExponentialIncidence(-1000.0, 0.0, 0.0),
            GompertzParams(-10.7, 0.1, math.log(0.998)),
            MortalityRatioParams(0.04, 5.0, 1.0),
        )
        assert prevalence_odds_keiding(m, 100.0, 60.0).odds == 0.0
        assert prevalence_odds_pseudo_convolution(m, 100.0, 60.0).odds == 0.0

    def test_reference_values(self, model):
        # frozen from the onset-age integral evaluated with QUADPACK on the raw rates
        assert prevalence_odds_keiding(model, 100.0, 42.5).odds == pytest.approx(
            0.02634444604951407, rel=1e-9
        )
        assert prevalence_odds_pseudo_convolution(model, 100.0, 60.0).odds == pytest.approx(
            0.15001453378255, rel=1e-9
        )

    def test_routes_agree_on_random_points(self, model):
        rng = np.random.default_rng(21)
        for _ in range(40):
            t = rng.uniform(50.0, 150.0)
            a = rng.uniform(0.0, 95.0)
            k = prevalence_odds_keiding(model, t, a).odds
            p = prevalence_odds_pseudo_convolution(model, t, a).odds
            c = prevalence(model, t, a, "cohort_ratio").odds
            for x, y in ((k, p), (k, c), (p, c)):
                assert x == pytest.approx(y, rel=1e-6, abs=1e-10)

    @pytest.mark.parametrize("gamma", [(1.0, 50.0, 20.0), (0.88, 46.3, 15.0)])
    def test_routes_resolve_recent_onset_layer(self, gamma):
        # R(0) in the thousands makes m1(100, 92.5, 0) about 480/yr, so the
        # kernel lives within a few thousandths of a year of zero duration,
        # far inside the first node of an unrefined rule on [0, a - 30]
        m = RateModel(
            PositivePartIncidence(), GompertzParams(-10.7, 0.1, math.log(0.998)), MortalityRatioParams(*gamma)
        )
        t, a = 100.0, 92.5

        def integrand(delta):
            return float(m.incidence_rate(t - delta, a - delta)) * float(_odds_kernel(m, t, a, delta))

        edges = [0.0, *np.geomspace(1e-5, a - 30.0, 60)]
        want = sum(
            integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )
        assert want > 1e-5
        for method in ("pseudo_convolution", "keiding", "cohort_ratio"):
            assert prevalence(m, t, a, method).odds == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("a", [160.0, 200.0])
    def test_routes_agree_after_healthy_survivors_underflow(self, model, a):
        # the healthy survivor fraction is exactly 0 there, so a route that
        # divides by it after integrating would compute 0 / 0
        assert healthy_population(model, 100.0, a) == 0.0
        want = prevalence_odds_pseudo_convolution(model, 100.0, a).odds
        assert want > 0.0
        assert prevalence_odds_keiding(model, 100.0, a).odds == pytest.approx(want, rel=1e-9)
        assert prevalence(model, 100.0, a, "cohort_ratio").odds == pytest.approx(want, rel=1e-9)
        # the case-mix mortality stays a finite mean of the ratio, not the "no cases" 0
        ratio = effective_diseased_mortality(model, 100.0, a) / float(model.mortality_healthy(100.0, a))
        assert model.ratio.gamma3 <= ratio <= model.ratio.ratio(a)

    def test_recent_onset_edges_when_their_count_overflows(self, model):
        # m1 * first_piece overflows while m1 * EDGE_NODE_OFFSET * first_piece stays finite
        edges = _recent_onset_edges(model, 100.0, 7130.0, 7100.0)
        assert all(math.isfinite(x) and 0.0 < x < 7100.0 for x in edges)

    def test_curve_shape(self, model):
        # rises from zero, peaks in the early 80s, then falls as the excess
        # mortality of long-duration cases outweighs new onsets
        ages = np.arange(30.0, 101.0, 2.5)
        profile = cross_section_profile(model, 100.0, ages, kind="odds")
        assert profile.values[0] == 0.0
        rising = ages <= 75.0
        assert np.all(np.diff(profile.values[rising]) >= 0.0)
        peak_age = ages[np.argmax(profile.values)]
        assert 75.0 <= peak_age <= 90.0
        assert 0.20 <= profile.values.max() <= 0.25
        # the 90-94 group of the bundled study table has empirical odds 164/746
        at_92 = profile.values[ages.tolist().index(92.5)]
        assert at_92 == pytest.approx(164.0 / 746.0, abs=0.02)

    def test_kernel_monotone_under_excess_mortality(self):
        m = RateModel(
            PositivePartIncidence(),
            GompertzParams(-10.7, 0.1, math.log(0.998)),
            MortalityRatioParams(0.0, 0.0, 5.0),
        )
        deltas = np.linspace(0.0, 60.0, 121)
        values = _odds_kernel(m, 100.0, 60.0, deltas)
        assert values[0] == 1.0
        assert np.all(np.diff(values) < 0.0)

    def test_survivor_ratio_identity(self, model):
        rng = np.random.default_rng(22)
        for _ in range(30):
            t = rng.uniform(50.0, 150.0)
            a = rng.uniform(1.0, 95.0)
            delta = rng.uniform(0.0, a)
            ratio = survivor_fraction(model, t, a, a - delta) / survivor_fraction(model, t, a, a)
            direct = math.exp(
                model.cumulative_m0(t, a, delta) + model.cumulative_incidence(t, a, delta)
            )
            assert ratio == pytest.approx(direct, rel=1e-10)


class TestExponentialConvolution:
    def test_requires_exponential_incidence(self, model):
        with pytest.raises(ValueError):
            prevalence_odds_exponential(model, 100.0, 60.0)

    def test_constant_incidence_reduces(self):
        m = constant_incidence_model(0.01)
        a = 50.0
        special = prevalence_odds_exponential(m, 100.0, a).odds
        plain = prevalence_odds_pseudo_convolution(m, 100.0, a).odds
        assert special == pytest.approx(plain, rel=1e-10)

    def test_random_models_match_pseudo_convolution(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            inc = ExponentialIncidence(
                rng.uniform(-10.0, -6.0), rng.uniform(-0.03, 0.05), rng.uniform(-0.015, 0.015)
            )
            m = RateModel(
                inc,
                GompertzParams(-10.7, 0.1, math.log(0.998)),
                MortalityRatioParams(rng.uniform(0.0, 0.05), rng.uniform(0.0, 10.0), rng.uniform(0.5, 2.0)),
            )
            t = rng.uniform(60.0, 140.0)
            a = rng.uniform(0.0, 90.0)
            special = prevalence_odds_exponential(m, t, a).odds
            plain = prevalence_odds_pseudo_convolution(m, t, a).odds
            assert special == pytest.approx(plain, rel=1e-10, abs=1e-300)

    def test_factorization_identity(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            inc = ExponentialIncidence(rng.normal(-6.0, 1.0), rng.normal(0.0, 0.05), rng.normal(0.0, 0.02))
            t = rng.uniform(50.0, 150.0)
            a = rng.uniform(0.0, 95.0)
            delta = rng.uniform(0.0, a)
            front = math.exp(inc.k0 + inc.k1 * a - inc.k1 * t)
            lagged = front * math.exp((inc.k1 + inc.k2) * (t - delta))
            direct = float(inc.rate(t - delta, a - delta))
            assert lagged == pytest.approx(direct, rel=1e-12)


class TestPrevalenceDispatch:
    def test_odds_to_prevalence_identity(self, model):
        for a in (0.0, 42.5, 62.5, 92.5):
            r = prevalence(model, 100.0, a)
            assert r.prevalence == r.odds / (1.0 + r.odds)
            assert 0.0 <= r.prevalence < 1.0 and r.odds >= 0.0

    def test_all_methods_agree(self, model):
        t, a = 100.0, 62.5
        values = [prevalence(model, t, a, m).prevalence for m in ("pseudo_convolution", "keiding", "cohort_ratio")]
        for v in values[1:]:
            assert v == pytest.approx(values[0], rel=1e-6)

    def test_baseline_cannot_change_prevalence(self, model):
        # both counts scale with the cohort size, so the odds are their ratio at size 1
        ratio = diseased_population(model, 100.0, 62.5) / healthy_population(model, 100.0, 62.5)
        assert ratio == pytest.approx(prevalence(model, 100.0, 62.5, "cohort_ratio").odds, rel=1e-14)

    def test_constant_incidence_closed_form(self):
        # with equal mortality in both states the odds depend on incidence alone
        for c in (0.001, 0.01, 0.05):
            m = constant_incidence_model(c)
            for a in (10.0, 50.0, 90.0):
                r = prevalence(m, 100.0, a)
                assert r.prevalence == pytest.approx(1.0 - math.exp(-c * a), abs=1e-8)
                assert r.odds == pytest.approx(math.expm1(c * a), rel=1e-8)

    def test_unknown_method(self, model):
        with pytest.raises(ValueError):
            prevalence(model, 100.0, 60.0, "secret")

    def test_result_validation(self):
        with pytest.raises(ValueError):
            PrevalenceResult(100.0, 60.0, -0.5, 0.1, "keiding")
        with pytest.raises(ValueError):
            PrevalenceResult(100.0, 60.0, 0.5, 1.5, "keiding")
        with pytest.raises(ValueError):
            PrevalenceResult(100.0, 60.0, 0.5, 0.3, "nope")


class TestTransportResiduals:
    def test_zero_rates(self):
        m = zero_rate_model()
        assert pde_residual_prevalence(m, 100.0, 60.0, 0.1) == 0.0

    def test_second_order_in_prevalence(self, model):
        coarse = pde_residual_prevalence(model, 100.0, 60.0, 0.1)
        fine = pde_residual_prevalence(model, 100.0, 60.0, 0.05)
        assert 3.5 <= coarse / fine <= 4.5

    def test_second_order_in_odds(self):
        m = RateModel(
            PositivePartIncidence(),
            GompertzParams(-10.7, 0.1, math.log(0.998)),
            MortalityRatioParams(0.0, 0.0, 2.0),
        )
        coarse = pde_residual_odds(m, 100.0, 60.0, 0.1)
        fine = pde_residual_odds(m, 100.0, 60.0, 0.05)
        assert 3.5 <= coarse / fine <= 4.5

    def test_odds_residual_zero_incidence(self):
        m = RateModel(
            ExponentialIncidence(-1000.0, 0.0, 0.0),
            GompertzParams(-10.7, 0.1, math.log(0.998)),
            MortalityRatioParams(0.0, 0.0, 2.0),
        )
        assert pde_residual_odds(m, 100.0, 60.0, 0.1) == 0.0

    def test_odds_residual_requires_flat_ratio(self, model):
        with pytest.raises(ValueError):
            pde_residual_odds(model, 100.0, 60.0, 0.1)

    def test_step_validation(self, model):
        with pytest.raises(ValueError):
            pde_residual_prevalence(model, 100.0, 60.0, 0.0)
        with pytest.raises(ValueError):
            pde_residual_prevalence(model, 100.0, 0.05, 0.1)


class TestReconstruction:
    def test_zero_prevalence_gives_zero_incidence(self):
        ages = np.arange(40.0, 60.5, 0.5)
        p0 = AgeProfile(100.0, ages, np.zeros_like(ages))
        p1 = AgeProfile(100.5, ages, np.zeros_like(ages))
        est = reconstruct_incidence(p0, p1, lambda t, a: 0.0, lambda t, a: 0.0)
        np.testing.assert_array_equal(est.values, 0.0)
        assert est.time == 100.25

    def test_recovers_positive_part_incidence(self, model):
        ages = np.arange(35.0, 95.5, 0.5)
        p0 = cross_section_profile(model, 100.0, ages)
        p1 = cross_section_profile(model, 100.5, ages)
        est = reconstruct_incidence(
            p0,
            p1,
            lambda t, a: effective_diseased_mortality(model, t, a),
            lambda t, a: model.mortality_healthy(t, a),
        )
        mask = (est.ages >= 40.0) & (est.ages <= 90.0)
        truth = (est.ages[mask] - 30.0) / 3000.0
        rel = np.abs(est.values[mask] - truth) / truth
        assert rel.max() < 0.02

    def test_stationary_profile_needs_no_drift(self):
        # flat p with equal mortalities forces the estimate to zero
        ages = np.arange(40.0, 50.5, 0.5)
        values = np.full_like(ages, 0.25)
        p0 = AgeProfile(100.0, ages, values)
        p1 = AgeProfile(100.5, ages, values)
        est = reconstruct_incidence(p0, p1, lambda t, a: 0.01, lambda t, a: 0.01)
        np.testing.assert_allclose(est.values, 0.0, atol=1e-15)

    def test_grid_mismatch(self):
        p0 = AgeProfile(100.0, np.array([40.0, 41.0]), np.array([0.1, 0.1]))
        p1 = AgeProfile(100.5, np.array([40.0, 42.0]), np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            reconstruct_incidence(p0, p1, lambda t, a: 0.0, lambda t, a: 0.0)

    def test_prevalence_one_rejected(self):
        ages = np.array([40.0, 41.0, 42.0])
        p0 = AgeProfile(100.0, ages, np.array([0.5, 1.0, 0.5]))
        p1 = AgeProfile(100.5, ages, np.array([0.5, 1.0, 0.5]))
        with pytest.raises(ValueError):
            reconstruct_incidence(p0, p1, lambda t, a: 0.0, lambda t, a: 0.0)

    def test_time_order_enforced(self):
        ages = np.array([40.0, 41.0])
        p0 = AgeProfile(100.0, ages, np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            reconstruct_incidence(p0, p0, lambda t, a: 0.0, lambda t, a: 0.0)


class TestProfiles:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            AgeProfile(100.0, np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            AgeProfile(100.0, np.array([1.0, 2.0]), np.array([0.0, math.inf]))

    def test_profile_kinds(self, model):
        ages = np.array([50.0, 60.0])
        odds = cross_section_profile(model, 100.0, ages, kind="odds")
        prev = cross_section_profile(model, 100.0, ages, kind="prevalence")
        np.testing.assert_allclose(prev.values, odds.values / (1.0 + odds.values), rtol=1e-14)
        with pytest.raises(ValueError):
            cross_section_profile(model, 100.0, ages, kind="count")

    def test_odds_beyond_two_to_the_53_round_prevalence_to_one(self, model):
        extreme = RateModel(ExponentialIncidence(-1.0, 0.03, 0.0), model.m0, model.ratio)
        ages = np.array([30.0, 60.0])
        odds = cross_section_profile(extreme, 100.0, ages, kind="odds").values
        prev = cross_section_profile(extreme, 100.0, ages, kind="prevalence").values
        assert odds[0] < 2.0**53 < odds[1] < math.inf
        np.testing.assert_array_equal(prev, odds / (1.0 + odds))
        assert prev[1] == 1.0
        assert prevalence(extreme, 100.0, 60.0).prevalence == 1.0
        # the balance divides by 1 - p, so the reconstruction still refuses p = 1
        start, end = (cross_section_profile(extreme, t, ages) for t in (100.0, 101.0))
        with pytest.raises(ValueError, match="below 1"):
            reconstruct_incidence(start, end, lambda t, a: 0.0, lambda t, a: 0.0)


def test_tight_quadrature_config_accepted(model):
    cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15, max_subdivisions=400)
    a = prevalence_odds_pseudo_convolution(model, 100.0, 62.5, cfg).odds
    b = prevalence_odds_pseudo_convolution(model, 100.0, 62.5).odds
    assert a == pytest.approx(b, rel=1e-8)


def test_independent_quadrature_oracle(model):
    # one full dual-route check straight from the raw rates
    t, a = 100.0, 52.5

    def exit_hazard(tt, aa):
        val, _ = integrate.quad(
            lambda tau: float(model.mortality_healthy(tt - aa + tau, tau))
            + float(model.incidence_rate(tt - aa + tau, tau)),
            0.0,
            aa,
            limit=200,
            epsabs=1e-13,
            epsrel=1e-13,
            points=[30.0] if aa > 30.0 else None,
        )
        return val

    def course_hazard(d):
        val, _ = integrate.quad(
            lambda tau: float(model.mortality_diseased(t - d + tau, a - d + tau, tau)),
            0.0,
            d,
            limit=200,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        return val

    def integrand(y):
        return float(model.incidence_rate(t - a + y, y)) * math.exp(
            -exit_hazard(t - a + y, y) - course_hazard(a - y)
        )

    numerator, _ = integrate.quad(integrand, 0.0, a, limit=200, epsabs=1e-12, epsrel=1e-10, points=[30.0])
    want = numerator / math.exp(-exit_hazard(t, a))
    got = prevalence_odds_pseudo_convolution(model, t, a).odds
    assert got == pytest.approx(want, rel=1e-8)


# -- batched profiles against one-point calls, over random rate models ---------------

GRID_TIMES = (0.0, 30.0, 60.0, 90.0, 120.0)
GRID_AGES = (0.0, 25.0, 50.0, 75.0, 110.0)
ODDS_ROUTES = ("pseudo_convolution", "keiding", "cohort_ratio")


@st.composite
def random_models(draw):
    """Rate models of all three incidence families around the reference study."""
    family = draw(st.sampled_from(["positive_part", "exponential", "tabulated"]))
    if family == "positive_part":
        incidence = PositivePartIncidence(draw(st.floats(25.0, 35.0)), draw(st.floats(2000.0, 4000.0)))
    elif family == "exponential":
        incidence = ExponentialIncidence(
            draw(st.floats(-9.5, -8.5)), draw(st.floats(0.02, 0.06)), draw(st.floats(-0.005, 0.01))
        )
    else:
        onset = draw(st.floats(25.0, 35.0))
        noise = draw(st.lists(st.floats(-0.2, 0.2), min_size=25, max_size=25))
        base = np.maximum(np.array(GRID_AGES) - onset, 0.0) / 3000.0
        table = base[None, :] * np.exp(np.reshape(noise, (5, 5)))
        incidence = TabulatedIncidence(np.array(GRID_TIMES), np.array(GRID_AGES), table)
    ratio = MortalityRatioParams(draw(st.floats(0.0, 0.08)), draw(st.floats(0.0, 8.0)), draw(st.floats(0.5, 2.0)))
    return RateModel(incidence, reference_rate_model().m0, ratio)


# ages from 35 up, no earlier than any drawn positive-part onset; at an age equal to its
# onset every route gives odds of exactly 0
age_grids = st.lists(st.floats(35.0, 100.0), min_size=1, max_size=6, unique=True).map(sorted)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(random_models(), st.floats(95.0, 105.0), age_grids)
def test_profiles_match_one_point_routes(model, t, ages):
    routes = ODDS_ROUTES + (("convolution_special",) if isinstance(model.incidence, ExponentialIncidence) else ())
    profiles = {}
    for route in routes:
        profiles[route] = cross_section_profile(model, t, ages, kind="odds", method=route).values
        one_point = [prevalence(model, t, a, route).odds for a in ages]
        np.testing.assert_array_equal(profiles[route], one_point)
    stacked = np.array([profiles[route] for route in ODDS_ROUTES])
    scale = np.abs(stacked).max(axis=0)
    # the spread is 0 where every route gives 0
    spread = np.divide(stacked.max(axis=0) - stacked.min(axis=0), scale, out=np.zeros_like(scale), where=scale > 0)
    assert spread.max() <= 1e-6
    scalar = [effective_diseased_mortality(model, t, a) for a in ages]
    np.testing.assert_array_equal(effective_diseased_mortality(model, t, np.array(ages)), scalar)


def test_array_populations_match_scalar_calls(model):
    ages = np.array([0.0, 12.5, 45.0, 80.0])
    for function in (healthy_population, diseased_population):
        array = function(model, 100.0, ages)
        np.testing.assert_array_equal(array, [function(model, 100.0, a) for a in ages])
    assert isinstance(healthy_population(model, 100.0, 45.0), float)
    assert isinstance(diseased_population(model, 100.0, 45.0), float)
    assert isinstance(effective_diseased_mortality(model, 100.0, 45.0), float)
