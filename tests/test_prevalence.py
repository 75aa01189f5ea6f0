"""Checks the closed-form population quantities against raw-rate quadrature.

Frozen reference numbers below were produced by nested QUADPACK integration
of the raw transition rates (no shared code with the module under test); the
generating snippets live next to each constant.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from idmodds.prevalence import (
    AgeProfile,
    PrevalenceResult,
    _lookback_edges,
    _nonnegative_odds,
    _odds_at,
    _odds_kernel,
    _onset_flow,
    _onset_layer,
    _onset_rate,
    _profiles,
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
)
from idmodds import quadrature
from idmodds.fit import _DEFAULT_BOUNDS
from idmodds.quadrature import (
    _W_KRONROD,
    DEFAULT_QUADRATURE,
    EDGE_NODE_OFFSET,
    MAX_INTERVALS,
    QuadratureConfig,
    QuadratureError,
    adaptive_quad,
)
from idmodds.rates import (
    ExponentialIncidence,
    GompertzParams,
    MortalityRatioParams,
    PositivePartIncidence,
    RateModel,
    RatioHorizonError,
    TabulatedIncidence,
    reference_rate_model,
    smallest_ratio,
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


def odds_kernel(model, t, a, delta):
    """The batch odds kernel at the lookbacks ``delta`` of the one life line ending at (t, a)."""
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    return _odds_kernel(model, np.array([t]), np.array([a]))(delta, np.zeros(delta.size, dtype=int))


def tabulated_incidence():
    """Positive-part-like incidence on the grid GRID_TIMES x GRID_AGES, varying in time."""
    base = np.maximum(np.array(GRID_AGES) - 30.0, 0.0) / 3000.0
    table = base[None, :] * (1.0 + 0.1 * np.arange(5.0))[:, None]
    return TabulatedIncidence(np.array(GRID_TIMES), np.array(GRID_AGES), table)


def survivor_fraction(model, t, a, y):
    """The share of the cohort aged ``a`` at ``t`` still alive and healthy at age ``y``: the healthy count on its life line."""
    return healthy_population(model, t - a + y, y)


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

    @pytest.mark.parametrize("age", [-1.0, math.nan], ids=["negative", "nan"])
    def test_negative_age_rejected(self, model, age):
        with pytest.raises(ValueError, match="age must be nonnegative"):
            healthy_population(model, 100.0, age)


def case_density(model, t, a, d):
    """The density over disease duration ``d`` of the diseased at (t, a): the onset-flow integrand, unscaled."""
    return float(_onset_flow(model, np.array([t]), np.array([a]), False)(np.array([d]), np.array([0]))[0])


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
        ratios = model.ratio.ratio(np.linspace(0.0, a, 601))
        lo, hi = ratios.min(), ratios.max()
        assert base * lo <= got <= base * hi


def short_horizon_model(gamma1=-1e-4, gamma3=1.1):
    # R(d) = gamma1 d^2 + gamma3 is positive only below d = sqrt(1.1e4) = 104.88 with the defaults
    return RateModel(ExponentialIncidence(), reference_rate_model().m0, MortalityRatioParams(gamma1, 0.0, gamma3))


class TestRatioHorizon:
    """Every reader of R refuses the points whose disease durations reach past where R is positive.

    Below that age the values are those computed before R was checked on the
    durations reached, when it was checked on [0, 100] alone.
    """

    READERS = {
        "pseudo_convolution": lambda m, a: prevalence(m, 100.0, a, "pseudo_convolution").odds,
        "keiding": lambda m, a: prevalence(m, 100.0, a, "keiding").odds,
        "cohort_ratio": lambda m, a: prevalence(m, 100.0, a, "cohort_ratio").odds,
        "diseased_population": lambda m, a: diseased_population(m, 100.0, a),
        "pde_residual_prevalence": lambda m, a: pde_residual_prevalence(m, 100.0, a - 1.0, 0.5),
        "effective_diseased_mortality": lambda m, a: effective_diseased_mortality(m, 100.0, a),
    }
    BELOW = {
        "pseudo_convolution": 0.12131784309985741,
        "keiding": 0.12131784309985741,
        "cohort_ratio": 0.12131784309985742,
        "diseased_population": 0.001772176662015193,
        "pde_residual_prevalence": 4.8126615144163803e-05,
        "effective_diseased_mortality": 0.2918794056486104,
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_refused_past_the_horizon(self, reader):
        read, m = self.READERS[reader], short_horizon_model()
        assert read(m, 100.0) == pytest.approx(self.BELOW[reader], rel=1e-12, abs=0.0)
        with pytest.raises(RatioHorizonError, match="disease durations reached"):
            read(m, 110.0)

    @pytest.mark.parametrize("gamma3", [0.0, -1.0])
    def test_duration_free_shortcut_refused(self, gamma3):
        # gamma1 = 0 skips the integrals, so the shortcut checks R on [0, a] itself
        m = short_horizon_model(0.0, gamma3)
        for a in (0.0, np.array([20.0, 60.0])):
            with pytest.raises(RatioHorizonError, match=f"\\[0, {np.max(a):g}\\]"):
                effective_diseased_mortality(m, 100.0, a)
        assert effective_diseased_mortality(short_horizon_model(0.0, 1.7), 100.0, np.array([])).size == 0


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
            return float(m.incidence_rate(t - delta, a - delta)) * float(odds_kernel(m, t, a, delta)[0])

        edges = [0.0, *np.geomspace(1e-5, a - 30.0, 60)]
        want = sum(
            integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )
        assert want > 1e-5
        for method in ("pseudo_convolution", "keiding", "cohort_ratio"):
            assert prevalence(m, t, a, method).odds == pytest.approx(want, rel=1e-8)

    def test_routes_resolve_recent_onset_layer_cut_by_a_kink(self):
        # a grid time 0.001 years back cuts the 0.002-year layer (m1 about 490/yr):
        # the piece behind the kink starts inside the layer too, and an unrefined
        # rule on it reads about zero
        ages = np.array(GRID_AGES)
        table = np.maximum(ages - 30.0, 0.0)[None, :] / 3000.0 * np.linspace(1.0, 1.4, 5)[:, None]
        incidence = TabulatedIncidence(np.array(GRID_TIMES), ages, table)
        m = RateModel(incidence, GompertzParams(-10.7, 0.1, math.log(0.998)), MortalityRatioParams(1.0, 50.0, 20.0))
        t, a = 90.001, 92.5

        def integrand(delta):
            return float(m.incidence_rate(t - delta, a - delta)) * float(odds_kernel(m, t, a, delta)[0])

        kinks = [x for x in (*(a - ages), *(t - np.array(GRID_TIMES))) if 0.0 < x < a]
        edges = np.unique([0.0, a, *kinks, *np.geomspace(1e-6, a, 80)])
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
        t, a = np.array([100.0]), np.array([7130.0])
        edges = _onset_layer(_onset_rate(model, t, a), np.array([7100.0]))
        assert all(math.isfinite(x) and 0.0 < x < 7100.0 for x in edges[~np.isnan(edges)])
        # the first lookback piece ends at the kink a - 30 = 7100, and no layer is added before it
        np.testing.assert_array_equal(_lookback_edges(model.incidence, t, a, _onset_rate(model, t, a)), [[7100.0]])

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
        values = odds_kernel(m, 100.0, 60.0, deltas)
        assert values[0] == 1.0
        assert np.all(np.diff(values) < 0.0)

    def test_survivor_ratio_identity(self, model):
        rng = np.random.default_rng(22)
        for _ in range(30):
            t = rng.uniform(50.0, 150.0)
            a = rng.uniform(1.0, 95.0)
            delta = rng.uniform(0.0, a)
            ratio = healthy_population(model, t - delta, a - delta) / healthy_population(model, t, a)
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
        with pytest.raises(ValueError):
            pde_residual_prevalence(model, 100.0, 60.0, [0.1, np.nan])

    @pytest.mark.parametrize("family", ["positive_part", "tabulated"])
    def test_several_steps_match_lone_calls(self, model, family, monkeypatch):
        incidence = model.incidence if family == "positive_part" else tabulated_incidence()
        curved = RateModel(incidence, model.m0, model.ratio)
        flat = RateModel(incidence, model.m0, MortalityRatioParams(0.0, 0.0, 2.0))
        steps = [0.1, 0.05]
        cases = ((pde_residual_prevalence, curved), (pde_residual_prevalence, flat), (pde_residual_odds, flat))
        lone = {(residual, m): [residual(m, 100.0, 60.0, h) for h in steps] for residual, m in cases}
        batches = []
        # the package re-exports a function named prevalence, so the module comes from import_module
        module = importlib.import_module("idmodds.prevalence")
        batch = module.adaptive_quad_many
        monkeypatch.setattr(module, "adaptive_quad_many", lambda *args: batches.append(1) or batch(*args))
        for (residual, m), want in lone.items():
            batches.clear()
            got = residual(m, 100.0, 60.0, np.array(steps))
            assert got.shape == (2,) and got.tolist() == want
            # one batch of odds at the five points, and one of the case-mix mortality where it needs one
            assert len(batches) == (2 if residual is pde_residual_prevalence and m is curved else 1)


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

    def test_gap_beyond_the_age_range_rejected(self):
        ages = np.array([40.0, 41.0, 42.0])
        p0 = AgeProfile(100.0, ages, np.full(3, 0.1))
        p1 = AgeProfile(105.0, ages, np.full(3, 0.1))
        with pytest.raises(ValueError, match="time gap exceeds the age range"):
            reconstruct_incidence(p0, p1, lambda t, a: 0.0, lambda t, a: 0.0)


class TestProfiles:
    @pytest.mark.parametrize(
        "ages, values", [([40.0, 41.0], [0.1]), ([[40.0, 41.0]], [[0.1, 0.1]])], ids=["unequal", "two-dimensional"]
    )
    def test_age_profile_needs_matching_one_dimensional_arrays(self, ages, values):
        with pytest.raises(ValueError, match="matching 1-D arrays"):
            AgeProfile(100.0, ages, values)

    def test_negative_age_rejected(self, model):
        with pytest.raises(ValueError, match="age must be nonnegative"):
            prevalence(model, 100.0, -1.0)
        with pytest.raises(ValueError, match="age must be nonnegative"):
            cross_section_profile(model, 100.0, [40.0, -1.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1e-300], ids=["infinite", "nan", "negative"])
    def test_odds_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(ValueError, match="odds must be finite and nonnegative, got .* at age 50"):
            _nonnegative_odds(np.array([0.5, bad]), np.array([40.0, 50.0]))
        odds = np.array([0.0, 0.5])
        assert _nonnegative_odds(odds, np.array([40.0, 50.0])) is odds

    @pytest.mark.parametrize(
        "method, plateau",
        [
            pytest.param(method, plateau, id=method if plateau == 45.2 else f"{method}-{plateau}")
            for plateau in (45.2, 45.3)
            for method in ("pseudo_convolution", "cohort_ratio", "keiding")
        ],
    )
    def test_plateaued_kernel_overflows_the_odds_sum(self, method, plateau):
        # the healthy exit balances m1 on the old part of each life line, so the kernel plateaus near
        # e**704: at 45.2/yr every integrand value is finite, but their sum overflows and only the guard
        # refuses it; at 45.3/yr the integrand overflows, and the quadrature refuses it with no warning
        ages = [*range(0, 120, 5), 119.999, 120.0, 125.0, 130.0, 135.0, 140.0, 200.0]
        rates = [10.0 if age < 120.0 else plateau for age in ages]
        incidence = TabulatedIncidence(np.array([-1000.0, 1000.0]), np.array(ages, dtype=float), np.array([rates] * 2))
        ratio = MortalityRatioParams(0.0, 5.0, 10.0 / math.exp(-50.0))
        m = RateModel(incidence, GompertzParams(-50.0, 1e-9, 0.0), ratio)
        error, message = {
            45.2: (ValueError, "^odds must be finite and nonnegative, got inf at age 140$"),
            45.3: (QuadratureError, "^integrand returned non-finite values$"),
        }[plateau]
        with pytest.raises(error, match=message):
            prevalence(m, 100.0, 140.0, method)

    @pytest.mark.parametrize("family", ["positive_part", "exponential", "tabulated"])
    @pytest.mark.parametrize("kind", ["prevalence", "odds"])
    def test_several_times_match_lone_profiles(self, model, family, kind):
        incidence = {
            "positive_part": model.incidence,
            "exponential": ExponentialIncidence(-9.0, 0.04, 0.005),
            "tabulated": tabulated_incidence(),
        }[family]
        m = RateModel(incidence, model.m0, model.ratio)
        ages = np.arange(40.0, 91.0, 2.5)
        times = [100.0, 100.5, 97.25]
        got = _profiles(m, times, ages, kind)
        for profile, time in zip(got, times):
            want = cross_section_profile(m, time, ages, kind)
            assert profile.time == want.time
            np.testing.assert_array_equal(profile.ages, want.ages)
            np.testing.assert_array_equal(profile.values, want.values)

    @pytest.mark.parametrize("family", ["positive_part", "tabulated"])
    def test_interval_cap_never_changes_a_bit(self, model, monkeypatch, family):
        incidence = model.incidence if family == "positive_part" else tabulated_incidence()
        m = RateModel(incidence, model.m0, model.ratio)
        ages = np.arange(30.0, 100.0, 1.0)
        sizes = []
        batch = quadrature._gk15_batch

        def recorded(f, lo, hi, owner):
            if len(lo) <= quadrature.MAX_INTERVALS:
                sizes.append(len(lo))
            return batch(f, lo, hi, owner)

        monkeypatch.setattr(quadrature, "_gk15_batch", recorded)
        bits, largest = [], []
        for cap in (1, 64, MAX_INTERVALS):
            monkeypatch.setattr(quadrature, "MAX_INTERVALS", cap)
            sizes.clear()
            values = [cross_section_profile(m, 100.0, ages, "odds", method).values
                      for method in ("pseudo_convolution", "keiding", "cohort_ratio")]
            if family == "tabulated":
                values.append(effective_diseased_mortality(m, 100.0, ages))
            bits.append([v.tobytes() for v in values])
            largest.append(max(sizes))
        assert bits[0] == bits[1] == bits[2]
        # every cap bound its calls, and the largest cap took more intervals per call than 64
        assert largest[0] == 1 and largest[1] == 64 and 64 < largest[2] <= MAX_INTERVALS

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
    a = cross_section_profile(model, 100.0, [62.5], "odds", "pseudo_convolution", cfg).values[0]
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
            lambda tau: float(model.mortality_healthy(t - d + tau, a - d + tau) * model.ratio.ratio(tau)),
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


@st.composite
def box_models(draw):
    """Rate models of all three incidence families, gamma anywhere in the fit's default box where R > 0."""
    model = draw(random_models())
    gamma = [draw(st.floats(lo, hi)) for lo, hi in _DEFAULT_BOUNDS]
    assume(smallest_ratio(*gamma, 110.0) > 0.0)
    return RateModel(model.incidence, model.m0, MortalityRatioParams(*gamma))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(box_models(), st.lists(st.tuples(st.floats(50.0, 150.0), st.floats(0.0, 110.0)), min_size=1, max_size=6))
def test_no_odds_or_diseased_count_comes_out_negative(model, points):
    # nothing clamps these to 0: every integrand is a nonnegative rate, or R > 0, times an
    # exponential, and every Kronrod weight is positive, so no sum of them can be negative
    assert (_W_KRONROD > 0.0).all()
    t, a = (np.array(column) for column in zip(*points))
    routes = ODDS_ROUTES + (("convolution_special",) if isinstance(model.incidence, ExponentialIncidence) else ())
    for route in routes:
        assert (_odds_at(model, t, a, route, DEFAULT_QUADRATURE) >= 0.0).all()
    assert (diseased_population(model, t, a) >= 0.0).all()


def test_array_populations_match_scalar_calls(model):
    ages = np.array([0.0, 12.5, 45.0, 80.0])
    for function in (healthy_population, diseased_population):
        array = function(model, 100.0, ages)
        np.testing.assert_array_equal(array, [function(model, 100.0, a) for a in ages])
    assert isinstance(healthy_population(model, 100.0, 45.0), float)
    assert isinstance(diseased_population(model, 100.0, 45.0), float)
    assert isinstance(effective_diseased_mortality(model, 100.0, 45.0), float)


# -- array edge rules against the per-point rules they replaced ------------------------


def scalar_lookback_kinks(incidence, t, a):
    """Lookbacks delta in (0, a) where the life line ending at (t, a) crosses an incidence kink."""
    edges = [a - g for g in incidence.kink_ages]
    edges += [t - g for g in incidence.kink_times]
    return [x for x in edges if 0.0 < x < a]


def scalar_recent_onset_edges(model, t, a):
    """Durations 1/m1, 2/m1, 4/m1, ... up to a, when the outermost node of a rule on [0, a] misses 1/m1."""
    rate = float(model.mortality_healthy(t, a)) * model.ratio.coefficients[0]
    if not (1.0 < rate * EDGE_NODE_OFFSET * a and rate * a < math.inf):
        return []
    return [2.0**k / rate for k in range(math.ceil(math.log2(rate * a)))]


def scalar_lookback_breakpoints(model, t, a):
    """Edges for integrals over the lookback delta ending at (t, a), one point at a time (the oracle)."""
    kinks = scalar_lookback_kinks(model.incidence, t, a)
    return kinks + scalar_recent_onset_edges(model, t, a)


def scalar_onset_age_breakpoints(model, t, a):
    """Edges for integrals over the onset age y along the life line through (t, a), one point at a time (the oracle)."""
    birth = t - a
    edges = list(model.incidence.kink_ages)
    edges += [g - birth for g in model.incidence.kink_times]
    edges = [x for x in edges if 0.0 < x < a]
    return edges + [a - d for d in scalar_recent_onset_edges(model, t, a)]


def row_values(row):
    """The entries of a NaN-padded edge row, sorted."""
    return sorted(row[~np.isnan(row)].tolist())


@st.composite
def edge_models(draw):
    """Random rate models whose R(0) reaches the thousands, so the recent-onset layer is often laid."""
    model = draw(random_models())
    ratio = MortalityRatioParams(draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 60.0)), draw(st.floats(0.5, 30.0)))
    return RateModel(model.incidence, model.m0, ratio)


edge_points = st.lists(st.tuples(st.floats(0.0, 200.0), st.floats(0.0, 160.0)), min_size=1, max_size=8)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(edge_models(), edge_points)
def test_array_edges_match_per_point_rules(model, points):
    t, a = (np.array(column) for column in zip(*points))
    rate = _onset_rate(model, t, a)
    lookback = _lookback_edges(model.incidence, t, a, rate)
    kinks = _lookback_edges(model.incidence, t, a, np.zeros_like(a))
    for k, (tk, ak) in enumerate(points):
        assert row_values(lookback[k]) == sorted(scalar_lookback_breakpoints(model, tk, ak))
        assert row_values(kinks[k]) == sorted(scalar_lookback_kinks(model.incidence, tk, ak))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(edge_models(), edge_points)
def test_keiding_reflected_edges_match_onset_age_oracle(model, points):
    # keiding lays its onset-age edges as a minus the lookback edges; the per-point
    # onset-age rule, a lone integral each, must give the same odds
    for tk, ak in points:
        flow = _onset_flow(model, np.array([tk]), np.array([ak]), True)
        want = adaptive_quad(
            lambda y: flow(ak - y, np.zeros(len(y), dtype=int)), 0.0, ak,
            breakpoints=scalar_onset_age_breakpoints(model, tk, ak),
        )
        assert prevalence(model, tk, ak, "keiding").odds == pytest.approx(want, rel=1e-8)


def test_edge_sweep_lays_the_recent_onset_layer():
    # the sweep above compares layers, not only kinks: its first models lay one
    model = RateModel(PositivePartIncidence(), reference_rate_model().m0, MortalityRatioParams(1.0, 50.0, 20.0))
    t, a = np.array([100.0, 100.0]), np.array([92.5, 20.0])
    rate = _onset_rate(model, t, a)
    lookback = _lookback_edges(model.incidence, t, a, rate)
    assert len(row_values(lookback[0])) > 1 and row_values(lookback[1]) == []
    assert row_values(lookback[0]) == sorted(scalar_lookback_breakpoints(model, 100.0, 92.5))
