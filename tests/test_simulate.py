"""Simulator checks: exact-inversion sampling against closed-form and
thinning oracles, cross-section bookkeeping, determinism, serialization."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from idmodds.prevalence import diseased_population, healthy_population, survivor_fraction
from idmodds.quadrature import adaptive_quad
from idmodds.rates import (
    ExponentialIncidence,
    GompertzParams,
    MortalityRatioParams,
    PositivePartIncidence,
    RateModel,
    TabulatedIncidence,
    reference_rate_model,
)
from idmodds.simulate import (
    DEFAULT_AGE_GROUPS,
    AgeGroupTable,
    EmptyStudyError,
    PopulationLedger,
    SimConfig,
    SimulationHorizonError,
    StudySizeError,
    _birth_schedule,
    _course_durations,
    _invert,
    _life_courses,
    calibrate_births_per_year,
    cross_section,
    replicate_study,
    run_simulation,
)


def gompertz_only_model():
    # incidence underflows to exactly zero
    return RateModel(
        ExponentialIncidence(-1000.0, 0.0, 0.0),
        GompertzParams(-10.7, 0.1, math.log(0.998)),
        MortalityRatioParams(0.04, 5.0, 1.0),
    )


def sample_lives(model, births, rng, max_age):
    """Onset and death times for ``births`` followed to ``max_age``, each life taking three draws in turn from ``rng``."""
    draws = np.array([(rng.exponential(), rng.random(), rng.exponential()) for _ in births]).T
    return _life_courses(model, np.asarray(births, dtype=float), *draws, max_age, max_age)


def zero_rate_model():
    return RateModel(
        ExponentialIncidence(-1000.0, 0.0, 0.0),
        GompertzParams(-1000.0, 0.1, 0.0),
        MortalityRatioParams(0.0, 0.0, 1.0),
    )


class TestInvert:
    def test_newton_step_onto_the_root_stops(self):
        # the first Newton step of a linear value lands exactly on each target, which is
        # also the bracket's upper end; the solve must stop there instead of bisecting on
        calls = []

        def value_at(i, s):
            calls.append(i.size)
            return np.array(s, dtype=float)

        target = np.array([3.0, 1.25, 8.75])
        out = _invert(value_at, lambda i, s: np.ones(i.size), target, np.full(target.size, 10.0))
        np.testing.assert_array_equal(out, target)
        # one call to screen the caps, one at the bracket midpoint, one at the root
        assert len(calls) <= 3


class TestSampleLife:
    def test_zero_rates_censored(self):
        rng = np.random.default_rng(0)
        (onset,), (death,) = sample_lives(zero_rate_model(), [10.0], rng, SimConfig.max_age)
        assert math.isnan(onset) and math.isnan(death)

    def test_draws_independent_of_life_path(self):
        # identically seeded rngs stay aligned whether the life ends in
        # censoring, plain death, or onset plus death
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        for birth in (0.0, 20.0, 40.0, 60.0):
            sample_lives(reference_rate_model(), [birth], rng_a, SimConfig.max_age)
            sample_lives(zero_rate_model(), [birth], rng_b, SimConfig.max_age)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_ordering_invariants_hold(self):
        model = reference_rate_model()
        rng = np.random.default_rng(11)
        # each life draws its birth, then its exit, type and duration draws
        lives = np.array(
            [(rng.uniform(0.0, 65.0), rng.exponential(), rng.random(), rng.exponential()) for _ in range(500)]
        ).T
        birth = lives[0]
        onset, death = _life_courses(model, birth, *lives[1:], SimConfig.max_age, SimConfig.max_age)
        # PopulationLedger validates birth < onset < death on construction
        PopulationLedger(birth, onset, death)
        assert np.all(onset[~np.isnan(onset)] > birth[~np.isnan(onset)])
        assert np.all(death[~np.isnan(death)] > birth[~np.isnan(death)])

    def test_gompertz_death_distribution(self):
        # no incidence: age at death must follow the closed-form survival law
        model = gompertz_only_model()
        rng = np.random.default_rng(42)
        births = 20.0
        onset, death = sample_lives(model, np.full(10**5, births), rng, max_age=500.0)
        assert np.all(np.isnan(onset)) and not np.any(np.isnan(death))
        ages = death - births

        def cdf(s):
            s = np.asarray(s, dtype=float)
            out = np.empty_like(s)
            for idx, value in np.ndenumerate(s):
                out[idx] = 1.0 - math.exp(-float(model.cumulative_m0(births + value, value, value)))
            return out

        result = stats.kstest(ages, cdf)
        assert result.pvalue > 0.01

    def test_onset_fraction_matches_analytic(self):
        model = reference_rate_model()
        rng = np.random.default_rng(7)
        birth, horizon = 30.0, 60.0
        n = 20000
        onset, _ = sample_lives(model, np.full(n, birth), rng, max_age=horizon)
        onsets = np.count_nonzero(~np.isnan(onset))
        # analytic probability of onset before the horizon age: integral of
        # incidence times the stay-healthy fraction
        from idmodds.quadrature import adaptive_quad

        want = adaptive_quad(
            lambda y: np.asarray(model.incidence_rate(birth + np.asarray(y), np.asarray(y)))
            * np.array(
                [survivor_fraction(model, birth + v, v, v) for v in np.atleast_1d(y)]
            ),
            0.0,
            horizon,
            breakpoints=[30.0],
        )
        se = math.sqrt(want * (1.0 - want) / n)
        assert abs(onsets / n - want) < 4.0 * se

    @pytest.mark.parametrize(
        "incidence", [PositivePartIncidence(), ExponentialIncidence(-6.5, 0.04, -0.01)], ids=["positive_part", "exponential"]
    )
    def test_sampled_times_solve_the_hazards(self, incidence):
        # the first exit spends the exit draw on the healthy hazard, the
        # disease duration spends the duration draw on the course hazard
        model = RateModel(incidence, GompertzParams(-10.7, 0.1, math.log(0.998)), MortalityRatioParams(0.04, 5.0, 1.0))
        rng = np.random.default_rng(17)
        n, max_age = 4000, 110.0
        birth = rng.uniform(0.0, 65.0, n)
        exit_draws, type_draws, duration_draws = rng.exponential(size=n), rng.random(n), rng.exponential(size=n)
        onset, death = _life_courses(model, birth, exit_draws, type_draws, duration_draws, max_age, max_age)

        exit_age = np.fmin(onset, death) - birth
        exited = ~np.isnan(exit_age)
        age = exit_age[exited]
        healthy = model.cumulative_m0(birth[exited] + age, age, age) + model.cumulative_incidence(
            birth[exited] + age, age, age
        )
        np.testing.assert_allclose(healthy, exit_draws[exited], rtol=1e-9)
        at_cap = model.cumulative_m0(birth + max_age, max_age, max_age) + model.cumulative_incidence(
            birth + max_age, max_age, max_age
        )
        assert np.all(at_cap[~exited] < exit_draws[~exited])

        sick = ~np.isnan(onset)
        died = sick & ~np.isnan(death)
        assert np.count_nonzero(died) > 0
        duration = death[died] - onset[died]
        course = model.cumulative_m1(death[died], death[died] - birth[died], duration)
        np.testing.assert_allclose(course, duration_draws[died], rtol=1e-9)
        alive = sick & np.isnan(death)
        cap = max_age - (onset[alive] - birth[alive])
        assert np.all(model.cumulative_m1(onset[alive] + cap, max_age, cap) < duration_draws[alive])

    @pytest.mark.parametrize("family", ["positive_part", "tabulated"])
    def test_life_independent_of_chunking(self, family):
        # a life's events depend on its own draws alone, not on which lives share its batch
        model = RateModel(
            FOLLOW_UP_MODELS[family], GompertzParams(-10.7, 0.1, math.log(0.998)), MortalityRatioParams(0.04, 5.0, 1.0)
        )
        rng = np.random.default_rng(23)
        n = 300
        birth = rng.uniform(0.0, 65.0, n)
        draws = rng.exponential(size=n), rng.random(n), rng.exponential(size=n)
        cfg = SimConfig()
        end_age = cfg.cross_section_time - birth
        default = _life_courses(model, birth, *draws, cfg.max_age, end_age)
        assert np.count_nonzero(~np.isnan(default[0])) > 0
        for chunk in (1, 7):
            parts = [slice(start, start + chunk) for start in range(0, n, chunk)]
            chunked = [_life_courses(model, birth[p], *(d[p] for d in draws), cfg.max_age, end_age[p]) for p in parts]
            for want, got in zip(default, (np.concatenate(column) for column in zip(*chunked))):
                np.testing.assert_array_equal(got, want)

    def test_course_duration_distribution(self):
        # onset two years before max_age: the duration either follows the
        # survival law 1 - exp(-cumulative_m1) or is censored at the cap
        model = reference_rate_model()
        onset_time, onset_age, max_age = 100.0, 108.0, 110.0
        cap = max_age - onset_age
        n = 20000
        draws = np.random.default_rng(41).exponential(size=n)
        duration = _course_durations(model, np.full(n, onset_time), np.full(n, onset_age), draws, max_age)

        def law(d):
            return -np.expm1(-model.cumulative_m1(onset_time + d, onset_age + d, d))

        censored = np.isnan(duration)
        want_censored = 1.0 - law(cap)
        se = math.sqrt(want_censored * (1.0 - want_censored) / n)
        assert abs(np.count_nonzero(censored) / n - want_censored) < 4.0 * se
        assert np.all(duration[~censored] <= cap)
        result = stats.kstest(duration[~censored], lambda d: law(np.asarray(d)) / law(cap))
        assert result.pvalue > 0.01

    def test_ratio_positive_only_up_to_max_duration_rejected(self):
        # R(d) = -1e-4 d^2 + 1.1 is positive on [0, 100] but not at d = 110
        model = RateModel(
            ExponentialIncidence(), GompertzParams(-10.7, 0.1, math.log(0.998)), MortalityRatioParams(-1e-4, 0.0, 1.1)
        )
        with pytest.raises(SimulationHorizonError, match="max_age=110"):
            sample_lives(model, [10.0], np.random.default_rng(0), max_age=110.0)
        with pytest.raises(ValueError, match="max_age=110"):
            run_simulation(model, SimConfig(births_per_year=1.0))
        sample_lives(model, [10.0], np.random.default_rng(0), max_age=100.0)

    def test_study_size_cap_raises_before_any_draw(self, monkeypatch):
        import idmodds.simulate

        def unreachable(*args):
            raise AssertionError("births were scheduled for an oversized study")

        monkeypatch.setattr(idmodds.simulate, "_birth_schedule", unreachable)
        # 1e9 births a year over the 65-year window would be 6.5e10 lives
        with pytest.raises(StudySizeError, match="6.5e\\+10 lives"):
            run_simulation(reference_rate_model(), SimConfig(births_per_year=1e9))
        with pytest.raises(StudySizeError):
            run_simulation(reference_rate_model(), SimConfig(target_alive=1e12))


def per_year_birth_times(lo, hi, births_per_year, jitter):
    """Birth times over the window [lo, hi] as the per-year loop that preceded the array schedule laid them out."""
    span = hi - lo
    n_slices = int(math.ceil(span - 1e-12))
    starts, lengths, counts = [], [], []
    previous = 0
    for j in range(n_slices):
        slice_hi = min(float(j + 1), span)
        cumulative = int(round(births_per_year * slice_hi))
        counts.append(cumulative - previous)
        previous = cumulative
        starts.append(lo + float(j))
        lengths.append(slice_hi - float(j))
    birth = np.empty(sum(counts))
    position = 0
    for start, length, count in zip(starts, lengths, counts):
        birth[position : position + count] = start + jitter[position : position + count] * length
        position += count
    return birth


# Whole, reference and tie rates: at 0.5, 1.5 and 2.5 births a year cumulative counts land on
# rounding ties, and at 3.833333333333333 the product with 3 years rounds up to the tie 11.5, so
# the first slice guessed for life 11 is one too late.
SCHEDULE_RATES = [0.5, 1.0, 1.5, 2.5, 3.833333333333333, 1985.0888100629938]


class TestBirthSchedule:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        lo=st.floats(-300.0, 100.0),
        span=st.one_of(st.floats(1e-15, 400.0), st.integers(1, 400).map(float)),
        births_per_year=st.one_of(st.floats(1e-3, 300.0), st.sampled_from(SCHEDULE_RATES)),
    )
    def test_matches_per_year_loop(self, lo, span, births_per_year):
        hi = lo + span
        assume(lo < hi)
        birth = _birth_schedule(lo, hi - lo, births_per_year, np.random.default_rng(0))
        expected = per_year_birth_times(lo, hi, births_per_year, np.random.default_rng(0).random(birth.size))
        np.testing.assert_array_equal(birth, expected)

    def test_births_after_cross_section_are_not_simulated(self):
        # 0.01 births a year: one life before t = 100, born in [50, 51) and so held by the group, 9 999 after it
        config = SimConfig(births_per_year=0.01, birth_window=(0.0, 1e6), age_groups=((45.0, 50.0),))
        ledger = run_simulation(reference_rate_model(), config)
        assert len(ledger) == 1
        assert ledger.birth[0] < config.cross_section_time

    def test_long_window_scales_with_lives(self):
        class ZeroJitter:
            def random(self, size):
                return np.zeros(size)

        span, rate = 1e12, 1e-8
        start = _birth_schedule(0.0, span, rate, ZeroJitter())
        assert start.size == round(rate * span)
        assert np.all(start == np.floor(start))
        # life i lies in the first slice whose cumulative rounded count exceeds i
        life = np.arange(start.size)
        assert np.all(np.round(rate * start) <= life)
        assert np.all(np.round(rate * (start + 1.0)) > life)

    def test_window_too_long_to_number_raises(self):
        config = SimConfig(
            births_per_year=1e-12,
            birth_window=(-(2.0**53), 0.0),
            cross_section_time=0.0,
            age_groups=((10.0, 20.0),),
            max_age=1e17,
        )
        with pytest.raises(StudySizeError, match="birth window"):
            run_simulation(reference_rate_model(), config)


class TestTabulatedIncidenceSampling:
    def test_first_exit_matches_thinning_oracle(self):
        times = np.array([0.0, 60.0, 120.0])
        ages = np.array([0.0, 30.0, 60.0, 120.0])
        table = np.array(
            [
                [0.000, 0.002, 0.010, 0.012],
                [0.000, 0.004, 0.014, 0.018],
                [0.000, 0.006, 0.020, 0.024],
            ]
        )
        model = RateModel(
            TabulatedIncidence(times, ages, table),
            GompertzParams(-9.0, 0.085, -0.001),
            MortalityRatioParams(0.0, 0.0, 1.5),
        )
        birth, cap = 10.0, 90.0

        rng = np.random.default_rng(31)
        onset, death = sample_lives(model, np.full(1200, birth), rng, max_age=cap)
        first = np.fmin(onset, death)
        exact_ages = first[~np.isnan(first)] - birth

        def total_rate(age):
            return float(
                model.incidence_rate(birth + age, age) + model.mortality_healthy(birth + age, age)
            )

        majorant = max(total_rate(a) for a in np.linspace(0.0, cap, 400)) * 1.05
        thinned_ages = []
        rng = np.random.default_rng(32)
        for _ in range(1200):
            age = 0.0
            while True:
                age += rng.exponential() / majorant
                if age > cap:
                    break
                if rng.random() * majorant < total_rate(age):
                    thinned_ages.append(age)
                    break

        result = stats.ks_2samp(exact_ages, thinned_ages)
        assert result.pvalue > 0.01


class TestConfig:
    def test_defaults_valid(self):
        cfg = SimConfig()
        assert len(cfg.age_groups) == 11
        assert cfg.age_groups[0] == (40.0, 45.0) and cfg.age_groups[-1] == (90.0, 95.0)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SimConfig(birth_window=(10.0, 10.0))

    def test_unreachable_group(self):
        with pytest.raises(ValueError):
            SimConfig(birth_window=(0.0, 4.0), cross_section_time=100.0)

    def test_overlapping_groups(self):
        with pytest.raises(ValueError):
            SimConfig(age_groups=((40.0, 50.0), (45.0, 55.0)))

    def test_negative_age_group_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SimConfig(age_groups=((-5.0, 5.0), (40.0, 45.0)), birth_window=(0.0, 150.0))

    def test_open_ended_group_rejected(self):
        # its table could not be fitted: a group's prevalence is taken at its midpoint
        with pytest.raises(ValueError, match="finite limits"):
            SimConfig(age_groups=((40.0, 45.0), (90.0, math.inf)))

    def test_max_age_covers_window(self):
        with pytest.raises(ValueError):
            SimConfig(birth_window=(0.0, 65.0), cross_section_time=100.0, max_age=80.0)

    def test_nonpositive_birth_rate(self):
        with pytest.raises(ValueError):
            SimConfig(births_per_year=0.0)


class TestRunSimulation:
    def test_single_birth(self):
        cfg = SimConfig(
            births_per_year=1.0,
            birth_window=(0.0, 1.0),
            cross_section_time=1.0,
            age_groups=((0.0, 1.0),),
            rng_seed=3,
            max_age=110.0,
        )
        ledger = run_simulation(zero_rate_model(), cfg)
        assert len(ledger) == 1
        assert 0.0 <= ledger.birth[0] < 1.0

    def test_cumulative_rounding_of_birth_counts(self):
        cfg = SimConfig(
            births_per_year=2.5,
            birth_window=(0.0, 2.0),
            cross_section_time=2.0,
            age_groups=((0.0, 2.0),),
            rng_seed=3,
        )
        ledger = run_simulation(zero_rate_model(), cfg)
        assert len(ledger) == 5

    def test_determinism(self):
        model = reference_rate_model()
        cfg = SimConfig(births_per_year=50.0, rng_seed=123)
        a = run_simulation(model, cfg)
        b = run_simulation(model, cfg)
        np.testing.assert_array_equal(a.birth, b.birth)
        np.testing.assert_array_equal(a.onset, b.onset)
        np.testing.assert_array_equal(a.death, b.death)

    def test_smr_recovers_flat_mortality_ratio(self):
        # with a duration-independent ratio, observed diseased deaths over
        # expected deaths at healthy rates estimates the ratio
        ratio_true = 3.0
        model = RateModel(
            PositivePartIncidence(),
            GompertzParams(-10.7, 0.1, math.log(0.998)),
            MortalityRatioParams(0.0, 0.0, ratio_true),
        )
        cfg = SimConfig(births_per_year=600.0, rng_seed=99)
        ledger = run_simulation(model, cfg)
        has_onset = ~np.isnan(ledger.onset)
        # exposure ends at death, or where follow-up stops: max_age or the cross-section, whichever comes first
        follow_up_end = np.minimum(ledger.birth + cfg.max_age, cfg.cross_section_time)
        stop = np.where(np.isnan(ledger.death), follow_up_end, ledger.death)
        observed = np.count_nonzero(has_onset & ~np.isnan(ledger.death))
        onset_t = ledger.onset[has_onset]
        stop_t = stop[has_onset]
        birth_t = ledger.birth[has_onset]
        expected = float(
            np.sum(
                model.cumulative_m0(stop_t, stop_t - birth_t, stop_t - onset_t)
            )
        )
        estimate = observed / expected
        se = math.sqrt(observed) / expected
        assert abs(estimate - ratio_true) < 3.0 * se


FOLLOW_UP_MODELS = {
    "positive_part": PositivePartIncidence(),
    "exponential": ExponentialIncidence(-8.5, 0.05, 0.005),
    "tabulated": TabulatedIncidence(
        np.array([0.0, 60.0, 120.0]),
        np.array([0.0, 30.0, 60.0, 120.0]),
        np.array([[0.0, 0.0, 0.010, 0.030], [0.0, 0.0, 0.012, 0.032], [0.0, 0.0, 0.014, 0.036]]),
    ),
}


class TestFollowUpToCrossSection:
    @pytest.mark.parametrize("family", sorted(FOLLOW_UP_MODELS))
    def test_matches_follow_up_to_max_age(self, family, monkeypatch):
        # the oracle follows the same draws to max_age
        import idmodds.simulate

        model = RateModel(
            FOLLOW_UP_MODELS[family], GompertzParams(-10.7, 0.1, math.log(0.998)), MortalityRatioParams(0.04, 5.0, 1.0)
        )
        follow_up = idmodds.simulate._life_courses

        def follow_to_max_age(model, birth, exit_draws, type_draws, duration_draws, max_age, end_age):
            return follow_up(model, birth, exit_draws, type_draws, duration_draws, max_age, max_age)

        for seed in (0, 1, 2):
            cfg = SimConfig(births_per_year=100.0, rng_seed=seed)
            fast = run_simulation(model, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(idmodds.simulate, "_life_courses", follow_to_max_age)
                oracle = run_simulation(model, cfg)
            t_cross = cfg.cross_section_time
            np.testing.assert_array_equal(fast.birth, oracle.birth)
            for got, full in ((fast.onset, oracle.onset), (fast.death, oracle.death)):
                assert not np.any(got > t_cross)
                seen = np.where(full <= t_cross, full, np.nan)
                assert np.count_nonzero(~np.isnan(seen)) > 0
                np.testing.assert_allclose(got, seen, rtol=0.0, atol=1e-9)
            assert np.count_nonzero(~np.isnan(oracle.death) & (oracle.death > t_cross)) > 0
            fast_table, oracle_table = cross_section(fast, cfg), cross_section(oracle, cfg)
            np.testing.assert_array_equal(fast_table.n, oracle_table.n)
            np.testing.assert_array_equal(fast_table.c, oracle_table.c)


def in_any_group(age, groups):
    """Whether each age lies in one of the groups [lo, hi), written out apart from the module's rule."""
    return np.array([any(lo <= x < hi for lo, hi in groups) for x in np.asarray(age).tolist()], dtype=bool)


# Group layouts reachable from the default window at t = 100, with gaps between groups and, in
# the last, groups touching at 62 and one clipped to the ages the window reaches (up to 100).
HELD_LAYOUTS = [
    ((40.0, 45.0), (55.0, 56.5), (80.0, 95.0)),
    ((37.25, 41.0), (60.0, 62.0), (62.0, 70.0), (99.0, 130.0)),
]


class TestHeldLives:
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(
        first=st.floats(35.5, 60.0),
        steps=st.lists(st.tuples(st.floats(0.0, 8.0), st.floats(0.25, 12.0)), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ledger_holds_the_births_a_group_can_hold(self, first, steps, seed):
        groups, lo = [], first
        for gap, width in steps:
            lo += gap
            if lo >= 100.0:
                break
            groups.append((lo, lo + width))
            lo += width
        cfg = SimConfig(births_per_year=20.0, age_groups=tuple(groups), rng_seed=seed)
        ledger = run_simulation(reference_rate_model(), cfg)
        # every birth is drawn, in the schedule's order; the ledger keeps the held ones
        schedule = _birth_schedule(0.0, 65.0, cfg.births_per_year, np.random.default_rng(seed))
        np.testing.assert_array_equal(ledger.birth, schedule[in_any_group(cfg.cross_section_time - schedule, groups)])
        assert np.all(in_any_group(cfg.cross_section_time - ledger.birth, groups))

    @pytest.mark.parametrize("layout", HELD_LAYOUTS)
    @pytest.mark.parametrize("family", ["exponential", "tabulated"])
    def test_tables_match_solving_every_life(self, family, layout, monkeypatch):
        # the oracle holds every life, so it solves all births in the window
        import idmodds.simulate

        model = RateModel(
            FOLLOW_UP_MODELS[family], GompertzParams(-10.7, 0.1, math.log(0.998)), MortalityRatioParams(0.04, 5.0, 1.0)
        )
        for seed in (0, 1, 2):
            cfg = SimConfig(births_per_year=60.0, age_groups=layout, rng_seed=seed)
            held = run_simulation(model, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(idmodds.simulate, "_in_group", lambda age, lo, hi: np.ones(age.shape, dtype=bool))
                oracle = run_simulation(model, cfg)
            assert len(oracle) == round(60.0 * 65.0) > len(held)
            kept = in_any_group(cfg.cross_section_time - oracle.birth, layout)
            for column in ("birth", "onset", "death"):
                np.testing.assert_array_equal(getattr(held, column), getattr(oracle, column)[kept])
            held_table, oracle_table = cross_section(held, cfg), cross_section(oracle, cfg)
            assert held_table.n_total > held_table.c_total > 0
            np.testing.assert_array_equal(held_table.n, oracle_table.n)
            np.testing.assert_array_equal(held_table.c, oracle_table.c)

    @pytest.mark.parametrize("family", ["positive_part", "tabulated"])
    def test_chunk_size_changes_no_table(self, family, monkeypatch):
        import idmodds.simulate

        model = RateModel(
            FOLLOW_UP_MODELS[family], GompertzParams(-10.7, 0.1, math.log(0.998)), MortalityRatioParams(0.04, 5.0, 1.0)
        )
        cfg = SimConfig(births_per_year=8.0, age_groups=HELD_LAYOUTS[0], rng_seed=4)
        default = run_simulation(model, cfg)
        table = cross_section(default, cfg)
        assert table.n_total > 0
        for chunk in (1, 7, 100):
            monkeypatch.setattr(idmodds.simulate, "_CHUNK", chunk)
            ledger = run_simulation(model, cfg)
            for column in ("birth", "onset", "death"):
                np.testing.assert_array_equal(getattr(ledger, column), getattr(default, column))
            chunked = cross_section(ledger, cfg)
            np.testing.assert_array_equal(chunked.n, table.n)
            np.testing.assert_array_equal(chunked.c, table.c)

    def test_group_edges_follow_one_rule(self, monkeypatch):
        # births placed at exact ages: a group holds its lower limit and not its upper one,
        # in the selection and in the table alike
        import idmodds.simulate

        ages = np.array([39.5, 40.0, 44.5, 45.0, 50.0, 54.0, 55.0])
        monkeypatch.setattr(idmodds.simulate, "_birth_schedule", lambda lo, span, rate, rng: 100.0 - ages)
        cfg = SimConfig(births_per_year=1.0, age_groups=((40.0, 45.0), (50.0, 55.0)))
        ledger = run_simulation(zero_rate_model(), cfg)
        np.testing.assert_array_equal(100.0 - ledger.birth, [40.0, 44.5, 50.0, 54.0])
        assert cross_section(ledger, cfg).n.tolist() == [2, 2]
        # with zero rates every life of the ledger is alive and counted
        assert np.all(np.isnan(ledger.death))


class TestCrossSection:
    def test_empty_ledger(self):
        empty = PopulationLedger(np.array([]), np.array([]), np.array([]))
        table = cross_section(empty, SimConfig())
        assert table.n_total == 0 and table.c_total == 0

    def test_single_diseased_individual(self):
        ledger = PopulationLedger(
            np.array([59.0]), np.array([80.0]), np.array([math.nan])
        )
        table = cross_section(ledger, SimConfig())
        assert table.n.tolist() == [1] + [0] * 10
        assert table.c.tolist() == [1] + [0] * 10

    def test_dead_and_future_onset_excluded(self):
        ledger = PopulationLedger(
            np.array([59.0, 59.0, 59.0]),
            np.array([np.nan, 101.0, 90.0]),
            np.array([np.nan, np.nan, 99.0]),
        )
        table = cross_section(ledger, SimConfig())
        assert table.n_total == 2
        assert table.c_total == 0

    def test_counts_bounded_by_births(self):
        model = reference_rate_model()
        cfg = SimConfig(births_per_year=80.0, rng_seed=5)
        ledger = run_simulation(model, cfg)
        table = cross_section(ledger, cfg)
        assert table.n_total <= len(ledger)
        assert np.all(table.c <= table.n)


class TestCalibration:
    def test_expected_alive_matches_target(self):
        model = reference_rate_model()
        cfg = SimConfig(rng_seed=7)
        bpy = calibrate_births_per_year(model, cfg)
        table = cross_section(run_simulation(model, cfg), cfg)
        assert abs(table.n_total - cfg.target_alive) < 3.0 * math.sqrt(cfg.target_alive)
        assert bpy > 0.0

    def test_scales_linearly_with_target(self):
        model = reference_rate_model()
        base = calibrate_births_per_year(model, SimConfig(target_alive=1000.0))
        double = calibrate_births_per_year(model, SimConfig(target_alive=2000.0))
        assert double == pytest.approx(2.0 * base, rel=1e-12)

    @pytest.mark.parametrize(
        "family, window, groups",
        [
            ("reference", (0.0, 65.0), DEFAULT_AGE_GROUPS),
            ("tabulated", (0.0, 65.0), DEFAULT_AGE_GROUPS),
            ("reference", (7.5, 57.5), DEFAULT_AGE_GROUPS),
            ("reference", (0.0, 65.0), tuple((40.0 + j, 41.0 + j) for j in range(55))),
        ],
        ids=["reference", "tabulated", "clipped-window", "one-year-groups"],
    )
    def test_batch_equals_per_group_integrals_in_order(self, family, window, groups):
        # the clipped window reaches ages 42.5 to 92.5 only, inside the first and last groups;
        # over the 55 one-year groups, numpy's pairwise sum of the same integrals differs in the last bit
        model = reference_rate_model()
        if family == "tabulated":
            model = RateModel(FOLLOW_UP_MODELS["tabulated"], model.m0, model.ratio)
        cfg = SimConfig(birth_window=window, age_groups=groups)
        t_cross = cfg.cross_section_time

        def alive_density(ages):
            return healthy_population(model, t_cross, ages) + diseased_population(model, t_cross, ages)

        expected = 0.0
        for glo, ghi in cfg.age_groups:
            lo, hi = max(glo, t_cross - window[1]), min(ghi, t_cross - window[0])
            expected += adaptive_quad(alive_density, lo, hi)
        assert calibrate_births_per_year(model, cfg) == cfg.target_alive / expected

    def test_reference_rate_keeps_its_bits(self):
        assert calibrate_births_per_year(reference_rate_model(), SimConfig()) == 1985.0888100629938

    def test_nobody_alive_raises_typed_error(self):
        # reachable groups, but a healthy mortality that underflows the alive density to 0
        model = RateModel(PositivePartIncidence(), GompertzParams(-10.7, 0.1, 0.5), reference_rate_model().ratio)
        with pytest.raises(EmptyStudyError, match="no one expected alive"):
            calibrate_births_per_year(model, SimConfig())
        with pytest.raises(EmptyStudyError):
            replicate_study(model, SimConfig(), 1)


class TestReplicates:
    def test_singleton_equals_direct_run(self):
        model = reference_rate_model()
        cfg = SimConfig(births_per_year=60.0, rng_seed=21)
        [table] = replicate_study(model, cfg, 1)
        direct = cross_section(run_simulation(model, cfg), cfg)
        np.testing.assert_array_equal(table.n, direct.n)
        np.testing.assert_array_equal(table.c, direct.c)

    def test_replicates_differ(self):
        model = reference_rate_model()
        cfg = SimConfig(births_per_year=60.0, rng_seed=21)
        a, b = replicate_study(model, cfg, 2)
        assert not (np.array_equal(a.n, b.n) and np.array_equal(a.c, b.c))

    def test_worker_count_does_not_change_results(self):
        model = reference_rate_model()
        cfg = SimConfig(births_per_year=40.0, rng_seed=33)
        serial = replicate_study(model, cfg, 3, workers=1)
        parallel = replicate_study(model, cfg, 3, workers=3)
        for x, y in zip(serial, parallel):
            np.testing.assert_array_equal(x.n, y.n)
            np.testing.assert_array_equal(x.c, y.c)

    def test_replicate_count_validated(self):
        with pytest.raises(ValueError):
            replicate_study(reference_rate_model(), SimConfig(births_per_year=1.0), 0)


class TestSerialization:
    def test_table_round_trip(self, tmp_path):
        table = AgeGroupTable(
            100.0,
            np.array([40.0, 45.0]),
            np.array([45.0, 50.0]),
            np.array([100, 90]),
            np.array([5, 9]),
        )
        path = tmp_path / "table.csv"
        table.to_csv(path)
        loaded = AgeGroupTable.from_csv(path, cross_section_time=100.0)
        np.testing.assert_array_equal(loaded.n, table.n)
        np.testing.assert_array_equal(loaded.c, table.c)
        np.testing.assert_array_equal(loaded.age_lo, table.age_lo)
        assert path.read_text().splitlines()[0] == "k,age_lo,age_hi,n,c"

    def test_malformed_table_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,age_lo,age_hi,n,c\n1,40.0,45.0,100,5\n2,45.0,fifty,90,9\n")
        with pytest.raises(ValueError, match="line 3"):
            AgeGroupTable.from_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="line 1"):
            AgeGroupTable.from_csv(path)

    def test_count_invariant_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,age_lo,age_hi,n,c\n1,40.0,45.0,5,100\n")
        with pytest.raises(ValueError, match="0 <= c <= n"):
            AgeGroupTable.from_csv(path)

    @pytest.mark.parametrize(
        "row", ["1,40.0,45.0,100000000000000000000000,5", "1,40.0,45.0,100,-100000000000000000000000"]
    )
    def test_oversized_count_rejected(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"k,age_lo,age_hi,n,c\n{row}\n")
        with pytest.raises(ValueError, match="counts must fit in a 64-bit integer"):
            AgeGroupTable.from_csv(path)

    @pytest.mark.parametrize("row", ["1,nan,45.0,100,5", "1,40.0,nan,100,5", "1,40.0,inf,100,5"])
    def test_non_finite_age_limit_rejected(self, tmp_path, row):
        # every comparison with NaN is false, so no ordering check can catch it
        path = tmp_path / "bad.csv"
        path.write_text(f"k,age_lo,age_hi,n,c\n{row}\n")
        with pytest.raises(ValueError, match="age limits must be finite"):
            AgeGroupTable.from_csv(path)


class TestLifeRecordValidation:
    """Every life in a ledger must run birth < onset < death, the events present."""

    def test_onset_before_birth(self):
        with pytest.raises(ValueError, match="onset must come after the birth"):
            PopulationLedger(np.array([10.0]), np.array([9.0]), np.array([np.nan]))

    def test_death_before_onset(self):
        with pytest.raises(ValueError, match="death must come after birth and onset"):
            PopulationLedger(np.array([10.0]), np.array([20.0]), np.array([15.0]))

    def test_ledger_validation(self):
        # a death before the birth of a life without onset, behind a valid life
        with pytest.raises(ValueError, match="death must come after birth and onset"):
            PopulationLedger(np.array([1.0, 10.0]), np.array([5.0, np.nan]), np.array([9.0, 8.0]))
        with pytest.raises(ValueError, match="matching 1-D arrays"):
            PopulationLedger(np.array([1.0, 2.0]), np.array([np.nan]), np.array([np.nan, np.nan]))
