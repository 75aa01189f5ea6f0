"""Simulator checks: exact-inversion sampling against closed-form and
thinning oracles, cross-section bookkeeping, determinism, serialization."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from idmodds.prevalence import survivor_fraction
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
    LifeRecord,
    PopulationLedger,
    SimConfig,
    SimulationHorizonError,
    StudySizeError,
    _birth_schedule,
    _course_durations,
    _life_courses,
    calibrate_births_per_year,
    cross_section,
    replicate_study,
    run_simulation,
    sample_life,
)


def gompertz_only_model():
    # incidence underflows to exactly zero
    return RateModel(
        ExponentialIncidence(-1000.0, 0.0, 0.0),
        GompertzParams(-10.7, 0.1, math.log(0.998)),
        MortalityRatioParams(0.04, 5.0, 1.0),
    )


def sample_lives(model, births, rng, max_age):
    """Onset and death times for ``births`` from the draws sample_life would take, in one array call."""
    draws = np.array([(rng.exponential(), rng.random(), rng.exponential()) for _ in births]).T
    return _life_courses(model, np.asarray(births, dtype=float), *draws, max_age)


def zero_rate_model():
    return RateModel(
        ExponentialIncidence(-1000.0, 0.0, 0.0),
        GompertzParams(-1000.0, 0.1, 0.0),
        MortalityRatioParams(0.0, 0.0, 1.0),
    )


class TestSampleLife:
    def test_zero_rates_censored(self):
        rng = np.random.default_rng(0)
        record = sample_life(zero_rate_model(), 10.0, rng)
        assert record.onset_time is None and record.death_time is None

    def test_draws_independent_of_life_path(self):
        # identically seeded rngs stay aligned whether the life ends in
        # censoring, plain death, or onset plus death
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        for birth in (0.0, 20.0, 40.0, 60.0):
            sample_life(reference_rate_model(), birth, rng_a)
            sample_life(zero_rate_model(), birth, rng_b)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_ordering_invariants_hold(self):
        model = reference_rate_model()
        rng = np.random.default_rng(11)
        for _ in range(500):
            record = sample_life(model, float(rng.uniform(0.0, 65.0)), rng)
            # LifeRecord validates birth < onset < death on construction
            if record.onset_time is not None:
                assert record.onset_time > record.birth_time
            if record.death_time is not None:
                assert record.death_time > record.birth_time

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
        onset, death = _life_courses(model, birth, exit_draws, type_draws, duration_draws, max_age)

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

    def test_one_life_matches_batch(self):
        model = reference_rate_model()
        births = np.random.default_rng(3).uniform(0.0, 65.0, 300)
        rng_one, rng_batch = np.random.default_rng(23), np.random.default_rng(23)
        records = [sample_life(model, float(b), rng_one) for b in births]
        onset, death = sample_lives(model, births, rng_batch, SimConfig.max_age)
        for record, o, d in zip(records, onset, death):
            assert record == LifeRecord(record.birth_time, None if math.isnan(o) else o, None if math.isnan(d) else d)
        assert rng_one.bit_generator.state == rng_batch.bit_generator.state

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
            sample_life(model, 10.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="max_age=110"):
            run_simulation(model, SimConfig(births_per_year=1.0))
        sample_life(model, 10.0, np.random.default_rng(0), max_age=100.0)

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
        # 0.01 births a year: one life before t = 100, 9 999 after it
        config = SimConfig(births_per_year=0.01, birth_window=(0.0, 1e6), age_groups=((40.0, 45.0),))
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
        stop = np.where(np.isnan(ledger.death), ledger.birth + cfg.max_age, ledger.death)
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

    def test_ledger_round_trip(self, tmp_path):
        ledger = PopulationLedger(
            np.array([1.0, 2.0, 3.0]),
            np.array([np.nan, 30.0, np.nan]),
            np.array([50.0, 60.0, np.nan]),
        )
        path = tmp_path / "ledger.csv"
        ledger.to_csv(path)
        loaded = PopulationLedger.from_csv(path)
        np.testing.assert_array_equal(loaded.birth, ledger.birth)
        np.testing.assert_array_equal(loaded.onset, ledger.onset)
        np.testing.assert_array_equal(loaded.death, ledger.death)
        assert path.read_text().splitlines()[0] == "birth,onset,death"

    def test_record_accessor(self):
        ledger = PopulationLedger(np.array([1.0]), np.array([np.nan]), np.array([np.nan]))
        assert ledger.record(0) == LifeRecord(1.0, None, None)


class TestLifeRecordValidation:
    def test_onset_before_birth(self):
        with pytest.raises(ValueError):
            LifeRecord(10.0, 9.0, None)

    def test_death_before_onset(self):
        with pytest.raises(ValueError):
            LifeRecord(10.0, 20.0, 15.0)

    def test_ledger_validation(self):
        with pytest.raises(ValueError):
            PopulationLedger(np.array([10.0]), np.array([9.0]), np.array([np.nan]))
