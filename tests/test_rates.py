import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from idmodds.rates import (
    ExponentialIncidence,
    GompertzParams,
    MortalityRatioParams,
    PositivePartIncidence,
    RateDomainError,
    RateModel,
    TabulatedIncidence,
    reference_rate_model,
)


@pytest.fixture(scope="module")
def model():
    return reference_rate_model()


def quad_oracle(f, lo, hi):
    val, _ = integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


class TestPointValues:
    def test_reference_m0(self, model):
        # exp(-10.7 + 0.1*42.5 + ln(0.998)*100)
        want = math.exp(-10.7 + 0.1 * 42.5 + math.log(0.998) * 100.0)
        assert model.mortality_healthy(100.0, 42.5) == pytest.approx(want, rel=1e-15)
        assert want == pytest.approx(1.294e-3, rel=1e-3)

    def test_reference_incidence(self, model):
        assert model.incidence_rate(100.0, 30.0) == 0.0
        assert model.incidence_rate(100.0, 25.0) == 0.0
        assert model.incidence_rate(100.0, 60.0) == pytest.approx(0.01, rel=1e-15)
        assert model.incidence_rate(0.0, 60.0) == model.incidence_rate(500.0, 60.0)

    def test_reference_ratio(self, model):
        assert model.mortality_ratio(0.0) == pytest.approx(2.0, rel=1e-15)
        assert model.mortality_ratio(5.0) == pytest.approx(1.0, rel=1e-15)
        assert model.mortality_ratio(10.0) == pytest.approx(2.0, rel=1e-15)

    def test_diseased_factorizes_exactly(self, model):
        t, a, d = 103.7, 61.2, 7.9
        lhs = model.mortality_diseased(t, a, d)
        rhs = model.mortality_healthy(t, a) * model.mortality_ratio(d)
        assert lhs == rhs


class TestCumulativeClosedForms:
    def test_m0_against_quadrature(self, model):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = rng.uniform(1.0, 95.0)
            t = rng.uniform(50.0, 150.0)
            delta = rng.uniform(0.0, a)
            want = quad_oracle(lambda tau: model.mortality_healthy(t - delta + tau, a - delta + tau), 0.0, delta)
            got = model.cumulative_m0(t, a, delta)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-15)

    def test_incidence_against_quadrature(self, model):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = rng.uniform(1.0, 95.0)
            t = rng.uniform(50.0, 150.0)
            delta = rng.uniform(0.0, a)
            want = quad_oracle(lambda tau: model.incidence_rate(t - delta + tau, a - delta + tau), 0.0, delta)
            got = model.cumulative_incidence(t, a, delta)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-15)

    def test_m1_against_quadrature(self, model):
        rng = np.random.default_rng(14)
        for _ in range(100):
            a = rng.uniform(1.0, 95.0)
            t = rng.uniform(50.0, 150.0)
            d = rng.uniform(0.0, min(a, 60.0))
            want = quad_oracle(
                lambda tau: model.mortality_diseased(t - d + tau, a - d + tau, tau), 0.0, d
            )
            got = model.cumulative_m1(t, a, d)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-15)

    def test_m1_small_duration_series_branch(self, model):
        # lam*d below the series switch: compare to quadrature, not to the
        # cancellation-prone direct formula.
        for d in (1e-9, 1e-6, 1e-4, 5e-3):
            want = quad_oracle(
                lambda tau: model.mortality_diseased(100.0 - d + tau, 70.0 - d + tau, tau), 0.0, d
            )
            got = model.cumulative_m1(100.0, 70.0, d)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-300)

    def test_m0_additive_in_lookback(self, model):
        t, a = 110.0, 80.0
        whole = model.cumulative_m0(t, a, 50.0)
        part = model.cumulative_m0(t, a, 20.0) + model.cumulative_m0(t - 20.0, a - 20.0, 30.0)
        assert whole == pytest.approx(part, rel=1e-12)

    def test_incidence_piecewise_cases(self, model):
        # segment fully below the onset age
        assert model.cumulative_incidence(100.0, 25.0, 20.0) == 0.0
        # segment fully above: (delta*(a-delta-alpha) + delta^2/2)/D
        got = model.cumulative_incidence(100.0, 50.0, 10.0)
        assert got == pytest.approx((10.0 * 10.0 + 50.0) / 3000.0, rel=1e-14)
        # straddling: (a-alpha)^2/(2 D)
        got = model.cumulative_incidence(100.0, 50.0, 30.0)
        assert got == pytest.approx(400.0 / 6000.0, rel=1e-14)

    def test_vectorized_matches_scalar(self, model):
        deltas = np.array([0.0, 3.0, 17.5, 42.0])
        got = model.cumulative_m1(100.0, 60.0, deltas)
        want = np.array([model.cumulative_m1(100.0, 60.0, float(d)) for d in deltas])
        np.testing.assert_allclose(got, want, rtol=1e-14)
        got = model.cumulative_incidence(100.0, 60.0, deltas)
        want = np.array([model.cumulative_incidence(100.0, 60.0, float(d)) for d in deltas])
        np.testing.assert_allclose(got, want, rtol=1e-14)


class TestExponentialIncidence:
    def test_cumulative_closed_form(self):
        inc = ExponentialIncidence(-6.0, 0.05, -0.002)
        model = RateModel(inc, GompertzParams(-10.7, 0.1, math.log(0.998)), MortalityRatioParams(0.0, 0.0, 1.0))
        rng = np.random.default_rng(15)
        for _ in range(50):
            a = rng.uniform(1.0, 95.0)
            t = rng.uniform(50.0, 150.0)
            delta = rng.uniform(0.0, a)
            want = quad_oracle(lambda tau: inc.rate(t - delta + tau, a - delta + tau), 0.0, delta)
            assert model.cumulative_incidence(t, a, delta) == pytest.approx(want, rel=1e-10)

    def test_zero_slope_branch(self):
        inc = ExponentialIncidence(-4.0, 0.03, -0.03)
        assert inc.cumulative(100.0, 50.0, 10.0) == pytest.approx(10.0 * math.exp(-4.0 + 0.03 * 50.0 - 0.03 * 100.0), rel=1e-14)


class TestTabulatedIncidence:
    @pytest.fixture()
    def tab(self):
        times = np.array([90.0, 100.0, 110.0])
        ages = np.array([0.0, 40.0, 70.0, 95.0])
        table = np.array(
            [
                [0.0, 0.004, 0.012, 0.02],
                [0.0, 0.005, 0.015, 0.025],
                [0.0, 0.006, 0.018, 0.03],
            ]
        )
        return TabulatedIncidence(times, ages, table)

    def test_nodes_reproduced(self, tab):
        assert tab.rate(100.0, 40.0) == pytest.approx(0.005, rel=1e-15)
        assert tab.rate(90.0, 95.0) == pytest.approx(0.02, rel=1e-15)

    def test_bilinear_midpoint(self, tab):
        got = tab.rate(95.0, 55.0)
        want = 0.25 * (0.004 + 0.012 + 0.005 + 0.015)
        assert got == pytest.approx(want, rel=1e-14)

    def test_clamped_outside(self, tab):
        assert tab.rate(80.0, 40.0) == tab.rate(90.0, 40.0)
        assert tab.rate(100.0, 120.0) == tab.rate(100.0, 95.0)

    def test_cumulative_against_quadrature(self, tab):
        model = RateModel(tab, GompertzParams(-10.7, 0.1, math.log(0.998)), MortalityRatioParams(0.04, 5.0, 1.0))
        for (t, a, delta) in [(100.0, 60.0, 35.0), (105.0, 80.0, 60.0), (96.0, 42.0, 42.0)]:
            want = quad_oracle(lambda tau: tab.rate(t - delta + tau, a - delta + tau), 0.0, delta)
            assert model.cumulative_incidence(t, a, delta) == pytest.approx(want, rel=1e-8)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_cumulative_exact_against_quad(self, data):
        # random grids, segments reaching outside the grid (the clamped part)
        # and zero-length segments, in scalar and array calls
        def grid(origin):
            steps = data.draw(st.lists(st.floats(0.5, 40.0), min_size=1, max_size=5))
            return origin + np.concatenate([[0.0], np.cumsum(steps)])

        times = grid(data.draw(st.floats(-20.0, 80.0)))
        ages = grid(data.draw(st.floats(0.0, 40.0)))
        values = st.one_of(st.just(0.0), st.floats(0.0, 0.05))
        table = np.array(data.draw(st.lists(st.lists(values, min_size=len(ages), max_size=len(ages)),
                                            min_size=len(times), max_size=len(times))))
        tab = TabulatedIncidence(times, ages, table)
        segment = st.tuples(
            st.floats(times[0] - 30.0, times[-1] + 30.0),
            st.floats(0.01, ages[-1] + 30.0),
            st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        )
        segments = data.draw(st.lists(segment, min_size=1, max_size=4))
        t, a, share = (np.array(column) for column in zip(*segments))
        delta = share * a

        want = []
        for ti, ai, di in zip(t, a, delta):
            crossings = np.concatenate([ai - ages, ti - times])
            points = crossings[(crossings > 0.0) & (crossings < di)]
            value, _ = integrate.quad(
                lambda u: tab.rate(ti - u, ai - u), 0.0, di, points=points if points.size else None,
                epsabs=0.0, epsrel=1e-13, limit=200,
            )
            want.append(value)
        got = tab.cumulative(t, a, delta)
        assert got.shape == t.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        scalar = tab.cumulative(float(t[0]), float(a[0]), float(delta[0]))
        assert isinstance(scalar, float)
        assert scalar == pytest.approx(want[0], rel=1e-12, abs=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TabulatedIncidence(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            TabulatedIncidence(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            TabulatedIncidence(np.array([0.0, 1.0]), np.array([0.0, 1.0]), -np.ones((2, 2)))


class TestValidation:
    def test_gompertz_degenerate_slope(self):
        with pytest.raises(ValueError):
            GompertzParams(-10.0, 0.1, -0.1)

    def test_ratio_must_stay_positive(self):
        with pytest.raises(ValueError):
            MortalityRatioParams(0.04, 5.0, -2.0)
        with pytest.raises(ValueError):
            MortalityRatioParams(-0.01, 0.0, 1.0, max_duration=50.0)
        # fine when the minimum over the window stays positive
        MortalityRatioParams(-0.0001, 0.0, 2.0, max_duration=50.0)

    def test_domain_errors(self, model):
        with pytest.raises(RateDomainError):
            model.incidence_rate(100.0, -1.0)
        with pytest.raises(RateDomainError):
            model.mortality_ratio(-0.5)
        with pytest.raises(RateDomainError):
            model.mortality_diseased(100.0, 50.0, 51.0)
        with pytest.raises(RateDomainError):
            model.cumulative_m0(100.0, 50.0, -1.0)
        with pytest.raises(RateDomainError):
            model.cumulative_m1(100.0, 50.0, 50.1)

    def test_positive_part_validation(self):
        with pytest.raises(ValueError):
            PositivePartIncidence(denominator=0.0)
        with pytest.raises(ValueError):
            PositivePartIncidence(onset_age=math.nan)
