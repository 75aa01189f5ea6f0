import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from idmodds.fit import FitConfig, _LikelihoodPlan
from idmodds.prevalence import cross_section_profile
from idmodds.rates import (
    ExponentialIncidence,
    GompertzParams,
    MortalityRatioParams,
    PositivePartIncidence,
    RateDomainError,
    RateModel,
    RatioHorizonError,
    TabulatedIncidence,
    _GatheredLines,
    _TabulatedLines,
    _poly_exp_integrals,
    reference_rate_model,
)
from idmodds.simulate import AgeGroupTable


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
        assert model.ratio.ratio(0.0) == pytest.approx(2.0, rel=1e-15)
        assert model.ratio.ratio(5.0) == pytest.approx(1.0, rel=1e-15)
        assert model.ratio.ratio(10.0) == pytest.approx(2.0, rel=1e-15)

    def test_diseased_factorizes_exactly(self, model):
        # the course hazard's slope in d is the diseased mortality m1 = m0 * R
        t, a, d = 103.7, 61.2, 7.9
        lhs = model.course_hazard_rate(t, a, d)[1]
        rhs = model.mortality_healthy(t, a) * model.ratio.ratio(d)
        assert lhs == rhs


def both_forms_poly_exp_integrals(lam, d):
    """``_poly_exp_integrals`` as it was when it evaluated the direct and the series form at every node."""
    d = np.asarray(d, dtype=float)
    x = lam * d
    with np.errstate(invalid="ignore"):
        ex = np.exp(x)
        j0 = np.expm1(x) / lam
        j1_direct = (ex * (x - 1.0) + 1.0) / lam**2
        j2_direct = (ex * (x * x - 2.0 * x + 2.0) - 2.0) / lam**3
    small = np.abs(x) < 1e-3
    d2 = d * d
    j1_series = d2 * (0.5 + x * (1.0 / 3.0 + x * (0.125 + x * (1.0 / 30.0 + x / 144.0))))
    j2_series = d2 * d * (1.0 / 3.0 + x * (0.25 + x * (0.1 + x * (1.0 / 36.0 + x / 168.0))))
    j1 = np.where(small, j1_series, j1_direct)
    j2 = np.where(small, j2_series, j2_direct)
    return j0, j1, j2


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
                lambda tau: model.mortality_healthy(t - d + tau, a - d + tau) * model.ratio.ratio(tau), 0.0, d
            )
            got = model.cumulative_m1(t, a, d)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-15)

    def test_m1_small_duration_series_branch(self, model):
        # lam*d below the series switch: compare to quadrature, not to the
        # cancellation-prone direct formula.
        for d in (1e-9, 1e-6, 1e-4, 5e-3):
            want = quad_oracle(
                lambda tau: model.mortality_healthy(100.0 - d + tau, 70.0 - d + tau) * model.ratio.ratio(tau), 0.0, d
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

    @pytest.mark.parametrize("family", ["positive_part", "exponential", "tabulated"])
    def test_exit_hazard_is_m0_plus_incidence(self, model, family):
        incidence = {
            "positive_part": model.incidence,
            "exponential": ExponentialIncidence(-9.0, 0.04, 0.005),
            "tabulated": TabulatedIncidence([90.0, 110.0], [0.0, 40.0, 95.0], [[0.0, 0.004, 0.02], [0.0, 0.006, 0.03]]),
        }[family]
        m = RateModel(incidence, model.m0, model.ratio)
        t = np.array([100.0, 103.7, 96.0, 120.0])
        a = np.array([60.0, 81.2, 42.0, 30.0])
        delta = np.array([0.0, 17.5, 42.0, 30.0])
        cumulative, rate = m.exit_hazard_rate(t, a, delta)
        np.testing.assert_array_equal(cumulative, m.cumulative_m0(t, a, delta) + m.cumulative_incidence(t, a, delta))
        np.testing.assert_array_equal(rate, m.mortality_healthy(t, a) + m.incidence_rate(t, a))
        one = m.exit_hazard_rate(100.0, 60.0, 25.0)[0]
        assert one == m.cumulative_m0(100.0, 60.0, 25.0) + m.cumulative_incidence(100.0, 60.0, 25.0)

    @pytest.mark.parametrize("lam", [0.098, -0.05, 1e-6])
    @pytest.mark.parametrize(
        "d",
        [
            np.array([0.0, 1e-4, 0.0101, 0.0102, 0.5, 5.0, 60.0]),
            np.linspace(0.0, 100.0, 960),
            np.array(0.01),
            np.array(40.0),
            np.array([]),
        ],
        ids=["mixed", "profile", "scalar-small", "scalar-large", "empty"],
    )
    def test_poly_exp_integrals_keep_the_both_forms_bits(self, lam, d):
        # the series runs only at the nodes below |lam*d| = 1e-3; values, shapes and types match both forms
        want = both_forms_poly_exp_integrals(lam, d)
        got = _poly_exp_integrals(lam, d)
        for g, w in zip(got, want):
            assert type(g) is type(w) and np.shape(g) == np.shape(w)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


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
        with pytest.raises(ValueError, match=r"table shape must be \(len\(times\), len\(ages\)\)"):
            TabulatedIncidence([0.0, 1.0], [0.0, 1.0], [[0.0, 1.0], [0.0]])  # ragged rows
        with pytest.raises(ValueError):
            TabulatedIncidence(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            TabulatedIncidence(np.array([0.0, 1.0]), np.array([0.0, 1.0]), -np.ones((2, 2)))


def grid_edge_rate(tab, t, a):
    """Bilinear rate that locates every point on its own, as before the one-pass kernel (the oracle)."""
    t = np.clip(np.asarray(t, dtype=float), tab.times[0], tab.times[-1])
    a = np.clip(np.asarray(a, dtype=float), tab.ages[0], tab.ages[-1])
    t, a = np.broadcast_arrays(t, a)
    it = np.clip(np.searchsorted(tab.times, t, side="right") - 1, 0, len(tab.times) - 2)
    ia = np.clip(np.searchsorted(tab.ages, a, side="right") - 1, 0, len(tab.ages) - 2)
    wt = (t - tab.times[it]) / (tab.times[it + 1] - tab.times[it])
    wa = (a - tab.ages[ia]) / (tab.ages[ia + 1] - tab.ages[ia])
    v00 = tab.table[it, ia]
    v01 = tab.table[it, ia + 1]
    v10 = tab.table[it + 1, ia]
    v11 = tab.table[it + 1, ia + 1]
    out = (
        v00 * (1 - wt) * (1 - wa)
        + v01 * (1 - wt) * wa
        + v10 * wt * (1 - wa)
        + v11 * wt * wa
    )
    return float(out) if out.ndim == 0 else out


def grid_edge_cumulative(tab, t, a, delta):
    """Simpson's rule between every grid edge clipped to the segment, as before the one-pass kernel (the oracle)."""
    t, a, delta = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (t, a, delta)))
    t, a = t[..., None], a[..., None]
    # lookbacks from (t, a) to every grid line, clipped to the segment, and its two ends
    crossings = np.concatenate([a - tab.ages, t - tab.times], axis=-1)
    edges = np.sort(
        np.concatenate(
            [np.zeros_like(t), delta[..., None], np.clip(crossings, 0.0, delta[..., None])], axis=-1
        ),
        axis=-1,
    )
    at_edges = grid_edge_rate(tab, t - edges, a - edges)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    pieces = (edges[..., 1:] - edges[..., :-1]) / 6.0 * (
        at_edges[..., :-1] + 4.0 * grid_edge_rate(tab, t - mid, a - mid) + at_edges[..., 1:]
    )
    out = pieces.sum(axis=-1)
    return float(out) if out.ndim == 0 else out


class PerNodeTabulated(TabulatedIncidence):
    """A tabulated incidence whose line hazards integrate every node from scratch, as the closed forms do."""

    def lines(self, t, a):
        return _GatheredLines(self.cumulative, t, a)


class TestTabulatedKernel:
    """The one-pass kernel against the kernel that located every grid edge of every segment."""

    @staticmethod
    def draw_incidence(data):
        # grids on multiples of 1/2, so a segment through a node can cross an age line and a
        # time line at exactly the same lookback; a one-step grid has no interior lines
        def grid(origin):
            steps = data.draw(st.lists(st.integers(1, 60), min_size=1, max_size=5))
            return origin + 0.5 * np.concatenate([[0.0], np.cumsum(steps)])

        times = grid(float(data.draw(st.integers(-40, 80))))
        ages = grid(float(data.draw(st.integers(0, 40))))
        # rates up to 0.05 with about a third of the nodes exactly zero
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        table = rng.uniform(0.0, 0.05, (len(times), len(ages))) * (rng.random((len(times), len(ages))) < 0.7)
        return TabulatedIncidence(times, ages, table)

    @staticmethod
    def draw_segment(data, tab):
        times, ages = tab.times.tolist(), tab.ages.tolist()
        shift = st.one_of(st.integers(0, 160).map(lambda k: k / 4), st.floats(0.0, 40.0))
        end = data.draw(st.one_of(
            # anywhere, outside the grid on every side included
            st.tuples(st.floats(times[0] - 30.0, times[-1] + 30.0), st.floats(0.0, ages[-1] + 30.0)),
            # on a time line, so a crossing sits at lookback 0
            st.tuples(st.sampled_from(times), st.floats(0.0, ages[-1] + 30.0)),
            # on the life line through a grid node
            st.builds(lambda tn, an, s: (tn + s, an + s), st.sampled_from(times), st.sampled_from(ages), shift),
        ))
        t, a = end
        lines = [x for x in [a - g for g in ages] + [t - g for g in times] if 0.0 <= x <= a]
        # from zero length to the whole life, or ending exactly on a grid line
        delta = data.draw(st.one_of(st.just(0.0), st.just(a), st.floats(0.0, a),
                                    st.sampled_from(lines or [a])))
        return t, a, delta

    @settings(max_examples=75, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_grid_edge_kernel(self, data):
        tab = self.draw_incidence(data)
        segments = [self.draw_segment(data, tab) for _ in range(data.draw(st.integers(1, 6)))]
        # one segment of length zero crosses no line; in half the batches one from past the grid's
        # far corner crosses every line but age 0, and its width would hide crossings trimmed wrongly
        segments.append((float(tab.times[0]), float(tab.ages[0]), 0.0))
        if data.draw(st.booleans()):
            reach = max(tab.ages[-1], tab.times[-1] - tab.times[0]) + 10.0
            segments.append((float(tab.times[-1]) + 10.0, float(reach), float(reach)))
        segments = data.draw(st.permutations(segments))
        t, a, delta = (np.array(column) for column in zip(*segments))
        got = tab.cumulative(t, a, delta)
        assert got.shape == t.shape
        np.testing.assert_allclose(got, grid_edge_cumulative(tab, t, a, delta), rtol=1e-14, atol=0.0)
        # alone, a segment sums to the same bits as in the batch
        assert [tab.cumulative(*segment) for segment in segments] == got.tolist()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_rate_matches_four_corner_formula(self, data):
        tab = self.draw_incidence(data)
        n = data.draw(st.integers(1, 20))
        t = np.array(data.draw(st.lists(st.floats(tab.times[0] - 30.0, tab.times[-1] + 30.0), min_size=n, max_size=n)))
        a = np.array(data.draw(st.lists(st.floats(0.0, tab.ages[-1] + 30.0), min_size=n, max_size=n)))
        np.testing.assert_allclose(tab.rate(t, a), grid_edge_rate(tab, t, a), rtol=1e-15, atol=0.0)
        nodes_t, nodes_a = np.meshgrid(tab.times, tab.ages, indexing="ij")
        np.testing.assert_allclose(tab.rate(nodes_t, nodes_a), tab.table, rtol=1e-15, atol=0.0)

    def test_shapes(self):
        tab = TabulatedIncidence(np.array([90.0, 100.0, 110.0]), np.array([0.0, 40.0, 95.0]),
                                 np.array([[0.0, 0.004, 0.02], [0.0, 0.005, 0.025], [0.0, 0.006, 0.03]]))
        t = np.array([[95.0, 100.0, 120.0], [80.0, 105.0, 101.0]])
        a = np.array([[60.0, 40.0, 100.0], [10.0, 94.0, 0.5]])
        delta = 0.75 * a
        scalar = tab.cumulative(95.0, 60.0, 45.0)
        assert isinstance(scalar, float)
        assert isinstance(tab.rate(95.0, 60.0), float)
        got = tab.cumulative(t, a, delta)
        assert got.shape == (2, 3)
        assert got[0, 0] == scalar
        np.testing.assert_allclose(got, grid_edge_cumulative(tab, t, a, delta), rtol=1e-14, atol=0.0)
        assert tab.rate(t, a).shape == (2, 3)

    @settings(max_examples=75, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_line_table_matches_cumulative_at_every_node(self, data):
        tab = self.draw_incidence(data)
        ends = [self.draw_segment(data, tab) for _ in range(data.draw(st.integers(1, 4)))]
        lines, deltas = [], []
        for k, (t, a, delta) in enumerate(ends):
            # zero, the whole line, the drawn lookback, every grid line crossed, and a few anywhere
            crossed = [x for x in [a - g for g in tab.ages] + [t - g for g in tab.times] if 0.0 <= x <= a]
            nodes = [0.0, a, delta, *crossed, *data.draw(st.lists(st.floats(0.0, a), max_size=4))]
            lines += [k] * len(nodes)
            deltas += nodes
        order = data.draw(st.permutations(range(len(deltas))))
        k, delta = np.array(lines)[order], np.array(deltas)[order]
        t, a = (np.array(column) for column in list(zip(*ends))[:2])
        table = tab.lines(t, a)
        got = table.lookback(delta, k)
        assert got.tolist() == [tab.cumulative(t[j], a[j], d) for j, d in zip(k.tolist(), delta.tolist())]
        # from birth: the line's whole integral less the lookback, to rounding of the whole; the
        # per-node call also rounds the start of its segment, which moves the rate by up to the
        # table's steepest slope times that rounding, over the segment
        whole = tab.cumulative(t, a, a)[k]
        start = a[k] - delta
        gap = np.abs(table.from_birth(delta, k) - tab.cumulative(t[k] - delta, start, start))
        slope = (np.abs(np.diff(tab.table, axis=0)) / np.diff(tab.times)[:, None]).max() + (
            np.abs(np.diff(tab.table, axis=1)) / np.diff(tab.ages)).max()
        moved = 4.0 * np.finfo(float).eps * (np.abs(t[k]) + a[k]) * slope * start
        assert np.all(gap <= 1e-13 * whole + moved)

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_odds_and_fit_plan_match_the_per_node_path(self, data):
        tab = self.draw_incidence(data)
        per_node = PerNodeTabulated(tab.times, tab.ages, tab.table)
        m0, ratio = GompertzParams(-10.7, 0.1, math.log(0.998)), MortalityRatioParams(0.04, 5.0, 1.0)
        t = float(data.draw(st.sampled_from([float(tab.times[-1]), 100.0, 100.25])))
        ages = np.arange(5.0, 100.0, 7.5)
        odds = [cross_section_profile(RateModel(inc, m0, ratio), t, ages, "odds").values for inc in (tab, per_node)]
        assert odds[0].tolist() == odds[1].tolist()
        table = AgeGroupTable(t, np.arange(30.0, 90.0, 10.0), np.arange(40.0, 100.0, 10.0), [100] * 6, [10] * 6)
        plans = [_LikelihoodPlan.build(table, FitConfig(incidence=inc, m0=m0)) for inc in (tab, per_node)]
        assert plans[0].exponent.tolist() == plans[1].exponent.tolist()

    def test_kinks_are_python_floats(self):
        tab = TabulatedIncidence(np.array([0.0, 50.0]), np.array([10.0, 20.5]), np.zeros((2, 2)))
        assert tab.kink_times == (0.0, 50.0) and tab.kink_ages == (10.0, 20.5)
        assert all(type(x) is float for x in tab.kink_times + tab.kink_ages)


def eight_row_interpolant(tab, cell, t, a):
    """The interpolant from all eight cell-table rows gathered at once, as before the row-at-a-time form (the oracle)."""
    t0, ht, a0, ha, v00, v01, v10, v11 = np.take(tab._cells, cell, axis=1)
    wt = np.clip((t - t0) / ht, 0.0, 1.0)
    wa = np.clip((a - a0) / ha, 0.0, 1.0)
    return v00 * (1 - wt) * (1 - wa) + v01 * (1 - wt) * wa + v10 * wt * (1 - wa) + v11 * wt * wa


def eight_row_simpson(tab, t, a, lo, hi):
    """Simpson's rule on each piece through the eight-row interpolant, as before (the oracle)."""
    mid = 0.5 * (hi + lo)
    cell = tab._cell_of(t - mid, a - mid)
    at_lo, at_mid, at_hi = (eight_row_interpolant(tab, cell, t - u, a - u) for u in (lo, mid, hi))
    return (hi - lo) / 6.0 * (at_lo + 4.0 * at_mid + at_hi)


def edge_block_lookback(lines, prefix, delta, k):
    """A line table's lookbacks through the gathered (n, w+1) block of edge rows, as before (the oracle)."""
    edges = lines._edges[k]
    below = np.count_nonzero(edges[:, 1:] < delta[:, None], axis=1)
    lo = np.take_along_axis(edges, below[:, None], axis=1)[:, 0]
    return prefix[k, below] + eight_row_simpson(lines._incidence, lines._t[k], lines._a[k], lo, delta)


def eight_row_prefix(lines):
    """Running sums of a line table's pieces between consecutive edges, by the eight-row Simpson's rule."""
    t, a, edges = lines._t[:, None], lines._a[:, None], lines._edges
    pieces = eight_row_simpson(lines._incidence, t, a, edges[:, :-1], edges[:, 1:])
    return np.column_stack((np.zeros(len(edges)), np.cumsum(pieces, axis=1)))


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestRowAtATimeInterpolation:
    """The interpolant read from the cell table a row at a time keeps the eight-row formula's bits."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_rate_and_line_table_match_eight_row_formula(self, data):
        tab = TestTabulatedKernel.draw_incidence(data)
        times, ages = tab.times.tolist(), tab.ages.tolist()
        # outside the grid on every side, on its time and age lines, and at its nodes
        n = data.draw(st.integers(1, 12))
        t = data.draw(st.lists(st.one_of(st.floats(times[0] - 30.0, times[-1] + 30.0), st.sampled_from(times)),
                               min_size=n, max_size=n))
        a = data.draw(st.lists(st.one_of(st.floats(0.0, ages[-1] + 30.0), st.sampled_from(ages)),
                               min_size=n, max_size=n))
        nodes_t, nodes_a = np.meshgrid(times, ages, indexing="ij")
        t, a = np.concatenate((t, nodes_t.ravel())), np.concatenate((a, nodes_a.ravel()))
        assert_same_bits(tab.rate(t, a), eight_row_interpolant(tab, tab._cell_of(t, a), t, a))
        for tk, ak in zip(t.tolist(), a.tolist()):
            got = tab.rate(tk, ak)
            assert isinstance(got, float)
            assert_same_bits(got, eight_row_interpolant(tab, tab._cell_of(np.asarray(tk), np.asarray(ak)), tk, ak))

        segments = [TestTabulatedKernel.draw_segment(data, tab) for _ in range(data.draw(st.integers(1, 5)))]
        t, a, delta = (np.array(column) for column in zip(*segments))
        lines = _TabulatedLines(tab, t, a, a)
        prefix = eight_row_prefix(lines)
        assert_same_bits(lines._prefix, prefix)
        # the drawn lookback, zero, the whole line and every edge of the line table
        width = lines._edges.shape[1]
        k = np.concatenate((np.tile(np.arange(len(a)), 3), np.repeat(np.arange(len(a)), width)))
        nodes = np.concatenate((delta, np.zeros_like(a), a, lines._edges.ravel()))
        assert_same_bits(lines.lookback(nodes, k), edge_block_lookback(lines, prefix, nodes, k))
        # a 0-d segment, integrated up to its own lookback
        for tk, ak, dk in segments:
            one = _TabulatedLines(tab, np.array([tk]), np.array([ak]), np.array([dk]))
            got = tab.cumulative(tk, ak, dk)
            assert isinstance(got, float)
            assert_same_bits(got, edge_block_lookback(one, eight_row_prefix(one), np.array([dk]), np.array([0]))[0])


class TestValidation:
    def test_gompertz_degenerate_slope(self):
        with pytest.raises(ValueError):
            GompertzParams(-10.0, 0.1, -0.1)

    def test_ratio_must_stay_positive(self, model):
        # R(d) = -0.01 d^2 + 1 is positive on [0, 10) only: the ratio is built, and the checked
        # course hazard refuses exactly when the durations it reads pass d = 10
        short = RateModel(model.incidence, model.m0, MortalityRatioParams(-0.01, 0.0, 1.0))
        for longest in (9.9, 10.0, 50.0):
            durations = np.array([0.5, longest])
            if longest < 10.0:
                assert np.all(np.isfinite(short.cumulative_m1(100.0, 60.0, durations)))
            else:
                with pytest.raises(RatioHorizonError, match=f"\\[0, {longest:g}\\]"):
                    short.cumulative_m1(100.0, 60.0, durations)
        # a minimum at the vertex inside the durations counts, and the ends do not hide it
        dipped = RateModel(model.incidence, model.m0, MortalityRatioParams(0.04, 5.0, -0.5))
        with pytest.raises(RatioHorizonError):
            dipped.cumulative_m1(100.0, 60.0, np.array([0.0, 10.0]))
        dipped.cumulative_m1(100.0, 60.0, np.array([0.0, 1.0]))
        # no durations read, nothing to refuse
        assert dipped.cumulative_m1(100.0, 60.0, np.array([])).size == 0
        assert issubclass(RatioHorizonError, RateDomainError)
        with pytest.raises(ValueError, match="finite"):
            MortalityRatioParams(0.04, math.inf, 1.0)

    def test_domain_errors(self, model):
        with pytest.raises(RateDomainError):
            model.incidence_rate(100.0, -1.0)
        with pytest.raises(RateDomainError):
            model.cumulative_m0(100.0, 50.0, -1.0)
        with pytest.raises(RateDomainError):
            model.cumulative_m1(100.0, 50.0, 50.1)

    def test_positive_part_validation(self):
        with pytest.raises(ValueError):
            PositivePartIncidence(denominator=0.0)
        with pytest.raises(ValueError):
            PositivePartIncidence(onset_age=math.nan)
