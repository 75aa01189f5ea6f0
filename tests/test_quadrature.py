import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from idmodds.quadrature import (
    _NODES,
    DEFAULT_QUADRATURE,
    MAX_INTERVALS,
    QuadratureConfig,
    QuadratureError,
    adaptive_quad,
    adaptive_quad_many,
)


def test_polynomial_exact():
    # Gauss-Kronrod 15 integrates polynomials up to degree 29 exactly.
    rng = np.random.default_rng(0)
    for _ in range(20):
        coeffs = rng.normal(size=8)
        lo, hi = sorted(rng.uniform(-3.0, 3.0, size=2))
        val = adaptive_quad(lambda x: np.polyval(coeffs, x), lo, hi)
        exact = np.polyval(np.polyint(coeffs), hi) - np.polyval(np.polyint(coeffs), lo)
        assert val == pytest.approx(exact, rel=1e-13, abs=1e-13)


# QUADPACK reports its own roundoff at the tight oracle tolerance; harmless here
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_against_quadpack():
    cases = [
        (lambda x: np.exp(-x * x), -2.0, 5.0),
        (lambda x: np.sin(10.0 * x) * np.exp(x / 3.0), 0.0, 7.0),
        (lambda x: 1.0 / (1.0 + x * x), -4.0, 4.0),
        (lambda x: np.sqrt(np.abs(x)) * np.cos(x), 0.1, 9.0),
    ]
    for f, lo, hi in cases:
        want, _ = integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
        got = adaptive_quad(f, lo, hi)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_kink_with_breakpoint():
    f = lambda x: np.maximum(x - 0.3, 0.0) ** 2
    exact = (1.0 - 0.3) ** 3 / 3.0
    got = adaptive_quad(f, 0.0, 1.0, breakpoints=[0.3])
    assert got == pytest.approx(exact, rel=1e-13)


def test_breakpoints_outside_range_ignored():
    got = adaptive_quad(np.exp, 0.0, 1.0, breakpoints=[-1.0, 0.5, 2.0])
    assert got == pytest.approx(np.e - 1.0, rel=1e-12)


def test_zero_width():
    assert adaptive_quad(np.exp, 2.0, 2.0) == 0.0


def test_reversed_limits_rejected():
    with pytest.raises(ValueError):
        adaptive_quad(np.exp, 1.0, 0.0)


def test_budget_exhaustion_raises():
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=3)
    with pytest.raises(QuadratureError):
        adaptive_quad(lambda x: 1.0 / np.sqrt(x), 1e-12, 1.0, cfg)


def test_nonfinite_integrand_raises():
    with pytest.raises(QuadratureError):
        adaptive_quad(lambda x: 1.0 / x, 0.0, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)


def test_deterministic():
    f = lambda x: np.exp(np.sin(3.0 * x)) / (1.0 + x * x)
    a = adaptive_quad(f, 0.0, 10.0)
    b = adaptive_quad(f, 0.0, 10.0)
    assert a == b


def test_tight_tolerance_on_smooth_integrand():
    cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-16, max_subdivisions=400)
    got = adaptive_quad(lambda x: np.exp(-x) * x, 0.0, 30.0, cfg)
    exact = 1.0 - 31.0 * np.exp(-30.0)
    assert got == pytest.approx(exact, rel=1e-12)


def test_default_config():
    assert DEFAULT_QUADRATURE.rel_tol == 1e-8
    assert DEFAULT_QUADRATURE.abs_tol == 1e-12


# -- the batched driver ---------------------------------------------------------


def smooth_family(params):
    """Batched integrand: integral k is c0*exp(c1*x)*cos(c2*x) + c3*max(x - kink, 0)**2 (kink given as a breakpoint)."""
    params = np.asarray(params, dtype=float)

    def f(x, k):
        c0, c1, c2, c3, kink = params[k].T
        return c0 * np.exp(c1 * x) * np.cos(c2 * x) + c3 * np.maximum(x - kink, 0.0) ** 2

    return f


@st.composite
def batches(draw):
    """Integrals with random limits (some of zero length), kinks at breakpoints, and repeated rows.

    Frequencies up to 40 over lengths up to 4 make many integrals take several sweeps.
    """
    rows = draw(
        st.lists(
            st.tuples(
                st.floats(-2.0, 2.0),
                st.floats(-1.0, 1.0),
                st.floats(0.0, 40.0),
                st.floats(-1.0, 1.0),
                st.floats(-3.0, 3.0),
                st.one_of(st.just(0.0), st.floats(0.01, 4.0)),
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=10,
        )
    )
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))
    rows = rows + [rows[i] for i in repeats]
    params = [(c0, c1, c2, c3, lo + frac * length) for c0, c1, c2, c3, lo, length, frac in rows]
    lo = np.array([row[4] for row in rows])
    hi = lo + np.array([row[5] for row in rows])
    breakpoints = np.array([[p[4], p[4] - 10.0] for p in params])
    return params, lo, hi, breakpoints


# A loose tolerance leaves results at the level of the error estimate, so any
# change in which intervals are split shows in the comparison.
CONFIGS = (DEFAULT_QUADRATURE, QuadratureConfig(rel_tol=1e-4, abs_tol=1e-8, max_subdivisions=400))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(batches(), st.sampled_from(CONFIGS))
def test_batch_matches_one_integral_calls(batch, config):
    params, lo, hi, breakpoints = batch
    f = smooth_family(params)
    sizes = []

    def recording(x, k):
        sizes.append(len(x))
        return f(x, k)

    got = adaptive_quad_many(recording, lo, hi, config, breakpoints)
    want = [
        adaptive_quad(lambda x, k=k: f(x, np.full(len(x), k)), lo[k], hi[k], config, breakpoints[k])
        for k in range(len(lo))
    ]
    np.testing.assert_array_equal(got, want)
    assert max(sizes, default=0) <= MAX_INTERVALS * 15
    assert np.all(got[lo == hi] == 0.0)


def loop_first_intervals(lo, hi, breakpoints):
    """The first intervals of a batch as the per-integral loop built them before the array form (the oracle)."""
    edges_lo, edges_hi, owners = [], [], []
    for k, (first, last) in enumerate(zip(lo.tolist(), hi.tolist())):
        if first < last:
            edges = [first, *sorted({float(x) for x in breakpoints[k] if first < x < last}), last]
            edges_lo += edges[:-1]
            edges_hi += edges[1:]
            owners += [k] * (len(edges) - 1)
    return np.array(edges_lo), np.array(edges_hi), np.array(owners, dtype=int)


@st.composite
def ragged_breakpoints(draw):
    """Limits (some of zero length) and per-integral breakpoints with repeats, limits, NaN, infinities and strays."""
    n = draw(st.integers(1, 8))
    lo = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    length = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 4.0)), min_size=n, max_size=n)))
    hi = lo + length
    rows = []
    for k in range(n):
        inside = draw(st.lists(st.floats(0.0, 1.0), max_size=5))
        row = [lo[k] + u * length[k] for u in inside]
        row += draw(st.lists(st.sampled_from(row or [lo[k]]), max_size=3))
        strays = [lo[k], hi[k], lo[k] - 1.0, hi[k] + 2.0, np.nan, np.inf, -np.inf]
        row += draw(st.lists(st.sampled_from(strays), max_size=4))
        rows.append(draw(st.permutations(row)))
    return lo, hi, rows


@settings(max_examples=80, deadline=None, derandomize=True)
@given(ragged_breakpoints(), st.integers(0, 3))
def test_array_breakpoints_match_the_per_integral_loop(batch, extra_padding):
    lo, hi, rows = batch
    width = max(map(len, rows), default=0) + extra_padding
    padded = np.full((len(rows), width), np.nan)
    for k, row in enumerate(rows):
        padded[k, : len(row)] = row
    # a quadratic per integral: the rule is exact, so the first sweep is the only one
    coefficients = np.linspace(-1.0, 1.0, 3 * len(lo)).reshape(-1, 3)
    calls = []

    def f(x, k):
        calls.append((x.copy(), k.copy()))
        c = coefficients[k].T
        return c[0] + c[1] * x + c[2] * x * x

    got = adaptive_quad_many(f, lo, hi, breakpoints=padded)
    assert np.all(got[lo == hi] == 0.0)
    a, b, owner = loop_first_intervals(lo, hi, rows)
    want_x = ((0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * _NODES).ravel()
    x = np.concatenate([call[0] for call in calls] or [np.empty(0)])
    k = np.concatenate([call[1] for call in calls] or [np.empty(0, dtype=int)])
    np.testing.assert_array_equal(x, want_x)
    np.testing.assert_array_equal(k, owner.repeat(len(_NODES)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(batches(), st.integers(0, 20))
def test_one_unconvergeable_integral_fails_the_batch(batch, position):
    params, lo, hi, breakpoints = batch
    n = len(lo)
    bad = min(position, n)
    f = smooth_family(params)
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=3)

    def integrand(x, k):
        # integral ``bad`` is 1/sqrt(x) on [1e-12, 1]; the others shift down past it
        values = f(x, np.where(k > bad, k - 1, np.minimum(k, n - 1)))
        return np.where(k == bad, 1.0 / np.sqrt(np.abs(x) + 1e-300), values)

    lo = np.insert(lo, bad, 1e-12)
    hi = np.insert(hi, bad, 1.0)
    breakpoints = np.insert(breakpoints, bad, np.nan, axis=0)
    with pytest.raises(QuadratureError):
        adaptive_quad_many(integrand, lo, hi, cfg, breakpoints)


def test_batch_rejects_reversed_limits():
    with pytest.raises(ValueError):
        adaptive_quad_many(lambda x, k: x, [0.0, 1.0], [1.0, 0.5])


def test_empty_batch_returns_empty_array():
    got = adaptive_quad_many(lambda x, k: x, [], [])
    assert isinstance(got, np.ndarray) and got.shape == (0,)


def test_large_batch_respects_interval_cap():
    # MAX_INTERVALS integrals with 5 pieces each: the first sweep needs 5 full calls
    n = MAX_INTERVALS
    sizes = []

    def f(x, k):
        sizes.append(len(x))
        return np.sin(x + k)

    lo = np.zeros(n)
    hi = np.full(n, 5.0)
    got = adaptive_quad_many(f, lo, hi, breakpoints=np.tile([1.0, 2.0, 3.0, 4.0], (n, 1)))
    assert len(sizes) > 3 and max(sizes) <= MAX_INTERVALS * 15
    np.testing.assert_allclose(got, np.cos(np.arange(n)) - np.cos(5.0 + np.arange(n)), rtol=1e-12)


@pytest.mark.parametrize(
    "lo, hi, breakpoints",
    [
        ([0.0, 0.0], [1.0, 1.0], np.array([[0.5]])),
        ([0.0, 0.0], [1.0, 1.0], np.array([[0.5], [np.nan], [np.nan]])),
        ([0.0, 0.0], [1.0, 1.0], np.array([0.5, 0.5])),
        ([np.nan], [1.0], None),
        ([0.0], [np.inf], None),
        ([-np.inf, 0.0], [0.0, 1.0], None),
    ],
    ids=["short-breakpoints", "long-breakpoints", "flat-breakpoints", "nan-limit", "infinite-upper", "infinite-lower"],
)
def test_batch_rejects_bad_arguments_before_any_call(lo, hi, breakpoints):
    calls = []

    def f(x, k):
        calls.append(len(x))
        return x

    with pytest.raises(ValueError):
        adaptive_quad_many(f, lo, hi, breakpoints=breakpoints)
    assert calls == []


def test_batch_rejects_unequal_limit_counts():
    with pytest.raises(ValueError, match="lower and upper limits must have the same length"):
        adaptive_quad_many(lambda x, k: x, [0.0, 0.0], [1.0])


def tied_pieces(x):
    """cos(15 u) on every unit piece [j, j + 1), u = x - j, at amplitude 4 on pieces 40 and 45 and 1 elsewhere.

    On [32, 64) the nodes of a piece sit at the same offsets from j in every
    piece, so the rule's values, sums and error estimates of pieces with equal
    amplitude are bit-identical, and those of pieces 40 and 45 are exactly four
    times theirs.
    """
    j = np.floor(x)
    return np.where((j == 40.0) | (j == 45.0), 4.0, 1.0) * np.cos(15.0 * (x - j))


def test_budget_truncation_splits_the_largest_errors_ties_to_the_later_piece():
    # 32 unit pieces, all split candidates, against a budget of 5: the one split sweep
    # takes pieces 40 and 45, then the last three of the 30 tied pieces, and the
    # error of the 25 unsplit pieces (25 x 2.7e-4) then meets the tolerance 8e-3.
    cfg = QuadratureConfig(rel_tol=1e-3, abs_tol=8e-3, max_subdivisions=5)
    edges = np.arange(33.0, 64.0)
    calls = []

    def lone(x):
        calls.append(x)
        return tied_pieces(x)

    want = adaptive_quad(lone, 32.0, 64.0, cfg, edges)
    assert [len(x) for x in calls] == [32 * 15, 2 * 5 * 15]
    assert set(np.floor(calls[1]).tolist()) == {40.0, 45.0, 61.0, 62.0, 63.0}
    assert want == pytest.approx(38.0 * np.sin(15.0) / 15.0, abs=8e-3)

    # in a batch beside a smooth integral, the truncated integrals keep their lone bits
    def f(x, k):
        return np.where(k == 1, np.sin(x), tied_pieces(x))

    rows = np.vstack((edges, np.full_like(edges, np.nan), edges))
    got = adaptive_quad_many(f, [32.0, 0.0, 32.0], [64.0, 3.0, 64.0], cfg, rows)
    np.testing.assert_array_equal(got, [want, adaptive_quad(np.sin, 0.0, 3.0, cfg), want])
