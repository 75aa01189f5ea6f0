"""End-to-end acceptance checks for the whole pipeline.

Each test covers one headline claim about the package: the reference-table
fit reproduces the published estimates, the independent odds formulas agree,
closed forms hold in degenerate cases, the transport identities converge at
the expected order, and simulated studies are statistically consistent with
the analytic prevalence they were generated from.  Every test prints a
single summary line (visible with ``pytest -s``) alongside its assertions.
"""

import math
import time
from importlib import resources

import numpy as np
import pytest

from idmodds import (
    AgeGroupTable,
    ExponentialIncidence,
    FitConfig,
    MortalityRatioParams,
    RateModel,
    SimConfig,
    fit,
    group_prevalence,
    prevalence,
    reference_rate_model,
    replicate_study,
)
from idmodds.prevalence import (
    cross_section_profile,
    effective_diseased_mortality,
    pde_residual_odds,
    pde_residual_prevalence,
    reconstruct_incidence,
)

# Published study targets: point estimates and 95% intervals for the
# mortality-ratio parameters, fitted to the bundled cross-sectional table.
PUBLISHED_GAMMA = np.array([0.0330, 3.06, 1.01])
PUBLISHED_CI = np.array([[-0.0127, 0.0787], [-5.70, 11.8], [0.625, 1.39]])
POINT_TOL = np.array([0.005, 0.5, 0.05])

# Generating parameters of the simulation study.
TRUE_GAMMA = np.array([0.04, 5.0, 1.0])
EXPECTED_ALIVE = 74388.0
# birth rate solving E[alive at the cross-section] = EXPECTED_ALIVE
CALIBRATED_BIRTHS = 1985.0888100629938

SEED = 1847


def report(line):
    print(f"\n{line}")


@pytest.fixture(scope="module")
def reference_fit():
    path = resources.files("idmodds.data") / "table1.csv"
    table = AgeGroupTable.from_csv(str(path), cross_section_time=100.0)
    start = time.perf_counter()
    result = fit(table, FitConfig())
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def study_tables():
    config = SimConfig(births_per_year=CALIBRATED_BIRTHS, rng_seed=0)
    start = time.perf_counter()
    tables = replicate_study(reference_rate_model(), config, n_replicates=20)
    return tables, time.perf_counter() - start


def test_a1_fit_reproduces_published_estimates(reference_fit):
    result, seconds = reference_fit
    point_dev = np.abs(result.gamma_hat - PUBLISHED_GAMMA)
    ci = np.asarray(result.ci95, dtype=float)
    # endpoint budget: 15% of the published interval width per component
    endpoint_tol = 0.15 * (PUBLISHED_CI[:, 1] - PUBLISHED_CI[:, 0])
    endpoint_dev = np.abs(ci - PUBLISHED_CI)
    contains_truth = (ci[:, 0] <= TRUE_GAMMA) & (TRUE_GAMMA <= ci[:, 1])

    ok = (
        result.converged
        and bool(np.all(point_dev < POINT_TOL))
        and bool(np.all(endpoint_dev < endpoint_tol[:, None]))
        and bool(np.all(contains_truth))
        and seconds < 60.0
    )
    report(
        f"A1 reference fit {'PASS' if ok else 'FAIL'}: gamma_hat="
        f"({result.gamma_hat[0]:.4f}, {result.gamma_hat[1]:.3f}, {result.gamma_hat[2]:.4f}), "
        f"worst endpoint slack {np.max(endpoint_dev / endpoint_tol[:, None]):.0%} "
        f"of budget, {seconds:.1f}s"
    )
    assert result.converged
    assert np.all(point_dev < POINT_TOL), f"point deviations {point_dev}"
    assert np.all(endpoint_dev < endpoint_tol[:, None]), (
        f"interval endpoints {ci} vs {PUBLISHED_CI}, budget {endpoint_tol}"
    )
    assert np.all(contains_truth), f"intervals {ci} miss {TRUE_GAMMA}"
    assert seconds < 60.0


def test_a2_odds_route_agreement():
    start = time.perf_counter()
    model = reference_rate_model()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        t = rng.uniform(50.0, 150.0)
        a = rng.uniform(0.0, 95.0)
        odds = [
            prevalence(model, t, a, method=m).odds
            for m in ("keiding", "pseudo_convolution", "cohort_ratio")
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                scale = max(abs(odds[i]), abs(odds[j]))
                gap = abs(odds[i] - odds[j])
                assert gap <= max(1e-10, 1e-6 * scale), (
                    f"routes disagree at t={t:.3f}, a={a:.3f}: {odds}"
                )
                if scale > 0.0:
                    worst = max(worst, gap / max(scale, 1e-10))

    worst_special = 0.0
    for _ in range(50):
        exp_model = RateModel(
            incidence=ExponentialIncidence(
                rng.uniform(-10.0, -6.0),
                rng.uniform(-0.03, 0.05),
                rng.uniform(-0.015, 0.015),
            ),
            m0=model.m0,
            ratio=model.ratio,
        )
        t = rng.uniform(50.0, 150.0)
        a = rng.uniform(5.0, 95.0)
        special = prevalence(exp_model, t, a, method="convolution_special").odds
        general = prevalence(exp_model, t, a, method="pseudo_convolution").odds
        gap = abs(special - general)
        assert gap <= max(1e-13, 1e-10 * max(abs(special), abs(general))), (
            f"closed-form front disagrees at t={t:.3f}, a={a:.3f}: {special} vs {general}"
        )
        worst_special = max(worst_special, gap / max(abs(general), 1e-13))
    seconds = time.perf_counter() - start
    report(
        f"A2 route agreement PASS: worst relative gap {worst:.2e} over 200 points, "
        f"exponential special case {worst_special:.2e} over 50 models, {seconds:.1f}s"
    )
    assert seconds < 30.0


def test_a3_constant_incidence_equal_mortality():
    base = reference_rate_model()
    worst = 0.0
    for c in (0.001, 0.01, 0.05):
        model = RateModel(
            incidence=ExponentialIncidence(math.log(c), 0.0, 0.0),
            m0=base.m0,
            ratio=MortalityRatioParams(0.0, 5.0, 1.0),
        )
        for a in (10.0, 50.0, 90.0):
            for t in (40.0, 100.0):
                got = prevalence(model, t, a).prevalence
                want = 1.0 - math.exp(-c * a)
                worst = max(worst, abs(got - want))
                assert got == pytest.approx(want, abs=1e-8), (
                    f"c={c}, t={t}, a={a}: {got} vs {want}"
                )
    report(f"A3 constant-incidence closed form PASS: worst abs error {worst:.2e}")


def test_a4_transport_residual_convergence_order():
    points = [
        (80.0, 45.0),
        (90.0, 55.0),
        (95.0, 50.0),
        (100.0, 60.0),
        (100.0, 70.0),
        (105.0, 65.0),
        (110.0, 75.0),
        (120.0, 85.0),
        (130.0, 48.0),
        (150.0, 88.0),
    ]
    model = reference_rate_model()
    # the odds identity needs a duration-free mortality ratio
    flat_ratio = RateModel(
        incidence=model.incidence,
        m0=model.m0,
        ratio=MortalityRatioParams(0.0, 5.0, 2.0),
    )
    ratios = []
    for t, a in points:
        coarse = pde_residual_prevalence(model, t, a, 0.1)
        fine = pde_residual_prevalence(model, t, a, 0.05)
        ratios.append(coarse / fine)
        coarse = pde_residual_odds(flat_ratio, t, a, 0.1)
        fine = pde_residual_odds(flat_ratio, t, a, 0.05)
        ratios.append(coarse / fine)
    ratios = np.asarray(ratios)
    ok = bool(np.all((ratios >= 3.5) & (ratios <= 4.5)))
    report(
        f"A4 transport residual order {'PASS' if ok else 'FAIL'}: "
        f"halving ratios in [{ratios.min():.3f}, {ratios.max():.3f}] at {len(points)} points"
    )
    assert ok, f"residual halving ratios {ratios}"


def test_a5_replicate_interval_coverage(study_tables):
    tables, sim_seconds = study_tables
    start = time.perf_counter()
    fits = [fit(table, FitConfig()) for table in tables]
    fit_seconds = time.perf_counter() - start

    estimates = np.array([f.gamma_hat for f in fits])
    covered = np.zeros(3, dtype=int)
    for f in fits:
        # a replicate without intervals (boundary optimum) counts as a miss
        if f.ci95 is None:
            continue
        ci = np.asarray(f.ci95, dtype=float)
        covered += (ci[:, 0] <= TRUE_GAMMA) & (TRUE_GAMMA <= ci[:, 1])

    mean_dev = np.abs(estimates.mean(axis=0) - TRUE_GAMMA)
    spread = 3.0 * estimates.std(axis=0, ddof=1)
    seconds = sim_seconds + fit_seconds
    ok = (
        bool(np.all(covered >= 15))
        and bool(np.all(mean_dev < spread))
        and seconds < 900.0
    )
    report(
        f"A5 replicate calibration {'PASS' if ok else 'FAIL'}: coverage "
        f"{covered.tolist()}/20 per component, mean deviation {np.round(mean_dev, 3)} "
        f"vs 3*sd {np.round(spread, 3)}, {seconds:.0f}s"
    )
    assert np.all(covered >= 15), f"coverage {covered.tolist()} below 15/20"
    assert np.all(mean_dev < spread), f"mean deviation {mean_dev} vs {spread}"
    assert seconds < 900.0


def test_a6_simulated_study_matches_analytic_prevalence(study_tables):
    tables, _ = study_tables
    table = tables[0]
    model = reference_rate_model()

    inside = 0
    expected = group_prevalence(model, table.age_lo, table.age_hi, table.cross_section_time)
    for p, n, c in zip(expected.tolist(), table.n, table.c):
        half = 2.5758 * math.sqrt(p * (1.0 - p) / n)
        inside += abs(c / n - p) <= half
    alive_dev = abs(table.n_total - EXPECTED_ALIVE)
    alive_band = 3.0 * math.sqrt(EXPECTED_ALIVE)
    ok = inside >= 10 and alive_dev <= alive_band
    report(
        f"A6 simulated study {'PASS' if ok else 'FAIL'}: {inside}/11 groups inside "
        f"the 99% band, alive total {table.n_total} vs {EXPECTED_ALIVE:.0f} "
        f"(band +/-{alive_band:.0f})"
    )
    assert inside >= 10, f"only {inside}/11 groups inside the 99% binomial band"
    assert alive_dev <= alive_band, f"alive total {table.n_total} off by {alive_dev:.0f}"


def test_a7_incidence_recovery_from_cross_sections():
    model = reference_rate_model()
    ages = np.arange(40.0, 91.0 + 1e-9, 0.5)
    gap = 0.5
    start = cross_section_profile(model, 100.0, ages)
    end = cross_section_profile(model, 100.0 + gap, ages)
    recovered = reconstruct_incidence(
        start,
        end,
        lambda t, a: effective_diseased_mortality(model, t, a),
        lambda t, a: model.mortality_healthy(t, a),
    )
    keep = recovered.ages <= 90.0 + 1e-9
    truth = model.incidence_rate(
        np.full(np.count_nonzero(keep), recovered.time), recovered.ages[keep]
    )
    rel_err = np.max(np.abs(recovered.values[keep] - truth) / truth)
    report(f"A7 incidence recovery PASS: max relative error {rel_err:.2e} on ages 40-90")
    assert rel_err <= 0.02, f"reconstruction error {rel_err:.4f} exceeds 2%"
