"""Internal consistency of the analytic machinery, checked four ways.

Every quantity here is computed twice through unrelated code paths: the
three odds routes against each other, the prevalence and odds transport
equations against finite differences (the residual must shrink by 4 when
the step halves), the closed-form exponential front against general
quadrature, and the incidence rate reconstructed from two nearby
cross-sections against the rate that generated them.
"""

import numpy as np

from idmodds import (
    ExponentialIncidence,
    MortalityRatioParams,
    RateModel,
    prevalence,
    reference_rate_model,
)
from idmodds.prevalence import (
    cross_section_profile,
    effective_diseased_mortality,
    pde_residual_odds,
    pde_residual_prevalence,
    reconstruct_incidence,
)

model = reference_rate_model()
t = 100.0

# 1. route agreement on a coarse age grid
gap = 0.0
for a in np.arange(35.0, 95.1, 5.0):
    odds = [
        prevalence(model, t, a, method=m).odds
        for m in ("pseudo_convolution", "keiding", "cohort_ratio")
    ]
    gap = max(gap, max(odds) - min(odds))
print(f"1. three odds routes agree within {gap:.2e} on ages 35-95")

# 2. transport equations: residual ratio ~4 under step halving
point = (t, 60.0)
r1 = pde_residual_prevalence(model, *point, 0.1)
r2 = pde_residual_prevalence(model, *point, 0.05)
print(f"2. prevalence transport residual shrinks by {r1 / r2:.4f} (expect ~4)")
flat = RateModel(model.incidence, model.m0, MortalityRatioParams(0.0, 5.0, 2.0))
r1 = pde_residual_odds(flat, *point, 0.1)
r2 = pde_residual_odds(flat, *point, 0.05)
print(f"   odds transport residual shrinks by {r1 / r2:.4f} (duration-free ratio)")

# 3. exponential incidence: closed-form front vs general quadrature
exp_model = RateModel(ExponentialIncidence(-9.0, 0.03, 0.01), model.m0, model.ratio)
special = prevalence(exp_model, t, 70.0, method="convolution_special").odds
general = prevalence(exp_model, t, 70.0, method="pseudo_convolution").odds
print(f"3. exponential special case: |{special:.10f} - {general:.10f}| = "
      f"{abs(special - general):.2e}")

# 4. incidence recovered from cross-sections half a year apart
ages = np.arange(40.0, 91.5, 0.5)
recovered = reconstruct_incidence(
    cross_section_profile(model, t, ages),
    cross_section_profile(model, t + 0.5, ages),
    lambda tt, aa: effective_diseased_mortality(model, tt, aa),
    model.mortality_healthy,
)
keep = recovered.ages <= 90.0
truth = model.incidence_rate(
    np.full(np.count_nonzero(keep), recovered.time), recovered.ages[keep]
)
err = np.max(np.abs(recovered.values[keep] - truth) / truth)
print(f"4. incidence reconstruction: max relative error {err:.2e} on ages 40-90")
