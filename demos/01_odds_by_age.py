"""Prevalence odds across age at the study cross-section.

Evaluates the analytic odds with all three routes (they agree to machine
precision), locates the age where the odds peak, and sets the curve next to
the observed group odds from the bundled study table.  The peak is a real
feature: beyond it the excess mortality of the long-diseased outruns the
inflow of new cases.  Writes demo_out/odds_by_age.csv.
"""

import csv
from importlib import resources
from pathlib import Path

import numpy as np

from idmodds import AgeGroupTable, cross_section_profile, prevalence, reference_rate_model

out_dir = Path("demo_out")
out_dir.mkdir(exist_ok=True)

model = reference_rate_model()
t = 100.0
ages = np.arange(30.0, 96.0, 1.0)

# one batched profile per route
curves = {
    m: cross_section_profile(model, t, ages, kind="odds", method=m).values
    for m in ("pseudo_convolution", "keiding", "cohort_ratio")
}
stacked = np.array(list(curves.values()))
route_gap = float(np.max(stacked.max(axis=0) - stacked.min(axis=0)))
odds_curve = curves["pseudo_convolution"]
rows = list(zip(ages, odds_curve, odds_curve / (1.0 + odds_curve)))

peak_age = ages[np.argmax(odds_curve)]
print(f"three odds routes agree within {route_gap:.2e} across ages 30-95")
print(f"odds rise from {odds_curve[0]:.4f} at 30 to a peak of "
      f"{odds_curve.max():.4f} near age {peak_age:.0f}, then fall to "
      f"{odds_curve[-1]:.4f} at 95")

path = out_dir / "odds_by_age.csv"
with open(path, "w", newline="") as handle:
    writer = csv.writer(handle)
    writer.writerow(["age", "odds", "prevalence"])
    writer.writerows(rows)
print(f"wrote {path}")

# the bundled study counts show the same rise-and-fall in the raw group odds
table = AgeGroupTable.from_csv(
    str(resources.files("idmodds.data") / "table1.csv"), cross_section_time=t
)
print("\ngroup    observed odds   analytic odds at midpoint")
for lo, hi, n, c in zip(table.age_lo, table.age_hi, table.n, table.c):
    mid = 0.5 * (lo + hi)
    observed = c / (n - c)
    analytic = prevalence(model, t, mid).odds
    print(f"{lo:2.0f}-{hi:2.0f}       {observed:.4f}          {analytic:.4f}")
