"""One simulated cross-sectional study, compared to its generating model.

Calibrates the birth rate so the expected number alive at the cross-section
matches the reference study, simulates every life line with the event-time
sampler, tabulates current status by five-year age group, and checks the
observed disease fractions against the analytic prevalence.  Ends with a
maximum-likelihood refit of the mortality-ratio parameters from the
simulated counts.  Takes roughly ten seconds.  Writes
demo_out/simulated_study.csv.
"""

import math
import time
from pathlib import Path

from idmodds import (
    FitConfig,
    SimConfig,
    calibrate_births_per_year,
    cross_section,
    fit,
    group_prevalence,
    reference_rate_model,
    run_simulation,
)

out_dir = Path("demo_out")
out_dir.mkdir(exist_ok=True)

model = reference_rate_model()
base = SimConfig(rng_seed=0)

births = calibrate_births_per_year(model, base)
config = SimConfig(births_per_year=births, rng_seed=base.rng_seed)
print(f"calibrated births per year: {births:.4f} "
      f"(expected alive at t={config.cross_section_time:.0f}: {config.target_alive:.0f})")

start = time.perf_counter()
ledger = run_simulation(model, config)
table = cross_section(ledger, config)
print(f"solved the {len(ledger.birth)} lives the age groups can hold in {time.perf_counter() - start:.1f}s; "
      f"cross-section holds {table.n_total} alive, {table.c_total} diseased")

print("\ngroup    n      c     observed   analytic   z")
extreme = 0
expected = group_prevalence(model, table.age_lo, table.age_hi, config.cross_section_time)
for lo, hi, n, c, p in zip(table.age_lo, table.age_hi, table.n, table.c, expected.tolist()):
    z = (c / n - p) / math.sqrt(p * (1.0 - p) / n)
    extreme += abs(z) > 2.5758
    print(f"{lo:2.0f}-{hi:2.0f}   {n:5d}  {c:4d}   {c / n:.4f}     {p:.4f}   {z:+.2f}")
print(f"{extreme}/11 groups outside the 99% binomial band")

path = out_dir / "simulated_study.csv"
table.to_csv(path)
print(f"wrote {path}")

start = time.perf_counter()
result = fit(table, FitConfig())
print(f"\nrefit of the simulated table in {time.perf_counter() - start:.1f}s: "
      f"gamma_hat=({result.gamma_hat[0]:.4f}, {result.gamma_hat[1]:.3f}, "
      f"{result.gamma_hat[2]:.4f}) vs generating (0.04, 5, 1)")
if result.ci95 is not None:
    inside = all(lo <= g <= hi for (lo, hi), g in zip(result.ci95, (0.04, 5.0, 1.0)))
    print(f"generating parameters inside all three 95% intervals: {inside}")
