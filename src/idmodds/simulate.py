"""Microsimulation of individual life courses on the (time, age) plane.

Each individual is born healthy, may contract the disease at the incidence
rate, and dies at the healthy or duration-dependent diseased mortality rate.
Event times are sampled exactly by inverting the closed-form cumulative
hazards against standard-exponential draws, so no discretization error
enters.  A cross-section of the simulated population at one calendar time
yields the aggregated current-status table that the estimator consumes.

Every individual consumes exactly four pre-drawn random numbers (birth
jitter, first-exit draw, event-type draw, duration draw), which makes the
output independent of evaluation order and safe to parallelize.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from idmodds.prevalence import diseased_population, healthy_population
from idmodds.quadrature import DEFAULT_QUADRATURE, adaptive_quad
from idmodds.rates import ExponentialIncidence, PositivePartIncidence, RateModel

__all__ = [
    "DEFAULT_AGE_GROUPS",
    "SimConfig",
    "LifeRecord",
    "PopulationLedger",
    "AgeGroupTable",
    "sample_life",
    "run_simulation",
    "cross_section",
    "replicate_study",
    "calibrate_births_per_year",
]

DEFAULT_AGE_GROUPS = tuple((40.0 + 5.0 * j, 45.0 + 5.0 * j) for j in range(11))


@dataclass(frozen=True)
class SimConfig:
    """Demography and bookkeeping of one simulated current-status study.

    ``births_per_year=None`` calibrates the birth rate so that the expected
    number alive within the age groups at the cross-section equals
    ``target_alive``.
    """

    births_per_year: Optional[float] = None
    birth_window: tuple = (0.0, 65.0)
    cross_section_time: float = 100.0
    age_groups: tuple = DEFAULT_AGE_GROUPS
    rng_seed: int = 0
    max_age: float = 110.0
    target_alive: float = 74388.0

    def __post_init__(self):
        lo, hi = self.birth_window
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("birth window must be a finite increasing interval")
        if self.births_per_year is not None and not self.births_per_year > 0.0:
            raise ValueError("births_per_year must be positive")
        if not self.target_alive > 0.0:
            raise ValueError("target_alive must be positive")
        if not self.max_age > 0.0:
            raise ValueError("max_age must be positive")
        if not self.cross_section_time >= lo:
            raise ValueError("cross section must lie after the first birth")
        if self.cross_section_time - lo > self.max_age:
            raise ValueError("earliest-born individuals would outlive max_age before the cross section")
        if len(self.age_groups) == 0:
            raise ValueError("at least one age group is required")
        previous_hi = -math.inf
        for glo, ghi in self.age_groups:
            if not glo < ghi:
                raise ValueError(f"age group [{glo}, {ghi}) is empty")
            if glo < previous_hi:
                raise ValueError("age groups must be disjoint and ascending")
            previous_hi = ghi
            # someone must be able to occupy the group at the cross section
            if not (self.cross_section_time - ghi < hi and self.cross_section_time - glo > lo):
                raise ValueError(
                    f"no birth in [{lo}, {hi}] can reach age group [{glo}, {ghi}) "
                    f"at t={self.cross_section_time}"
                )


@dataclass(frozen=True)
class LifeRecord:
    """One simulated life: birth, optional disease onset, optional death.

    A missing death time means the individual was still alive when follow-up
    stopped at ``max_age``.
    """

    birth_time: float
    onset_time: Optional[float] = None
    death_time: Optional[float] = None

    def __post_init__(self):
        if self.onset_time is not None and not self.onset_time > self.birth_time:
            raise ValueError("onset must come after birth")
        if self.death_time is not None:
            floor = self.onset_time if self.onset_time is not None else self.birth_time
            if not self.death_time > floor:
                raise ValueError("death must come after birth and onset")


@dataclass(frozen=True, eq=False)
class PopulationLedger:
    """Event times of a whole simulated population, NaN marking absent events."""

    birth: np.ndarray
    onset: np.ndarray
    death: np.ndarray

    def __post_init__(self):
        birth = np.asarray(self.birth, dtype=float)
        onset = np.asarray(self.onset, dtype=float)
        death = np.asarray(self.death, dtype=float)
        if not birth.shape == onset.shape == death.shape or birth.ndim != 1:
            raise ValueError("birth, onset and death must be matching 1-D arrays")
        has_onset = ~np.isnan(onset)
        has_death = ~np.isnan(death)
        if np.any(onset[has_onset] <= birth[has_onset]):
            raise ValueError("every onset must come after the birth")
        floor = np.where(has_onset, onset, birth)
        if np.any(death[has_death] <= floor[has_death]):
            raise ValueError("every death must come after birth and onset")
        object.__setattr__(self, "birth", birth)
        object.__setattr__(self, "onset", onset)
        object.__setattr__(self, "death", death)

    def __len__(self) -> int:
        return len(self.birth)

    def record(self, index: int) -> LifeRecord:
        onset = self.onset[index]
        death = self.death[index]
        return LifeRecord(
            float(self.birth[index]),
            None if math.isnan(onset) else float(onset),
            None if math.isnan(death) else float(death),
        )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["birth", "onset", "death"])
            for b, o, d in zip(self.birth, self.onset, self.death):
                writer.writerow(
                    [
                        repr(float(b)),
                        "" if math.isnan(o) else repr(float(o)),
                        "" if math.isnan(d) else repr(float(d)),
                    ]
                )

    @staticmethod
    def from_csv(path) -> "PopulationLedger":
        birth, onset, death = [], [], []
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != ["birth", "onset", "death"]:
                raise ValueError(f"line 1: expected header birth,onset,death, got {header}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 3:
                    raise ValueError(f"line {lineno}: expected 3 fields, got {len(row)}")
                try:
                    birth.append(float(row[0]))
                    onset.append(float(row[1]) if row[1] else math.nan)
                    death.append(float(row[2]) if row[2] else math.nan)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
        return PopulationLedger(np.array(birth), np.array(onset), np.array(death))


@dataclass(frozen=True, eq=False)
class AgeGroupTable:
    """Current-status counts per age group: alive ``n`` and diseased ``c``."""

    cross_section_time: float
    age_lo: np.ndarray
    age_hi: np.ndarray
    n: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        age_lo = np.asarray(self.age_lo, dtype=float)
        age_hi = np.asarray(self.age_hi, dtype=float)
        n = np.asarray(self.n, dtype=np.int64)
        c = np.asarray(self.c, dtype=np.int64)
        if not (age_lo.shape == age_hi.shape == n.shape == c.shape) or age_lo.ndim != 1:
            raise ValueError("table columns must be matching 1-D arrays")
        if np.any(age_lo >= age_hi):
            raise ValueError("age groups must have positive width")
        if np.any(age_lo[1:] < age_hi[:-1]):
            raise ValueError("age groups must be disjoint and ascending")
        if np.any(c < 0) or np.any(n < c):
            raise ValueError("counts must satisfy 0 <= c <= n")
        object.__setattr__(self, "age_lo", age_lo)
        object.__setattr__(self, "age_hi", age_hi)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)

    @property
    def k(self) -> np.ndarray:
        return np.arange(1, len(self.n) + 1)

    @property
    def n_total(self) -> int:
        return int(self.n.sum())

    @property
    def c_total(self) -> int:
        return int(self.c.sum())

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["k", "age_lo", "age_hi", "n", "c"])
            for k, lo, hi, n, c in zip(self.k, self.age_lo, self.age_hi, self.n, self.c):
                writer.writerow([int(k), repr(float(lo)), repr(float(hi)), int(n), int(c)])

    @staticmethod
    def from_csv(path, cross_section_time: float = math.nan) -> "AgeGroupTable":
        rows = []
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != ["k", "age_lo", "age_hi", "n", "c"]:
                raise ValueError(f"line 1: expected header k,age_lo,age_hi,n,c, got {header}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 5:
                    raise ValueError(f"line {lineno}: expected 5 fields, got {len(row)}")
                try:
                    k = int(row[0])
                    lo, hi = float(row[1]), float(row[2])
                    n, c = int(row[3]), int(row[4])
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
                if k != lineno - 1:
                    raise ValueError(f"line {lineno}: group index must be {lineno - 1}, got {k}")
                rows.append((lo, hi, n, c))
        if not rows:
            raise ValueError("table has no data rows")
        age_lo, age_hi, n, c = (np.array(col) for col in zip(*rows))
        try:
            return AgeGroupTable(cross_section_time, age_lo, age_hi, n, c)
        except ValueError as exc:
            raise ValueError(f"invalid table in {path}: {exc}") from None


class _HazardInversionError(RuntimeError):
    pass


def _invert_hazard(value_at, slope_at, target, cap):
    """Solve value_at(s) = target for s in [0, cap]; None when the cap is never reached.

    Newton iteration clipped to a shrinking bracket, with bisection whenever
    the step leaves it.  ``value_at`` must be nondecreasing with
    value_at(0) = 0.
    """
    f_cap = value_at(cap) - target
    if f_cap < 0.0:
        return None
    lo, hi = 0.0, cap
    s = 0.5 * cap
    for _ in range(200):
        f = value_at(s) - target
        if f < 0.0:
            lo = s
        else:
            hi = s
        slope = slope_at(s)
        if slope > 0.0:
            step = f / slope
            candidate = s - step
            if lo < candidate < hi:
                if abs(step) < 1e-10:
                    return candidate
                s = candidate
                continue
        if hi - lo < 1e-10:
            return 0.5 * (lo + hi)
        s = 0.5 * (lo + hi)
    raise _HazardInversionError("hazard inversion did not converge within 200 iterations")


class _LifeKernel:
    """Scalar samplers for one rate model, specialized per incidence family.

    The closed-form rate families admit plain ``math`` arithmetic along a
    life line, which is much faster than the vectorized model methods when
    called once per individual.  Tabulated incidence falls back to the model
    methods (with their internal quadrature).
    """

    def __init__(self, model: RateModel, max_age: float):
        self.model = model
        self.max_age = max_age
        self.lam = model.m0.slope
        self.xi1 = model.m0.xi1
        self.xi3 = model.m0.xi3
        ratio = model.ratio
        self.g1 = ratio.gamma1
        self.g2 = ratio.gamma2
        self.g3 = ratio.gamma3
        self.ratio_c0 = ratio.gamma1 * ratio.gamma2 * ratio.gamma2 + ratio.gamma3
        inc = model.incidence
        if isinstance(inc, PositivePartIncidence):
            self.family = "positive_part"
            self.alpha = inc.onset_age
            self.denominator = inc.denominator
        elif isinstance(inc, ExponentialIncidence):
            self.family = "exponential"
            self.inc_k0 = inc.k0
            self.inc_k2 = inc.k2
            self.kappa = inc.k1 + inc.k2
        else:
            self.family = "generic"

    # -- healthy phase ----------------------------------------------------

    def _healthy_solvers(self, birth):
        c0 = math.exp(self.xi1 + self.xi3 * birth)
        lam = self.lam
        if self.family == "positive_part":
            alpha, den = self.alpha, self.denominator

            def value(s):
                grown = s - alpha
                extra = grown * grown / (2.0 * den) if grown > 0.0 else 0.0
                return c0 * math.expm1(lam * s) / lam + extra

            def slope(s):
                grown = s - alpha
                return c0 * math.exp(lam * s) + (grown / den if grown > 0.0 else 0.0)

            def onset_rate(s):
                grown = s - alpha
                return grown / den if grown > 0.0 else 0.0

        elif self.family == "exponential":
            ci = math.exp(self.inc_k0 + self.inc_k2 * birth)
            kappa = self.kappa

            def value(s):
                if kappa == 0.0:
                    grown = ci * s
                else:
                    grown = ci * math.expm1(kappa * s) / kappa
                return c0 * math.expm1(lam * s) / lam + grown

            def slope(s):
                return c0 * math.exp(lam * s) + ci * math.exp(kappa * s)

            def onset_rate(s):
                return ci * math.exp(kappa * s)

        else:
            model = self.model

            def value(s):
                return float(
                    model.cumulative_m0(birth + s, s, s) + model.cumulative_incidence(birth + s, s, s)
                )

            def slope(s):
                return float(model.mortality_healthy(birth + s, s) + model.incidence_rate(birth + s, s))

            def onset_rate(s):
                return float(model.incidence_rate(birth + s, s))

        def death_rate(s):
            return c0 * math.exp(lam * s)

        return value, slope, onset_rate, death_rate

    # -- diseased phase ---------------------------------------------------

    def _course_hazard(self, onset_time, onset_age):
        """Cumulative diseased mortality over duration d for a course starting at onset."""
        base = math.exp(self.xi1 + self.xi3 * (onset_time - onset_age) + self.lam * onset_age)
        lam, g1, g2 = self.lam, self.g1, self.g2
        weight0 = self.ratio_c0

        def value(d):
            x = lam * d
            j0 = math.expm1(x) / lam
            if abs(x) < 1e-3:
                d2 = d * d
                j1 = d2 * (0.5 + x * (1.0 / 3.0 + x * (0.125 + x * (1.0 / 30.0 + x / 144.0))))
                j2 = d2 * d * (1.0 / 3.0 + x * (0.25 + x * (0.1 + x * (1.0 / 36.0 + x / 168.0))))
            else:
                ex = math.exp(x)
                j1 = (ex * (x - 1.0) + 1.0) / (lam * lam)
                j2 = (ex * (x * x - 2.0 * x + 2.0) - 2.0) / (lam * lam * lam)
            return base * (g1 * j2 - 2.0 * g1 * g2 * j1 + weight0 * j0)

        g3 = self.g3

        def slope(d):
            off = d - g2
            return base * math.exp(lam * d) * (g1 * off * off + g3)

        return value, slope

    # -- one full life ----------------------------------------------------

    def simulate(self, birth, exit_draw, type_draw, duration_draw):
        """Event times for one individual from its three unit draws.

        Returns (onset_time, death_time) with NaN for absent events.
        """
        value, slope, onset_rate, death_rate = self._healthy_solvers(birth)
        first_exit = _invert_hazard(value, slope, exit_draw, self.max_age)
        if first_exit is None:
            return math.nan, math.nan
        total = onset_rate(first_exit) + death_rate(first_exit)
        if type_draw * total >= onset_rate(first_exit):
            return math.nan, birth + first_exit
        onset_age = first_exit
        onset_time = birth + first_exit
        course_value, course_slope = self._course_hazard(onset_time, onset_age)
        duration = _invert_hazard(course_value, course_slope, duration_draw, self.max_age - onset_age)
        if duration is None:
            return onset_time, math.nan
        return onset_time, onset_time + duration


def sample_life(model: RateModel, birth_time: float, rng, max_age: float = SimConfig.max_age) -> LifeRecord:
    """Draw one complete life course starting healthy at ``birth_time``.

    Consumes exactly three draws from ``rng`` (first exit, event type,
    disease duration) regardless of the path taken, so consuming streams
    stay aligned across individuals.
    """
    exit_draw = float(rng.exponential())
    type_draw = float(rng.random())
    duration_draw = float(rng.exponential())
    kernel = _LifeKernel(model, max_age)
    onset, death = kernel.simulate(birth_time, exit_draw, type_draw, duration_draw)
    return LifeRecord(
        birth_time,
        None if math.isnan(onset) else onset,
        None if math.isnan(death) else death,
    )


def calibrate_births_per_year(
    model: RateModel, config: SimConfig, quadrature=DEFAULT_QUADRATURE
) -> float:
    """Birth rate whose expected alive count in the age groups hits the target.

    With births uniform at rate one per year, the expected number alive at
    age a at the cross-section is the total survival (healthy plus diseased),
    so the expectation per unit rate is its integral over the group spans,
    clipped to ages reachable from the birth window.
    """
    t_cross = config.cross_section_time
    reach_lo = t_cross - config.birth_window[1]
    reach_hi = t_cross - config.birth_window[0]

    def alive_density(age):
        return healthy_population(model, t_cross, age) + diseased_population(
            model, t_cross, age, None, quadrature
        )

    expected_per_rate = 0.0
    for glo, ghi in config.age_groups:
        lo = max(glo, reach_lo)
        hi = min(ghi, reach_hi)
        if lo >= hi:
            continue
        expected_per_rate += adaptive_quad(
            lambda age: np.array([alive_density(float(x)) for x in np.atleast_1d(age)]),
            lo,
            hi,
            quadrature,
        )
    if expected_per_rate <= 0.0:
        raise ValueError("no age group is reachable from the birth window")
    return config.target_alive / expected_per_rate


def _birth_schedule(config: SimConfig, births_per_year: float):
    """Number of births per one-year slice of the window, by cumulative rounding."""
    lo, hi = config.birth_window
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
    return starts, lengths, counts


def run_simulation(model: RateModel, config: SimConfig) -> PopulationLedger:
    """Simulate every birth in the window and return the full event ledger.

    Deterministic for a given seed: all random numbers are drawn up front in
    a fixed layout (four per individual), then each life is computed
    independently.
    """
    births_per_year = (
        config.births_per_year
        if config.births_per_year is not None
        else calibrate_births_per_year(model, config)
    )
    starts, lengths, counts = _birth_schedule(config, births_per_year)
    total = sum(counts)
    rng = np.random.default_rng(config.rng_seed)
    jitter = rng.random(total)
    exit_draws = rng.exponential(size=total)
    type_draws = rng.random(total)
    duration_draws = rng.exponential(size=total)

    birth = np.empty(total)
    position = 0
    for start, length, count in zip(starts, lengths, counts):
        birth[position : position + count] = start + jitter[position : position + count] * length
        position += count

    kernel = _LifeKernel(model, config.max_age)
    onset = np.empty(total)
    death = np.empty(total)
    simulate = kernel.simulate
    for index in range(total):
        onset[index], death[index] = simulate(
            float(birth[index]),
            float(exit_draws[index]),
            float(type_draws[index]),
            float(duration_draws[index]),
        )
    return PopulationLedger(birth, onset, death)


def cross_section(ledger: PopulationLedger, config: SimConfig) -> AgeGroupTable:
    """Count alive and diseased per age group at the configured cross-section time."""
    t_cross = config.cross_section_time
    alive = (ledger.birth <= t_cross) & (np.isnan(ledger.death) | (ledger.death > t_cross))
    diseased = alive & ~np.isnan(ledger.onset) & (ledger.onset <= t_cross)
    age = t_cross - ledger.birth
    groups = np.asarray(config.age_groups, dtype=float)
    n = np.empty(len(groups), dtype=np.int64)
    c = np.empty(len(groups), dtype=np.int64)
    for index, (lo, hi) in enumerate(groups):
        in_group = (age >= lo) & (age < hi)
        n[index] = np.count_nonzero(alive & in_group)
        c[index] = np.count_nonzero(diseased & in_group)
    return AgeGroupTable(t_cross, groups[:, 0], groups[:, 1], n, c)


def _one_replicate(args):
    model, config, seed = args
    seeded = replace(config, rng_seed=seed)
    return cross_section(run_simulation(model, seeded), seeded)


def replicate_study(
    model: RateModel, config: SimConfig, n_replicates: int, workers: int = 1
) -> list:
    """Independent seeded repetitions of simulate-then-tabulate.

    Replicate i uses seed ``rng_seed + i``; results do not depend on
    ``workers``.
    """
    if n_replicates < 1:
        raise ValueError("n_replicates must be at least 1")
    jobs = [(model, config, config.rng_seed + i) for i in range(n_replicates)]
    if workers <= 1 or n_replicates == 1:
        return [_one_replicate(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=min(workers, n_replicates)) as pool:
        return list(pool.map(_one_replicate, jobs))
