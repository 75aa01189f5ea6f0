"""Microsimulation of individual life courses on the (time, age) plane.

Each individual is born healthy, may contract the disease at the incidence
rate, and dies at the healthy or duration-dependent diseased mortality rate.
Event times are sampled exactly by inverting the closed-form cumulative
hazards against standard-exponential draws, so no discretization error
enters.  A cross-section of the simulated population at one calendar time
yields the aggregated current-status table that the estimator consumes.

Every birth consumes exactly four pre-drawn random numbers (birth jitter,
first-exit draw, event-type draw, duration draw), which makes the output
independent of evaluation order and of which lives are solved: only those
an age group can hold at the cross-section are.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from idmodds.prevalence import diseased_population, healthy_population
from idmodds.quadrature import DEFAULT_QUADRATURE, adaptive_quad_many

# adaptive_quad is unused here but kept importable: the benchmark tracer (perfbench/spans.py) patches it
from idmodds.quadrature import adaptive_quad  # noqa: F401
from idmodds.rates import RateModel

__all__ = [
    "DEFAULT_AGE_GROUPS",
    "SimConfig",
    "SimulationHorizonError",
    "EmptyStudyError",
    "StudySizeError",
    "SamplerConvergenceError",
    "PopulationLedger",
    "AgeGroupTable",
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
        previous_hi = 0.0
        for glo, ghi in self.age_groups:
            if not (math.isfinite(glo) and math.isfinite(ghi)):
                raise ValueError(f"age group [{glo}, {ghi}) must have finite limits")
            if not glo < ghi:
                raise ValueError(f"age group [{glo}, {ghi}) is empty")
            if glo < previous_hi:
                raise ValueError("age groups must be nonnegative, disjoint and ascending")
            previous_hi = ghi
            # someone must be able to occupy the group at the cross section
            if not (self.cross_section_time - ghi < hi and self.cross_section_time - glo > lo):
                raise ValueError(
                    f"no birth in [{lo}, {hi}] can reach age group [{glo}, {ghi}) "
                    f"at t={self.cross_section_time}"
                )


@dataclass(frozen=True, eq=False)
class PopulationLedger:
    """Event times of a whole simulated population, NaN marking events that did not happen during follow-up."""

    birth: np.ndarray
    onset: np.ndarray
    death: np.ndarray

    def __post_init__(self):
        birth, onset, death = (np.asarray(column, dtype=float) for column in (self.birth, self.onset, self.death))
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
        try:
            n = np.asarray(self.n, dtype=np.int64)
            c = np.asarray(self.c, dtype=np.int64)
        except OverflowError:
            raise ValueError("counts must fit in a 64-bit integer") from None
        if not (age_lo.shape == age_hi.shape == n.shape == c.shape) or age_lo.ndim != 1:
            raise ValueError("table columns must be matching 1-D arrays")
        if not (np.all(np.isfinite(age_lo)) and np.all(np.isfinite(age_hi))):
            raise ValueError("age limits must be finite")
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


class SimulationHorizonError(ValueError):
    """The mortality ratio is not positive over every duration a simulated disease course can reach."""


class EmptyStudyError(ValueError):
    """The configured rates leave no one expected alive in the age groups."""


class StudySizeError(ValueError):
    """The study would simulate more lives, or span a longer birth window, than one run may hold."""


class SamplerConvergenceError(RuntimeError):
    """The hazard inversion left lives unsolved after the step limit."""


# A study selects and solves its lives this many births at a time, which bounds
# the per-step temporaries (a tabulated incidence adds a column per grid line)
# and the selected copies of the draws, while keeping the array arithmetic.
_CHUNK = 16_384
# Newton-with-bisection steps allowed per life, and its convergence tolerance in years.
_MAX_STEPS = 200
_TOL = 1e-10
# Most lives one study may simulate, about 78 times the reference study's
# 129 000; each life holds four draws and three event times in memory at once.
_MAX_LIVES = 10_000_000
# Longest birth window, in years, whose one-year slices are numbered exactly in floating point.
_MAX_SPAN = 2.0**52


def _invert(value_at, rate_at, target, cap):
    """Solve value_at(i, s) = target[i] for s in [0, cap[i]] for all lives i; NaN where the cap is never reached.

    Newton iteration clipped to a shrinking bracket, with bisection whenever
    the step leaves it.  Each life stops on its own, at a Newton step or a
    bracket shorter than ``_TOL``, and only the unfinished ones are
    evaluated again.  ``value_at`` must be nondecreasing in ``s`` with value
    0 at ``s = 0``; ``rate_at`` is its derivative.
    """
    out = np.full(target.shape, np.nan)
    live = np.flatnonzero(value_at(np.arange(target.size), cap) - target >= 0.0)
    lo = np.zeros(live.size)
    hi = cap[live]
    s = 0.5 * hi
    for _ in range(_MAX_STEPS):
        if live.size == 0:
            return out
        f = value_at(live, s) - target[live]
        below = f < 0.0
        lo = np.where(below, s, lo)
        hi = np.where(below, hi, s)
        slope = rate_at(live, s)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = f / slope
            candidate = s - step
        # a step that lands on the root can fall on a bracket end, which still counts
        converged = (slope > 0.0) & (np.abs(step) < _TOL)
        newton = converged | ((slope > 0.0) & (lo < candidate) & (candidate < hi))
        s = np.where(newton, np.clip(candidate, lo, hi), 0.5 * (lo + hi))
        done = np.where(newton, converged, hi - lo < _TOL)
        out[live[done]] = s[done]
        busy = ~done
        live, s, lo, hi = live[busy], s[busy], lo[busy], hi[busy]
    if live.size:
        raise SamplerConvergenceError(
            f"hazard inversion did not converge within {_MAX_STEPS} iterations for {live.size} lives"
        )
    return out


def _life_courses(model: RateModel, birth, exit_draws, type_draws, duration_draws, max_age: float, end_age):
    """Onset and death times of lives born healthy and followed to age ``end_age``, NaN marking absent events.

    Each life inverts the healthy cumulative hazard (mortality plus
    incidence) at its exit draw, lets its type draw pick onset or death in
    proportion to the two rates at that age, and after an onset inverts the
    course's cumulative diseased mortality at its duration draw.  A life
    whose hazard stays below the draw until its ``end_age`` (a scalar or one
    age per life, none above ``max_age``) is censored there.  All lives are
    solved as one batch, so the caller bounds its size.  Raises
    SimulationHorizonError when the mortality ratio is not positive on
    [0, max_age].
    """
    try:
        replace(model.ratio, max_duration=max_age)
    except ValueError as error:
        raise SimulationHorizonError(
            f"{error}; a simulated disease course can last up to max_age={max_age:g} years"
        ) from None
    end_age = np.broadcast_to(np.asarray(end_age, dtype=float), birth.shape)
    onset, death = np.full((2, birth.size), np.nan)
    first_exit = _invert(
        lambda i, s: model.cumulative_m0(birth[i] + s, s, s) + model.cumulative_incidence(birth[i] + s, s, s),
        lambda i, s: model.mortality_healthy(birth[i] + s, s) + model.incidence_rate(birth[i] + s, s),
        exit_draws,
        end_age,
    )
    exited = np.flatnonzero(~np.isnan(first_exit))
    age = first_exit[exited]
    when = birth[exited] + age
    onset_rate = model.incidence_rate(when, age)
    total = onset_rate + model.mortality_healthy(when, age)
    sick = type_draws[exited] * total < onset_rate
    death[exited[~sick]] = when[~sick]
    onset_time = when[sick]
    duration = _course_durations(model, onset_time, age[sick], duration_draws[exited[sick]], end_age[exited[sick]])
    onset[exited[sick]] = onset_time
    death[exited[sick]] = onset_time + duration
    return onset, death


def _course_durations(model: RateModel, onset_time, onset_age, draws, end_age):
    """Disease durations that spend the draws of cumulative diseased mortality; NaN when alive at ``end_age``."""
    return _invert(
        lambda i, d: model.cumulative_m1(onset_time[i] + d, onset_age[i] + d, d),
        lambda i, d: model.mortality_diseased(onset_time[i] + d, onset_age[i] + d, d),
        draws,
        end_age - onset_age,
    )


def calibrate_births_per_year(model: RateModel, config: SimConfig, quadrature=DEFAULT_QUADRATURE) -> float:
    """Birth rate whose expected alive count in the age groups hits the target.

    With births uniform at rate one per year, the expected number alive at
    age a at the cross-section is the total survival (healthy plus diseased),
    so the expectation per unit rate is its integral over the group spans,
    clipped to ages reachable from the birth window, in one batch.  Raises
    EmptyStudyError when that expectation is zero.
    """
    t_cross = config.cross_section_time
    groups = np.asarray(config.age_groups, dtype=float)
    # SimConfig lets no group lie out of reach, so every span is nonempty
    lo = np.maximum(groups[:, 0], t_cross - config.birth_window[1])
    hi = np.minimum(groups[:, 1], t_cross - config.birth_window[0])

    def alive_density(ages, group):
        # every node's diseased count is one integral of the same batch
        return healthy_population(model, t_cross, ages) + diseased_population(model, t_cross, ages, quadrature)

    # summed left to right, in group order, as one integral after another would be
    expected_per_rate = float(np.cumsum(adaptive_quad_many(alive_density, lo, hi, quadrature))[-1])
    if expected_per_rate <= 0.0:
        raise EmptyStudyError("the configured rates leave no one expected alive in the age groups")
    return config.target_alive / expected_per_rate


def _birth_schedule(lo: float, span: float, births_per_year: float, rng) -> np.ndarray:
    """Birth times over the window [lo, lo + span], each a jitter draw from ``rng`` into its one-year slice.

    At r births a year, slice j holds the lives numbered from round(r * j)
    up to, not including, round(r * min(j + 1, span)).  Each life steps to
    its slice from a first guess, so time and memory grow with the lives,
    not with the slices.
    """
    last = math.ceil(span - 1e-12) - 1.0

    def born_by_end(j):
        return np.round(births_per_year * np.minimum(j + 1.0, span))

    life = np.arange(born_by_end(last))
    # a rounding tie can put the guess one slice early, a product rounded onto a tie one slice late
    j = np.minimum(np.ceil((life + 0.5) / births_per_year) - 1.0, last)
    while np.any(early := born_by_end(j) <= life):
        j[early] += 1.0
    while np.any(late := (j > 0.0) & (born_by_end(j - 1.0) > life)):
        j[late] -= 1.0
    return lo + j + rng.random(j.size) * (np.minimum(j + 1.0, span) - j)


def run_simulation(model: RateModel, config: SimConfig) -> PopulationLedger:
    """Simulate the births in the window and return the events of the lives an age group can hold.

    Every birth up to the cross-section takes its four draws, in a fixed
    layout drawn up front, so a seed gives the same lives however many are
    solved; only those whose age at the cross-section lies in a group are
    solved and kept, since no table counts the others.  Each is followed
    until the cross-section; an onset or death after it is NaN, like one
    that never happens.  Raises StudySizeError, before any draw, when the
    births over the window up to the cross-section exceed the cap on lives
    or span too many years, and SimulationHorizonError when the mortality
    ratio is not positive on [0, max_age].
    """
    births_per_year = config.births_per_year or calibrate_births_per_year(model, config)
    # births after the cross-section never enter the study
    lo, hi = config.birth_window
    span = min(hi, config.cross_section_time) - lo
    lives = births_per_year * span
    if not lives <= _MAX_LIVES:
        raise StudySizeError(f"the study would simulate {lives:.4g} lives, more than the {_MAX_LIVES} one run may hold")
    if not span < _MAX_SPAN:
        raise StudySizeError(f"the birth window spans {span:.4g} years, more than the {_MAX_SPAN:.4g} one run may hold")
    rng = np.random.default_rng(config.rng_seed)
    birth = _birth_schedule(lo, span, births_per_year, rng)
    draws = (birth, rng.exponential(size=birth.size), rng.random(birth.size), rng.exponential(size=birth.size))
    onset, death = np.full((2, birth.size), np.nan)
    kept = 0
    # one pass at least, so that a study without births still checks the horizon
    for start in range(0, max(birth.size, 1), _CHUNK):
        part = slice(start, start + _CHUNK)
        age = config.cross_section_time - birth[part]
        held = np.flatnonzero(np.logical_or.reduce([_in_group(age, glo, ghi) for glo, ghi in config.age_groups]))
        born, exits, types, durations = (column[part][held] for column in draws)
        rows = slice(kept, kept + held.size)
        # no study sees an event after the cross-section, so no life is followed past it
        onset[rows], death[rows] = _life_courses(model, born, exits, types, durations, config.max_age, age[held])
        # held births move to the front, over births that this chunk or an earlier one has read
        birth[rows] = born
        kept = rows.stop
    return PopulationLedger(birth[:kept], onset[:kept], death[:kept])


def _in_group(age, lo, hi):
    """Whether ages at the cross-section lie in the age group [lo, hi): the one membership rule of sampler and table."""
    return (age >= lo) & (age < hi)


def cross_section(ledger: PopulationLedger, config: SimConfig) -> AgeGroupTable:
    """Count alive and diseased per age group at the configured cross-section time."""
    t_cross = config.cross_section_time
    # no group starts below age 0, so it holds no one born after the cross-section
    alive = np.isnan(ledger.death) | (ledger.death > t_cross)
    diseased = alive & (ledger.onset <= t_cross)
    age = t_cross - ledger.birth
    groups = np.asarray(config.age_groups, dtype=float)
    members = [_in_group(age, lo, hi) for lo, hi in groups]
    n, c = ([np.count_nonzero(status & member) for member in members] for status in (alive, diseased))
    return AgeGroupTable(t_cross, groups[:, 0], groups[:, 1], n, c)


def _one_replicate(args):
    model, config, seed = args
    seeded = replace(config, rng_seed=seed)
    return cross_section(run_simulation(model, seeded), seeded)


def replicate_study(model: RateModel, config: SimConfig, n_replicates: int, workers: int = 1) -> list:
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
