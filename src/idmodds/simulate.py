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
import io
import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from idmodds.prevalence import diseased_population, healthy_population
from idmodds.quadrature import adaptive_quad_many

# adaptive_quad is unused here but kept importable: the benchmark tracer (perfbench/spans.py) patches it
from idmodds.quadrature import adaptive_quad  # noqa: F401
from idmodds.rates import RateModel

__all__ = [
    "DEFAULT_AGE_GROUPS",
    "SimConfig",
    "EmptyStudyError",
    "StudySizeError",
    "SamplerConvergenceError",
    "PopulationLedger",
    "AgeGroupTable",
    "check_age_groups",
    "atomic_write_text",
    "run_simulation",
    "cross_section",
    "replicate_study",
    "calibrate_births_per_year",
]

DEFAULT_AGE_GROUPS = tuple((40.0 + 5.0 * j, 45.0 + 5.0 * j) for j in range(11))


def check_age_groups(age_lo, age_hi) -> None:
    """The one rule for age groups, of a study design, a table and a fit alike; ValueError names the first breach.

    Every limit is finite, every group has positive width and starts no
    earlier than the one before it ends, and the first starts at age 0 or later.
    """
    lo, hi = np.asarray(age_lo, dtype=float).ravel(), np.asarray(age_hi, dtype=float).ravel()
    bad = ~(np.isfinite(lo) & np.isfinite(hi) & (lo < hi) & (lo >= np.append(0.0, hi[:-1])))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            "age groups must have finite limits and nonnegative ages, positive width, and be ascending and "
            f"disjoint; group {k + 1} [{lo[k]:g}, {hi[k]:g}) is not"
        )


def _whole_number(value, name: str, least: int) -> int:
    """``value`` as an int, if it is an integer of at least ``least``; an integral float counts, a bool does not."""
    whole = isinstance(value, (int, np.integer)) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` by renaming a temporary file over it; a failed write leaves ``path`` as it was."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as stream:
            stream.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


@dataclass(frozen=True)
class SimConfig:
    """Demography and bookkeeping of one simulated current-status study.

    ``births_per_year=None`` calibrates the birth rate so that the expected
    number alive within the age groups at the cross-section equals
    ``target_alive``.  ``birth_window`` and each of ``age_groups`` are
    (lo, hi) pairs, stored as tuples; ``rng_seed`` is stored as an int.
    """

    births_per_year: Optional[float] = None
    birth_window: tuple = (0.0, 65.0)
    cross_section_time: float = 100.0
    age_groups: tuple = DEFAULT_AGE_GROUPS
    rng_seed: int = 0
    target_alive: float = 74388.0

    def __post_init__(self):
        object.__setattr__(self, "birth_window", tuple(self.birth_window))
        object.__setattr__(self, "age_groups", tuple(tuple(group) for group in self.age_groups))
        object.__setattr__(self, "rng_seed", _whole_number(self.rng_seed, "rng_seed", 0))
        if len(self.birth_window) != 2:
            raise ValueError(f"birth_window must be a (lo, hi) pair, got {self.birth_window}")
        lo, hi = self.birth_window
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("birth window must be a finite increasing interval")
        if self.births_per_year is not None and not self.births_per_year > 0.0:
            raise ValueError("births_per_year must be positive")
        if not self.target_alive > 0.0:
            raise ValueError("target_alive must be positive")
        if not math.isfinite(self.cross_section_time):
            raise ValueError(f"cross_section_time must be finite, got {self.cross_section_time}")
        if not self.cross_section_time >= lo:
            raise ValueError("cross section must lie after the first birth")
        if not self.age_groups or any(len(group) != 2 for group in self.age_groups):
            raise ValueError(f"age_groups must be one or more (lo, hi) pairs, got {self.age_groups}")
        check_age_groups(*zip(*self.age_groups))
        for glo, ghi in self.age_groups:
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
        # whole columns compared: NaN, an event that did not happen, compares False
        if np.any(onset <= birth):
            raise ValueError("every onset must come after the birth")
        if np.any(death <= np.fmax(onset, birth)):
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
        check_age_groups(age_lo, age_hi)
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
        """Write the table as CSV with header k,age_lo,age_hi,n,c, atomically (see :func:`atomic_write_text`)."""
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["k", "age_lo", "age_hi", "n", "c"])
        for k, lo, hi, n, c in zip(self.k, self.age_lo, self.age_hi, self.n, self.c):
            writer.writerow([int(k), repr(float(lo)), repr(float(hi)), int(n), int(c)])
        atomic_write_text(path, text.getvalue())

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


class EmptyStudyError(ValueError):
    """The configured rates leave no one expected alive in the age groups."""


class StudySizeError(ValueError):
    """The study would simulate more lives, or span a longer birth window, than one run may hold."""


class SamplerConvergenceError(RuntimeError):
    """The hazard inversion left lives unsolved after the step limit."""


# Most lives in one hazard call, and births screened for held lives at a time: this bounds the per-step
# temporaries (a tabulated incidence adds a column per grid line) while keeping the array arithmetic.
_CHUNK = 16_384
# Newton-with-bisection steps allowed per life, and its convergence tolerance in years.
_MAX_STEPS = 200
_TOL = 1e-10
# Most lives one study may simulate, about 78 times the reference study's
# 129 000; each life holds its four draws in memory at once, its events written over them.
_MAX_LIVES = 10_000_000
# Longest birth window, in years, whose one-year slices are numbered exactly in floating point.
_MAX_SPAN = 2.0**52


def _invert(hazard_at, target, cap):
    """Solve H(i, s) = target[i] for s in [0, cap[i]], each s written over its target; NaN where H stays below.

    ``hazard_at(i, s)`` returns H at ``s`` for the lives ``i`` and its slope
    in ``s``; H must be nondecreasing, and at most the target at ``s = 0``.
    At most ``_CHUNK`` lives are in flight; as they finish, the next are
    taken in, screened at the cap in the same hazard call.  Newton steps on
    log H - log target, which an exponential hazard makes nearly linear,
    start at the cap, clipped to a shrinking bracket, with bisection when a
    step leaves it or is not finite, as at a zero slope or a zero H.  A life
    stops at a step or bracket shorter than ``_TOL`` years, within
    ``_MAX_STEPS`` steps, so its steps do not depend on the lives in flight.
    """
    live, (s, lo, hi, goal) = np.empty(0, dtype=np.intp), np.empty((4, 0))
    rounds = [0]  # how many lives were taken in before each round
    while live.size or rounds[-1] < target.size:
        new = np.arange(rounds[-1], min(rounds[-1] + _CHUNK - live.size, target.size))
        rounds.append(rounds[-1] + new.size)
        # a life taken in starts at its cap, bracketed by [0, cap]
        live, goal = np.concatenate((live, new)), np.concatenate((goal, target[new]))
        s, lo, hi = (np.concatenate(pair) for pair in ((s, cap[new]), (lo, np.zeros(new.size)), (hi, cap[new])))
        s, lo, hi, done = _newton_step(*hazard_at(live, s), goal, s, lo, hi, live.size - new.size)
        finished = np.flatnonzero(done)
        target[live[finished]] = s[finished]
        busy = np.flatnonzero(~done)
        live, s, lo, hi, goal = live[busy], s[busy], lo[busy], hi[busy], goal[busy]
        # live keeps the order lives were taken in, so those out of steps, taken _MAX_STEPS rounds ago, lead it
        if len(rounds) >= _MAX_STEPS and (stuck := np.searchsorted(live, rounds[-_MAX_STEPS])):
            raise SamplerConvergenceError(
                f"hazard inversion did not converge within {_MAX_STEPS} iterations for {stuck} lives"
            )
    return target


def _newton_step(value, slope, goal, s, lo, hi, fresh):
    """One step from H = ``value`` at ``s``: next points, brackets and which are done; new lives from ``fresh`` on."""
    below = value < goal
    lo, hi = np.where(below, s, lo), np.where(below, hi, s)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = np.log(value / goal) * value / slope
        candidate = s - step
    # a step that lands on the root can fall on a bracket end, which still counts
    converged = (positive := slope > 0.0) & (np.abs(step) < _TOL)
    newton = converged | (positive & (lo < candidate) & (candidate < hi))
    s = np.where(newton, np.minimum(np.maximum(candidate, lo), hi), 0.5 * (lo + hi))
    done = converged | (~newton & (hi - lo < _TOL))
    # a life just taken in, at its cap, that is below its goal there is done, unsolved
    s[fresh:][below[fresh:]] = np.nan
    done[fresh:] |= below[fresh:]
    return s, lo, hi, done


def _life_courses(model: RateModel, birth, exit_draws, type_draws, duration_draws, end_age):
    """Onset and death times of lives born healthy and followed to age ``end_age``, NaN marking absent events.

    Each life inverts the healthy cumulative hazard (mortality plus
    incidence) at its exit draw, lets its type draw pick onset or death in
    proportion to the two rates at that age, and after an onset inverts the
    course's cumulative diseased mortality at its duration draw.  A life
    whose hazard stays below the draw until its ``end_age`` (a scalar or one
    age per life) is censored there.  Onsets are written over the exit
    draws and deaths over the duration draws, which are returned.  No step
    reaches past ``end_age``, so it is checked once: RateDomainError when
    negative.  Raises RatioHorizonError when the mortality ratio is not
    positive on the durations the courses reach, which end at ``end_age``.
    """
    end_age = np.broadcast_to(np.asarray(end_age, dtype=float), birth.shape)
    model.check_span(end_age, end_age)
    onset, death = _invert(lambda i, s: model.exit_hazard_rate(birth[i] + s, s, s), exit_draws, end_age), duration_draws
    exited = np.flatnonzero(~np.isnan(onset))
    age = onset[exited]
    when = birth[exited] + age
    onset_rate = model.incidence_rate(when, age)
    sick = (onset_rate + model.mortality_healthy(when, age)) * type_draws[exited] < onset_rate
    course = exited[sick]
    age, caps, draws = age[sick], end_age[course] - age[sick], death[course]
    death.fill(np.nan)
    death[exited] = when
    onset[exited] = np.where(sick, when, np.nan)
    # the exits' arrays and the end ages are freed before the courses' hazard calls
    del exited, when, onset_rate, sick, end_age
    # no course reaches past its cap, so R is checked once, on the caps, and the steps evaluate m1 unchecked
    model.check_ratio(caps)
    duration = _invert(lambda i, d: model.course_hazard_rate(onset[course[i]] + d, age[i] + d, d), draws, caps)
    death[course] += duration
    return onset, death


def calibrate_births_per_year(model: RateModel, config: SimConfig) -> float:
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
        return healthy_population(model, t_cross, ages) + diseased_population(model, t_cross, ages)

    # summed left to right, in group order, as one integral after another would be
    expected_per_rate = float(np.cumsum(adaptive_quad_many(alive_density, lo, hi))[-1])
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
    that never happens.  The held lives' draws move to the front of the
    arrays, ``_CHUNK`` births at a time, and each inversion runs once over
    them all, at most ``_CHUNK`` lives in flight; the ledger is the front of
    the birth, exit-draw and duration-draw arrays, events written over spent
    draws.  Raises StudySizeError, before any draw, when the births over the
    window up to the cross-section exceed the cap on lives or span too many
    years.  Raises RatioHorizonError when the mortality ratio is not
    positive on the durations the solved courses reach: at most the oldest
    group's upper limit, and at most the cross-section time minus the first
    birth.  A study that solves no life never reads it.
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
    kept = 0
    for start in range(0, birth.size, _CHUNK):
        age = config.cross_section_time - birth[start : start + _CHUNK]
        held = start + np.flatnonzero(np.logical_or.reduce([_in_group(age, *group) for group in config.age_groups]))
        for column in draws:
            column[kept : kept + held.size] = column[held]
        kept += held.size
    birth, exits, types, durations = (column[:kept] for column in draws)
    # no study sees an event after the cross-section, so no life is followed past it
    onset, death = _life_courses(model, birth, exits, types, durations, config.cross_section_time - birth)
    return PopulationLedger(birth, onset, death)


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
    ``workers``.  Without a configured birth rate, the rate is calibrated
    once, before the replicates start.
    """
    if n_replicates < 1:
        raise ValueError("n_replicates must be at least 1")
    if config.births_per_year is None:
        config = replace(config, births_per_year=calibrate_births_per_year(model, config))
    jobs = [(model, config, config.rng_seed + i) for i in range(n_replicates)]
    if workers <= 1 or n_replicates == 1:
        return [_one_replicate(job) for job in jobs]
    # imported here, its only user, so serial runs skip multiprocessing and its start-up cost
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, n_replicates)) as pool:
        return list(pool.map(_one_replicate, jobs))
