"""The benchmark workloads: seeded inputs, the CLI jobs that consume them, and output checks.

A workload is a sequence of rounds.  Round ``i`` of seed ``s`` draws every
input it needs from ``numpy.random.default_rng([s, i])`` and writes it under
the inputs directory, so the same seed gives the same inputs.  Apart from
the bundled table in ``fit-tables``, no two rounds of a run share an input,
so a cache kept across CLI calls cannot pay off.
A job is one ``idmodds.cli.main`` call; the runner appends ``--out-dir`` and
afterwards hands that directory and the exit code to the job's check, which
returns the list of problems found (empty when the output is correct).

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
from dataclasses import dataclass
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from idmodds.config import load_run_config
from idmodds.simulate import AgeGroupTable

# Held before any tracer patches idmodds.fit, so checks are never traced.
_LOG_LIKELIHOOD = importlib.import_module("idmodds.fit").log_likelihood

PUBLISHED_GAMMA = (0.0330, 3.06, 1.01)
PUBLISHED_BUDGET = (0.005, 0.5, 0.05)
GENERATING_GAMMA = (0.04, 5.0, 1.0)
REFERENCE_TARGET_ALIVE = 74388
TABULATED_TARGET_ALIVE = 200
ODDS_AGE_RANGE = (30.0, 100.0)
ODDS_STEP = {"closed_form": 0.25, "tabulated": 2.5}
ROUTE_TOLERANCE = 1e-6
SPECIAL_CASE_TOLERANCE = 1e-10
# Grid lines stay clear of the crosscheck point (t near 100, age 60), whose
# finite-difference residual checks assume smooth rates around it.
TAB_TIMES = (0.0, 30.0, 60.0, 90.0, 120.0)
TAB_AGES = (0.0, 25.0, 50.0, 75.0, 110.0)


@dataclass(frozen=True)
class Job:
    kind: str
    argv: list
    check: Callable[[Path, int], list]
    points: int = 0


def bundled(name: str) -> Path:
    return Path(str(resources.files("idmodds") / "data" / name))


def _reference_fit_config():
    return load_run_config(str(bundled("reference_config.json"))).build_fit_config()


def tabulated_incidence(rng) -> dict:
    """A positive-part-like incidence surface on a coarse grid, with seeded noise per node."""
    onset = rng.uniform(28.0, 32.0)
    denominator = rng.uniform(2700.0, 3300.0)
    ages = np.array(TAB_AGES)
    table = np.maximum(ages - onset, 0.0)[None, :] / denominator
    table = table * np.exp(rng.normal(0.0, 0.1, size=(len(TAB_TIMES), len(TAB_AGES))))
    return {"family": "tabulated", "times": list(TAB_TIMES), "ages": list(TAB_AGES), "table": table.tolist()}


def _write_json(path: Path, document: dict) -> str:
    path.write_text(json.dumps(document))
    return str(path)


# -- checks -----------------------------------------------------------------


def _exit_problem(code: int) -> list:
    return [] if code == 0 else [f"exit code {code}"]


def _check_fit(table_path: Path, published: bool, out_dir: Path, code: int) -> list:
    problems = _exit_problem(code)
    result_path = out_dir / "fit_result.json"
    if not result_path.is_file():
        return problems + ["no fit_result.json"]
    result = json.loads(result_path.read_text())
    if not result["converged"]:
        problems.append("fit did not converge")
    table = AgeGroupTable.from_csv(str(table_path), cross_section_time=100.0)
    at_truth = _LOG_LIKELIHOOD(GENERATING_GAMMA, table, _reference_fit_config())
    if result["loglik"] is None or not result["loglik"] >= at_truth:
        problems.append(f"loglik {result['loglik']} below its value {at_truth} at the generating gamma")
    if published:
        for name, got, want, budget in zip(("g1", "g2", "g3"), result["gamma_hat"], PUBLISHED_GAMMA, PUBLISHED_BUDGET):
            if not abs(got - want) <= budget:
                problems.append(f"{name}={got} is more than {budget} from the published {want}")
    return problems


def _check_study(target: int, out_dir: Path, code: int) -> list:
    problems = _exit_problem(code)
    path = out_dir / "study_0001.csv"
    if not path.is_file():
        return problems + ["no study_0001.csv"]
    with open(path, newline="") as stream:
        rows = list(csv.DictReader(stream))
    alive = 0
    for row in rows:
        n, c = int(row["n"]), int(row["c"])
        alive += n
        if not 0 <= c <= n:
            problems.append(f"group {row['k']}: c={c} outside [0, n={n}]")
    if not abs(alive - target) <= 5.0 * math.sqrt(target):
        problems.append(f"alive total {alive} is more than 5 sqrt(E) from the target {target}")
    return problems


def _check_curve(ages: int, out_dir: Path, code: int) -> list:
    problems = _exit_problem(code)
    path = out_dir / "odds_curve.csv"
    if not path.is_file():
        return problems + ["no odds_curve.csv"]
    with open(path, newline="") as stream:
        rows = list(csv.DictReader(stream))
    if len(rows) != ages:
        problems.append(f"{len(rows)} ages written, {ages} expected")
    for row in rows:
        odds = [float(row[key]) for key in ("odds_analytic", "odds_keiding", "odds_cohort")]
        scale = max(abs(value) for value in odds)
        if not all(math.isfinite(value) for value in odds):
            problems.append(f"age {row['age']}: non-finite odds {odds}")
        elif scale > 0.0 and (max(odds) - min(odds)) / scale > ROUTE_TOLERANCE:
            problems.append(f"age {row['age']}: routes disagree {odds}")
    return problems


def _check_crosscheck(own_exponential: bool, out_dir: Path, code: int) -> list:
    problems = _exit_problem(code)
    path = out_dir / "crosscheck.json"
    if not path.is_file():
        return problems + ["no crosscheck.json"]
    report = json.loads(path.read_text())
    special = report["exponential_special_case"]
    if not special["relative_deviation"] <= SPECIAL_CASE_TOLERANCE:
        problems.append(f"convolution_special deviates by {special['relative_deviation']}")
    if own_exponential and special["builtin_companion_model"]:
        problems.append("special case ran on the companion model, not the configured one")
    if report["all_pass"] is not True:
        failing = [key for key, value in report.items() if isinstance(value, dict) and value.get("pass") is False]
        problems.append(f"crosscheck sections failed: {failing}")
    return problems


# -- rounds -----------------------------------------------------------------


def fit_tables(seed: int, index: int, inputs: Path) -> list:
    """Even rounds fit the bundled table; odd rounds fit a fresh binomial resample of it.

    A resample's fit costs 6 to 16 s, depending on how far its optimum lies
    from the starts, against about 8 s for the bundled table.  Alternating
    keeps the median fit time of a run close to the bundled table's, so runs
    with different seeds agree, while every resample is still fitted and
    checked.
    """
    source = bundled("table1.csv")
    if index % 2 == 0:
        return [Job("fit", ["fit"], partial(_check_fit, source, True))]
    table = AgeGroupTable.from_csv(str(source), cross_section_time=100.0)
    rng = np.random.default_rng([seed, index])
    counts = rng.binomial(table.n, table.c / table.n)
    path = inputs / f"table-{index}.csv"
    AgeGroupTable(100.0, table.age_lo, table.age_hi, table.n, counts).to_csv(str(path))
    return [Job("fit", ["fit", "--data", str(path)], partial(_check_fit, path, False))]


def simulate_study(seed: int, index: int, inputs: Path) -> list:
    """The calibrated reference study, then a small study on a seeded tabulated incidence."""
    rng = np.random.default_rng([seed, index])
    reference_seed = int(rng.integers(2**31))
    tabulated_seed = int(rng.integers(2**31))
    config = _write_json(
        inputs / f"tabulated-study-{index}.json",
        {"incidence": tabulated_incidence(rng), "simulation": {"target_alive": TABULATED_TARGET_ALIVE}},
    )
    return [
        Job("study.reference", ["simulate", "--seed", str(reference_seed)],
            partial(_check_study, REFERENCE_TARGET_ALIVE)),
        Job("study.tabulated", ["simulate", "--config", config, "--seed", str(tabulated_seed)],
            partial(_check_study, TABULATED_TARGET_ALIVE)),
    ]


def odds_curves(seed: int, index: int, inputs: Path) -> list:
    """evaluate --method all and crosscheck for a positive-part, an exponential and a tabulated model."""
    rng = np.random.default_rng([seed, index])
    t = float(rng.uniform(97.0, 103.0))
    incidences = {
        "positive_part": {"family": "positive_part", "onset_age": rng.uniform(28.0, 32.0),
                          "denominator": rng.uniform(2700.0, 3300.0)},
        "exponential": {"family": "exponential", "k0": rng.uniform(-9.5, -8.5), "k1": rng.uniform(0.03, 0.06),
                        "k2": rng.uniform(-0.005, 0.01)},
        "tabulated": tabulated_incidence(rng),
    }
    low, high = ODDS_AGE_RANGE
    jobs = []
    for family, incidence in incidences.items():
        group = "tabulated" if family == "tabulated" else "closed_form"
        step = ODDS_STEP[group]
        ages = int(round((high - low) / step)) + 1
        config = _write_json(inputs / f"{family}-{index}.json", {"incidence": incidence})
        jobs.append(Job(
            f"evaluate.{group}",
            ["evaluate", "--config", config, "--t", repr(t), "--method", "all", "--age-min", repr(low),
             "--age-max", repr(high), "--step", repr(step)],
            partial(_check_curve, ages),
            points=3 * ages,
        ))
        jobs.append(Job(
            f"crosscheck.{group}",
            ["crosscheck", "--config", config, "--t", repr(t)],
            partial(_check_crosscheck, family == "exponential"),
        ))
    return jobs


WORKLOADS = {
    "fit-tables": fit_tables,
    "simulate-study": simulate_study,
    "odds-curves": odds_curves,
}

# End-to-end metric reported for each job kind: seconds per job, or odds
# points per second for jobs that evaluate a curve.
JOB_METRICS = {
    "fit": "fit_s",
    "study.reference": "study_s.reference",
    "study.tabulated": "study_s.tabulated",
    "evaluate.closed_form": "odds_pts_per_s.closed_form",
    "evaluate.tabulated": "odds_pts_per_s.tabulated",
    "crosscheck.closed_form": "crosscheck_s.closed_form",
    "crosscheck.tabulated": "crosscheck_s.tabulated",
}
