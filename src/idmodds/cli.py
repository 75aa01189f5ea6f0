"""Command-line front-end: evaluate curves, simulate studies, fit, cross-check.

One JSON configuration file drives all four commands; a handful of flags
override the common knobs.  Outputs are CSV and JSON files written
atomically, accompanied by a run manifest recording versions, the
configuration hash, seeds, and the produced files.

``main`` is the one command boundary: it loads the configuration, creates
the output directory, starts the manifest, runs the command's handler and
writes the manifest.  Exit codes: 0 success, 2 configuration or input error
(an unreadable or unwritable path included), 3 numerical failure,
4 estimation did not converge (outputs still written).  A failure prints one
line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone
from importlib import resources

import numpy as np

from idmodds import __version__
from idmodds.config import ConfigError, RunConfig, load_run_config
from idmodds.fit import FitInputError, fit
from idmodds.prevalence import (
    _profiles,
    _transport_residuals,
    cross_section_profile,
    effective_diseased_mortality,
    pde_residual_prevalence,  # noqa: F401 -- unused here, kept importable for the benchmark tracer to patch
    prevalence,
    prevalence_odds_exponential,
    prevalence_odds_keiding,
    prevalence_odds_pseudo_convolution,
    reconstruct_incidence,
)
from idmodds.quadrature import QuadratureError
from idmodds.rates import ExponentialIncidence, RateModel, RatioHorizonError
from idmodds.simulate import (
    AgeGroupTable,
    EmptyStudyError,
    SamplerConvergenceError,
    StudySizeError,
    atomic_write_text,
    calibrate_births_per_year,
    replicate_study,
)

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_NO_CONVERGENCE = 4

_INPUT_ERRORS = (
    ConfigError,
    FitInputError,
    RatioHorizonError,
    EmptyStudyError,
    StudySizeError,
    OSError,
)

# ArithmeticError covers FloatingPointError, ZeroDivisionError and OverflowError; numpy's
# LinAlgError is a ValueError, which main catches with the other numerical failures
_NUMERIC_ERRORS = (QuadratureError, SamplerConvergenceError, ArithmeticError)


# Most ages one `evaluate` grid may hold, checked before anything is allocated.
_MAX_AGES = 100_000

# Parsed arguments that are not recorded as the manifest's flags.
_NOT_FLAGS = ("command", "config", "out_dir", "handler")


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"--{name.replace('_', '-')} must be a finite number, got {value}")


def _bundled_path(name: str) -> str:
    return str(resources.files("idmodds") / "data" / name)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _sanitize_json(value):
    """Replace non-finite floats with null so the JSON stays strict."""
    if isinstance(value, dict):
        return {key: _sanitize_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize_json(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(_sanitize_json(payload), indent=2, allow_nan=False) + "\n")


def _format(value: float) -> str:
    return repr(float(value))


def thread_limit() -> int:
    """Worker cap from IDM_ODDS_THREADS: unset = 1, 0 = all cores; never more than the cores."""
    raw = os.environ.get("IDM_ODDS_THREADS", "").strip()
    if raw == "":
        return 1
    try:
        count = int(raw)
    except ValueError as error:
        raise ConfigError(f"IDM_ODDS_THREADS must be an integer, got {raw!r}") from error
    if count < 0:
        raise ConfigError("IDM_ODDS_THREADS must be >= 0")
    cores = os.cpu_count() or 1
    return cores if count == 0 else min(count, cores)


def cmd_evaluate(config: RunConfig, args, out_dir: str, manifest: dict) -> int:
    _require_finite(t=args.t, age_min=args.age_min, age_max=args.age_max, step=args.step)
    if not args.age_min >= 0.0:
        raise ConfigError("--age-min must be nonnegative")
    if not args.age_min < args.age_max:
        raise ConfigError("--age-min must be below --age-max")
    if not args.step > 0.0:
        raise ConfigError("--step must be positive")
    span = (args.age_max - args.age_min) / args.step
    if not span <= _MAX_AGES - 1:
        raise ConfigError(f"--step {args.step} gives more than {_MAX_AGES} ages, the most one grid may hold")
    count = int(round(span))
    model = config.build_model()
    ages = args.age_min + args.step * np.arange(count + 1)
    ages = ages[ages <= args.age_max + 1e-9]

    header, routes = ["age", "odds_analytic"], ["pseudo_convolution"]
    if args.method == "all":
        header += ["odds_keiding", "odds_cohort"]
        routes += ["keiding", "cohort_ratio"]
    columns = [ages] + [cross_section_profile(model, args.t, ages, "odds", route).values for route in routes]

    lines = [",".join(header)] + [",".join(map(repr, row)) for row in np.column_stack(columns).tolist()]
    path = os.path.join(out_dir, "odds_curve.csv")
    atomic_write_text(path, "\n".join(lines) + "\n")
    manifest["outputs"].append(path)
    print(f"wrote {path} ({len(ages)} ages at t={args.t})")
    return _EXIT_OK


def cmd_simulate(config: RunConfig, args, out_dir: str, manifest: dict) -> int:
    workers = thread_limit()
    if args.replicates < 1:
        raise ConfigError("--replicates must be >= 1")
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    model = config.build_model()
    sim_config = config.build_sim_config()
    if args.seed is not None:
        sim_config = dataclasses.replace(sim_config, rng_seed=args.seed)
    if sim_config.births_per_year is None:
        births = calibrate_births_per_year(model, sim_config)
        sim_config = dataclasses.replace(sim_config, births_per_year=births)
        manifest["calibrated_births_per_year"] = births
    manifest["rng_seed"] = sim_config.rng_seed
    manifest["replicate_seeds"] = [sim_config.rng_seed + i for i in range(args.replicates)]
    manifest["workers"] = workers
    tables = replicate_study(model, sim_config, args.replicates, workers=workers)
    for index, table in enumerate(tables):
        path = os.path.join(out_dir, f"study_{index + 1:04d}.csv")
        table.to_csv(path)
        manifest["outputs"].append(path)
        print(f"wrote {path} (alive {table.n_total}, cases {table.c_total})")
    return _EXIT_OK


def cmd_fit(config: RunConfig, args, out_dir: str, manifest: dict) -> int:
    study_time = config.build_sim_config().cross_section_time
    try:
        table = AgeGroupTable.from_csv(args.data, cross_section_time=study_time)
    except ValueError as error:
        raise ConfigError(f"malformed data CSV {args.data}: {error}") from error
    result = fit(table, config.build_fit_config())

    declared = config.declared_gamma()
    payload = result.to_json_dict()
    payload["declared_gamma"] = None if declared is None else list(declared)
    json_path = os.path.join(out_dir, "fit_result.json")
    _write_json(json_path, payload)
    manifest["outputs"].append(json_path)

    lines = ["param,input,estimate,ci_lo,ci_hi"]
    for j, name in enumerate(("gamma1", "gamma2", "gamma3")):
        declared_field = _format(declared[j]) if declared is not None else ""
        if result.ci95 is None or not np.all(np.isfinite(result.ci95[j])):
            lo_field, hi_field = "", ""
        else:
            lo_field, hi_field = _format(result.ci95[j, 0]), _format(result.ci95[j, 1])
        lines.append(
            ",".join([name, declared_field, _format(result.gamma_hat[j]), lo_field, hi_field])
        )
    csv_path = os.path.join(out_dir, "fit_table.csv")
    atomic_write_text(csv_path, "\n".join(lines) + "\n")
    manifest["outputs"].append(csv_path)

    manifest["converged"] = result.converged
    manifest["quadrature_gap"] = result.diagnostics["quadrature_gap"]
    estimates = ", ".join(f"{name}={value:.6g}" for name, value in zip(("g1", "g2", "g3"), result.gamma_hat))
    print(f"wrote {json_path} and {csv_path} ({estimates})")
    if not result.converged:
        print("fit did not converge; outputs carry converged=false", file=sys.stderr)
        return _EXIT_NO_CONVERGENCE
    return _EXIT_OK


def _relative_spread(values) -> float:
    scale = max(abs(v) for v in values)
    if scale == 0.0:
        return 0.0
    return (max(values) - min(values)) / scale


def _richardson(coarse: float, fine: float):
    if coarse == 0.0 and fine == 0.0:
        return None
    if fine == 0.0:
        return math.inf
    return abs(coarse) / abs(fine)


def _halving_check(residuals) -> dict:
    """Report entry for residuals at steps h and h/2: a second-order scheme divides them by about 4."""
    coarse, fine = residuals.tolist()
    ratio = _richardson(coarse, fine)
    return {"residual_h": coarse, "residual_h_half": fine, "richardson_ratio": ratio,
            "pass": bool(ratio is None or 3.5 <= ratio <= 4.5)}


def cmd_crosscheck(config: RunConfig, args, out_dir: str, manifest: dict) -> int:
    _require_finite(t=args.t, age=args.age, h=args.h)
    if not args.age >= 0.0:
        raise ConfigError("--age must be nonnegative")
    if not 0.0 < args.h <= args.age:
        raise ConfigError("--h must satisfy 0 < h <= age")
    model = config.build_model()
    t, a, h = args.t, args.age, args.h
    report = {"t": t, "age": a, "h": h}

    keiding = prevalence_odds_keiding(model, t, a).odds
    pseudo = prevalence_odds_pseudo_convolution(model, t, a).odds
    cohort = prevalence(model, t, a, "cohort_ratio").odds
    spread = _relative_spread([keiding, pseudo, cohort])
    report["formula_triangle"] = {
        "odds_keiding": keiding,
        "odds_pseudo_convolution": pseudo,
        "odds_cohort_ratio": cohort,
        "max_relative_deviation": spread,
        "threshold": 1e-6,
        "pass": bool(spread <= 1e-6),
    }

    # both residuals at both steps come from one odds batch
    residuals, odds_residuals = _transport_residuals(model, t, a, [h, h / 2.0])
    report["prevalence_pde"] = _halving_check(residuals)
    if odds_residuals is not None:
        report["odds_pde"] = _halving_check(odds_residuals)
    else:
        message = "odds transport equation requires duration-free excess mortality (gamma1 = 0); check skipped"
        report["odds_pde"] = {"skipped": message}
        print(message)

    builtin = not isinstance(model.incidence, ExponentialIncidence)
    companion = RateModel(ExponentialIncidence(k2=0.01), model.m0, model.ratio) if builtin else model
    special = prevalence_odds_exponential(companion, t, a).odds
    general = prevalence_odds_pseudo_convolution(companion, t, a).odds if builtin else pseudo
    deviation = _relative_spread([special, general])
    report["exponential_special_case"] = {
        "builtin_companion_model": builtin,
        "odds_special": special,
        "odds_general": general,
        "relative_deviation": deviation,
        "threshold": 1e-10,
        "pass": bool(deviation <= 1e-10),
    }

    gap = 0.5
    ages = np.arange(40.0, 91.0 + 1e-9, 0.5)
    start, end = _profiles(model, [t, t + gap], ages)
    recovered = reconstruct_incidence(
        start,
        end,
        lambda tt, aa: effective_diseased_mortality(model, tt, aa),
        model.mortality_healthy,
    )
    keep = recovered.ages <= 90.0 + 1e-9
    truth = model.incidence_rate(np.full(np.count_nonzero(keep), recovered.time), recovered.ages[keep])
    estimate = recovered.values[keep]
    if np.max(np.abs(truth)) == 0.0:
        error = float(np.max(np.abs(estimate)))
        relative = False
    else:
        error = float(np.max(np.abs(estimate - truth) / np.abs(truth)))
        relative = True
    report["incidence_reconstruction"] = {
        "cross_section_times": [t, t + gap],
        "age_range": [40.0, 90.0],
        "max_error": error,
        "relative": relative,
        "threshold": 0.02,
        "pass": bool(error <= 0.02),
    }

    report["all_pass"] = all(
        section.get("pass", True) for section in report.values() if isinstance(section, dict)
    )

    path = os.path.join(out_dir, "crosscheck.json")
    _write_json(path, report)
    manifest["outputs"].append(path)
    print(f"wrote {path} (all_pass={report['all_pass']})")
    return _EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idm-odds",
        description="Prevalence odds of a chronic disease in the illness-death model: "
        "analytic curves, microsimulated studies, likelihood fits, consistency checks.",
    )
    parser.add_argument("--version", action="version", version=f"idm-odds {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument(
            "--config",
            default=_bundled_path("reference_config.json"),
            help="JSON run configuration (default: bundled reference study)",
        )
        sub.add_argument("--out-dir", default=None, help="output directory (overrides the config)")

    evaluate = commands.add_parser("evaluate", help="write the analytic odds curve over an age grid")
    common(evaluate)
    evaluate.add_argument("--t", type=float, default=100.0, help="calendar time of the cross-section")
    evaluate.add_argument("--age-min", type=float, default=30.0)
    evaluate.add_argument("--age-max", type=float, default=100.0)
    evaluate.add_argument("--step", type=float, default=0.25)
    evaluate.add_argument(
        "--method",
        choices=["pseudo_convolution", "all"],
        default="pseudo_convolution",
        help="odds route: the pseudo-convolution alone, or 'all' to add the keiding and cohort-ratio columns",
    )
    evaluate.set_defaults(handler=cmd_evaluate)

    simulate = commands.add_parser("simulate", help="run seeded study replicates and write their tables")
    common(simulate)
    simulate.add_argument("--seed", type=int, default=None, help="override the configured rng seed")
    simulate.add_argument("--replicates", type=int, default=1)
    simulate.set_defaults(handler=cmd_simulate)

    fit_cmd = commands.add_parser("fit", help="fit mortality-ratio parameters to a study table")
    common(fit_cmd)
    fit_cmd.add_argument(
        "--data", default=_bundled_path("table1.csv"), help="study table CSV (default: bundled reference table)"
    )
    fit_cmd.set_defaults(handler=cmd_fit)

    crosscheck = commands.add_parser("crosscheck", help="run internal consistency diagnostics")
    common(crosscheck)
    crosscheck.add_argument("--t", type=float, default=100.0)
    crosscheck.add_argument("--age", type=float, default=60.0)
    crosscheck.add_argument("--h", type=float, default=0.1, help="coarse step for the residual checks")
    crosscheck.set_defaults(handler=cmd_crosscheck)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_run_config(args.config)
        out_dir = args.out_dir if args.out_dir else config.output_directory
        os.makedirs(out_dir, exist_ok=True)
        manifest = {
            "tool": "idm-odds",
            "version": __version__,
            "command": args.command,
            "config_path": config.source_path,
            "config_hash": config.hash,
            "flags": {key: value for key, value in vars(args).items() if key not in _NOT_FLAGS},
            "started_utc": _utc_now(),
            "finished_utc": None,
            "outputs": [],
        }
        # a failure is reported by its one stderr line, not by numpy's warnings on the way
        with np.errstate(all="ignore"):
            code = args.handler(config, args, out_dir, manifest)
        if code in (_EXIT_OK, _EXIT_NO_CONVERGENCE):
            manifest["finished_utc"] = _utc_now()
            _write_json(os.path.join(out_dir, "run_manifest.json"), manifest)
        return code
    except _INPUT_ERRORS as error:
        print(f"error: {error}", file=sys.stderr)
        return _EXIT_CONFIG
    except (*_NUMERIC_ERRORS, ValueError) as error:
        print(f"numerical failure: {error}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
