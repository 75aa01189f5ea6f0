"""Layered benchmark of the idm-odds pipeline, driven through ``idmodds.cli.main``.

Usage, from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``):

    python3 perfbench/run.py --workload fit-tables --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats rounds of the workload until ``--seconds`` have passed
(the last round is finished, not cut) and reports the end-to-end metrics.
``--trace 1`` runs round 0 of the workload three times: once untraced, then
twice with spans recorded around every layer; it reports the per-layer
metrics, the tracing overhead, and fails the run if a work counter differs
between the two traced passes.  Both modes start fresh interpreters to time
set-up.  Human-readable lines go first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Outputs, traces and result records are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_STARTS = 5
POOL_REPLICATES = 2

# Timed in a fresh interpreter: what every CLI invocation pays before its command runs.
_SETUP_SNIPPET = """
import json, time
start = time.perf_counter()
import idmodds.cli
from importlib import resources
from idmodds.config import load_run_config
imported = time.perf_counter()
config = load_run_config(str(resources.files("idmodds") / "data" / "reference_config.json"))
config.build_model(); config.build_sim_config(); config.build_fit_config()
print(json.dumps({"import_s": imported - start, "load_s": time.perf_counter() - imported}))
"""


def _parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _git_sha() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """SHA-256 over the package sources, identifying the code also where there is no git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "idmodds").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _measure_setup() -> dict:
    """Median over fresh interpreters of wall time, import time and config load time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    walls, imports, loads = [], [], []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {done.stderr.strip()}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        imports.append(report["import_s"])
        loads.append(report["load_s"])
    return {"setup_s": statistics.median(walls), "setup.import_s": statistics.median(imports),
            "config.load_s": statistics.median(loads)}


class Runner:
    """Runs jobs through the CLI, times each call and tallies failures."""

    def __init__(self, make_round, seed: int, work: Path):
        self.make_round = make_round
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.inputs.mkdir(parents=True)
        self.attempted = 0
        self.failures = []

    def round_jobs(self, index: int) -> list:
        return self.make_round(self.seed, index, self.inputs)

    def run_job(self, job, out_dir: Path, tracer=None) -> float:
        from idmodds.cli import main

        out_dir.mkdir(parents=True)
        argv = job.argv + ["--out-dir", str(out_dir)]
        captured = io.StringIO()
        self.attempted += 1
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                if tracer is None:
                    code = main(argv)
                else:
                    span = tracer.open("cli.main")
                    try:
                        code = main(argv)
                    finally:
                        tracer.close(span)
        except Exception:  # a crashing job is a failed operation; the run goes on
            self.failures.append({"job": argv, "problems": [traceback.format_exc()]})
        seconds = time.perf_counter() - start
        if code is None:
            return seconds
        problems = job.check(out_dir, code)
        if problems:
            self.failures.append({"job": argv, "problems": problems, "output": captured.getvalue()[-2000:]})
        return seconds

    def run_round(self, jobs: list, label: str, tracer=None) -> list:
        timings = []
        for position, job in enumerate(jobs):
            if tracer is not None:
                tracer.op += 1
            timings.append((job, self.run_job(job, self.work / label / f"job{position}", tracer)))
        return timings


def _job_metrics(rounds: list) -> dict:
    """Per-kind end-to-end metrics: median over rounds of seconds per job or points per second."""
    from workloads import JOB_METRICS

    per_kind = {}
    for timings in rounds:
        totals = {}
        for job, seconds in timings:
            entry = totals.setdefault(job.kind, [0.0, 0, 0])
            entry[0] += seconds
            entry[1] += 1
            entry[2] += job.points
        for kind, (seconds, count, points) in totals.items():
            per_kind.setdefault(kind, []).append(points / seconds if points else seconds / count)
    metrics = {}
    for kind, values in per_kind.items():
        unit = "1/s" if kind.startswith("evaluate.") else "s"
        metrics[JOB_METRICS[kind]] = (statistics.median(values), unit)
    return metrics


class SpeedProbe:
    """Times a fixed pure-Python loop on every SIGPROF tick, tracking the machine's speed during jobs.

    The loop does not touch idmodds, so a change to the package cannot move
    it.  On a shared host the same computation runs up to 1.7x slower in
    phases lasting minutes; scaling wall time by REFERENCE over the loop's
    median time during the run removes most of that from round_ref_s.  One
    tick per 0.1 s of CPU time, each ~0.2 ms, costs about 0.2%.
    """

    INTERVAL = 0.1
    REFERENCE = 200e-6  # seconds the loop takes at the reference speed

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        total = 0
        for k in range(2000):
            total += k * k
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def speed(self) -> float:
        """How much faster than the reference the machine ran while the probe was active."""
        if not self.samples:  # under 0.1 s of CPU time: no tick fired
            self._tick(None, None)
        return self.REFERENCE / statistics.median(self.samples)

    def scale(self, seconds: float) -> float:
        """Wall seconds measured under the probe, converted to seconds at the reference speed."""
        return seconds * self.speed()


def run_untraced(runner: Runner, seconds: float) -> tuple:
    rounds = []
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while not rounds or time.perf_counter() - start < seconds:
            jobs = runner.round_jobs(len(rounds))
            rounds.append(runner.run_round(jobs, f"round{len(rounds)}"))
    metrics = _job_metrics(rounds)
    round_s = statistics.median(sum(s for _, s in timings) for timings in rounds)
    metrics["round_s"] = (round_s, "s")
    metrics["speed_factor"] = (probe.speed(), "ratio")
    metrics["round_ref_s"] = (probe.scale(round_s), "ref_s")
    metrics["rounds"] = (len(rounds), "count")
    return metrics, [[[job.kind, seconds] for job, seconds in timings] for timings in rounds]


def _pool_speedup() -> float:
    """Wall time of replicate_study with one worker over its time with one worker per core."""
    import dataclasses

    from idmodds.config import load_run_config
    from idmodds.simulate import calibrate_births_per_year, replicate_study
    from workloads import bundled

    config = load_run_config(str(bundled("reference_config.json")))
    model = config.build_model()
    sim = config.build_sim_config()
    sim = dataclasses.replace(sim, births_per_year=calibrate_births_per_year(model, sim))
    walls = []
    for workers in (1, os.cpu_count() or 1):
        start = time.perf_counter()
        replicate_study(model, sim, POOL_REPLICATES, workers=workers)
        walls.append(time.perf_counter() - start)
    return walls[0] / walls[1]


def run_traced(runner: Runner, workload: str, trace_file: Path) -> dict:
    from spans import EXACT_COUNTERS, Tracer

    jobs = runner.round_jobs(0)

    def timed_pass(label, tracer=None):
        with SpeedProbe() as probe:
            wall = sum(s for _, s in runner.run_round(jobs, label, tracer))
        return probe.scale(wall)

    untraced = timed_pass("untraced")
    tracers = [Tracer(), Tracer()]
    traced = []
    for repeat, tracer in enumerate(tracers):
        tracer.install()
        try:
            traced.append(timed_pass(f"traced{repeat}", tracer))
        finally:
            tracer.uninstall()
    first, second = (tracer.counters() for tracer in tracers)
    mismatched = {name: (first[name], second[name]) for name in EXACT_COUNTERS if first[name] != second[name]}
    runner.attempted += 1
    if mismatched:
        runner.failures.append({"job": "exact-repeat check", "problems": [f"counters differ: {mismatched}"]})
    metrics = tracers[0].layer_metrics()
    metrics["trace.untraced_ref_s"] = untraced
    metrics["trace.traced_ref_s"] = traced[0]
    metrics["trace.overhead_ratio"] = traced[0] / untraced
    metrics["simulate.pool_speedup"] = _pool_speedup() if workload == "simulate-study" else 0.0
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps(tracers[0].dump(), separators=(",", ":")))
    return metrics


def main(argv=None) -> int:
    if not (SRC / "idmodds" / "cli.py").is_file():
        print(f"error: no idmodds sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports idmodds, warming the bytecode cache before set-up is timed

    args = _parse_args(argv, WORKLOADS)
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.environ.pop("IDM_ODDS_THREADS", None)  # one worker, the CLI default

    runner = Runner(WORKLOADS[args.workload], args.seed, OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}")
    provenance = _provenance(args)
    timings = None
    try:
        setup = _measure_setup()
        if args.trace:
            trace_file = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
            layers = run_traced(runner, args.workload, trace_file)
            layers["setup.import_s"] = setup["setup.import_s"]
            layers["config.load_s"] = setup["config.load_s"]
        else:
            jobs, timings = run_untraced(runner, args.seconds)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    failed = len(runner.failures)
    for failure in runner.failures:
        print(f"FAILED {failure['job']}: {failure['problems']}", file=sys.stderr)
    with open(ROOT / "BENCHMARK.json") as stream:
        declared = json.load(stream)
    if args.trace:
        units = {entry["name"]: entry["unit"] for entry in declared["per_layer"]}
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
        shown = metrics
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        everything = dict(jobs)
        everything.update({
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "ok_ratio": ((runner.attempted - failed) / runner.attempted, "ratio"),
            "failed_ratio": (failed / runner.attempted, "ratio"),
        })
        shown = {name: {"value": value, "unit": unit} for name, (value, unit) in everything.items()}
        metrics = {entry["name"]: shown[entry["name"]] for entry in declared["end_to_end"]}
    for name, entry in shown.items():
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    print("provenance " + json.dumps(provenance))
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}
    record = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"provenance": provenance, "shown": shown, "result": result,
                                  "timings": timings, "failures": runner.failures}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
