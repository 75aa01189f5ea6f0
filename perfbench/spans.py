"""In-memory span tracing installed around the idmodds layers, and the per-layer metrics.

Every wrapper is set on the attribute through which the program looks the
name up (``idmodds.cli.fit``, ``idmodds.prevalence.adaptive_quad``, a class
attribute for methods), so calls made inside the package are seen exactly as
they happen.  A span is ``[name, start, end, parent, op, tag]``: ``parent`` is
the index of the enclosing span (-1 at the top), ``op`` the index of the CLI
job the span belongs to, ``tag`` an optional label such as the odds route
and incidence family of an odds point.  The layer of a span is the part of
its name before the first dot.

Nothing is imported from idmodds at module import time; ``Tracer.install``
imports the package modules it patches.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter

import numpy as np

# Counters that depend only on the inputs, never on timing; two traced
# passes over the same jobs must read them identically.
EXACT_COUNTERS = (
    "fit.loglik_evals",
    "quadrature.calls",
    "quadrature.points",
    "prevalence.points.pseudo_convolution",
    "prevalence.points.keiding",
    "prevalence.points.cohort_ratio",
    "prevalence.points.convolution_special",
    "simulate.lives",
    "simulate.censored_lives",
)

ROUTES = ("pseudo_convolution", "keiding", "cohort_ratio", "convolution_special")
FAMILIES = ("positive_part", "exponential", "tabulated")

_ROUTE_FUNCTIONS = {
    "prevalence_odds_pseudo_convolution": "pseudo_convolution",
    "prevalence_odds_keiding": "keiding",
    "prevalence_odds_exponential": "convolution_special",
}


def _family(model) -> str:
    from idmodds.rates import ExponentialIncidence, PositivePartIncidence

    if isinstance(model.incidence, PositivePartIncidence):
        return "positive_part"
    if isinstance(model.incidence, ExponentialIncidence):
        return "exponential"
    return "tabulated"


class Tracer:
    """Records nested spans for the calls it wraps; ``install``/``uninstall`` patch and restore."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.quadrature_points = 0
        self.quadrature_errors = 0
        self.lives = 0
        self.censored_lives = 0
        self.fits = 0
        self.fits_converged = 0
        self._stack = []
        self._patched = []

    # -- recording --------------------------------------------------------

    def open(self, name: str, tag: str = "") -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, tag])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, owner, attr: str, name: str, tag_of=None, on_result=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name, tag_of(args, kwargs) if tag_of else "")
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def _wrap_quadrature(self, module, caller_layer: str) -> None:
        from idmodds.quadrature import QuadratureError

        original = module.adaptive_quad
        tracer = self
        integrand_name = f"{caller_layer}.integrand"

        @functools.wraps(original)
        def traced(f, lo, hi, *args, **kwargs):
            def counted(x):
                tracer.quadrature_points += x.size
                index = tracer.open(integrand_name)
                try:
                    return f(x)
                finally:
                    tracer.close(index)

            index = tracer.open("quadrature.adaptive_quad")
            try:
                return original(counted, lo, hi, *args, **kwargs)
            except QuadratureError:
                tracer.quadrature_errors += 1
                raise
            finally:
                tracer.close(index)

        module.adaptive_quad = traced
        self._patched.append((module, "adaptive_quad", original))

    def install(self) -> None:
        # import_module, because the package re-exports functions named fit and prevalence
        cli, fit, prevalence, rates, simulate = (
            importlib.import_module(f"idmodds.{name}") for name in ("cli", "fit", "prevalence", "rates", "simulate")
        )

        def fit_done(result):
            self.fits += 1
            self.fits_converged += bool(result.converged)

        def ledger_done(ledger):
            self.lives += len(ledger)
            self.censored_lives += int(np.count_nonzero(np.isnan(ledger.death)))

        def route_tag(route):
            return lambda args, kwargs: f"{route}/{_family(args[0])}"

        def dispatcher_tag(args, kwargs):
            method = args[3] if len(args) > 3 else kwargs.get("method", "pseudo_convolution")
            return f"cohort_ratio/{_family(args[0])}" if method == "cohort_ratio" else ""

        self._wrap(cli, "load_run_config", "config.load_run_config")
        self._wrap(cli, "fit", "fit.fit", on_result=fit_done)
        self._wrap(fit, "log_likelihood", "fit.log_likelihood")
        for module in (cli, fit, prevalence):
            self._wrap(module, "prevalence", "prevalence.prevalence", tag_of=dispatcher_tag)
        for function, route in _ROUTE_FUNCTIONS.items():
            for module in (cli, prevalence):
                self._wrap(module, function, f"prevalence.{function}", tag_of=route_tag(route))
        for function in ("cross_section_profile", "pde_residual_prevalence", "reconstruct_incidence",
                         "effective_diseased_mortality"):
            self._wrap(cli, function, f"prevalence.{function}")
        self._wrap(prevalence, "effective_diseased_mortality", "prevalence.effective_diseased_mortality")
        for module in (prevalence, simulate):
            self._wrap(module, "diseased_population", "prevalence.diseased_population")
            self._wrap(module, "healthy_population", "prevalence.healthy_population")
        self._wrap_quadrature(prevalence, "prevalence")
        self._wrap_quadrature(rates, "rates")
        self._wrap_quadrature(simulate, "simulate")
        for method in ("cumulative_m0", "cumulative_incidence", "cumulative_m1", "incidence_rate"):
            self._wrap(rates.RateModel, method, f"rates.{method}")
        self._wrap(rates.TabulatedIncidence, "cumulative", "rates.tabulated_cumulative")
        self._wrap(cli, "calibrate_births_per_year", "simulate.calibrate_births_per_year")
        self._wrap(cli, "replicate_study", "simulate.replicate_study")
        self._wrap(simulate, "run_simulation", "simulate.run_simulation", on_result=ledger_done)
        self._wrap(simulate, "cross_section", "simulate.cross_section")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- metrics ----------------------------------------------------------

    def counters(self) -> dict:
        """Work counts recorded so far; every name in EXACT_COUNTERS is among them."""
        names = Counter(span[0] for span in self.spans)
        routes = Counter(span[5].split("/")[0] for span in self.spans if span[5])
        out = {
            "fit.loglik_evals": names["fit.log_likelihood"],
            "quadrature.calls": names["quadrature.adaptive_quad"],
            "quadrature.points": self.quadrature_points,
            "simulate.lives": self.lives,
            "simulate.censored_lives": self.censored_lives,
        }
        for route in ROUTES:
            out[f"prevalence.points.{route}"] = routes[route]
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metrics; self time is a span's duration minus its children's.

        Spans come from one thread and nest strictly, so the children of a
        span never overlap and their summed durations are their coverage.
        """
        spans = self.spans
        self_time = Counter()
        child_cover = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_cover[span[3]] += span[2] - span[1]
        by_name = {}
        for index, span in enumerate(spans):
            duration = span[2] - span[1]
            self_time[span[0].split(".", 1)[0]] += duration - child_cover[index]
            by_name.setdefault(span[0], []).append(index)

        def durations(name):
            return [spans[i][2] - spans[i][1] for i in by_name.get(name, [])]

        def self_of(name):
            return sum(spans[i][2] - spans[i][1] - child_cover[i] for i in by_name.get(name, []))

        def outermost_total(names):
            """Inclusive time of the spans in ``names`` not nested inside another of them."""
            total = 0.0
            for name in names:
                for i in by_name.get(name, []):
                    parent = spans[i][3]
                    while parent >= 0 and spans[parent][0] not in names:
                        parent = spans[parent][3]
                    if parent < 0:
                        total += spans[i][2] - spans[i][1]
            return total

        def median_ms(values):
            return 1e3 * statistics.median(values) if values else 0.0

        counts = self.counters()
        loglik = durations("fit.log_likelihood")
        quad_calls = counts["quadrature.calls"]
        point_ms = {family: [] for family in FAMILIES}
        for span in spans:
            if span[5]:
                point_ms[span[5].split("/")[1]].append(span[2] - span[1])
        rate_names = ("rates.cumulative_m0", "rates.cumulative_incidence", "rates.cumulative_m1",
                      "rates.incidence_rate")
        run_s = sum(durations("simulate.run_simulation"))
        metrics = dict(counts)
        metrics.update({
            "fit.loglik_ms": median_ms(loglik),
            "fit.self_s": self_of("fit.fit"),
            "fit.converged_ratio": self.fits_converged / self.fits if self.fits else 0.0,
            "prevalence.self_s": self_time["prevalence"],
            "quadrature.points_per_call": self.quadrature_points / quad_calls if quad_calls else 0.0,
            "quadrature.self_s": self_time["quadrature"],
            "quadrature.errors": self.quadrature_errors,
            "rates.cumulative_calls": sum(len(by_name.get(name, [])) for name in rate_names),
            "rates.cumulative_s": outermost_total(rate_names),
            "rates.tabulated_cumulative_s": outermost_total(("rates.tabulated_cumulative",)),
            "simulate.calibrate_s": sum(durations("simulate.calibrate_births_per_year")),
            "simulate.run_s": run_s,
            "simulate.us_per_life": 1e6 * run_s / self.lives if self.lives else 0.0,
            "simulate.cross_section_s": sum(durations("simulate.cross_section")),
            "cli.self_s": self_time["cli"],
        })
        for family in FAMILIES:
            metrics[f"prevalence.point_ms.{family}"] = median_ms(point_ms[family])
        return metrics

    def dump(self) -> dict:
        """Spans in a JSON-ready form: field names once, then one row per span."""
        return {"fields": ["name", "start", "end", "parent", "op", "tag"], "spans": self.spans}
