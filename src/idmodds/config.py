"""Run configuration: a single JSON document driving every command.

The document has optional sections for the three rate components, the
simulation design, the fit settings, and output placement.  Defaults
reproduce the reference study, so an empty document ``{}`` is a complete
configuration.  Validation is strict: unknown keys anywhere are rejected
before any computation starts.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import MISSING, dataclass, fields, replace
from typing import Optional

from idmodds.fit import FitConfig
from idmodds.rates import (
    ExponentialIncidence,
    GompertzParams,
    MortalityRatioParams,
    PositivePartIncidence,
    RateModel,
    TabulatedIncidence,
    reference_rate_model,
)
from idmodds.simulate import SimConfig

__all__ = ["ConfigError", "RunConfig", "load_run_config", "parse_run_config", "config_hash"]


class ConfigError(ValueError):
    """Configuration file is missing, unparsable, or violates the schema."""


_INCIDENCE_FAMILIES = {
    "positive_part": PositivePartIncidence,
    "exponential": ExponentialIncidence,
    "tabulated": TabulatedIncidence,
}

# The schema states the document's shape: its keys and their JSON kinds.  Every
# rule on the values is stated once, by the class that is built from them.
_NUMBER = {"type": "number"}
_NUMBERS = {"type": "array", "items": _NUMBER}
_ROWS = {"type": "array", "items": _NUMBERS}
_INTEGER = {"type": "integer"}


def _closed(**properties) -> dict:
    """Schema of an object holding only keys that ``properties`` names."""
    return {"type": "object", "additionalProperties": False, "properties": properties}


_SCHEMA = _closed(
    incidence=_closed(
        family={"enum": list(_INCIDENCE_FAMILIES)},
        onset_age=_NUMBER, denominator=_NUMBER, k0=_NUMBER, k1=_NUMBER, k2=_NUMBER,
        times=_NUMBERS, ages=_NUMBERS, table=_ROWS,
    ),
    m0=_closed(xi1=_NUMBER, xi2=_NUMBER, xi3=_NUMBER),
    ratio=_closed(gamma1=_NUMBER, gamma2=_NUMBER, gamma3=_NUMBER),
    simulation=_closed(
        births_per_year={"type": ["number", "null"]}, birth_window=_NUMBERS, cross_section_time=_NUMBER,
        age_groups=_ROWS, rng_seed=_INTEGER, target_alive=_INTEGER,
    ),
    fit=_closed(bounds=_ROWS, fixed_gamma={"type": "array", "items": {"type": ["number", "null"]}}),
    output=_closed(directory={"type": "string"}),
)


def _is_type(value, name) -> bool:
    """JSON-Schema membership in type ``name``, or in any of a list of them.

    A bool is no number, and an integral float is an integer.
    """
    if not isinstance(name, str):
        return any(_is_type(value, one) for one in name)
    if name not in ("number", "integer"):
        return isinstance(value, {"null": type(None), "string": str, "array": list, "object": dict}[name])
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        return False
    return name == "number" or isinstance(value, int) or (isinstance(value, float) and value.is_integer())


# the checks a schema node makes of its own value: each gives the violation's message, or a false value
_CHECKS = {
    "type": lambda value, name: not _is_type(value, name) and f"{value!r} is not of type {name!r}",
    "enum": lambda value, options: value not in options and f"{value!r} is not one of {options!r}",
}
# the keywords that lead to a node's children; ``additionalProperties`` is only ever false
_STRUCTURE = ("properties", "additionalProperties", "items")


def _first_violation(value, schema: dict, path: tuple = ()):
    """The first violation of ``schema`` by ``value`` in path order, as (path, message); None if there is none.

    A node's own checks come first, in schema order, and an unknown key is
    reported at the object holding it; then its children, keys in sorted
    order and items in index order.
    """
    for keyword, spec in schema.items():
        message = keyword not in _STRUCTURE and _CHECKS[keyword](value, spec)
        if message:
            return path, message
    properties = schema.get("properties", {})
    if isinstance(value, dict):
        unknown = sorted((key for key in value if key not in properties), key=str)
        if unknown and schema.get("additionalProperties") is False:
            return path, f"unknown keys {unknown}"
        children = [(key, value[key], properties[key]) for key in sorted(properties) if key in value]
    elif isinstance(value, list) and "items" in schema:
        children = [(index, item, schema["items"]) for index, item in enumerate(value)]
    else:
        return None
    for key, child, child_schema in children:
        found = _first_violation(child, child_schema, path + (key,))
        if found:
            return found
    return None


def config_hash(document: dict) -> str:
    """Hash of the canonical JSON serialization, for provenance records."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _build_incidence(section: dict):
    params = dict(section)
    family = params.pop("family", "positive_part")
    kind = _INCIDENCE_FAMILIES[family]
    keys = {f.name: f.default is MISSING for f in fields(kind)}
    extra = set(params) - set(keys)
    if extra:
        raise ConfigError(f"incidence keys {sorted(extra)} do not apply to family '{family}'")
    for key, required in keys.items():
        if required and key not in params:
            raise ConfigError(f"{family} incidence requires '{key}'")
    return kind(**params)


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration document plus convenience builders."""

    document: dict
    source_path: Optional[str] = None

    @property
    def hash(self) -> str:
        return config_hash(self.document)

    @property
    def output_directory(self) -> str:
        return self.document.get("output", {}).get("directory", "idm_odds_out")

    @property
    def declares_ratio(self) -> bool:
        """Whether the document spells out mortality-ratio parameters.

        A declared ratio doubles as the known simulation input when fitting
        simulated data, and is echoed in fit reports.
        """
        section = self.document.get("ratio", {})
        return any(key in section for key in ("gamma1", "gamma2", "gamma3"))

    def build_incidence(self):
        return _build_incidence(self.document.get("incidence", {}))

    def build_m0(self) -> GompertzParams:
        return replace(reference_rate_model().m0, **self.document.get("m0", {}))

    def build_ratio(self) -> MortalityRatioParams:
        return replace(reference_rate_model().ratio, **self.document.get("ratio", {}))

    def declared_gamma(self):
        if not self.declares_ratio:
            return None
        ratio = self.build_ratio()
        return (ratio.gamma1, ratio.gamma2, ratio.gamma3)

    def build_model(self) -> RateModel:
        return RateModel(self.build_incidence(), self.build_m0(), self.build_ratio())

    def build_sim_config(self) -> SimConfig:
        return replace(SimConfig(), **self.document.get("simulation", {}))

    def build_fit_config(self) -> FitConfig:
        section = self.document.get("fit", {})
        return replace(FitConfig(), incidence=self.build_incidence(), m0=self.build_m0(), **section)


def parse_run_config(document: dict, source_path: Optional[str] = None) -> RunConfig:
    """Validate a configuration dictionary and wrap it."""
    if not isinstance(document, dict):
        raise ConfigError("configuration must be a JSON object")
    violation = _first_violation(document, _SCHEMA)
    if violation:
        path, message = violation
        location = "/".join(str(part) for part in path) or "<root>"
        raise ConfigError(f"invalid configuration at {location}: {message}")
    config = RunConfig(document=document, source_path=source_path)
    if not config.output_directory:
        raise ConfigError("output.directory must not be empty")
    # exercise the builders so structural problems surface before any command runs
    try:
        config.build_model()
        config.build_sim_config()
        config.build_fit_config()
    except ValueError as error:
        raise ConfigError(str(error)) from error
    return config


def load_run_config(path: str) -> RunConfig:
    """Read and validate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            document = json.load(stream)
    except FileNotFoundError as error:
        raise ConfigError(f"configuration file not found: {path}") from error
    except ValueError as error:  # json.JSONDecodeError, or UnicodeDecodeError for bytes that are not UTF-8
        raise ConfigError(f"configuration is not valid JSON ({path}): {error}") from error
    return parse_run_config(document, source_path=path)
