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
from dataclasses import MISSING, dataclass, fields, replace
from typing import Optional

from jsonschema import Draft202012Validator

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


_PAIR = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}
_TRIPLE = {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3}

_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "incidence": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "family": {"enum": ["positive_part", "exponential", "tabulated"]},
                "onset_age": {"type": "number"},
                "denominator": {"type": "number", "exclusiveMinimum": 0},
                "k0": {"type": "number"},
                "k1": {"type": "number"},
                "k2": {"type": "number"},
                "times": {"type": "array", "items": {"type": "number"}, "minItems": 2},
                "ages": {"type": "array", "items": {"type": "number"}, "minItems": 2},
                "table": {"type": "array", "items": {"type": "array", "items": {"type": "number", "minimum": 0}}},
            },
        },
        "m0": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "xi1": {"type": "number"},
                "xi2": {"type": "number"},
                "xi3": {"type": "number"},
            },
        },
        "ratio": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gamma1": {"type": "number"},
                "gamma2": {"type": "number"},
                "gamma3": {"type": "number"},
                "max_duration": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "simulation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "births_per_year": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "birth_window": _PAIR,
                "cross_section_time": {"type": "number"},
                "age_groups": {"type": "array", "items": _PAIR, "minItems": 1},
                "rng_seed": {"type": "integer", "minimum": 0},
                "max_age": {"type": "number", "exclusiveMinimum": 0},
                "target_alive": {"type": "integer", "exclusiveMinimum": 0},
            },
        },
        "fit": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "bounds": {"type": "array", "items": _PAIR, "minItems": 3, "maxItems": 3},
                "starts": {"type": "array", "items": _TRIPLE, "minItems": 1},
                "fixed_gamma": {
                    "type": "array",
                    "items": {"type": ["number", "null"]},
                    "minItems": 3,
                    "maxItems": 3,
                },
                "xatol": {"type": "number", "exclusiveMinimum": 0},
                "fatol": {"type": "number", "exclusiveMinimum": 0},
                "max_iterations": {"type": "integer", "exclusiveMinimum": 0},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "directory": {"type": "string", "minLength": 1},
            },
        },
    },
}

_VALIDATOR = Draft202012Validator(_SCHEMA)


def config_hash(document: dict) -> str:
    """Hash of the canonical JSON serialization, for provenance records."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_INCIDENCE_FAMILIES = {
    "positive_part": PositivePartIncidence,
    "exponential": ExponentialIncidence,
    "tabulated": TabulatedIncidence,
}


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
        section = dict(self.document.get("simulation", {}))
        if "birth_window" in section:
            section["birth_window"] = tuple(section["birth_window"])
        if "age_groups" in section:
            section["age_groups"] = tuple(tuple(g) for g in section["age_groups"])
        return replace(SimConfig(), **section)

    def build_fit_config(self) -> FitConfig:
        section = dict(self.document.get("fit", {}))
        for key in ("bounds", "starts"):
            if key in section:
                section[key] = tuple(tuple(row) for row in section[key])
        if "fixed_gamma" in section:
            section["fixed_gamma"] = tuple(section["fixed_gamma"])
        return replace(
            FitConfig(),
            incidence=self.build_incidence(),
            m0=self.build_m0(),
            max_duration=self.build_ratio().max_duration,
            **section,
        )


def parse_run_config(document: dict, source_path: Optional[str] = None) -> RunConfig:
    """Validate a configuration dictionary and wrap it."""
    if not isinstance(document, dict):
        raise ConfigError("configuration must be a JSON object")
    errors = sorted(_VALIDATOR.iter_errors(document), key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        location = "/".join(str(part) for part in first.absolute_path) or "<root>"
        raise ConfigError(f"invalid configuration at {location}: {first.message}")
    config = RunConfig(document=document, source_path=source_path)
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
