"""Tests for the run configuration and the command-line interface."""

import dataclasses
import filecmp
import importlib
import importlib.metadata
import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

import idmodds
from idmodds.cli import _build_parser, _relative_spread, _richardson, main, thread_limit
from idmodds.config import (
    _CHECKS,
    _INCIDENCE_FAMILIES,
    _SCHEMA,
    _STRUCTURE,
    ConfigError,
    _is_type,
    config_hash,
    load_run_config,
    parse_run_config,
)
from idmodds.fit import FitConfig
from idmodds.prevalence import (
    cross_section_profile,
    effective_diseased_mortality,
    pde_residual_odds,
    pde_residual_prevalence,
    prevalence,
    prevalence_odds_pseudo_convolution,
    reconstruct_incidence,
)
from idmodds.quadrature import QuadratureConfig
from idmodds.rates import (
    ExponentialIncidence,
    GompertzParams,
    MortalityRatioParams,
    PositivePartIncidence,
    RateModel,
    TabulatedIncidence,
    reference_rate_model,
)
from idmodds.simulate import AgeGroupTable, SimConfig

# import_module, because the package re-exports the function prevalence under the module's name
prevalence_module = importlib.import_module("idmodds.prevalence")
BUNDLED_CONFIG = Path(idmodds.__file__).resolve().parent / "data" / "reference_config.json"


def write_config(tmp_path, document, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


class TestRunConfig:
    def test_empty_document_uses_reference_defaults(self):
        config = parse_run_config({})
        model = config.build_model()
        assert isinstance(model.incidence, PositivePartIncidence)
        assert model.m0.xi1 == -10.7
        assert model.ratio.gamma2 == 5.0
        sim = config.build_sim_config()
        assert sim.cross_section_time == 100.0
        assert sim.birth_window == (0.0, 65.0)
        assert config.build_fit_config() == FitConfig()
        assert config.declared_gamma() is None
        assert config.output_directory == "idm_odds_out"

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="invalid configuration"):
            parse_run_config({"rates": {}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="simulation"):
            parse_run_config({"simulation": {"bogus": 1}})

    def test_family_specific_keys_enforced(self):
        with pytest.raises(ConfigError, match="positive_part"):
            parse_run_config({"incidence": {"family": "positive_part", "k0": -9.0}})

    def test_tabulated_incidence_built(self):
        document = {
            "incidence": {
                "family": "tabulated",
                "times": [0.0, 200.0],
                "ages": [0.0, 110.0],
                "table": [[0.001, 0.002], [0.001, 0.002]],
            }
        }
        model = parse_run_config(document).build_model()
        assert isinstance(model.incidence, TabulatedIncidence)

    def test_tabulated_incidence_missing_block_rejected(self):
        with pytest.raises(ConfigError, match="requires"):
            parse_run_config({"incidence": {"family": "tabulated", "times": [0.0, 1.0]}})

    def test_invalid_ratio_rejected_at_build(self):
        # json parses NaN and Infinity, which no ratio parameter may take
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="finite"):
                parse_run_config({"ratio": {"gamma3": value}})
        # where R must be positive depends on the command, which checks it on the durations it reaches
        nonpositive = {"ratio": {"gamma1": 0.04, "gamma2": 5.0, "gamma3": -1.0}}
        assert parse_run_config(nonpositive).build_model().ratio.gamma3 == -1.0

    def test_declared_gamma_requires_explicit_section(self):
        assert parse_run_config({"ratio": {"gamma1": 0.1}}).declared_gamma() == (0.1, 5.0, 1.0)
        assert parse_run_config({"ratio": {}}).declared_gamma() is None

    def test_hash_ignores_key_order(self):
        a = {"m0": {"xi1": -10.7, "xi2": 0.1}, "ratio": {"gamma1": 0.04}}
        b = {"ratio": {"gamma1": 0.04}, "m0": {"xi2": 0.1, "xi1": -10.7}}
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 64

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(str(tmp_path / "absent.json"))

    def test_unparsable_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "m0": {,}\n}\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_run_config(str(path))

    def test_fit_section_drives_fit_config(self, tmp_path):
        document = {"fit": {"fixed_gamma": [None, 5.0, None]}}
        fit_config = parse_run_config(document).build_fit_config()
        assert fit_config.fixed_gamma == (None, 5.0, None)

    def test_bundled_document_states_library_defaults(self):
        # the bundled document repeats the reference study as data; it must not drift from the library
        empty = parse_run_config({})
        bundled = load_run_config(str(BUNDLED_CONFIG))
        assert bundled.build_model() == empty.build_model() == reference_rate_model()
        assert bundled.build_sim_config() == empty.build_sim_config() == SimConfig()
        assert bundled.build_fit_config() == empty.build_fit_config() == FitConfig()

    @pytest.mark.parametrize(
        "where, section",
        [
            ("fit", {"hessian_step_scale": 1e-3}),
            ("fit", {"quadrature": {"rel_tol": 1e-9}}),
            ("fit", {"include_binomial_coefficient": True}),
            ("fit", {"group_evaluation": "midpoint"}),
            ("fit", {"xatol": 1e-5}),
            ("fit", {"fatol": 1e-7}),
            ("fit", {"starts": [[0.01, 2.0, 1.0]]}),
            ("fit", {"max_iterations": 4000}),
            ("fit", {"bounds": [[0.0, 1.0], [0.0, 50.0], [0.0, 20.0]]}),
            ("ratio", {"max_duration": 120.0}),
            ("simulation", {"max_age": 110.0}),
        ],
        ids=[
            "hessian_step_scale", "quadrature", "include_binomial_coefficient", "group_evaluation", "xatol", "fatol",
            "starts", "max_iterations", "bounds", "max_duration", "max_age",
        ],
    )
    def test_hessian_step_scale_no_longer_accepted(self, where, section, tmp_path, capsys):
        with pytest.raises(ConfigError, match=f"invalid configuration at {where}"):
            parse_run_config({where: section})
        config = write_config(tmp_path, {where: section})
        assert main(["evaluate", "--config", config, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid configuration at {where}")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_cross_section_time_must_be_finite(self, value, tmp_path, capsys):
        document = {"simulation": {"cross_section_time": value}}
        with pytest.raises(ConfigError, match="cross_section_time must be finite"):
            parse_run_config(document)
        # written as NaN, Infinity or -Infinity, which json reads back
        config = write_config(tmp_path, document)
        assert main(["simulate", "--config", config, "--out-dir", str(tmp_path / "o")]) == 2
        assert "cross_section_time must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, document",
        [
            ("rng_seed", {"simulation": {"rng_seed": -1}}),
            ("birth_window", {"simulation": {"birth_window": [0.0, 30.0, 60.0]}}),
            ("age_groups", {"simulation": {"age_groups": [[40.0, 45.0, 50.0]]}}),
            ("directory", {"output": {"directory": ""}}),
        ],
        ids=["negative-seed", "birth-window-triple", "age-group-triple", "empty-directory"],
    )
    def test_value_rules_of_the_dataclasses_exit_2(self, field, document, tmp_path, capsys):
        # the schema checks only keys and kinds; these rules are stated by the classes built from the values
        config = write_config(tmp_path, document)
        assert main(["evaluate", "--config", config, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert field in err

    @pytest.mark.parametrize(
        "section, kind, built_elsewhere",
        [
            ("simulation", SimConfig, ()),
            ("ratio", MortalityRatioParams, ()),
            ("m0", GompertzParams, ()),
            ("fit", FitConfig, ("incidence", "m0")),
        ],
        ids=["simulation", "ratio", "m0", "fit"],
    )
    def test_schema_sections_match_dataclass_fields(self, section, kind, built_elsewhere):
        # a field deleted from a dataclass must not linger as an accepted key, nor the reverse
        keys = set(_SCHEMA["properties"][section]["properties"])
        assert keys == {f.name for f in dataclasses.fields(kind)} - set(built_elsewhere)


# numbers, with the edge cases of JSON-Schema's number and integer types, and values of the other JSON kinds
NUMBERS = st.integers(-2, 2) | st.sampled_from([5.0, 2.5, 0.0, -0.0, math.nan, math.inf, -math.inf]) | st.floats()
NOT_NUMBERS = st.none() | st.booleans() | st.text(max_size=2)
ANY_JSON = st.recursive(
    NUMBERS | NOT_NUMBERS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def mostly(common, rare):
    """``common`` about seven times in eight, else ``rare``."""
    return st.integers(0, 7).flatmap(lambda k: common if k else rare)


def documents(schema):
    """Values of the kind ``schema`` describes, now and then broken at some depth or of another kind below."""
    if "properties" in schema:
        parts = {key: mostly(documents(sub), ANY_JSON) for key, sub in schema["properties"].items()}
        unknown = st.dictionaries(st.sampled_from(["", "a", "bogus", "zz"]) | st.text(max_size=2), ANY_JSON, max_size=1)
        return st.builds(lambda known, extra: {**known, **extra}, st.fixed_dictionaries({}, optional=parts),
                         mostly(st.just({}), unknown))
    if "items" in schema:
        shortest = schema.get("minItems", 0)
        longest = schema.get("maxItems", shortest + 2)
        sizes = mostly(st.just((shortest, longest)), st.sampled_from([(0, max(shortest - 1, 0)), (longest + 1,) * 2]))
        item = mostly(documents(schema["items"]), ANY_JSON)
        return sizes.flatmap(lambda size: st.lists(item, min_size=size[0], max_size=size[1]))
    if "enum" in schema:
        return mostly(st.sampled_from(schema["enum"]), st.sampled_from(["bogus", ""]) | ANY_JSON)
    if schema["type"] == "string":
        return st.text(max_size=2)
    return mostly(NUMBERS, NOT_NUMBERS)


class TestSchemaCheck:
    def test_agrees_with_jsonschema(self):
        # the same accept/reject decision and first error path as the reference implementation
        jsonschema = pytest.importorskip("jsonschema")
        validator = jsonschema.Draft202012Validator(_SCHEMA)

        @settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @given(documents(_SCHEMA))
        def agree(document):
            errors = sorted(validator.iter_errors(document), key=lambda e: list(e.absolute_path))
            try:
                parse_run_config(document)
                refusal = ""
            except ConfigError as error:
                refusal = str(error)
            if errors:
                location = "/".join(str(part) for part in errors[0].absolute_path) or "<root>"
                assert refusal.startswith(f"invalid configuration at {location}: ")
            else:
                assert not refusal.startswith("invalid configuration at")

        agree()

    def test_schema_uses_only_implemented_keywords(self):
        # a keyword the check does not interpret, say "pattern", must not be silently ignored
        def nodes(schema):
            yield schema
            for child in schema.get("properties", {}).values():
                yield from nodes(child)
            if "items" in schema:
                yield from nodes(schema["items"])

        for node in nodes(_SCHEMA):
            assert set(node) <= set(_CHECKS) | set(_STRUCTURE)
            assert node.get("additionalProperties", False) is False
            _is_type(None, node.get("type", []))  # raises KeyError on a type name it does not know


ZERO_INCIDENCE = {"incidence": {"family": "exponential", "k0": -1000.0, "k1": 0.0, "k2": 0.0}}


def read_curve(path):
    with open(path) as handle:
        header = handle.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


class TestEvaluate:
    def test_default_curve_matches_library(self, tmp_path):
        out = tmp_path / "out"
        code = main(["evaluate", "--age-min", "40", "--age-max", "60", "--step", "5", "--out-dir", str(out)])
        assert code == 0
        header, data = read_curve(out / "odds_curve.csv")
        assert header == ["age", "odds_analytic"]
        np.testing.assert_allclose(data[:, 0], [40, 45, 50, 55, 60])
        from idmodds.rates import reference_rate_model

        model = reference_rate_model()
        for age, odds in data:
            assert odds == pytest.approx(
                prevalence_odds_pseudo_convolution(model, 100.0, age).odds, rel=1e-12
            )

    def test_method_all_three_columns_agree(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["evaluate", "--age-min", "50", "--age-max", "90", "--step", "10", "--method", "all", "--out-dir", str(out)]
        )
        assert code == 0
        header, data = read_curve(out / "odds_curve.csv")
        assert header == ["age", "odds_analytic", "odds_keiding", "odds_cohort"]
        for row in data:
            scale = max(abs(v) for v in row[1:])
            assert (max(row[1:]) - min(row[1:])) <= 1e-6 * scale

    def test_method_all_beyond_healthy_survival(self, tmp_path, capsys):
        # at t = 100 the healthy survivor fraction is 4e-269 at age 150 and 0 at 160
        out = tmp_path / "out"
        argv = ["evaluate", "--method", "all", "--age-min", "150", "--age-max", "160", "--step", "10"]
        assert main(argv + ["--out-dir", str(out)]) == 0
        assert "nan" not in capsys.readouterr().err
        _, data = read_curve(out / "odds_curve.csv")
        assert np.all(data[:, 1:] > 0.0)
        np.testing.assert_allclose(data[:, 2:], data[:, 1:2].repeat(2, axis=1), rtol=1e-9, atol=0.0)

    def test_zero_incidence_curve_is_zero(self, tmp_path):
        config = write_config(tmp_path, ZERO_INCIDENCE)
        out = tmp_path / "out"
        code = main(
            ["evaluate", "--config", config, "--age-min", "40", "--age-max", "80", "--step", "10", "--out-dir", str(out)]
        )
        assert code == 0
        _, data = read_curve(out / "odds_curve.csv")
        assert np.all(data[:, 1] == 0.0)

    def test_odds_beyond_two_to_the_53_are_written(self, tmp_path):
        # prevalence rounds to exactly 1 at these ages, yet every odds value is finite
        document = {"incidence": {"family": "exponential", "k0": -1.0, "k1": 0.03, "k2": 0.0}}
        config = write_config(tmp_path, document)
        out = tmp_path / "out"
        code = main(
            ["evaluate", "--config", config, "--age-min", "30", "--age-max", "60", "--step", "10", "--out-dir", str(out)]
        )
        assert code == 0
        _, data = read_curve(out / "odds_curve.csv")
        model = parse_run_config(document).build_model()
        expected = cross_section_profile(model, 100.0, [30.0, 40.0, 50.0, 60.0], "odds").values
        np.testing.assert_array_equal(data[:, 0], [30.0, 40.0, 50.0, 60.0])
        np.testing.assert_array_equal(data[:, 1], expected)
        assert expected[-1] > 2.0**53

    def test_reversed_age_range_is_config_error(self, tmp_path):
        code = main(["evaluate", "--age-min", "90", "--age-max", "50", "--out-dir", str(tmp_path / "o")])
        assert code == 2

    def test_byte_reproducible(self, tmp_path):
        args = ["evaluate", "--age-min", "40", "--age-max", "70", "--step", "2.5"]
        main(args + ["--out-dir", str(tmp_path / "a")])
        main(args + ["--out-dir", str(tmp_path / "b")])
        assert filecmp.cmp(tmp_path / "a" / "odds_curve.csv", tmp_path / "b" / "odds_curve.csv", shallow=False)

    def test_manifest_records_hash_and_outputs(self, tmp_path):
        out = tmp_path / "out"
        main(["evaluate", "--age-min", "40", "--age-max", "50", "--step", "5", "--out-dir", str(out)])
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["tool"] == "idm-odds"
        assert manifest["command"] == "evaluate"
        assert len(manifest["config_hash"]) == 64
        assert [os.path.basename(p) for p in manifest["outputs"]] == ["odds_curve.csv"]
        assert manifest["finished_utc"] is not None


TINY_SIM = {
    "simulation": {
        "births_per_year": 10.0,
        "birth_window": [0.0, 30.0],
        "cross_section_time": 60.0,
        "age_groups": [[30.0, 45.0], [45.0, 60.0]],
        "rng_seed": 5,
    }
}


class TestSimulate:
    def test_seeded_run_byte_identical(self, tmp_path):
        config = write_config(tmp_path, TINY_SIM)
        for name in ("a", "b"):
            code = main(["simulate", "--config", config, "--seed", "42", "--out-dir", str(tmp_path / name)])
            assert code == 0
        assert filecmp.cmp(tmp_path / "a" / "study_0001.csv", tmp_path / "b" / "study_0001.csv", shallow=False)

    def test_integral_float_seed_is_the_int_seed(self, tmp_path):
        # JSON Schema's integer kind admits 5.0; it seeds the same study as 5
        for name, seed in (("int", 5), ("float", 5.0)):
            config = write_config(tmp_path, {"simulation": {**TINY_SIM["simulation"], "rng_seed": seed}}, f"{name}.json")
            assert main(["simulate", "--config", config, "--out-dir", str(tmp_path / name)]) == 0
        assert filecmp.cmp(tmp_path / "int" / "study_0001.csv", tmp_path / "float" / "study_0001.csv", shallow=False)
        manifest = json.loads((tmp_path / "float" / "run_manifest.json").read_text())
        assert manifest["rng_seed"] == 5 and isinstance(manifest["rng_seed"], int)

    def test_replicates_get_consecutive_seeds(self, tmp_path):
        config = write_config(tmp_path, TINY_SIM)
        out = tmp_path / "out"
        code = main(["simulate", "--config", config, "--replicates", "3", "--out-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["replicate_seeds"] == [5, 6, 7]
        names = sorted(os.path.basename(p) for p in manifest["outputs"])
        assert names == ["study_0001.csv", "study_0002.csv", "study_0003.csv"]
        for name in names:
            assert (out / name).exists()

    def test_tiny_run_produces_valid_table(self, tmp_path):
        config = write_config(tmp_path, TINY_SIM)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out-dir", str(out)]) == 0
        from idmodds.simulate import AgeGroupTable

        table = AgeGroupTable.from_csv(str(out / "study_0001.csv"), cross_section_time=60.0)
        assert table.n_total <= 10.0 * 30.0
        assert np.all(table.c <= table.n)

    def test_zero_replicates_is_config_error(self, tmp_path):
        config = write_config(tmp_path, TINY_SIM)
        assert main(["simulate", "--config", config, "--replicates", "0", "--out-dir", str(tmp_path / "o")]) == 2

    def test_calibration_recorded_in_manifest(self, tmp_path):
        document = {
            "simulation": {
                "births_per_year": None,
                "birth_window": [0.0, 10.0],
                "cross_section_time": 60.0,
                "age_groups": [[50.0, 60.0]],
                "rng_seed": 1,
                "target_alive": 500,
            }
        }
        config = write_config(tmp_path, document)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["calibrated_births_per_year"] > 0.0


    @pytest.mark.parametrize("births", [{}, {"births_per_year": 10}], ids=["calibrated", "configured"])
    def test_negative_age_group_is_config_error(self, tmp_path, capsys, births):
        # calibration integrated the alive density at negative ages (exit 3); a configured rate
        # wrote a table whose first group counts ages 0 to 5 under the limits -5 to 5 (exit 0)
        document = {"simulation": {"age_groups": [[-5.0, 5.0], [40.0, 45.0]], "birth_window": [0.0, 150.0], **births}}
        config = write_config(tmp_path, document)
        out = tmp_path / "o"
        assert main(["simulate", "--config", config, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nonnegative" in err
        assert not (out / "study_0001.csv").exists()

    def test_ratio_negative_on_reached_durations_is_config_error(self, tmp_path, capsys):
        # R(d) = -1e-4 d^2 + 0.8 turns negative at d = 89.4, within the oldest group [90, 95)
        document = {"incidence": {"family": "exponential"}, "ratio": {"gamma1": -1e-4, "gamma2": 0.0, "gamma3": 0.8}}
        config = write_config(tmp_path, document)
        out = tmp_path / "o"
        assert main(["simulate", "--config", config, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "disease durations reached" in err
        assert not (out / "study_0001.csv").exists()

    def test_nobody_alive_is_config_error(self, tmp_path, capsys):
        # healthy mortality exp(-10.7 + 0.1a + 0.5t) leaves no one alive at ages 40-95 at t=100
        config = write_config(tmp_path, {"m0": {"xi1": -10.7, "xi2": 0.1, "xi3": 0.5}})
        assert main(["simulate", "--config", config, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "error: the configured rates leave no one expected alive in the age groups\n"

    def test_sampler_step_limit_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        import idmodds.simulate

        monkeypatch.setattr(idmodds.simulate, "_MAX_STEPS", 1)
        config = write_config(tmp_path, TINY_SIM)
        assert main(["simulate", "--config", config, "--out-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and len(err.splitlines()) == 1
        assert "Traceback" not in err


class TestFit:
    def test_bundled_fixture_reproduces_reference_estimates(self, tmp_path):
        out = tmp_path / "out"
        code = main(["fit", "--out-dir", str(out)])
        assert code == 0
        result = json.loads((out / "fit_result.json").read_text())
        assert result["converged"] is True
        gamma = result["gamma_hat"]
        assert abs(gamma[0] - 0.0330) <= 0.005
        assert abs(gamma[1] - 3.06) <= 0.5
        assert abs(gamma[2] - 1.01) <= 0.05
        assert result["declared_gamma"] == [0.04, 5.0, 1.0]

        with open(out / "fit_table.csv") as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "param,input,estimate,ci_lo,ci_hi"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["gamma1", "gamma2", "gamma3"]
        assert [float(row[1]) for row in rows] == [0.04, 5.0, 1.0]
        for row, est in zip(rows, gamma):
            assert float(row[2]) == pytest.approx(est, rel=1e-12)
            assert float(row[3]) < est < float(row[4])

    def test_undeclared_ratio_leaves_input_blank(self, tmp_path):
        config = write_config(tmp_path, {"m0": {"xi1": -10.7}})
        out = tmp_path / "out"
        code = main(["fit", "--config", config, "--out-dir", str(out)])
        assert code == 0
        lines = (out / "fit_table.csv").read_text().splitlines()
        assert lines[1].split(",")[1] == ""
        assert json.loads((out / "fit_result.json").read_text())["declared_gamma"] is None

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("k,age_lo,age_hi,n,c\n1,40.0,45.0,100,10\n2,45.0,50.0,oops,3\n")
        code = main(["fit", "--data", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_oversized_count_is_input_error(self, tmp_path, capsys):
        rows = (Path(idmodds.__file__).parent / "data" / "table1.csv").read_text().splitlines()
        rows[1] = "1,40.0,45.0,100000000000000000000000,283"
        data = tmp_path / "huge.csv"
        data.write_text("\n".join(rows) + "\n")
        assert main(["fit", "--data", str(data), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "malformed data CSV" in err and "64-bit" in err

    def test_nan_age_limit_is_input_error(self, tmp_path, capsys):
        rows = (Path(idmodds.__file__).parent / "data" / "table1.csv").read_text().splitlines()
        rows[1] = "1,nan,45.0,9858,283"
        data = tmp_path / "nan.csv"
        data.write_text("\n".join(rows) + "\n")
        assert main(["fit", "--data", str(data), "--out-dir", str(tmp_path / "o")]) == 2
        assert "malformed data CSV" in capsys.readouterr().err

    def test_missing_data_file_is_config_error(self, tmp_path):
        assert main(["fit", "--data", str(tmp_path / "absent.csv"), "--out-dir", str(tmp_path / "o")]) == 2

    def test_non_convergence_exits_4_with_outputs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(importlib.import_module("idmodds.fit"), "_MAX_EVALUATIONS", 3)
        out = tmp_path / "out"
        code = main(["fit", "--out-dir", str(out)])
        assert code == 4
        result = json.loads((out / "fit_result.json").read_text())
        assert result["converged"] is False
        assert (out / "fit_table.csv").exists()
        assert json.loads((out / "run_manifest.json").read_text())["converged"] is False

    def test_quadrature_budget_failure_exits_3(self, tmp_path, monkeypatch):
        tight = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-300, max_subdivisions=1)
        monkeypatch.setattr(importlib.import_module("idmodds.fit"), "_FIT_QUADRATURE", tight)
        assert main(["fit", "--out-dir", str(tmp_path / "o")]) == 3

    def test_plan_far_from_adaptive_quadrature_exits_3(self, tmp_path, monkeypatch, capsys):
        # two Gauss-Legendre points per lookback piece leave the plan far from the adaptive check at the optimum
        monkeypatch.setattr(importlib.import_module("idmodds.fit"), "_PLAN_RULE", leggauss(2))
        assert main(["fit", "--out-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: likelihood quadrature deviates from adaptive quadrature")

    def test_manifest_records_quadrature_gap(self, tmp_path):
        out = tmp_path / "out"
        assert main(["fit", "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        result = json.loads((out / "fit_result.json").read_text())
        assert 0.0 <= manifest["quadrature_gap"] <= 1e-12
        assert result["diagnostics"]["quadrature_gap"] == manifest["quadrature_gap"]

    @staticmethod
    def _groups_csv(tmp_path, name, groups):
        """A data CSV of the groups (age_lo, age_hi, n, c), written as ``name``."""
        rows = ["k,age_lo,age_hi,n,c"] + [f"{k},{lo},{hi},{n},{c}" for k, (lo, hi, n, c) in enumerate(groups, start=1)]
        data = tmp_path / name
        data.write_text("\n".join(rows) + "\n")
        return str(data)

    # pinned at gamma2 = 45 and gamma3 = 0, R(d) = gamma1 * (d - 45)**2 is positive only below d = 45
    PINNED_AT_45 = {"fit": {"fixed_gamma": [None, 45.0, 0.0]}}

    def young_csv(self, tmp_path, top):
        """Groups from age 30, the last [40, top), with counts near the pinned model's at gamma1 = 0.04."""
        groups = [(30, 35, 10000, 10), (35, 40, 10000, 83), (40, top, 10000, 244)]
        return self._groups_csv(tmp_path, f"young-{top}.csv", groups)

    def test_no_start_positive_up_to_oldest_midpoint_is_input_error(self, tmp_path, capsys):
        # no start is positive up to the oldest midpoint 105 of groups 40-110, every start up to 42.5
        config = write_config(tmp_path, self.PINNED_AT_45)
        argv = ["fit", "--config", config, "--out-dir", str(tmp_path / "o"), "--data"]
        old = [(lo, lo + 5, 1000, k * 10) for k, lo in enumerate(range(40, 100, 5), start=1)] + [(100, 110, 500, 150)]
        assert main(argv + [self._groups_csv(tmp_path, "old.csv", old)]) == 2
        assert capsys.readouterr().err == "error: the mortality ratio is not positive up to age 105 at any start point\n"
        assert main(argv + [self.young_csv(tmp_path, 45)]) == 0

    def test_fit_horizon_is_the_oldest_midpoint(self, tmp_path, capsys):
        # a last group [40, 49) reaches past d = 45, but its midpoint does not; [40, 50) has its midpoint there
        config = write_config(tmp_path, self.PINNED_AT_45)
        out = tmp_path / "o"
        assert main(["fit", "--config", config, "--data", self.young_csv(tmp_path, 49), "--out-dir", str(out)]) == 0
        g1, g2, g3 = json.loads((out / "fit_result.json").read_text())["gamma_hat"]
        assert (g2, g3) == (45.0, 0.0) and g1 > 0.0
        assert main(["fit", "--config", config, "--data", self.young_csv(tmp_path, 50), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: the mortality ratio is not positive up to age 45 at any start point\n"

    @pytest.mark.parametrize(
        "fixed", [[0.0, 0.0, None], [None, 50.0, None]], ids=["gamma3-alone-free", "gamma2-on-its-bound"]
    )
    def test_pinned_components_are_written_as_pinned(self, tmp_path, fixed):
        # a pin on a bound of the box is accepted, kept exactly and never reported as a boundary hit
        config = write_config(tmp_path, {"fit": {"fixed_gamma": fixed}})
        out = tmp_path / "o"
        assert main(["fit", "--config", config, "--out-dir", str(out)]) == 0
        result = json.loads((out / "fit_result.json").read_text())
        pinned = [j for j, value in enumerate(fixed) if value is not None]
        assert [result["gamma_hat"][j] for j in pinned] == [fixed[j] for j in pinned]
        assert all(result["ci95"][j] == [None, None] for j in pinned)
        assert all(result["ci95"][j][0] < result["ci95"][j][1] for j in range(3) if j not in pinned)
        assert not set(pinned) & set(result["diagnostics"]["boundary_hits"])
        assert result["diagnostics"]["free_components"] == [j for j in range(3) if j not in pinned]

    @pytest.mark.parametrize(
        "fixed, name",
        [([None, 80.0, None], "gamma2"), ([None, None, -1.0], "gamma3"), ([math.nan, None, None], "gamma1")],
        ids=["above-bounds", "below-bounds", "nan"],
    )
    def test_pinned_component_outside_bounds_is_input_error(self, tmp_path, capsys, fixed, name):
        config = write_config(tmp_path, {"fit": {"fixed_gamma": fixed}})
        assert main(["fit", "--config", config, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"pinned {name} " in err and "every start point" not in err

    def test_impossible_starts_are_input_error(self, tmp_path, capsys):
        config = write_config(tmp_path, ZERO_INCIDENCE)
        assert main(["fit", "--config", config, "--out-dir", str(tmp_path / "o")]) == 2
        assert "every start point" in capsys.readouterr().err

    def test_negative_age_is_input_error(self, tmp_path, capsys):
        rows = (Path(idmodds.__file__).parent / "data" / "table1.csv").read_text().splitlines()
        rows[1] = "1,-5.0,45.0,9858,283"
        data = tmp_path / "negative.csv"
        data.write_text("\n".join(rows) + "\n")
        assert main(["fit", "--data", str(data), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "nonnegative ages" in err and "numerical failure" not in err

    def test_too_few_informative_rows_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "thin.csv"
        data.write_text("k,age_lo,age_hi,n,c\n1,40.0,45.0,1000,30\n2,45.0,50.0,1000,0\n")
        assert main(["fit", "--data", str(data), "--out-dir", str(tmp_path / "o")]) == 2
        assert "informative" in capsys.readouterr().err


# R(d) = -1e-4 d^2 + 1.1 is positive only below d = 104.88
SHORT_RATIO = {"incidence": {"family": "exponential"}, "ratio": {"gamma1": -1e-4, "gamma2": 0.0, "gamma3": 1.1}}


class TestShortRatioHorizon:
    """Each command refuses the short-lived ratio exactly when its durations reach past where R is positive."""

    def test_evaluate_refuses_ages_past_the_horizon(self, tmp_path, capsys):
        config = write_config(tmp_path, SHORT_RATIO)
        out = tmp_path / "o"
        argv = ["evaluate", "--config", config, "--out-dir", str(out), "--step", "10", "--method", "all"]
        assert main(argv + ["--age-min", "100", "--age-max", "140"]) == 2
        assert "[0, 140]" in capsys.readouterr().err
        assert not (out / "odds_curve.csv").exists()
        assert main(argv + ["--age-min", "60", "--age-max", "100"]) == 0
        _, data = read_curve(out / "odds_curve.csv")
        # the curve written before R was checked on the durations reached
        want = [
            [60.0, 0.020943944553102275, 0.020943944553102275, 0.020943944553102275],
            [70.0, 0.029816075012626297, 0.029816075012626293, 0.029816075012626297],
            [80.0, 0.04204602754632367, 0.04204602754632367, 0.04204602754632367],
            [90.0, 0.06063430956488468, 0.06063430956488467, 0.060634309564884664],
            [100.0, 0.12131784309985741, 0.12131784309985741, 0.12131784309985742],
        ]
        np.testing.assert_allclose(data, want, rtol=1e-12, atol=0.0)

    def test_crosscheck_refuses_ages_past_the_horizon(self, tmp_path, capsys):
        config = write_config(tmp_path, SHORT_RATIO)
        out = tmp_path / "o"
        assert main(["crosscheck", "--config", config, "--age", "130", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: the mortality ratio must stay positive")
        assert not (out / "crosscheck.json").exists()

    def test_simulate_runs_within_the_horizon(self, tmp_path):
        # the oldest group ends at 95, so no simulated course passes d = 95
        config = write_config(tmp_path, SHORT_RATIO)
        out = tmp_path / "o"
        assert main(["simulate", "--config", config, "--seed", "3", "--out-dir", str(out)]) == 0
        assert (out / "study_0001.csv").read_text().startswith("k,age_lo,age_hi,n,c")


class TestCrosscheck:
    def test_reference_model_skips_odds_pde(self, tmp_path):
        out = tmp_path / "out"
        code = main(["crosscheck", "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "crosscheck.json").read_text())
        assert report["all_pass"] is True
        assert report["formula_triangle"]["pass"] is True
        assert 3.5 <= report["prevalence_pde"]["richardson_ratio"] <= 4.5
        assert "skipped" in report["odds_pde"]
        assert report["exponential_special_case"]["relative_deviation"] <= 1e-10
        assert report["incidence_reconstruction"]["max_error"] <= 0.02

    def test_age_beyond_healthy_survival(self, tmp_path, capsys):
        # at t = 100 the healthy survivor fraction underflows to 0 by age 160
        out = tmp_path / "out"
        assert main(["crosscheck", "--age", "160", "--out-dir", str(out)]) == 0
        assert "nan" not in capsys.readouterr().err
        report = json.loads((out / "crosscheck.json").read_text())
        assert report["formula_triangle"]["pass"] is True
        assert report["prevalence_pde"]["pass"] is True

    def test_duration_free_model_checks_odds_pde(self, tmp_path):
        config = write_config(tmp_path, {"ratio": {"gamma1": 0.0, "gamma2": 5.0, "gamma3": 1.8}})
        out = tmp_path / "out"
        code = main(["crosscheck", "--config", config, "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "crosscheck.json").read_text())
        assert 3.5 <= report["odds_pde"]["richardson_ratio"] <= 4.5
        assert report["all_pass"] is True

    def test_duration_free_residuals_share_one_odds_batch(self, tmp_path, monkeypatch):
        # both transport residuals at h and h/2 need the pseudo-convolution odds at the same five points
        batches = []
        run = prevalence_module.adaptive_quad_many

        def counted(f, lo, hi, *rest):
            batches.append((len(lo), rest[0].rel_tol))
            return run(f, lo, hi, *rest)

        monkeypatch.setattr(prevalence_module, "adaptive_quad_many", counted)
        config = write_config(tmp_path, {"ratio": {"gamma1": 0, "gamma2": 5, "gamma3": 1.8}})
        out = tmp_path / "out"
        assert main(["crosscheck", "--config", config, "--out-dir", str(out)]) == 0
        assert batches.count((5, 1e-12)) == 1
        report = json.loads((out / "crosscheck.json").read_text())
        model = load_run_config(config).build_model()
        steps = [report["h"], report["h"] / 2.0]
        for key, residuals in (("prevalence_pde", pde_residual_prevalence), ("odds_pde", pde_residual_odds)):
            written = [report[key]["residual_h"], report[key]["residual_h_half"]]
            assert written == residuals(model, report["t"], report["age"], steps).tolist()

    def test_zero_rates_give_exact_zero_residuals(self, tmp_path):
        # xi1 = -1000 underflows the hazard level to exactly zero while the
        # closed forms keep their nonzero slope
        document = {
            "incidence": {"family": "exponential", "k0": -1000.0, "k1": 0.0, "k2": 0.0},
            "m0": {"xi1": -1000.0},
            "ratio": {"gamma1": 0.0, "gamma2": 5.0, "gamma3": 1.0},
        }
        config = write_config(tmp_path, document)
        out = tmp_path / "out"
        code = main(["crosscheck", "--config", config, "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "crosscheck.json").read_text())
        assert report["formula_triangle"]["max_relative_deviation"] == 0.0
        assert report["prevalence_pde"]["residual_h"] == 0.0
        assert report["odds_pde"]["residual_h"] == 0.0
        assert report["exponential_special_case"]["relative_deviation"] == 0.0
        assert report["incidence_reconstruction"]["max_error"] == 0.0
        assert report["all_pass"] is True

    def test_negative_step_is_config_error(self, tmp_path):
        assert main(["crosscheck", "--h", "-0.1", "--out-dir", str(tmp_path / "o")]) == 2

    def test_exponential_model_computes_its_pseudo_convolution_odds_once(self, tmp_path, monkeypatch):
        # an exponential model is its own companion, so its special case is checked against the triangle's odds
        cli = importlib.import_module("idmodds.cli")
        calls = []
        lone = cli.prevalence_odds_pseudo_convolution

        def counted(*args):
            calls.append(args)
            return lone(*args)

        monkeypatch.setattr(cli, "prevalence_odds_pseudo_convolution", counted)
        out = tmp_path / "o"
        config = write_config(tmp_path, {"incidence": {"family": "exponential"}})
        assert main(["crosscheck", "--config", config, "--out-dir", str(out)]) == 0
        report = json.loads((out / "crosscheck.json").read_text())
        special = report["exponential_special_case"]
        assert len(calls) == 1
        assert special["builtin_companion_model"] is False
        assert special["odds_general"] == report["formula_triangle"]["odds_pseudo_convolution"]

    @pytest.mark.parametrize(
        "document",
        [
            {
                "incidence": {
                    "family": "tabulated",
                    "times": [0.0, 30.0, 60.0, 90.0, 120.0],
                    "ages": [0.0, 25.0, 50.0, 75.0, 110.0],
                    "table": [[0.0, 0.0, 0.006, 0.015, 0.027], [0.0, 0.0, 0.007, 0.016, 0.028],
                              [0.0, 0.0, 0.007, 0.015, 0.026], [0.0, 0.0, 0.008, 0.017, 0.029],
                              [0.0, 0.0, 0.007, 0.016, 0.027]],
                }
            },
            {
                "incidence": {"onset_age": 29.0, "denominator": 3100.0},
                "ratio": {"gamma1": 0.0, "gamma2": 5.0, "gamma3": 1.8},
            },
        ],
        ids=["tabulated", "positive-part-duration-free"],
    )
    def test_report_equals_one_built_from_lone_calls(self, tmp_path, document):
        config = write_config(tmp_path, document)
        out = tmp_path / "out"
        assert main(["crosscheck", "--config", config, "--t", "100.25", "--h", "0.2", "--out-dir", str(out)]) == 0
        model = load_run_config(config).build_model()
        want = json.loads(json.dumps(lone_call_crosscheck(model, 100.25, 60.0, 0.2)))
        assert json.loads((out / "crosscheck.json").read_text()) == want


def lone_call_crosscheck(model, t, a, h):
    """The crosscheck report with one call per residual step and per profile (the oracle for the shared batches)."""
    report = {"t": t, "age": a, "h": h}
    odds = [prevalence(model, t, a, route).odds for route in ("keiding", "pseudo_convolution", "cohort_ratio")]
    spread = _relative_spread(odds)
    report["formula_triangle"] = {
        "odds_keiding": odds[0],
        "odds_pseudo_convolution": odds[1],
        "odds_cohort_ratio": odds[2],
        "max_relative_deviation": spread,
        "threshold": 1e-6,
        "pass": spread <= 1e-6,
    }
    checks = [("prevalence_pde", pde_residual_prevalence)]
    if model.ratio.gamma1 == 0.0:
        checks.append(("odds_pde", pde_residual_odds))
    else:
        report["odds_pde"] = {
            "skipped": "odds transport equation requires duration-free excess mortality (gamma1 = 0); check skipped"
        }
    for name, residual in checks:
        coarse, fine = residual(model, t, a, h), residual(model, t, a, h / 2.0)
        ratio = _richardson(coarse, fine)
        report[name] = {
            "residual_h": coarse,
            "residual_h_half": fine,
            "richardson_ratio": ratio,
            "pass": ratio is None or 3.5 <= ratio <= 4.5,
        }
    companion = RateModel(ExponentialIncidence(k2=0.01), model.m0, model.ratio)
    special = prevalence(companion, t, a, "convolution_special").odds
    general = prevalence(companion, t, a).odds
    deviation = abs(special - general) / max(abs(special), abs(general))
    report["exponential_special_case"] = {
        "builtin_companion_model": True,
        "odds_special": special,
        "odds_general": general,
        "relative_deviation": deviation,
        "threshold": 1e-10,
        "pass": deviation <= 1e-10,
    }
    ages = np.arange(40.0, 91.0 + 1e-9, 0.5)
    start, end = (cross_section_profile(model, time, ages) for time in (t, t + 0.5))
    recovered = reconstruct_incidence(
        start, end, lambda tt, aa: effective_diseased_mortality(model, tt, aa), model.mortality_healthy
    )
    keep = recovered.ages <= 90.0 + 1e-9
    truth = model.incidence_rate(np.full(np.count_nonzero(keep), recovered.time), recovered.ages[keep])
    error = float(np.max(np.abs(recovered.values[keep] - truth) / np.abs(truth)))
    report["incidence_reconstruction"] = {
        "cross_section_times": [t, t + 0.5],
        "age_range": [40.0, 90.0],
        "max_error": error,
        "relative": True,
        "threshold": 0.02,
        "pass": error <= 0.02,
    }
    report["all_pass"] = all(section.get("pass", True) for section in report.values() if isinstance(section, dict))
    return report


# Bad input: each is refused with one "error:" line and exit 2.  "{tmp}" is a
# directory holding a plain file `file`, an empty directory `dir` and the
# configurations of BAD_CONFIGS; `--out-dir {tmp}/o` goes right after the
# command, so an entry's own `--out-dir` takes precedence.
BAD_INPUTS = {
    "evaluate-negative-age": ["evaluate", "--age-min", "-5"],
    "evaluate-grid-too-large": ["evaluate", "--age-min", "30", "--age-max", "40", "--step", "1e-9"],
    "crosscheck-negative-age": ["crosscheck", "--age", "-1"],
    "crosscheck-step-above-age": ["crosscheck", "--age", "0.05"],
    "crosscheck-nan-time": ["crosscheck", "--t", "nan"],
    "simulate-negative-seed": ["simulate", "--seed", "-1"],
    "out-dir-is-a-file": ["evaluate", "--out-dir", "{tmp}/file"],
    "data-is-a-directory": ["fit", "--data", "{tmp}/dir"],
    "config-is-a-directory": ["evaluate", "--config", "{tmp}/dir"],
    "config-not-utf8": ["evaluate", "--config", "{tmp}/latin1.json"],
    "study-size-births": ["simulate", "--config", "{tmp}/huge_births.json"],
    "study-size-calibrated": ["simulate", "--config", "{tmp}/huge_target.json"],
    "fit-overflowing-incidence": ["fit", "--config", "{tmp}/overflow.json"],
    "fit-group-too-old": ["fit", "--data", "{tmp}/ancient.csv"],
    "tabulated-ragged-table": ["evaluate", "--config", "{tmp}/ragged.json"],
    "config-not-an-object": ["evaluate", "--config", "{tmp}/list.json"],
    "evaluate-zero-step": ["evaluate", "--step", "0"],
    "fit-nothing-free": ["fit", "--config", "{tmp}/all_pinned.json"],
    "simulate-zero-target": ["simulate", "--config", "{tmp}/no_target.json"],
    "simulate-study-before-births": ["simulate", "--config", "{tmp}/early_study.json"],
    "fit-csv-short-row": ["fit", "--data", "{tmp}/short_row.csv"],
    "fit-csv-wrong-index": ["fit", "--data", "{tmp}/wrong_index.csv"],
    "fit-csv-no-rows": ["fit", "--data", "{tmp}/header_only.csv"],
    "fit-m0-xi2-1e300": ["fit", "--config", "{tmp}/xi2_1e300.json"],
    "fit-m0-xi3-1e300": ["fit", "--config", "{tmp}/xi3_1e300.json"],
    "fit-m0-flat-xi3-zero": ["fit", "--config", "{tmp}/m0_flat.json"],
    "fit-exponential-steep": ["fit", "--config", "{tmp}/exponential_steep.json"],
    "exponential-nan-parameter": ["evaluate", "--config", "{tmp}/nan_k0.json"],
    "tabulated-one-point-grid": ["evaluate", "--config", "{tmp}/one_time.json"],
}

# The refusal each of these inputs, or of NUMERIC_FAILURES below, must meet, named by a fragment of its message.
CAUSES = {
    "config-not-an-object": "configuration must be a JSON object",
    "evaluate-zero-step": "--step must be positive",
    "fit-nothing-free": "at least one component must be free",
    "simulate-zero-target": "target_alive must be positive",
    "simulate-study-before-births": "cross section must lie after the first birth",
    "fit-csv-short-row": "line 2: expected 5 fields, got 4",
    "fit-csv-wrong-index": "line 2: group index must be 1, got 2",
    "fit-csv-no-rows": "table has no data rows",
    "exponential-nan-parameter": "incidence parameters must be finite",
    "tabulated-one-point-grid": "grids must be 1-D with at least two points",
    "evaluate-odds-sum-overflow": "odds must be finite and nonnegative, got inf at age 140",
    "crosscheck-odds-sum-overflow": "odds must be finite and nonnegative, got inf at age 140",
    **dict.fromkeys(
        ["fit-m0-xi2-1e300", "fit-m0-xi3-1e300", "fit-m0-flat-xi3-zero", "fit-exponential-steep"],
        "the likelihood is minus infinity at every start point",
    ),
    "crosscheck-exponential-prevalence-one": "prevalence must stay below 1",
    **dict.fromkeys(
        [f"{command}-m0-{xi}-1e300" for command in ("evaluate", "crosscheck") for xi in ("xi2", "xi3")]
        + ["evaluate-m0-flat-xi3-zero", "evaluate-exponential-steep", "evaluate-ages-to-1e5"],
        "integrand returned non-finite values",
    ),
}

BAD_CONFIGS = {
    "latin1.json": '{"output": {"directory": "caf\u00e9"}}'.encode("latin-1"),
    "huge_births.json": b'{"simulation": {"births_per_year": 1e9}}',
    "huge_target.json": b'{"simulation": {"births_per_year": null, "target_alive": 1000000000000}}',
    "overflow.json": b'{"incidence": {"family": "exponential", "k0": 50}}',
    "ancient.csv": b"k,age_lo,age_hi,n,c\n1,40,45,9858,283\n2,45,50,9786,501\n3,50,1e300,9597,781\n",
    "ragged.json": b'{"incidence": {"family": "tabulated", "times": [0, 1], "ages": [0, 1], "table": [[0, 1], [0]]}}',
    "list.json": b"[1, 2]",
    "all_pinned.json": b'{"fit": {"fixed_gamma": [0.04, 5.0, 1.0]}}',
    "no_target.json": b'{"simulation": {"births_per_year": null, "target_alive": 0}}',
    "early_study.json": b'{"simulation": {"cross_section_time": -1}}',
    "short_row.csv": b"k,age_lo,age_hi,n,c\n1,40,45,9858\n",
    "wrong_index.csv": b"k,age_lo,age_hi,n,c\n2,40,45,9858,283\n",
    "header_only.csv": b"k,age_lo,age_hi,n,c\n",
    "nan_k0.json": b'{"incidence": {"family": "exponential", "k0": NaN}}',
    "one_time.json": b'{"incidence": {"family": "tabulated", "times": [0], "ages": [0, 1], "table": [[0, 1]]}}',
    # a Gompertz slope whose square and cube overflow a float in the course moments
    "xi2_1e300.json": b'{"m0": {"xi2": 1e300}}',
    "xi3_1e300.json": b'{"m0": {"xi3": 1e300}}',
    "m0_flat.json": b'{"m0": {"xi2": 5, "xi3": 0}}',
    "exponential_steep.json": b'{"incidence": {"family": "exponential", "k0": 5, "k1": 0.5}}',
    "exponential_half.json": b'{"incidence": {"family": "exponential", "k0": 0.5}}',
    # the healthy exit balances m1 on the old part of each life line, so the odds kernel plateaus near
    # e**704: the integrand stays finite, but its sum overflows
    "plateau.json": json.dumps({
        "incidence": {
            "family": "tabulated",
            "times": [-1000.0, 1000.0],
            "ages": [*range(0, 120, 5), 119.999, 120, 125, 130, 135, 140, 200],
            "table": [[10.0] * 25 + [45.2] * 6] * 2,
        },
        "m0": {"xi1": -50.0, "xi2": 1e-9, "xi3": 0.0},
        "ratio": {"gamma1": 0.0, "gamma2": 5.0, "gamma3": 10.0 / math.exp(-50.0)},
    }).encode(),
}

# Inputs the configuration admits but the numerics do not: exit 3 with one "numerical failure:" line.
NUMERIC_FAILURES = {
    "evaluate-ages-beyond-survival": ["evaluate", "--age-min", "0", "--age-max", "5000", "--step", "100"],
    # the onset layer's edge count, log2(m1 * age), overflows here
    "evaluate-onset-layer-overflow": ["evaluate", "--age-min", "7130", "--age-max", "7131", "--step", "1"],
    "evaluate-odds-sum-overflow": ["evaluate", "--config", "{tmp}/plateau.json", "--age-min", "139", "--age-max", "140",
                                   "--step", "1"],
    "crosscheck-odds-sum-overflow": ["crosscheck", "--config", "{tmp}/plateau.json", "--age", "140"],
    "evaluate-m0-xi2-1e300": ["evaluate", "--config", "{tmp}/xi2_1e300.json", "--step", "5"],
    "evaluate-m0-xi3-1e300": ["evaluate", "--config", "{tmp}/xi3_1e300.json", "--step", "5"],
    "crosscheck-m0-xi2-1e300": ["crosscheck", "--config", "{tmp}/xi2_1e300.json"],
    "crosscheck-m0-xi3-1e300": ["crosscheck", "--config", "{tmp}/xi3_1e300.json"],
    "evaluate-m0-flat-xi3-zero": ["evaluate", "--config", "{tmp}/m0_flat.json", "--step", "5"],
    "evaluate-exponential-steep": ["evaluate", "--config", "{tmp}/exponential_steep.json", "--step", "5"],
    "evaluate-ages-to-1e5": ["evaluate", "--age-max", "1e5", "--step", "10"],
    "crosscheck-exponential-prevalence-one": ["crosscheck", "--config", "{tmp}/exponential_half.json"],
}


def run_quietly(argv, tmp_path, capsys):
    """Exit code and stderr of one `main` call on the BAD_INPUTS layout; it must raise no warning."""
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir(exist_ok=True)
    for name, content in BAD_CONFIGS.items():
        (tmp_path / name).write_bytes(content)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv[:1] + ["--out-dir", str(tmp_path / "o")] + argv[1:])
    assert [str(warning.message) for warning in caught] == []
    return code, capsys.readouterr().err


class TestInputErrors:
    @pytest.mark.parametrize("name", list(BAD_INPUTS), ids=list(BAD_INPUTS))
    def test_exits_2_with_one_error_line(self, name, tmp_path, capsys):
        code, err = run_quietly(BAD_INPUTS[name], tmp_path, capsys)
        assert code == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert CAUSES.get(name, "") in err

    @pytest.mark.parametrize("name", list(NUMERIC_FAILURES), ids=list(NUMERIC_FAILURES))
    def test_exits_3_with_one_line(self, name, tmp_path, capsys):
        code, err = run_quietly(NUMERIC_FAILURES[name], tmp_path, capsys)
        assert code == 3
        assert err.startswith("numerical failure:") and len(err.splitlines()) == 1
        assert CAUSES.get(name, "") in err
        # a conversion error leaking from inside the numerics names no cause the user can act on
        assert "cannot convert" not in err

    @pytest.mark.parametrize(
        "error", [FloatingPointError, np.linalg.LinAlgError, ZeroDivisionError, OverflowError, ArithmeticError]
    )
    def test_arithmetic_and_linear_algebra_errors_exit_3(self, error, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(importlib.import_module("idmodds.cli"), "cross_section_profile", failing)
        assert main(["evaluate", "--out-dir", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "numerical failure: boom\n"


# signs, scales and the overflow edges of the model's exponentials, by JSON kind
FUZZ_NUMBERS = [0, 0.5, -0.5, 1, -1, 1e-300, 1e300, 5, 30, 50, 200, -200, 3000, 1e-3]
FUZZ_VALUES = {"number": FUZZ_NUMBERS, "integer": [0, 1, -1, 5, 30, 50, 200, -200, 3000], "null": [None],
               "string": ["o"]}
BARE_ARITHMETIC = re.compile(r"\(\d+, '|math range error|Numerical result out of range")


def schema_valid(schema, path=()):
    """Documents that ``schema`` admits, a new key included.

    Arrays hold two or three items and an incidence only its family's keys, so most documents reach the numerics.
    """
    if "properties" in schema:
        parts = {key: schema_valid(sub, path + (key,)) for key, sub in schema["properties"].items()}
        if path != ("incidence",):
            return st.fixed_dictionaries({}, optional=parts)
        return st.sampled_from(list(_INCIDENCE_FAMILIES)).flatmap(lambda family: st.fixed_dictionaries(
            {"family": st.just(family)},
            optional={field.name: parts[field.name] for field in dataclasses.fields(_INCIDENCE_FAMILIES[family])},
        ))
    if "items" in schema:
        return st.lists(schema_valid(schema["items"], path), min_size=2, max_size=3)
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kinds = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
    return st.sampled_from([value for kind in kinds for value in FUZZ_VALUES[kind]])


class TestSchemaFuzz:
    def test_every_admitted_config_exits_with_a_documented_code(self, tmp_path, capsys):
        # whether an overflow is bad input (2) or a numerical failure (3) is still open, so either passes
        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(schema_valid(_SCHEMA))
        def documented(document):
            config = write_config(tmp_path, document, "fuzz.json")
            for argv in (["evaluate", "--step", "5"], ["crosscheck"], ["fit"]):
                code, err = run_quietly([*argv, "--config", config], tmp_path, capsys)
                assert code in (0, 2, 3, 4)
                if code:
                    assert len(err.splitlines()) == 1
                    assert "invalid configuration at" not in err  # the strategy draws only what the schema admits
                    assert not BARE_ARITHMETIC.search(err), err

        documented()


MANIFEST_KEYS = [
    "tool", "version", "command", "config_path", "config_hash", "flags", "started_utc", "finished_utc", "outputs"
]
BUNDLED_DATA = Path(idmodds.__file__).parent / "data"


class TestManifest:
    @pytest.mark.parametrize(
        "argv, flags, notes",
        [
            (
                ["evaluate", "--age-min", "40", "--age-max", "50", "--step", "5"],
                {"t": 100.0, "age_min": 40.0, "age_max": 50.0, "step": 5.0, "method": "pseudo_convolution"},
                [],
            ),
            (
                ["simulate", "--seed", "3"],
                {"seed": 3, "replicates": 1},
                ["calibrated_births_per_year", "rng_seed", "replicate_seeds", "workers"],
            ),
            (["fit"], {"data": str(BUNDLED_DATA / "table1.csv")}, ["converged", "quadrature_gap"]),
            (["crosscheck"], {"t": 100.0, "age": 60.0, "h": 0.1}, []),
        ],
        ids=["evaluate", "simulate", "fit", "crosscheck"],
    )
    def test_keys_order_and_flags(self, argv, flags, notes, tmp_path):
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert list(manifest) == MANIFEST_KEYS + notes
        assert manifest["command"] == argv[0]
        assert manifest["config_path"] == str(BUNDLED_DATA / "reference_config.json")
        assert manifest["config_hash"] == load_run_config(str(BUNDLED_CONFIG)).hash
        assert json.dumps(manifest["flags"]) == json.dumps(flags)
        assert manifest["started_utc"] <= manifest["finished_utc"]
        assert all(os.path.dirname(path) == str(out) for path in manifest["outputs"])


class TestParser:
    CALLS = [
        ["evaluate", "--age-min", "40", "--age-max", "50", "--step", "5", "--method", "all"],
        ["evaluate", "--age-min", "-5"],
        ["evaluate", "--method", "bogus"],
        # the oracle routes are written only beside the pseudo-convolution, under their own headers, by 'all'
        ["evaluate", "--method", "keiding"],
        ["evaluate", "--method", "cohort_ratio"],
        ["crosscheck", "--h", "0.2"],
        ["fit"],
    ]

    @staticmethod
    def run(root, fresh):
        codes = []
        for index, argv in enumerate(TestParser.CALLS):
            if fresh:
                _build_parser.cache_clear()
            try:
                codes.append(main(argv + ["--out-dir", str(root / str(index))]))
            except SystemExit as exit_:
                codes.append(exit_.code)
        return codes

    def test_one_parser_serves_back_to_back_calls(self, tmp_path, capsys):
        assert _build_parser() is _build_parser()
        cached = self.run(tmp_path / "cached", fresh=False)
        fresh = self.run(tmp_path / "fresh", fresh=True)
        assert cached == fresh == [0, 2, 2, 2, 2, 0, 0]
        for index in range(len(self.CALLS)):
            one, other = tmp_path / "cached" / str(index), tmp_path / "fresh" / str(index)
            names = sorted(path.name for path in one.glob("*")) if one.exists() else []
            assert names == (sorted(path.name for path in other.glob("*")) if other.exists() else [])
            for name in names:
                if name == "run_manifest.json":
                    flags = [json.loads((root / name).read_text())["flags"] for root in (one, other)]
                    assert json.dumps(flags[0]) == json.dumps(flags[1])
                else:
                    assert (one / name).read_bytes() == (other / name).read_bytes()


class TestEnvironment:
    def test_thread_limit_default_is_one(self, monkeypatch):
        monkeypatch.delenv("IDM_ODDS_THREADS", raising=False)
        assert thread_limit() == 1

    def test_thread_limit_zero_means_all_cores(self, monkeypatch):
        monkeypatch.setenv("IDM_ODDS_THREADS", "0")
        assert thread_limit() == (os.cpu_count() or 1)

    def test_thread_limit_explicit(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv("IDM_ODDS_THREADS", "3")
        assert thread_limit() == 3

    @pytest.mark.parametrize("cores, raw, want", [(2, "5000", 2), (2, "2", 2), (2, "0", 2), (None, "3", 1)])
    def test_thread_limit_is_capped_at_the_core_count(self, monkeypatch, cores, raw, want):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        monkeypatch.setenv("IDM_ODDS_THREADS", raw)
        assert thread_limit() == want

    def test_manifest_records_the_capped_worker_count(self, monkeypatch, tmp_path):
        # one core: the replicates run in this process, and no pool is started
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setenv("IDM_ODDS_THREADS", "5000")
        out = tmp_path / "o"
        argv = ["simulate", "--config", write_config(tmp_path, TINY_SIM), "--replicates", "2", "--out-dir", str(out)]
        assert main(argv) == 0
        assert json.loads((out / "run_manifest.json").read_text())["workers"] == 1

    def test_thread_limit_invalid_is_config_error(self, monkeypatch, tmp_path):
        monkeypatch.setenv("IDM_ODDS_THREADS", "many")
        config = write_config(tmp_path, TINY_SIM)
        assert main(["simulate", "--config", config, "--out-dir", str(tmp_path / "o")]) == 2

    def test_simulate_reads_the_thread_limit_before_calibrating(self, monkeypatch, tmp_path, capsys):
        # the bundled configuration calibrates its births; a negative thread limit is refused before that work
        def no_calibration(*args):
            raise AssertionError("calibrated before the thread limit was read")

        monkeypatch.setattr(importlib.import_module("idmodds.cli"), "calibrate_births_per_year", no_calibration)
        monkeypatch.setenv("IDM_ODDS_THREADS", "-1")
        assert main(["simulate", "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: IDM_ODDS_THREADS must be >= 0\n"

    def test_bad_config_path_is_config_error(self, tmp_path):
        assert main(["evaluate", "--config", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path / "o")]) == 2


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SUBCOMMANDS = ("evaluate", "simulate", "fit", "crosscheck")


def package_env():
    """Environment for a child interpreter that imports the ``idmodds`` under test.

    The directory holding the imported package goes first on ``PYTHONPATH``, so
    the child never picks up another installed copy.
    """
    env = dict(os.environ)
    source_root = str(Path(idmodds.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    return env


def project_table():
    """The ``[project]`` table of ``pyproject.toml``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10, where pytest itself depends on tomli
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]


# The sitecustomize.py of runtime_only_env.  Its finder refuses each import outside the standard library and
# ``allowed`` as the import is asked for, in the child and in every worker it starts, forked or spawned.  An
# import that the standard library tries and catches (pickle's of org.python.core) fails nothing.
RUNTIME_LIMIT = """import sys


class RuntimeOnly:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in sys.stdlib_module_names | {allowed!r}:
            raise ModuleNotFoundError(f"No module named {{name!r}} outside the declared runtime", name=name)


sys.meta_path.insert(0, RuntimeOnly())
"""


def runtime_only_env(tmp_path):
    """``package_env`` for a child that can import only the standard library, ``idmodds`` and the runtime.

    The runtime is the top-level modules of the distributions that ``[project] dependencies`` lists, numpy's
    today, whatever else is installed.
    """
    def canonical(name):
        return re.sub(r"[-_.]+", "-", name).lower()

    declared = {canonical(re.match(r"[\w.-]+", requirement)[0]) for requirement in project_table()["dependencies"]}
    allowed = {"idmodds"} | {
        module for module, names in importlib.metadata.packages_distributions().items()
        if declared & set(map(canonical, names))
    }
    (tmp_path / "runtime-only").mkdir()
    (tmp_path / "runtime-only" / "sitecustomize.py").write_text(RUNTIME_LIMIT.format(allowed=allowed))
    env = package_env()
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path / "runtime-only"), env["PYTHONPATH"]])
    return env


def assert_help_lists_subcommands(proc):
    assert proc.returncode == 0, proc.stderr
    assert "usage: idm-odds" in proc.stdout
    for name in SUBCOMMANDS:
        assert name in proc.stdout


class TestConsoleScript:
    def test_version_banner(self):
        proc = subprocess.run(
            [sys.executable, "-m", "idmodds.cli", "--version"],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        assert proc.returncode == 0
        assert "idm-odds" in proc.stdout

    @pytest.mark.parametrize("module", ["scipy.optimize", "jsonschema", "concurrent.futures"])
    def test_cli_import_skips_unused_module(self, module):
        # no command imports scipy, only a parallel simulate the process pool, and no command needs jsonschema
        code = (
            "import sys; import idmodds.cli; from idmodds.config import load_run_config; "
            f"load_run_config({str(BUNDLED_CONFIG)!r}); "
            f"print({module!r} in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=package_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_fit_runs_without_scipy(self, tmp_path):
        # the fit's simplex search is the package's own, so fitting the bundled table never imports scipy
        code = (
            "import sys; from idmodds.cli import main; "
            f"code = main(['fit', '--out-dir', {str(tmp_path)!r}]); "
            "print(code, 'scipy' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=package_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"
        assert json.loads((tmp_path / "fit_result.json").read_text())["converged"] is True

    def test_commands_run_on_the_runtime_alone(self, tmp_path):
        # numpy is the whole runtime: under the import limit and with warnings as errors, every command exits 0.
        # A tabulated incidence takes the sampler's log-scale Newton steps, two replicates run on two pool
        # workers, and the bundled table with no cases in its first group or every member of its last group a
        # case makes the likelihood read gathered rows.
        grid = {"family": "tabulated", "times": [0.0, 60.0, 120.0], "ages": [0.0, 30.0, 60.0, 110.0],
                "table": [[0.0, 0.0, 0.01, 0.027], [0.0, 0.0, 0.011, 0.026], [0.0, 0.0, 0.009, 0.028]]}
        tabulated = write_config(tmp_path, {"incidence": grid, "simulation": {"target_alive": 200}})
        table = AgeGroupTable.from_csv(BUNDLED_DATA / "table1.csv")
        first, last = table.c.copy(), table.c.copy()
        first[0], last[-1] = 0, table.n[-1]
        runs = [[command] for command in SUBCOMMANDS]
        runs += [["simulate", "--config", tabulated], ["simulate", "--replicates", "2"]]
        for name, c in (("first-no-cases", first), ("last-all-cases", last)):
            dataclasses.replace(table, c=c).to_csv(tmp_path / f"{name}.csv")
            runs.append(["fit", "--data", str(tmp_path / f"{name}.csv")])
        runs = [argv + ["--out-dir", str(tmp_path / str(k))] for k, argv in enumerate(runs)]
        code = f"from idmodds.cli import main\nprint([main(argv) for argv in {runs!r}])"
        env = {**runtime_only_env(tmp_path), "IDM_ODDS_THREADS": "2"}
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str([0] * len(runs))
        fitted = tmp_path / str(SUBCOMMANDS.index("fit")) / "fit_result.json"
        assert json.loads(fitted.read_text())["converged"] is True
        # the limit was in force: pytest is installed wherever this runs, and the same child cannot import it
        proc = subprocess.run([sys.executable, "-c", "import pytest"], capture_output=True, text=True, env=env)
        assert "ModuleNotFoundError: No module named 'pytest' outside the declared runtime" in proc.stderr

    def test_entry_point_help(self):
        # Call the declared target the way the setuptools console-script wrapper does.
        module, attr = project_table()["scripts"]["idm-odds"].split(":")
        wrapper = (
            f"import sys; from {module} import {attr} as entry; "
            "sys.argv[0] = 'idm-odds'; sys.exit(entry())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "--help"],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        assert_help_lists_subcommands(proc)

        # Where the package is installed, the generated executable must behave the same.
        executable = shutil.which("idm-odds")
        if executable is not None:
            proc = subprocess.run(
                [executable, "--help"], capture_output=True, text=True, env=package_env()
            )
            assert_help_lists_subcommands(proc)


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


class TestDemos:
    @pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
    def test_demo_runs(self, script, tmp_path):
        # on the runtime alone, with warnings as errors
        proc = subprocess.run(
            [sys.executable, "-W", "error", str(script)],
            cwd=tmp_path,
            env=runtime_only_env(tmp_path),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr


class TestBenchmarkTracer:
    def test_tracer_finds_every_wrapped_name(self):
        # the benchmark's span tracer patches names by attribute; a renamed or
        # deleted one would only surface in a traced benchmark run
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        import idmodds.cli as cli_module

        fit_before = cli_module.fit
        tracer = spans.Tracer()
        try:
            tracer.install()
            assert cli_module.fit is not fit_before
        finally:
            tracer.uninstall()
        assert cli_module.fit is fit_before

    def test_tracer_patches_and_restores_the_names_kept_for_it(self):
        # names the package keeps only so the tracer can wrap them; removing or
        # renaming one must fail here, before a traced benchmark run
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        fit, prevalence, rates, simulate = (
            importlib.import_module(f"idmodds.{name}") for name in ("fit", "prevalence", "rates", "simulate")
        )
        kept = [(prevalence, f"prevalence_odds_{route}") for route in ("keiding", "pseudo_convolution", "exponential")]
        kept += [(fit, "prevalence"), (simulate, "diseased_population"), (simulate, "healthy_population")]
        kept += [(module, "adaptive_quad") for module in (prevalence, rates, simulate)]
        kept += [(rates.RateModel, name) for name in ("cumulative_m0", "cumulative_incidence", "cumulative_m1")]
        originals = [getattr(owner, name) for owner, name in kept]
        tracer = spans.Tracer()
        try:
            tracer.install()
            wrapped = [getattr(owner, name) for owner, name in kept]
        finally:
            tracer.uninstall()
        assert not any(now is before for now, before in zip(wrapped, originals))
        assert all(getattr(owner, name) is before for (owner, name), before in zip(kept, originals))
