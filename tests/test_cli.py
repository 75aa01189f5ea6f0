"""Tests for the run configuration and the command-line interface."""

import dataclasses
import filecmp
import importlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import idmodds
from idmodds.cli import _build_parser, _relative_spread, _richardson, main, thread_limit
from idmodds.config import _SCHEMA, ConfigError, config_hash, load_run_config, parse_run_config
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
from idmodds.simulate import SimConfig

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
        with pytest.raises(ConfigError):
            parse_run_config({"ratio": {"gamma1": 0.04, "gamma2": 5.0, "gamma3": -1.0}})

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
        document = {"fit": {"max_iterations": 17, "fixed_gamma": [None, 5.0, None]}}
        fit_config = parse_run_config(document).build_fit_config()
        assert fit_config.max_iterations == 17
        assert fit_config.fixed_gamma == (None, 5.0, None)

    def test_bundled_document_states_library_defaults(self):
        # the bundled document repeats the reference study as data; it must not drift from the library
        empty = parse_run_config({})
        bundled = load_run_config(str(BUNDLED_CONFIG))
        assert bundled.build_model() == empty.build_model() == reference_rate_model()
        assert bundled.build_sim_config() == empty.build_sim_config() == SimConfig()
        assert bundled.build_fit_config() == empty.build_fit_config() == FitConfig()

    @pytest.mark.parametrize(
        "section",
        [
            {"hessian_step_scale": 1e-3},
            {"quadrature": {"rel_tol": 1e-9}},
            {"include_binomial_coefficient": True},
            {"group_evaluation": "midpoint"},
            {"xatol": 1e-5},
            {"fatol": 1e-7},
        ],
        ids=["hessian_step_scale", "quadrature", "include_binomial_coefficient", "group_evaluation", "xatol", "fatol"],
    )
    def test_hessian_step_scale_no_longer_accepted(self, section):
        with pytest.raises(ConfigError, match="invalid configuration at fit"):
            parse_run_config({"fit": section})

    @pytest.mark.parametrize(
        "section, kind, built_elsewhere",
        [
            ("simulation", SimConfig, ()),
            ("ratio", MortalityRatioParams, ()),
            ("m0", GompertzParams, ()),
            ("fit", FitConfig, ("incidence", "m0", "max_duration")),
        ],
        ids=["simulation", "ratio", "m0", "fit"],
    )
    def test_schema_sections_match_dataclass_fields(self, section, kind, built_elsewhere):
        # a field deleted from a dataclass must not linger as an accepted key, nor the reverse
        keys = set(_SCHEMA["properties"][section]["properties"])
        assert keys == {f.name for f in dataclasses.fields(kind)} - set(built_elsewhere)


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

    def test_ratio_negative_before_max_age_is_config_error(self, tmp_path, capsys):
        # R(d) = -1e-4 d^2 + 1.1 passes the check on [0, max_duration=100], but a
        # course can last up to max_age=110, where R(110) < 0
        document = {"incidence": {"family": "exponential"}, "ratio": {"gamma1": -1e-4, "gamma2": 0.0, "gamma3": 1.1}}
        config = write_config(tmp_path, document)
        assert main(["simulate", "--config", config, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "max_age=110" in err

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

    def test_non_convergence_exits_4_with_outputs(self, tmp_path):
        document = {"fit": {"starts": [[0.01, 2.0, 1.0]], "max_iterations": 3}}
        config = write_config(tmp_path, document)
        out = tmp_path / "out"
        code = main(["fit", "--config", config, "--out-dir", str(out)])
        assert code == 4
        result = json.loads((out / "fit_result.json").read_text())
        assert result["converged"] is False
        assert (out / "fit_table.csv").exists()
        assert json.loads((out / "run_manifest.json").read_text())["converged"] is False

    def test_quadrature_budget_failure_exits_3(self, tmp_path, monkeypatch):
        tight = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-300, max_subdivisions=1)
        monkeypatch.setattr(importlib.import_module("idmodds.fit"), "_FIT_QUADRATURE", tight)
        assert main(["fit", "--out-dir", str(tmp_path / "o")]) == 3

    def test_manifest_records_quadrature_gap(self, tmp_path):
        out = tmp_path / "out"
        assert main(["fit", "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        result = json.loads((out / "fit_result.json").read_text())
        assert 0.0 <= manifest["quadrature_gap"] <= 1e-12
        assert result["diagnostics"]["quadrature_gap"] == manifest["quadrature_gap"]

    def test_ratio_horizon_beyond_max_duration_is_input_error(self, tmp_path, capsys):
        rows = ["k,age_lo,age_hi,n,c"]
        for k, lo in enumerate(range(40, 100, 5), start=1):
            rows.append(f"{k},{lo},{lo + 5},1000,{k * 10}")
        rows.append("13,100,110,500,150")
        data = tmp_path / "old.csv"
        data.write_text("\n".join(rows) + "\n")
        config = write_config(tmp_path, {"fit": {"bounds": [[-0.01, 1.0], [0.0, 50.0], [0.0, 20.0]]}})
        code = main(["fit", "--config", config, "--data", str(data), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "105" in err and "max_duration=100" in err

    def test_ratio_max_duration_extends_fit_horizon(self, tmp_path):
        rows = ["k,age_lo,age_hi,n,c"]
        for k, lo in enumerate(range(40, 100, 5), start=1):
            rows.append(f"{k},{lo},{lo + 5},1000,{k * 10}")
        rows.append("13,100,110,500,150")
        data = tmp_path / "old.csv"
        data.write_text("\n".join(rows) + "\n")
        document = {"ratio": {"max_duration": 120}, "fit": {"bounds": [[-0.01, 1.0], [0.0, 50.0], [0.0, 20.0]]}}
        assert parse_run_config(document).build_fit_config().max_duration == 120
        config = write_config(tmp_path, document)
        assert main(["fit", "--config", config, "--data", str(data), "--out-dir", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "document",
        [
            {"fit": {"bounds": [[-math.inf, 1.0], [0.0, 50.0], [0.0, 20.0]]}},
            {"fit": {"bounds": [[0.0, 1.0], [-1e200, 1e200], [0.0, 20.0]]}},
            {"m0": {"xi1": -1000.0}, "fit": {"bounds": [[0.0, 1.0], [-1e200, 1e200], [0.0, 20.0]]}},
        ],
        ids=["infinite-gamma1", "overflowing-gamma2-square", "zero-mortality-overflowing-square"],
    )
    def test_unbounded_box_fits(self, tmp_path, capsys, document):
        # a zero factor times an infinite one once made the plan's lookback depth NaN
        config = write_config(tmp_path, document)
        code = main(["fit", "--config", config, "--out-dir", str(tmp_path / "o")])
        assert code == 0
        assert "cannot convert" not in capsys.readouterr().err

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
}

BAD_CONFIGS = {
    "latin1.json": '{"output": {"directory": "caf\u00e9"}}'.encode("latin-1"),
    "huge_births.json": b'{"simulation": {"births_per_year": 1e9}}',
    "huge_target.json": b'{"simulation": {"births_per_year": null, "target_alive": 1000000000000}}',
    "overflow.json": b'{"incidence": {"family": "exponential", "k0": 50}}',
}

# Inputs the configuration admits but the numerics do not: exit 3 with one "numerical failure:" line.
NUMERIC_FAILURES = {
    "evaluate-ages-beyond-survival": ["evaluate", "--age-min", "0", "--age-max", "5000", "--step", "100"],
    # the onset layer's edge count, log2(m1 * age), overflows here
    "evaluate-onset-layer-overflow": ["evaluate", "--age-min", "7130", "--age-max", "7131", "--step", "1"],
}


def run_quietly(argv, tmp_path, capsys):
    """Exit code and stderr of one `main` call on the BAD_INPUTS layout; it must raise no warning."""
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    for name, content in BAD_CONFIGS.items():
        (tmp_path / name).write_bytes(content)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv[:1] + ["--out-dir", str(tmp_path / "o")] + argv[1:])
    assert [str(warning.message) for warning in caught] == []
    return code, capsys.readouterr().err


class TestInputErrors:
    @pytest.mark.parametrize("argv", list(BAD_INPUTS.values()), ids=list(BAD_INPUTS))
    def test_exits_2_with_one_error_line(self, argv, tmp_path, capsys):
        code, err = run_quietly(argv, tmp_path, capsys)
        assert code == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", list(NUMERIC_FAILURES.values()), ids=list(NUMERIC_FAILURES))
    def test_exits_3_with_one_line(self, argv, tmp_path, capsys):
        code, err = run_quietly(argv, tmp_path, capsys)
        assert code == 3
        assert err.startswith("numerical failure:") and len(err.splitlines()) == 1
        # a conversion error leaking from inside the numerics names no cause the user can act on
        assert "cannot convert" not in err


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
        assert cached == fresh == [0, 2, 2, 0, 0]
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


def declared_console_script(name):
    """The ``module:attr`` target that ``[project.scripts]`` declares for ``name``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]["scripts"][name]


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

    def test_cli_import_skips_the_optimizer(self):
        # only fit uses scipy.optimize, so every other command is spared its import
        code = (
            "import sys; import idmodds.cli; from idmodds.config import load_run_config; "
            f"load_run_config({str(BUNDLED_CONFIG)!r}); "
            "print('scipy.optimize' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=package_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_entry_point_help(self):
        # Call the declared target the way the setuptools console-script wrapper does.
        module, attr = declared_console_script("idm-odds").split(":")
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
        proc = subprocess.run(
            [sys.executable, str(script)],
            cwd=tmp_path,
            env=package_env(),
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
