"""The public names: every export resolves, none is listed twice, and names deleted from the library stay gone."""

import importlib
import pkgutil

import pytest

import idmodds

# import_module, because the package re-exports functions named fit and prevalence
MODULES = [importlib.import_module(f"idmodds.{info.name}") for info in pkgutil.iter_modules(idmodds.__path__)]
DELETED = ["sample_life", "LifeRecord", "CohortBaseline", "odds_kernel", "case_density", "survivor_fraction"]


@pytest.mark.parametrize("module", [idmodds, *MODULES], ids=lambda module: module.__name__)
def test_every_export_is_an_attribute(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_are_unique():
    assert len(idmodds.__all__) == len(set(idmodds.__all__))


@pytest.mark.parametrize("name", DELETED)
def test_deleted_name_is_gone(name):
    # so ``from idmodds import name`` raises ImportError
    assert not hasattr(idmodds, name)


@pytest.mark.parametrize("name", ["cumulative_exit", "mortality_ratio", "mortality_diseased"])
def test_deleted_rate_model_method_is_gone(name):
    # each hazard is stated once: exit_hazard_rate, course_hazard_rate and the ratio's own ratio serve instead
    assert not hasattr(idmodds.RateModel, name)


def test_ratio_horizon_error_is_defined_once():
    # the fit and the simulator raise the one error of the rates module; their own are gone
    assert idmodds.RatioHorizonError.__module__ == "idmodds.rates"
    assert not hasattr(importlib.import_module("idmodds.fit"), "RatioHorizonError")
    assert not hasattr(importlib.import_module("idmodds.simulate"), "SimulationHorizonError")
