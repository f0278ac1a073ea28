"""The package namespace: public names resolve on first use."""
import importlib

import pytest

import schurlab


def test_catalog_load_imports_only_the_catalog(modules_after):
    modules = modules_after("from schurlab.catalog import load_bundled; load_bundled()")
    assert modules == ["schurlab", "schurlab.catalog", "schurlab.data", "schurlab.pcgroup"]


def test_every_public_name_resolves_to_its_home_module():
    assert sorted(schurlab._HOME) == sorted(schurlab.__all__)
    for name in schurlab.__all__:
        home = importlib.import_module(f"schurlab.{schurlab._HOME[name]}")
        assert getattr(schurlab, name) is getattr(home, name), name
        assert name not in vars(schurlab), name  # looked up, never stored


def test_dir_lists_the_public_names():
    listed = dir(schurlab)
    assert set(schurlab.__all__) <= set(listed)
    assert "__all__" in listed and "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        schurlab.no_such_name
    assert not hasattr(schurlab, "find_bundled")  # defined in catalog, not public


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from schurlab import *", namespace)
    assert set(schurlab.__all__) <= set(namespace)
    assert namespace["run_suites"] is importlib.import_module("schurlab.suites").run_suites
