"""The package namespace: every module's public names, each exported once."""

import importlib

import star_spectra

MODULES = ("analytic", "empirical", "graph", "orbits", "spectrum", "trace", "workers")


def test_package_exports_each_module_name_once():
    exported = star_spectra.__all__
    assert len(exported) == len(set(exported))
    names = {"__version__"}
    for module in MODULES:
        names.update(importlib.import_module(f"star_spectra.{module}").__all__)
    assert set(exported) == names


def test_every_exported_name_resolves():
    for name in star_spectra.__all__:
        assert hasattr(star_spectra, name), name
