"""The package namespace: every module's public names, each exported once."""

import importlib
import pkgutil

import oracles
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


def test_oracles_and_deleted_names_stay_out_of_the_package():
    gone = {*oracles.__all__, "secular_tan", "PoleProximity"}
    modules = [star_spectra] + [
        importlib.import_module(f"star_spectra.{info.name}")
        for info in pkgutil.iter_modules(star_spectra.__path__)
    ]
    for module in modules:
        for name in gone:
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in getattr(module, "__all__", ()), (module.__name__, name)
