"""The package's export list is the union of its submodules' ``__all__``."""

import importlib
import pkgutil

import pptmerge

# every submodule that declares an export list (cli has none; __main__ runs the CLI)
SUBMODULES = [
    module
    for info in pkgutil.iter_modules(pptmerge.__path__)
    if info.name != "__main__"
    for module in [importlib.import_module(f"pptmerge.{info.name}")]
    if hasattr(module, "__all__")
]


def test_every_export_resolves_once():
    assert len(pptmerge.__all__) == len(set(pptmerge.__all__))
    for name in pptmerge.__all__:
        assert hasattr(pptmerge, name), name


def test_every_submodule_export_is_a_package_export():
    exported = set(pptmerge.__all__)
    assert SUBMODULES
    for module in SUBMODULES:
        assert set(module.__all__) <= exported, module.__name__
        for name in module.__all__:
            assert getattr(pptmerge, name) is getattr(module, name), name


def test_classify_is_the_function_and_per_criterion_wrappers_are_gone():
    assert callable(pptmerge.classify) and pptmerge.classify.__name__ == "classify"
    for name in (
        "check_perfect_sufficient",
        "check_vanishing_ppt_merge",
        "check_vanishing_locc_merge",
        "check_necessary_ppt",
        "fidelity_lower_bound",
    ):
        assert name not in pptmerge.__all__
        assert not hasattr(pptmerge, name)
        assert not hasattr(importlib.import_module("pptmerge.classify"), name)
