import importlib

import pytest

import chaincert

MODULES = ("young", "mspace", "minorize", "chain", "orlicz", "verify", "mc", "cli")
REMOVED = (
    "ComposedKernel",
    "composed_kernel",
    "modulus_thm3",
    "minorizing_metrics",
    "ball_mass",
    "extended_radius",
    "GrowthParams",
    "PairChecks",
    "minorizing_metric",
    "ball_growth_integral_riemann",
)


@pytest.mark.parametrize("module", (None,) + MODULES)
def test_public_names_resolve(module):
    mod = chaincert if module is None else importlib.import_module(f"chaincert.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing {name!r}"


def test_removed_names_are_not_exported():
    mods = [chaincert] + [importlib.import_module(f"chaincert.{m}") for m in MODULES]
    for mod in mods:
        stale = [name for name in REMOVED if hasattr(mod, name)]
        assert not stale, f"{mod.__name__} still defines {stale}"
