import dataclasses
import importlib
import inspect

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
    "AveragingKernel",
    "FiniteMeasure",
    "_GrowthProfile",
    "_mass_integral",
    "_pair_tau",
    "gaussian_cov_sampler",
    "analytic_increment_moment",
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


def test_removed_keywords_stay_gone():
    from chaincert import chain, minorize, mspace, orlicz, young

    removed = {
        orlicz.luxemburg_norm: {"rel_tol"},
        orlicz.amemiya_norm: {"rel_tol"},
        young.shifted_series: {"tol", "max_terms"},
        young.pair_series: {"tol", "max_terms"},
        chain._check_ratio: {"kmax"},
        minorize.ball_growth_integral: {"warn_clamp"},
        chaincert.invariant_suite: {"seed", "kernels"},
        chain.certificate_thm3: {"tail_tol"},
        chain.certificate_thm1: {"tail_tol"},
        chain.modulus_pairs: {"iu", "iv"},
        mspace.radius_table: {"allow_zero_mass"},
        mspace.MetricMeasureSpace.__init__: {"validate"},
        young.ratio_condition: {"kmax"},
        young.product_condition: {"grid"},
    }
    for fn, names in removed.items():
        assert not names & set(inspect.signature(fn).parameters), fn.__name__
    assert [f.name for f in dataclasses.fields(chaincert.PathBatch)] == ["values"]
    assert [f.name for f in dataclasses.fields(chaincert.ProcessSampler)] == ["space", "psi", "times"]
    assert not callable(young.YoungFunction.power(2))
    assert not callable(young.ConvexGauge(young.YoungFunction.power(2)))
