"""Metamorphic relations: point permutation, distance scaling, JSON round trip
and the positive homogeneity of the Luxemburg norm.

Each relation compares the library with itself on transformed inputs, so it
needs no oracle. The spaces come from seeded generators and carry random
(Dirichlet) masses, so no two points share a ball mass by symmetry.
"""

import numpy as np
import pytest

from chaincert import (
    ConvexGauge,
    MetricMeasureSpace,
    MinorizingMetrics,
    YoungFunction,
    certificate_thm1,
    certificate_thm3,
    generate_space,
    luxemburg_norm,
    radius_table,
    space_from_json,
    space_to_json,
)

PHI1 = YoungFunction.power(1)
PHI2 = YoungFunction.power(2)
# (phi, psi) of the T1 certificates; every weight of the exp(x^2) pair underflows
T1_PAIRS = [(PHI1, PHI2), (PHI1, YoungFunction.exponential(2))]
SPACES = [
    ("random", {"n": 2}),
    ("random", {"n": 9}),
    ("random", {"n": 23}),
    ("grid", {"n": 12, "gamma": 0.5}),
    ("tree", {"depth": 3}),
]
SPACE_IDS = ["random2", "random9", "random23", "grid12", "tree15"]


def _space(kind, params, seed):
    return generate_space(kind, seed=seed, mass="random", **params)


def _outputs(space):
    """tau, the radius tables and the certificates that the relations compare."""
    out = {"tau": MinorizingMetrics(space, PHI1).tau, "radii": radius_table(space, PHI1, 6.0).radii}
    out["certs"] = [certificate_thm1(space, phi, psi, 6.0, 1) for phi, psi in T1_PAIRS]
    out["certs"].append(certificate_thm3(space, PHI2, 6.0))
    return out


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind, params", SPACES, ids=SPACE_IDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_point_permutation_permutes_outputs(kind, params, seed):
    sp = _space(kind, params, seed)
    perm = np.random.default_rng(100 + seed).permutation(sp.n)
    moved = MetricMeasureSpace(sp.dist[np.ix_(perm, perm)], sp.mass[perm], labels=[sp.labels[i] for i in perm])
    base, got = _outputs(sp), _outputs(moved)
    _assert_close(got["tau"], base["tau"][np.ix_(perm, perm)])
    assert got["radii"].shape == base["radii"].shape
    _assert_close(got["radii"], base["radii"][:, perm])
    for c0, c1 in zip(base["certs"], got["certs"]):
        _assert_close(c1.nu, c0.nu[np.ix_(perm, perm)])
        assert (c1.A, c1.B, c1.K, c1.kstar) == (c0.A, c0.B, c0.K, c0.kstar)


def _scaled(sp, c):
    return MetricMeasureSpace(c * sp.dist, sp.mass, labels=sp.labels)


@pytest.mark.parametrize("kind, params", SPACES, ids=SPACE_IDS)
@pytest.mark.parametrize("c", [0.5, 4.0])
def test_dyadic_scaling_is_exact(kind, params, c):
    # multiplying by a power of two is exact, so every comparison of
    # distances and radii keeps its outcome and every value scales exactly
    sp = _space(kind, params, 7)
    base, got = _outputs(sp), _outputs(_scaled(sp, c))
    assert np.array_equal(got["tau"], c * base["tau"])
    assert np.array_equal(got["radii"], c * base["radii"])
    for c0, c1 in zip(base["certs"], got["certs"]):
        assert np.array_equal(c1.nu, c0.nu)
        assert (c1.A, c1.B, c1.K) == (c0.A, c0.B, c0.K)


@pytest.mark.parametrize("kind, params", SPACES, ids=SPACE_IDS)
def test_scaling_by_three(kind, params):
    sp = _space(kind, params, 8)
    base, got = _outputs(sp), _outputs(_scaled(sp, 3.0))
    _assert_close(got["tau"], 3.0 * base["tau"])
    _assert_close(got["radii"], 3.0 * base["radii"])
    for c0, c1 in zip(base["certs"], got["certs"]):
        _assert_close(c1.nu, c0.nu)
        _assert_close([c1.A, c1.B, c1.K], [c0.A, c0.B, c0.K])


@pytest.mark.parametrize("kind, params", SPACES, ids=SPACE_IDS)
def test_space_json_round_trip_is_byte_identical(kind, params):
    for seed in range(3):
        text = space_to_json(_space(kind, params, seed))
        assert space_to_json(space_from_json(text)) == text


_BASES = [
    YoungFunction.power(1),
    YoungFunction.power(2),
    YoungFunction.power(3.5),
    YoungFunction.exponential(1),
    YoungFunction.exponential(2),
    YoungFunction.piecewise([(0.0, 0.0), (0.5, 0.2), (1.0, 1.0), (3.0, 5.0)]),
]
GAUGES = _BASES + [ConvexGauge(b) for b in _BASES]
GAUGE_IDS = [f"{shift}{b.kind}{i}" for shift in ("", "shifted-") for i, b in enumerate(_BASES)]


@pytest.mark.parametrize("gauge", GAUGES, ids=GAUGE_IDS)
def test_luxemburg_norm_is_positively_homogeneous(gauge):
    rng = np.random.default_rng(5)
    for size in (1, 7, 200):
        v = rng.standard_normal(size) * rng.choice([1e-3, 1.0, 50.0])
        w = rng.dirichlet(np.ones(size))
        norm = luxemburg_norm(v, w, gauge)
        assert norm > 0.0
        for c in (0.5, 4.0):  # exact: the scaled values normalize to the same u
            assert luxemburg_norm(c * v, w, gauge) == c * norm
        for c in (3.0, 1e-3, 7.3e4):
            assert luxemburg_norm(c * v, w, gauge) == pytest.approx(c * norm, rel=1e-12, abs=0.0)
