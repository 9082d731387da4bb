import tracemalloc
import warnings

import numpy as np
import pytest

from chaincert import (
    MetricMeasureSpace,
    MinorizingMetrics,
    YoungFunction,
    ball_growth_integral,
    generate_space,
    invariant_suite,
    majorizing_integral,
    radius_table,
)
from chaincert.mspace import _triu
from chaincert.verify import _radius_growth
from util import (
    _GrowthProfile,
    ball_growth_integral_riemann,
    line3_space,
    minorizing_metric,
    profile_metrics,
    random_battery,
    two_point_space,
    unvalidated_space,
)

PHI1 = YoungFunction.power(1)
PHI2 = YoungFunction.power(2)


def test_growth_integral_two_point():
    two = two_point_space()
    assert abs(ball_growth_integral(two, PHI2, 0, 1.0) - np.sqrt(2.0)) <= 1e-12


def test_growth_integral_zero_upper():
    assert ball_growth_integral(line3_space(), PHI1, 0, 0.0) == 0.0


def test_growth_integral_line_segments():
    # from the left end: integrand 3 on [0,1), then 3/2 on [1,2)
    assert abs(ball_growth_integral(line3_space(), PHI1, 0, 2.0) - 4.5) <= 1e-12


def test_growth_integral_clamps_with_warning():
    line = line3_space()
    with pytest.warns(UserWarning):
        val = ball_growth_integral(line, PHI1, 0, 5.0)
    assert val == ball_growth_integral(line, PHI1, 0, line.diameter)


def test_metric_oracles():
    two = two_point_space()
    line = line3_space()
    assert abs(minorizing_metric(two, PHI2, 0, 1) - np.sqrt(2.0)) <= 1e-12
    assert minorizing_metric(two, PHI2, 0, 0) == 0.0
    assert abs(minorizing_metric(line, PHI1, 0, 1) - 3.0) <= 1e-12
    assert abs(minorizing_metric(line, PHI1, 0, 2) - 4.5) <= 1e-12


def test_majorizing_integral_oracles():
    assert abs(majorizing_integral(two_point_space(), PHI2) - np.sqrt(2.0)) <= 1e-12
    assert abs(majorizing_integral(line3_space(), PHI1) - 13.0 / 3.0) <= 1e-12
    single = generate_space("grid", n=1)
    assert majorizing_integral(single, PHI2) == 0.0


def test_majorizing_integral_matches_metrics_without_tau():
    # the same mass-weighted sum as MinorizingMetrics.total, without an n x n matrix
    for sp in random_battery(22, 4, 3, 30):
        for phi in (PHI1, PHI2):
            assert majorizing_integral(sp, phi) == MinorizingMetrics(sp, phi).total
    n = 400
    sp = generate_space("random", n=n, seed=5)
    tracemalloc.start()
    majorizing_integral(sp, PHI2)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < n * n * 8


def test_metric_matrix_consistency():
    for sp in random_battery(21, 4, 3, 12):
        mets = MinorizingMetrics(sp, PHI2)
        assert np.allclose(mets.tau, mets.tau.T)
        assert np.all(np.diag(mets.tau) == 0.0)
        # dominates the distance: the integrand is at least 1
        off = ~np.eye(sp.n, dtype=bool)
        assert np.all(mets.tau[off] >= sp.dist[off] - 1e-12)
        # matrix entries agree with the pairwise evaluation
        for s in range(sp.n):
            for t in range(s + 1, sp.n):
                assert mets.tau[s, t] == pytest.approx(
                    minorizing_metric(sp, PHI2, s, t), rel=1e-12
                )
        # the mass integral is the definitional weighted mean
        direct = sum(
            sp.mass[x] * ball_growth_integral(sp, PHI2, x, sp.diameter) for x in range(sp.n)
        )
        assert mets.total == pytest.approx(direct, rel=1e-12)


def test_riemann_cross_check_small():
    rng = np.random.default_rng(77)
    for sp in random_battery(31, 3, 4, 10):
        s, t = rng.choice(sp.n, size=2, replace=False)
        d = float(sp.dist[s, t])
        for phi in (PHI1, PHI2):
            exact = ball_growth_integral(sp, phi, int(s), d)
            approx = ball_growth_integral_riemann(sp, phi, int(s), d, panels=20000)
            assert abs(exact - approx) <= 1e-6 * max(exact, 1e-12)


GAUGES = (PHI1, PHI2, YoungFunction.exponential(2), YoungFunction.piecewise([(0, 0), (1, 1), (2, 5)]))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _table_battery():
    # grids and trees tie distances; the last matrix breaks the triangle
    # inequality (not validated) and ties its distances too
    spaces = [generate_space("random", n=n, seed=n) for n in (1, 2, 5, 23, 64)]
    spaces += [generate_space("random", n=30, mass="random", seed=2)]
    spaces += [generate_space("grid", n=n, gamma=0.5) for n in (7, 40)]
    spaces += [generate_space("grid", n=33, mass="random", seed=3), generate_space("grid", n=9, scale=8.0)]
    spaces += [generate_space("tree", depth=d) for d in (2, 5)]
    rng = np.random.default_rng(4)
    d = np.triu(rng.choice([1.0, 2.0, 5.0], (20, 20)), 1)
    spaces += [unvalidated_space(d + d.T, rng.dirichlet(np.ones(20)))]
    return spaces


def test_growth_table_matches_profile_oracle():
    spaces = [(sp, GAUGES) for sp in _table_battery()] + [(generate_space("random", n=300, seed=9), GAUGES[:2])]
    rng = np.random.default_rng(12)
    for sp, gauges in spaces:
        for phi in gauges:
            tau, total = profile_metrics(sp, phi)
            mets = MinorizingMetrics(sp, phi)
            assert _bits(mets.tau) == _bits(tau)
            assert mets.total == total
            assert majorizing_integral(sp, phi) == total
            # own distances, points between and beyond them, 0 and the diameter
            for x in rng.choice(sp.n, size=min(sp.n, 3), replace=False).tolist():
                profile = _GrowthProfile(sp, phi, x)
                us = np.concatenate([sp.dist[x], rng.uniform(0.0, sp.diameter, 4), [0.0, sp.diameter]])
                got = [ball_growth_integral(sp, phi, x, float(u)) for u in us]
                assert _bits(got) == _bits([profile.integral(float(u)) if u > 0 else 0.0 for u in us])


def test_suite_growth_matches_profile_oracle():
    for sp in _table_battery() + [generate_space("random", n=300, seed=9)]:
        for phi in (PHI1, PHI2):
            radii = radius_table(sp, phi, 6.0).radii
            expected = np.zeros_like(radii)
            for x in range(sp.n):
                pos = radii[:, x] > 0
                expected[pos, x] = _GrowthProfile(sp, phi, x).integral(radii[pos, x])
            assert _bits(_radius_growth(sp, phi, radii)) == _bits(expected)


def test_tau_is_positive_between_distinct_points():
    # a point comes first in its own sorted row, so the first growth step is
    # phi^-1(1/m(x)) * min_{y != x} d(x, y) > 0; a diagonal of 1e-12 above a
    # distance of 1e-13 and subnormal distances included
    tiny = MetricMeasureSpace([[1e-12, 1e-13], [1e-13, 1e-12]], [0.5, 0.5])
    subnormal = generate_space("grid", n=3, scale=1e-310)
    for sp in random_battery(5, 6, 2, 30) + [tiny, subnormal]:
        for phi in (PHI1, PHI2):
            tau = MinorizingMetrics(sp, phi).tau
            assert (tau[_triu(sp.n)] > 0).all()
            assert not np.diagonal(tau).any()
    assert MinorizingMetrics(tiny, PHI2).tau[0, 1] == np.sqrt(2.0) * 1e-13


@pytest.mark.parametrize("layout", ["square", "line"])
def test_zero_mass_ties_keep_the_profile_pattern(layout):
    # two zero-mass atoms: 1/m(B) is 1/0 = inf in the balls that hold only
    # them, so the growth integral is +inf up to an own distance whose ball
    # has no mass (the line's pair (0, 1)), where the profile oracle adds
    # inf * 0 = nan; tied distances in the square
    if layout == "square":
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    else:
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    sp = MetricMeasureSpace(dist, [0.0, 0.0, 0.5, 0.5])
    results, caught = [], []
    for build in (lambda: MinorizingMetrics(sp, PHI2), lambda: profile_metrics(sp, PHI2)):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            got = build()
        results.append((got.tau, got.total) if isinstance(got, MinorizingMetrics) else got)
        caught.append({str(w.message) for w in rec if issubclass(w.category, RuntimeWarning)})
    (tau, total), (oracle_tau, oracle_total) = results
    np.testing.assert_array_equal(tau[0], [0.0, np.inf, np.inf, np.inf])
    assert np.isnan(oracle_tau).any() == (layout == "line")
    assert _bits(tau) == _bits(np.where(np.isnan(oracle_tau), np.inf, oracle_tau))
    with np.errstate(divide="ignore"):
        assert ball_growth_integral(sp, PHI2, 0, float(sp.dist[0, 1])) == np.inf
    # the massless atoms have weight 0 in the mass-weighted mean, though their integrals are +inf
    full = [_GrowthProfile(sp, PHI2, x).integral(sp.diameter) for x in (2, 3)]
    assert total == oracle_total == 0.5 * full[0] + 0.5 * full[1] < np.inf
    assert "divide by zero encountered in divide" in caught[0]
    assert not [m for m in caught[0] if m.startswith("invalid value")]


# tracemalloc peaks at n = 400 (random space, seed 5) with one growth
# profile per point, before the growth table: MinorizingMetrics 6.71 MB,
# invariant_suite 14.87 MB (the table reads 2.89 and 14.86 MB). The bounds
# sit just above them; a (levels, n, n) float temporary adds about 7.7 MB.
_PEAK_BOUNDS = {"metrics": 6.8e6, "suite": 15.0e6}


@pytest.mark.parametrize("stage", sorted(_PEAK_BOUNDS))
def test_memory_guard(stage):
    sp = generate_space("random", n=400, seed=5)
    run = {
        "metrics": lambda: MinorizingMetrics(sp, PHI2),
        "suite": lambda: invariant_suite(sp, PHI1, PHI2, 6.0, 1),
    }[stage]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _PEAK_BOUNDS[stage]
