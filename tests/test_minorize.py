import tracemalloc

import numpy as np
import pytest

from chaincert import (
    MinorizingMetrics,
    YoungFunction,
    ball_growth_integral,
    generate_space,
    majorizing_integral,
)
from util import ball_growth_integral_riemann, line3_space, minorizing_metric, random_battery, two_point_space

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
