import numpy as np
import pytest

from chaincert import (
    MinorizingMetrics,
    PathBatch,
    YoungFunction,
    analytic_increment_moment,
    brownian_grid_sampler,
    certificate_thm1,
    certificate_thm3,
    empirical_corollary,
    gaussian_abs_moment,
    gaussian_cov_sampler,
    increment_moment_stats,
    sample,
)
from util import per_path_sample

PHI1 = YoungFunction.power(1)
PHI2 = YoungFunction.power(2)


def test_gaussian_moments():
    assert gaussian_abs_moment(2.0) == pytest.approx(1.0, rel=1e-12)
    assert gaussian_abs_moment(4.0) == pytest.approx(3.0, rel=1e-12)


def test_normalization_constants():
    s2 = brownian_grid_sampler(4, PHI2)
    # c_2 = 1: metric equals the increment standard deviation
    assert np.allclose(s2.space.dist, s2.sigma)
    s4 = brownian_grid_sampler(4, YoungFunction.power(4))
    assert s4.space.dist[0, 1] == pytest.approx(3.0 ** 0.25 * s4.sigma[0, 1], rel=1e-12)


def test_two_point_grid():
    s = brownian_grid_sampler(2, PHI2)
    assert s.space.n == 2
    assert s.space.dist[0, 1] == pytest.approx(1.0)
    batch = sample(s, 4000, seed=5)
    increments = batch.values[:, 1] - batch.values[:, 0]
    assert abs(np.var(increments) - 1.0) <= 5 * np.sqrt(2.0 / 4000)


@pytest.mark.parametrize("psi", [PHI2, YoungFunction.power(4), YoungFunction.exponential(2)])
def test_analytic_moment_is_one(psi):
    s = brownian_grid_sampler(8, psi)
    mom = analytic_increment_moment(s)
    off = ~np.eye(8, dtype=bool)
    assert np.allclose(mom[off], 1.0, atol=1e-9)


def test_gaussian_cov_sampler():
    cov = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 2.0]])
    s = gaussian_cov_sampler(cov, PHI2)
    mom = analytic_increment_moment(s)
    off = ~np.eye(3, dtype=bool)
    assert np.allclose(mom[off], 1.0, atol=1e-9)
    with pytest.raises(ValueError):
        gaussian_cov_sampler(np.ones((2, 2)), PHI2)  # coincident points


def test_sampling_determinism():
    s = brownian_grid_sampler(16, PHI2)
    a = sample(s, 200, seed=9)
    b = sample(s, 200, seed=9)
    c = sample(s, 200, seed=10)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_sampling_prefix_stable():
    # blocks are seeded by (seed, block), so a short batch is a prefix of a long one
    s = brownian_grid_sampler(16, PHI2)
    short = sample(s, 333, seed=4)
    long = sample(s, 3000, seed=4)
    assert np.array_equal(short.values, long.values[:333])


def test_sample_matches_per_path_reference():
    # 2,500 paths cross two block boundaries
    brownian = brownian_grid_sampler(9, PHI2)
    assert np.array_equal(sample(brownian, 2500, seed=8).values, per_path_sample(brownian, 2500, 8))
    cov = np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]])
    gauss = gaussian_cov_sampler(cov, PHI2)
    assert np.allclose(sample(gauss, 2500, seed=8).values, per_path_sample(gauss, 2500, 8), rtol=1e-12, atol=1e-12)


def test_empirical_increment_moment():
    s = brownian_grid_sampler(4, PHI2)
    batch = sample(s, 100000, seed=12)
    report = increment_moment_stats(batch, s)
    stat = report.stats[0]
    assert stat.mean <= 1.0 + 3.0 * stat.stderr


def test_empirical_corollary_constant_paths():
    s = brownian_grid_sampler(6, PHI2)
    cert = certificate_thm1(s.space, PHI1, PHI2, 6.0, 1)
    mets = MinorizingMetrics(s.space, PHI1)
    batch = PathBatch(values=np.zeros((50, 6)), seed=0, kind="brownian-grid")
    report = empirical_corollary(batch, cert, mets)
    for stat in report.stats:
        assert stat.mean == 0.0 and stat.stderr == 0.0


def test_empirical_corollary_brownian():
    s = brownian_grid_sampler(16, PHI2)
    cert = certificate_thm1(s.space, PHI1, PHI2, 6.0, 1)
    mets = MinorizingMetrics(s.space, PHI1)
    batch = sample(s, 2000, seed=3)
    report = empirical_corollary(batch, cert, mets)
    assert report.passed
    assert report.stat("increment_ratio_sup").mean < 1.0
    assert report.stat("gauge_ratio_sup").mean < 1.0


def test_empirical_corollary_modulus_variant():
    s = brownian_grid_sampler(12, PHI2)
    cert = certificate_thm3(s.space, PHI2, 6.0)
    mets = MinorizingMetrics(s.space, PHI2)
    batch = sample(s, 1000, seed=6)
    report = empirical_corollary(batch, cert, mets)
    assert report.passed
    assert report.stat("modulus_ratio_sup").mean < 1.0
