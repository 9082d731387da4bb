import math

import numpy as np
import pytest

from chaincert import (
    MinorizingMetrics,
    PathBatch,
    SpaceValidationError,
    YoungFunction,
    analytic_increment_moment,
    brownian_grid_sampler,
    certificate_thm1,
    certificate_thm3,
    empirical_corollary,
    gaussian_abs_moment,
    gaussian_cov_sampler,
    generate_space,
    increment_moment_stats,
    modulus_pairs,
    proof_trace,
    radius_table,
    sample,
    verify_thm1,
    verify_thm3,
)
from util import gather_path_sups, per_path_sample

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
    with pytest.raises(SpaceValidationError, match="coincident points"):
        gaussian_cov_sampler(np.ones((2, 2)), PHI2)


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
    batch = PathBatch(values=np.zeros((50, 6)))
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


@pytest.mark.parametrize("mismatch", ["phi", "size", "space"])
def test_certificate_and_metrics_must_agree(mismatch):
    # certificates and a radius table against metrics for another phi, or of
    # another space (of another size, or of the same size but built on its
    # own), would give verdicts, moduli, Monte Carlo statistics and traces
    space = generate_space("random", n=8, seed=1)
    other = {"phi": space, "size": generate_space("random", n=9, seed=1),
             "space": generate_space("random", n=8, seed=2)}[mismatch]
    phi1, phi3 = (PHI2, PHI1) if mismatch == "phi" else (PHI1, PHI2)  # the metrics' phi for T1 and T3
    mets1, mets3 = MinorizingMetrics(other, phi1), MinorizingMetrics(other, phi3)
    t1 = certificate_thm1(space, PHI1, PHI2, 6.0, 1)
    t3 = certificate_thm3(space, PHI2, 6.0)
    table = radius_table(space, PHI1, 6.0)
    f = np.linspace(0.0, 1.0, 8)
    batch = PathBatch(np.ones((20, 8)))
    calls = [
        lambda: verify_thm1(t1, mets1, f, nabla_r=1.0),
        lambda: verify_thm3(t3, mets3, f),
        lambda: modulus_pairs(t3, mets3),
        lambda: empirical_corollary(batch, t1, mets1),
        lambda: empirical_corollary(batch, t3, mets3),
        lambda: proof_trace(table, mets1, 0, 1, table.kstar + 2, f=f),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="different"):
            call()


def _ou_sampler(n, psi):
    # Ornstein-Uhlenbeck covariance, drawn through the Cholesky factor
    t = np.linspace(0.0, 1.0, n)
    return gaussian_cov_sampler(np.exp(-3.0 * np.abs(t[:, None] - t[None, :])), psi)


def _gathered_stats(batch, cert, mets):
    """The corollary's statistics from the chunked gather, as (mean, stderr) per stat."""
    iu, iv = np.triu_indices(mets.n, 1)
    if cert.theorem == "T1":
        sups = gather_path_sups(batch.values, iu, iv, 2.0 * cert.K * mets.tau[iu, iv])
        samples = [sups, cert.psi.value(sups)]
    else:
        sups = gather_path_sups(batch.values, iu, iv, modulus_pairs(cert, mets))
        samples = [cert.phi.value(sups)]
    out = []
    for x in samples:
        se = float(np.std(x, ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
        out.append((float(np.mean(x)), se))
    return out


@pytest.mark.parametrize("make", [brownian_grid_sampler, _ou_sampler], ids=["brownian", "cholesky"])
@pytest.mark.parametrize("theorem", ["T1", "T3"])
def test_sup_statistic_matches_chunked_gather(make, theorem):
    # path counts off the gather's 512-path chunks and the sampler's 1,024-path blocks
    for n, paths in ((2, 1), (3, 700), (10, 513), (33, 1100), (64, 1537)):
        sampler = make(n, PHI2)
        if theorem == "T1":
            cert = certificate_thm1(sampler.space, PHI1, PHI2, 6.0, 1)
            mets = MinorizingMetrics(sampler.space, PHI1)
        else:
            cert = certificate_thm3(sampler.space, PHI2, 6.0)
            mets = MinorizingMetrics(sampler.space, PHI2)
        batch = sample(sampler, paths, seed=n)
        got = [(st.mean, st.stderr) for st in empirical_corollary(batch, cert, mets).stats]
        assert got == _gathered_stats(batch, cert, mets)


@pytest.mark.parametrize("sampler", [
    brownian_grid_sampler(17, PHI2),
    _ou_sampler(12, YoungFunction.power(4)),
    brownian_grid_sampler(9, YoungFunction.exponential(2)),
], ids=["brownian-x2", "cholesky-x4", "brownian-exp2"])
def test_increment_moment_stats_matches_full_array(sampler):
    batch = sample(sampler, 3001, seed=5)
    iu, iv = np.triu_indices(sampler.n, 1)
    d = sampler.space.dist[iu, iv]
    vals = sampler.psi.value(np.abs(batch.values[:, iu] - batch.values[:, iv]) / d[None, :])
    means = vals.mean(axis=0)
    ses = vals.std(axis=0, ddof=1) / math.sqrt(batch.n_paths)
    j = int(np.argmax(means - 3.0 * ses))
    stat = increment_moment_stats(batch, sampler).stats[0]
    assert stat.n_paths == 3001
    assert stat.mean == pytest.approx(means[j], rel=1e-12, abs=0.0)
    assert stat.stderr == pytest.approx(ses[j], rel=1e-12, abs=0.0)
    assert stat.threshold == pytest.approx(1.0 + 6.0 * ses[j], rel=1e-12, abs=0.0)
