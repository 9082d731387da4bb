import math
import warnings

import numpy as np
import pytest

from chaincert import (
    MinorizingMetrics,
    PathBatch,
    YoungFunction,
    brownian_grid_sampler,
    certificate_thm1,
    certificate_thm3,
    empirical_corollary,
    gaussian_abs_moment,
    generate_space,
    increment_moment_stats,
    modulus_pairs,
    proof_trace,
    radius_table,
    sample,
    verify_thm1,
    verify_thm3,
)
from chaincert import mc
from util import gather_path_sups, per_path_sample

PHI1 = YoungFunction.power(1)
PHI2 = YoungFunction.power(2)


def test_gaussian_moments():
    assert gaussian_abs_moment(2.0) == pytest.approx(1.0, rel=1e-12)
    assert gaussian_abs_moment(4.0) == pytest.approx(3.0, rel=1e-12)


def test_normalization_constants():
    s2 = brownian_grid_sampler(4, PHI2)
    sigma = np.sqrt(np.abs(s2.times[:, None] - s2.times[None, :]))
    # c_2 = 1: metric equals the increment standard deviation
    assert np.allclose(s2.space.dist, sigma)
    s4 = brownian_grid_sampler(4, YoungFunction.power(4))
    assert s4.space.dist[0, 1] == pytest.approx(3.0 ** 0.25 * sigma[0, 1], rel=1e-12)


def test_two_point_grid():
    s = brownian_grid_sampler(2, PHI2)
    assert s.space.n == 2
    assert s.space.dist[0, 1] == pytest.approx(1.0)
    batch = sample(s, 4000, seed=5)
    increments = batch.values[:, 1] - batch.values[:, 0]
    assert abs(np.var(increments) - 1.0) <= 5 * np.sqrt(2.0 / 4000)


@pytest.mark.parametrize("psi", [PHI2, YoungFunction.power(4), YoungFunction.exponential(2)])
def test_analytic_moment_is_one(psi):
    # X(s) - X(t) is sigma Z with sigma = |s - t|^(1/2), so the normalized increment is r |Z| with r = sigma / d
    s = brownian_grid_sampler(8, psi)
    iu, iv = np.triu_indices(8, 1)
    ratio = np.sqrt(np.abs(s.times[iu] - s.times[iv])) / s.space.dist[iu, iv]
    assert np.allclose(ratio, ratio[0], rtol=1e-12, atol=0.0)
    # E psi(r |Z|) as a Riemann sum of the normal density; a wider range overflows exp(x^2)
    z = np.linspace(-38.0, 38.0, 400001)
    density = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    moment = float(np.sum(psi.value(ratio[0] * np.abs(z)) * density)) * (z[1] - z[0])
    assert moment == pytest.approx(1.0, rel=0.0, abs=1e-9)


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


def test_empirical_increment_moment():
    s = brownian_grid_sampler(4, PHI2)
    batch = sample(s, 100000, seed=12)
    report = increment_moment_stats(batch, s)
    stat = report.checks[0]
    assert stat.mean <= 1.0 + 3.0 * stat.stderr


def test_empirical_corollary_constant_paths():
    s = brownian_grid_sampler(6, PHI2)
    cert = certificate_thm1(s.space, PHI1, PHI2, 6.0, 1)
    mets = MinorizingMetrics(s.space, PHI1)
    batch = PathBatch(values=np.zeros((50, 6)))
    report = empirical_corollary(batch, cert, mets)
    for stat in report.checks:
        assert stat.mean == 0.0 and stat.stderr == 0.0


def test_empirical_corollary_brownian():
    s = brownian_grid_sampler(16, PHI2)
    cert = certificate_thm1(s.space, PHI1, PHI2, 6.0, 1)
    mets = MinorizingMetrics(s.space, PHI1)
    batch = sample(s, 2000, seed=3)
    report = empirical_corollary(batch, cert, mets)
    assert report.passed
    assert report.check("increment_ratio_sup").mean < 1.0
    assert report.check("gauge_ratio_sup").mean < 1.0


def test_empirical_corollary_modulus_variant():
    s = brownian_grid_sampler(12, PHI2)
    cert = certificate_thm3(s.space, PHI2, 6.0)
    mets = MinorizingMetrics(s.space, PHI2)
    batch = sample(s, 1000, seed=6)
    report = empirical_corollary(batch, cert, mets)
    assert report.passed
    assert report.check("modulus_ratio_sup").mean < 1.0


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


def _ou_paths(sampler, n_paths, seed):
    """Ornstein-Uhlenbeck paths at the sampler's times, drawn through the Cholesky factor of their covariance."""
    t = sampler.times
    chol = np.linalg.cholesky(np.exp(-3.0 * np.abs(t[:, None] - t[None, :])))
    return PathBatch(np.random.default_rng(seed).standard_normal((n_paths, t.size)) @ chol.T)


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


@pytest.mark.parametrize("draw", [sample, _ou_paths], ids=["brownian", "cholesky"])
@pytest.mark.parametrize("theorem", ["T1", "T3"])
def test_sup_statistic_matches_chunked_gather(draw, theorem):
    # path counts off the gather's 512-path chunks and the sampler's 1,024-path blocks
    for n, paths in ((2, 1), (3, 700), (10, 513), (33, 1100), (64, 1537)):
        sampler = brownian_grid_sampler(n, PHI2)
        if theorem == "T1":
            cert = certificate_thm1(sampler.space, PHI1, PHI2, 6.0, 1)
            mets = MinorizingMetrics(sampler.space, PHI1)
        else:
            cert = certificate_thm3(sampler.space, PHI2, 6.0)
            mets = MinorizingMetrics(sampler.space, PHI2)
        batch = draw(sampler, paths, n)
        got = [(st.mean, st.stderr) for st in empirical_corollary(batch, cert, mets).checks]
        assert got == _gathered_stats(batch, cert, mets)


@pytest.mark.parametrize("sampler, draw", [
    (brownian_grid_sampler(17, PHI2), sample),
    (brownian_grid_sampler(12, YoungFunction.power(4)), _ou_paths),
    (brownian_grid_sampler(9, YoungFunction.exponential(2)), sample),
], ids=["brownian-x2", "cholesky-x4", "brownian-exp2"])
def test_increment_moment_stats_matches_full_array(sampler, draw):
    batch = draw(sampler, 3001, 5)
    iu, iv = np.triu_indices(sampler.n, 1)
    d = sampler.space.dist[iu, iv]
    vals = sampler.psi.value(np.abs(batch.values[:, iu] - batch.values[:, iv]) / d[None, :])
    means = vals.mean(axis=0)
    ses = vals.std(axis=0, ddof=1) / math.sqrt(batch.n_paths)
    j = int(np.argmax(means - 3.0 * ses))
    stat = increment_moment_stats(batch, sampler).checks[0]
    assert stat.n_paths == 3001
    assert stat.mean == pytest.approx(means[j], rel=1e-12, abs=0.0)
    assert stat.stderr == pytest.approx(ses[j], rel=1e-12, abs=0.0)
    assert stat.threshold == pytest.approx(1.0 + 6.0 * ses[j], rel=1e-12, abs=0.0)


def test_increment_moment_stats_of_one_path_has_zero_stderr():
    # one path has no spread to estimate: stderr 0, as _mean_stderr gives, and no ddof warning
    s = brownian_grid_sampler(8, PHI2)
    batch = sample(s, 1, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stat = increment_moment_stats(batch, s).checks[0]
    iu, iv = np.triu_indices(s.n, 1)
    vals = s.psi.value(np.abs(batch.values[0, iu] - batch.values[0, iv]) / s.space.dist[iu, iv])
    assert (stat.mean, stat.stderr, stat.threshold, stat.n_paths) == (float(vals.max()), 0.0, 1.0, 1)


def test_increment_moment_stats_rejects_a_batch_from_another_space():
    # a batch on more points broke a numpy broadcast, one on fewer indexed past its last column
    six, eight = brownian_grid_sampler(6, PHI2), brownian_grid_sampler(8, PHI2)
    for batch, sampler in ((sample(eight, 50, 0), six), (sample(six, 50, 0), eight)):
        with pytest.raises(ValueError, match="batch and sampler must share one space"):
            increment_moment_stats(batch, sampler)


def test_path_batch_needs_paths():
    # a batch without paths gave nan statistics and RuntimeWarnings
    for values in (np.zeros((0, 6)), np.zeros(6), np.zeros((2, 3, 6))):
        with pytest.raises(ValueError, match="need at least one path"):
            PathBatch(values)


@pytest.mark.parametrize("n", [2, 3, 64, 129])
def test_split_sampling_matches_per_path_reference(monkeypatch, n):
    # the blocks are dealt to the two halves from any number of draws on;
    # 1,025 and 3,000 paths end in a short block of either half
    monkeypatch.setattr(mc, "_SAMPLE_SPLIT", 0)
    sampler = brownian_grid_sampler(n, PHI2)
    for paths in (1, 1023, 1025, 3000):
        assert np.array_equal(sample(sampler, paths, seed=n).values, per_path_sample(sampler, paths, n))


@pytest.mark.parametrize("theorem", ["T1", "T3"])
@pytest.mark.parametrize("n", [2, 3, 64, 129])
def test_split_sup_matches_serial_and_gather_bit_for_bit(monkeypatch, theorem, n):
    # n - 1 point rows are dealt to the two halves: 1, 2, 63 and 128 rows,
    # so one half may get none; 1,025 and 3,000 paths end in a short block
    sampler = brownian_grid_sampler(n, PHI2)
    if theorem == "T1":
        cert = certificate_thm1(sampler.space, PHI1, PHI2, 6.0, 1)
        denom = 2.0 * cert.K * MinorizingMetrics(sampler.space, PHI1).tau[np.triu_indices(n, 1)]
    else:
        denom = modulus_pairs(certificate_thm3(sampler.space, PHI2, 6.0), MinorizingMetrics(sampler.space, PHI2))
    values = sample(sampler, 3000, seed=n).values
    iu, iv = np.triu_indices(n, 1)
    for paths in (1, 1023, 1025, 3000):
        sups = {}
        for name, split in (("serial", math.inf), ("halves", 0)):
            monkeypatch.setattr(mc, "_SUP_SPLIT", split)
            sups[name] = mc._path_sups(values[:paths], denom).tobytes()
        assert sups["serial"] == sups["halves"] == gather_path_sups(values[:paths], iu, iv, denom).tobytes()


@pytest.mark.parametrize("below", [True, False], ids=["serial", "halves"])
def test_sup_runs_under_the_callers_error_state(below):
    # every ratio over a subnormal denominator overflows: the caller's
    # errstate, not numpy's default, decides for the helper's rows too
    n = next(m for m in range(2, 1000) if 1024 * (m * (m - 1) // 2) >= mc._SUP_SPLIT) - below
    values = np.random.default_rng(n).standard_normal((1024, n))
    denom = np.full(n * (n - 1) // 2, 1e-310)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(over="ignore"):
            sups = mc._path_sups(values, denom)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow encountered in divide"):
            mc._path_sups(values, denom)
    assert caught == []
    assert np.isinf(sups).all()
