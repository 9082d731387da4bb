"""Monte Carlo verification of the process-level sup bounds.

Samplers generate Gaussian processes whose increments are normalized so that
E psi(|X(s)-X(t)| / d(s,t)) = 1 exactly (power psi of any order, or the
normalized exponential gauge with exponent 2; both have closed-form Gaussian
moments). Path generation is reproducible bit for bit: paths are drawn in
fixed blocks of 1,024, block b from its own generator seeded by (seed, b), so
the first m paths of a batch do not depend on how many paths were drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import _check_agreement, modulus_pairs
from .mspace import MetricMeasureSpace, _triu

__all__ = [
    "gaussian_abs_moment",
    "ProcessSampler",
    "PathBatch",
    "brownian_grid_sampler",
    "gaussian_cov_sampler",
    "analytic_increment_moment",
    "sample",
    "McStat",
    "McReport",
    "increment_moment_stats",
    "empirical_corollary",
]


def gaussian_abs_moment(p):
    """E|Z|^p for standard normal Z: 2^(p/2) Gamma((p+1)/2) / sqrt(pi)."""
    if p <= 0:
        raise ValueError("p must be positive")
    return 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


def _normalizer(psi):
    """Scale c with E psi(|N(0,1)| / c) = 1, for the supported gauge kinds."""
    if psi.kind == "power":
        return gaussian_abs_moment(psi.p) ** (1.0 / psi.p)
    if psi.kind == "exponential" and psi.q == 2.0:
        # E exp(lam Z^2) = 1/sqrt(1-2 lam); solve (1/sqrt(1-2/c^2)-1)/(e-1) = 1
        return math.sqrt(2.0 / (1.0 - math.exp(-2.0)))
    raise ValueError("samplers support power gauges and the exponential gauge with q=2")


@dataclass(frozen=True)
class ProcessSampler:
    """Gaussian process on a finite space with unit normalized increments."""

    kind: str
    space: MetricMeasureSpace = field(repr=False)
    sigma: np.ndarray = field(repr=False)  # pairwise increment standard deviations
    psi: object
    times: np.ndarray | None = field(repr=False, default=None)
    chol: np.ndarray | None = field(repr=False, default=None)

    @property
    def n(self):
        return self.space.n


def brownian_grid_sampler(n, psi):
    """Brownian motion observed at n evenly spread times in [0, 1].

    The metric is c * |s - t|^(1/2) with c chosen so the increments have unit
    normalized psi-moment; masses are uniform.
    """
    if n < 2:
        raise ValueError("need at least two grid points")
    c = _normalizer(psi)
    times = np.linspace(0.0, 1.0, n)
    sigma = np.sqrt(np.abs(times[:, None] - times[None, :]))
    space = MetricMeasureSpace(c * sigma, np.full(n, 1.0 / n))
    return ProcessSampler(kind="brownian-grid", space=space, sigma=sigma, psi=psi, times=times)


def gaussian_cov_sampler(cov, psi):
    """Centered Gaussian vector with the given covariance.

    The metric is c * sigma(s,t) with sigma the L2 increment distance and the
    masses are uniform; rows with identical covariance profiles give
    coincident points, which the space's validation rejects.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    var = np.diag(cov)
    sigma2 = var[:, None] + var[None, :] - 2.0 * cov
    sigma2 = np.maximum(sigma2, 0.0)
    np.fill_diagonal(sigma2, 0.0)
    sigma = np.sqrt(sigma2)
    c = _normalizer(psi)
    m = np.full(n, 1.0 / n)
    space = MetricMeasureSpace(c * sigma, m / m.sum())  # n copies of 1/n need not sum to 1
    chol = np.linalg.cholesky(cov + 1e-12 * np.eye(n))
    return ProcessSampler(kind="gaussian-cov", space=space, sigma=sigma, psi=psi, chol=chol)


def analytic_increment_moment(sampler):
    """Exact E psi(|X(s)-X(t)| / d(s,t)) per pair (1 on the off-diagonal)."""
    n = sampler.n
    d = sampler.space.dist
    out = np.zeros((n, n))
    off = ~np.eye(n, dtype=bool)
    ratio = np.zeros_like(d)
    ratio[off] = sampler.sigma[off] / d[off]
    psi = sampler.psi
    if psi.kind == "power":
        out[off] = ratio[off] ** psi.p * gaussian_abs_moment(psi.p)
    else:
        lam = ratio[off] ** 2
        out[off] = (1.0 / np.sqrt(1.0 - 2.0 * lam) - 1.0) / math.expm1(1.0)
    return out


@dataclass(frozen=True)
class PathBatch:
    values: np.ndarray = field(repr=False)  # (n_paths, n_points)

    @property
    def n_paths(self):
        return self.values.shape[0]


_BLOCK = 1024  # paths per generator


def sample(sampler, n_paths, seed):
    """Draw n_paths paths; block b of _BLOCK paths draws from default_rng([seed, b])."""
    if n_paths < 1:
        raise ValueError("need at least one path")
    values = np.zeros((n_paths, sampler.n))  # Brownian paths start at 0
    for lo in range(0, n_paths, _BLOCK):
        block = values[lo:lo + _BLOCK]
        rng = np.random.default_rng([seed, lo // _BLOCK])
        if sampler.kind == "brownian-grid":
            dt = np.diff(sampler.times)
            steps = rng.standard_normal((block.shape[0], dt.size)) * np.sqrt(dt)
            np.cumsum(steps, axis=1, out=block[:, 1:])
        else:
            block[:] = rng.standard_normal(block.shape) @ sampler.chol.T
    return PathBatch(values=values)


@dataclass(frozen=True)
class McStat:
    name: str
    mean: float
    stderr: float
    n_paths: int
    threshold: float = 1.0

    @property
    def passed(self):
        return self.mean + 3.0 * self.stderr <= self.threshold


@dataclass(frozen=True)
class McReport:
    stats: list

    @property
    def passed(self):
        return all(s.passed for s in self.stats)

    def stat(self, name):
        for s in self.stats:
            if s.name == name:
                return s
        raise KeyError(name)


def _pair_rows(values, denom):
    """Yield |x_i - x_j| / denom for j > i, one point i at a time, as (n-1-i, paths).

    values is (paths, n). The pairs are in mspace._triu(n) order, so
    the denominators of point i are one contiguous slice of denom. The paths
    are transposed once into contiguous rows, and every block is written into
    one reused buffer, valid until the next block: memory is O(n * paths).
    """
    rows = np.ascontiguousarray(values.T)
    n = rows.shape[0]
    buf = np.empty((max(n - 1, 0), rows.shape[1]))
    start = 0
    for i in range(n - 1):
        block = buf[:n - 1 - i]
        np.subtract(rows[i], rows[i + 1:], out=block)
        np.abs(block, out=block)
        np.divide(block, denom[start:start + block.shape[0], None], out=block)
        start += block.shape[0]
        yield block


def _path_sups(values, denom):
    """Per-path max over the pairs of |x_i - x_j| / denom, _BLOCK paths at a
    time, so that _pair_rows' copies are O(n * _BLOCK) for any number of paths."""
    if values.shape[1] < 2:
        raise ValueError("the sup statistic needs at least two points")
    sups = np.full(values.shape[0], -np.inf)
    for lo in range(0, values.shape[0], _BLOCK):
        part = sups[lo:lo + _BLOCK]
        for block in _pair_rows(values[lo:lo + _BLOCK], denom):
            np.maximum(part, block.max(axis=0), out=part)
    return sups


def _mean_stderr(x):
    m = float(np.mean(x))
    se = float(np.std(x, ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return m, se


def increment_moment_stats(batch, sampler):
    """Empirical per-pair psi moment of normalized increments, worst pair.

    Sampler correctness: the worst empirical mean should sit within three
    standard errors of the analytic value 1.
    """
    means, ses = [], []
    for block in _pair_rows(batch.values, sampler.space.dist[_triu(sampler.n)]):
        vals = sampler.psi.value(block)
        means.append(vals.mean(axis=1))
        ses.append(vals.std(axis=1, ddof=1))
    means = np.concatenate(means)
    ses = np.concatenate(ses) / math.sqrt(batch.n_paths)
    j = int(np.argmax(means - 3.0 * ses))
    worst = McStat("increment_moment_worst_pair", float(means[j]), float(ses[j]), batch.n_paths,
                   threshold=1.0 + 6.0 * float(ses[j]))
    return McReport([worst])


def empirical_corollary(batch, cert, metrics):
    """Empirical E sup over pairs of the certificate-normalized increments.

    For a ratio-pair certificate: sup |dX| / (2 K tau) and its psi image.
    For a radius-weighted certificate: sup phi(|dX| / modulus). Pass means
    mean + 3 * stderr <= 1.
    """
    _check_agreement(cert, metrics)
    space = metrics.space
    if batch.values.shape[1] != space.n:
        raise ValueError("batch, certificate and metrics must share one space")
    tau = metrics.tau[_triu(space.n)]
    stats = []
    if cert.theorem == "T1" and cert.K == 0.0:
        # an underflowed weight sum gives K = 0: every path that moves has an infinite ratio
        stats = [McStat(name, math.inf, 0.0, batch.n_paths) for name in ("increment_ratio_sup", "gauge_ratio_sup")]
    elif cert.theorem == "T1":
        denom = 2.0 * cert.K * tau
        sups = _path_sups(batch.values, denom)
        m, se = _mean_stderr(sups)
        stats.append(McStat("increment_ratio_sup", m, se, batch.n_paths))
        gauge_vals = cert.psi.value(sups)
        m2, se2 = _mean_stderr(gauge_vals)
        stats.append(McStat("gauge_ratio_sup", m2, se2, batch.n_paths))
    else:
        denom = modulus_pairs(cert, metrics)
        sups = _path_sups(batch.values, denom)
        vals = cert.phi.value(sups)
        m, se = _mean_stderr(vals)
        stats.append(McStat("modulus_ratio_sup", m, se, batch.n_paths))
    return McReport(stats)
