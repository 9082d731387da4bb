"""Monte Carlo verification of the process-level sup bounds.

The sampler draws Brownian motion at evenly spread times in [0, 1], on a
metric scaled so that E psi(|X(s)-X(t)| / d(s,t)) = 1 exactly (power psi of
any order, or the normalized exponential gauge with exponent 2; both have
closed-form Gaussian moments). Path generation is reproducible bit for bit:
paths are drawn in fixed blocks of 1,024, block b from its own generator
seeded by (seed, b), so the first m paths of a batch do not depend on how
many paths were drawn.

Sampling and the sup statistic each make one call to mspace._run_halves,
the two-halves runner that the triangle check of space validation uses too.
The runner owns the split: past a measured cut-off (_SAMPLE_SPLIT normal
draws for sampling, _SUP_SPLIT pair ratios per block of paths for the sup)
and with two or more items, it deals the items alternately to the calling
thread and one helper thread, path blocks for sampling and point rows i for
the sup, and makes each half's buffers in the calling thread. Each block
has its own generator and each half its own per-path maxima, and the
maximum is exact, so every bit is that of the serial loop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .chain import _check_agreement, modulus_pairs
from .mspace import MetricMeasureSpace, _pair_mask, _run_halves
from .verify import _CheckList

__all__ = [
    "gaussian_abs_moment",
    "ProcessSampler",
    "PathBatch",
    "brownian_grid_sampler",
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
        try:
            moment = gaussian_abs_moment(psi.p)
        except OverflowError:
            moment = math.inf
        if moment == math.inf:
            raise ValueError(f"E|Z|^p overflows a float for p = {psi.p}")
        return moment ** (1.0 / psi.p)
    if psi.kind == "exponential" and psi.q == 2.0:
        # E exp(lam Z^2) = 1/sqrt(1-2 lam); solve (1/sqrt(1-2/c^2)-1)/(e-1) = 1
        return math.sqrt(2.0 / (1.0 - math.exp(-2.0)))
    raise ValueError("the sampler supports power gauges and the exponential gauge with q=2")


@dataclass(frozen=True)
class ProcessSampler:
    """Brownian motion observed at the given times, with unit normalized increments on space."""

    space: MetricMeasureSpace = field(repr=False)
    psi: object
    times: np.ndarray = field(repr=False)

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
    space = MetricMeasureSpace(c * np.sqrt(np.abs(times[:, None] - times[None, :])), np.full(n, 1.0 / n))
    return ProcessSampler(space=space, psi=psi, times=times)


@dataclass(frozen=True)
class PathBatch:
    values: np.ndarray = field(repr=False)  # (n_paths, n_points)

    def __post_init__(self):
        shape = np.shape(self.values)
        if len(shape) != 2 or shape[0] < 1:
            raise ValueError("need at least one path")

    @property
    def n_paths(self):
        return self.values.shape[0]


_BLOCK = 1024  # paths per generator
_SAMPLE_SPLIT = 2 ** 16  # from this many normal draws in two or more blocks on, sample runs as two halves
_SUP_SPLIT = 2 ** 20  # from this many pair ratios per block of paths on, _path_sups runs as two halves


def sample(sampler, n_paths, seed):
    """Draw n_paths paths; block b of _BLOCK paths draws from default_rng([seed, b])."""
    if n_paths < 1:
        raise ValueError("need at least one path")
    values = np.zeros((n_paths, sampler.n))  # Brownian paths start at 0
    dt = np.diff(sampler.times)
    width = min(n_paths, _BLOCK)
    _run_halves(functools.partial(_sample_blocks, values, dt, seed), range(0, n_paths, _BLOCK),
                lambda: (np.empty((width, dt.size)),), n_paths * dt.size >= _SAMPLE_SPLIT, "path sampler")
    return PathBatch(values=values)


def _sample_blocks(values, dt, seed, starts, steps):
    """Fill the blocks of values that begin at starts, each from its own generator.

    The normal steps of a block are drawn into the buffer steps, scaled by
    sqrt(dt) and summed from 0 into the block's slice of values.
    """
    scale = np.sqrt(dt)
    for lo in starts:
        block = values[lo:lo + _BLOCK]
        z = steps[:block.shape[0]]
        np.random.default_rng([seed, lo // _BLOCK]).standard_normal(out=z)
        np.multiply(z, scale, out=z)
        np.cumsum(z, axis=1, out=block[:, 1:])


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
class McReport(_CheckList):
    checks: list  # McStat entries


def _pair_rows(rows, denom, points, buf):
    """Yield |x_i - x_j| / denom for j > i, for each point i of points, as (n-1-i, paths).

    rows is the (n, paths) transpose of the paths. The pairs are in
    mspace._triu(n) order, so the denominators of point i are one contiguous
    slice of denom. Every block is written into the reused buffer buf, of at
    least (n - 1, paths), and is valid until the next block.
    """
    n, paths = rows.shape
    for i in points:
        block = buf[:n - 1 - i, :paths]
        start = i * (2 * n - i - 1) // 2  # the pairs of the points before i
        np.subtract(rows[i], rows[i + 1:], out=block)
        np.abs(block, out=block)
        np.divide(block, denom[start:start + block.shape[0], None], out=block)
        yield block


def _path_sups(values, denom):
    """Per-path max over the pairs of |x_i - x_j| / denom.

    The paths go _BLOCK at a time, so each half's (n, _BLOCK) transposed rows
    and (n - 1, _BLOCK) pair buffer are O(n * _BLOCK) for any number of
    paths. From _SUP_SPLIT ratios on, the points i are dealt to the two
    halves of _run_halves, each with its own per-path maxima, which
    np.maximum joins; the maximum is exact, so the split changes no bit.
    """
    paths, n = values.shape
    if n < 2:
        raise ValueError("the sup statistic needs at least two points")
    width = min(paths, _BLOCK)
    halves = _run_halves(functools.partial(_sup_half, values, denom), range(n - 1),
                         lambda: (np.empty((n, width)), np.empty((n - 1, width)), np.full(paths, -np.inf)),
                         width * (n * (n - 1) // 2) >= _SUP_SPLIT, "Monte Carlo sup")
    sups = halves[0][2]
    for _, _, theirs in halves[1:]:
        np.maximum(sups, theirs, out=sups)
    return sups


def _sup_half(values, denom, points, rows, buf, sups):
    """Raise sups to the max of the pair ratios of the points i of points, _BLOCK paths at a time."""
    for lo in range(0, values.shape[0], _BLOCK):
        part = sups[lo:lo + _BLOCK]
        block_rows = rows[:, :part.size]
        np.copyto(block_rows, values[lo:lo + _BLOCK].T)
        for block in _pair_rows(block_rows, denom, points, buf):
            np.maximum(part, block.max(axis=0), out=part)


def _mean_stderr(x):
    m = float(np.mean(x))
    se = float(np.std(x, ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return m, se


def increment_moment_stats(batch, sampler):
    """Empirical per-pair psi moment of normalized increments, worst pair.

    The measured hypothesis of the stochastic theorem, E psi(|X(s)-X(t)| /
    d(s,t)) <= 1 for every pair, on the sampler's space and gauge: the worst
    empirical mean should sit within three standard errors of 1, which the
    sampler's increments meet exactly.
    """
    if batch.values.shape[1] != sampler.n:
        raise ValueError("batch and sampler must share one space")
    means, ses = [], []
    rows = np.ascontiguousarray(batch.values.T)
    buf = np.empty((sampler.n - 1, batch.n_paths))
    for block in _pair_rows(rows, sampler.space.dist[_pair_mask(sampler.n)], range(sampler.n - 1), buf):
        vals = sampler.psi.value(block)
        means.append(vals.mean(axis=1))
        ses.append(vals.std(axis=1, ddof=1) if batch.n_paths > 1 else np.zeros(vals.shape[0]))
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
    tau = metrics.tau[_pair_mask(space.n)]
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
