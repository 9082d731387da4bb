"""Shared space builders and slow reference implementations for the test suite."""

import math

import numpy as np

from chaincert import Check, generate_space, luxemburg_norm


def two_point_space():
    """Two points at distance 1, uniform mass."""
    return generate_space("grid", n=2)


def line3_space():
    """Points {0, 1, 2} on the line with d = |i - j|, uniform mass."""
    return generate_space("grid", n=3, scale=2.0)


def random_battery(seed, count, n_lo, n_hi):
    """Deterministic battery of uniform-mass random Euclidean spaces."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        out.append(generate_space("random", n=n, seed=int(rng.integers(0, 2**31))))
    return out


def bisection_luxemburg(values, weights, gauge, rel_tol=1e-13):
    """Reference Luxemburg norm: monotone bisection on the scale a.

    The map a -> sum_i w_i gauge(|v_i| / a) is nonincreasing, so the feasible
    set is a half line; its left endpoint is bracketed by doubling and halving
    and then bisected to rel_tol relative width. Slow (every step evaluates
    the gauge on every atom) and independent of the library's solver.
    """
    v = np.abs(np.asarray(values, dtype=float).ravel())
    w = np.asarray(weights, dtype=float).ravel()
    support = w > 0
    if not support.any():
        return 0.0
    v = v[support]
    w = w[support]
    vmax = float(v.max())
    if vmax == 0.0:
        return 0.0

    def integral(a):
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(w * gauge.value(v / a)))

    hi = vmax
    for _ in range(200):
        if integral(hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("no finite scale satisfies the unit-integral constraint")
    lo = 0.5 * hi
    for _ in range(2500):
        if integral(lo) > 1.0:
            break
        hi = lo
        lo *= 0.5
        if lo < vmax * 1e-280:
            return 0.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if integral(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= rel_tol * hi:
            break
    return 0.5 * (lo + hi)


def tensor_triangle_violated(dist, atol=1e-12):
    """Reference triangle check: d(i,j) > min_k d(i,k) + d(j,k) + atol anywhere.

    Builds the whole n x n x n tensor of two-hop sums, so memory is O(n^3);
    the library walks the pivots k in blocks instead.
    """
    dist = np.asarray(dist, dtype=float)
    via = dist[:, None, :] + dist[None, :, :]
    return bool(np.any(dist > via.min(axis=2) + atol))


def searchsorted_radii(space, phi, R, kstar):
    """Reference radii for levels 0..kstar: one searchsorted per point and level."""
    n = space.n
    radii = np.zeros((kstar + 1, n))
    radii[0] = space.diameter
    for k in range(1, kstar + 1):
        lv = phi.log_value_exp(k * math.log(R))
        cut = (math.exp(-lv) if lv < 700 else 0.0) * (1.0 - 1e-12)
        for x in range(n):
            sorted_d, cum = space.distances_from(x)
            idx = int(np.searchsorted(cum, cut, side="left"))
            radii[k, x] = sorted_d[min(idx, n - 1)]
    return radii


def per_path_sample(sampler, n_paths, seed, block=1024):
    """Reference sampler: one path at a time from the normal stream of its block.

    Path i is the (i mod block)-th run of draws from default_rng([seed, i // block]):
    n - 1 Brownian steps scaled by sqrt(dt) and summed from 0, or n normals
    multiplied by the Cholesky factor.
    """
    brownian = sampler.kind == "brownian-grid"
    width = sampler.n - 1 if brownian else sampler.n
    out = np.empty((n_paths, sampler.n))
    for b in range(0, -(-n_paths // block)):
        rows = min(block, n_paths - b * block)
        z = np.random.default_rng([seed, b]).standard_normal(rows * width)
        for j in range(rows):
            zj = z[j * width:(j + 1) * width]
            if brownian:
                out[b * block + j] = np.concatenate([[0.0], np.cumsum(zj * np.sqrt(np.diff(sampler.times)))])
            else:
                out[b * block + j] = sampler.chol @ zj
    return out


def gather_path_sups(values, iu, iv, denom, chunk=512):
    """Reference sup statistic: max over pairs of |x_iu - x_iv| / denom per path.

    Gathers every pair's increments for chunks of paths by fancy indexing,
    so memory is O(chunk * pairs); the library walks one point row at a time.
    """
    sups = np.empty(values.shape[0])
    for lo in range(0, values.shape[0], chunk):
        hi = min(lo + chunk, values.shape[0])
        ratios = np.abs(values[lo:hi, iu] - values[lo:hi, iv]) / denom[None, :]
        sups[lo:hi] = ratios.max(axis=1)
    return sups


def per_check_rows(report):
    """Reference verify rows: one Check object per pair and per scalar check.

    Each pair's margin, relative margin and verdict come from the scalar
    Check properties, independently of the vectorised PairChecks columns.
    """
    checks = list(report.checks)
    for p in report.pair_checks:
        for j in range(p.iu.size):
            checks.append(Check(p.name, f"({int(p.iu[j])},{int(p.iv[j])})", float(p.lhs[j]), float(p.rhs[j])))
    for c in checks:
        yield (c.name, c.location, c.lhs, c.rhs, c.margin, c.rel_margin, c.passed)


def ternary_amemiya(values, weights, phi, rel_tol=1e-12):
    """Reference Amemiya norm: ternary search of a (1 + sum w phi(|v| / a)) over a.

    The bracket runs from 1e-12 to 2 times the Luxemburg norm; up to 240
    steps, each evaluating phi on every atom.
    """
    v = np.abs(np.asarray(values, dtype=float).ravel())
    w = np.asarray(weights, dtype=float).ravel()
    lux = luxemburg_norm(v, w, phi)
    if lux == 0.0:
        return 0.0
    v = v[w > 0]
    w = w[w > 0]

    def objective(a):
        with np.errstate(over="ignore", invalid="ignore"):
            return a * (1.0 + float(np.sum(w * phi.value(v / a))))

    lo = lux * 1e-12
    hi = 2.0 * lux * (1.0 + 1e-12)
    best = min(objective(lux), objective(hi))
    for _ in range(240):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1, f2 = objective(m1), objective(m2)
        best = min(best, f1, f2)
        if f1 <= f2:
            hi = m2
        else:
            lo = m1
        if hi - lo <= rel_tol * max(hi, 1e-300):
            break
    return min(best, objective(0.5 * (lo + hi)))
