"""Shared space builders and slow reference implementations for the test suite."""

import math

import numpy as np

from chaincert import ball_growth_integral, generate_space, luxemburg_norm, radius_table
from chaincert.verify import REL_SLACK, _step_integral, _step_value


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


def rel_margin(lhs, rhs):
    """Reference relative margin of one inequality lhs <= rhs."""
    if math.isinf(lhs):
        return -math.inf
    if math.isinf(rhs):
        return math.inf
    return (rhs - lhs) / max(1.0, abs(rhs))


def per_check_rows(report):
    """Reference verify rows: one scalar margin and verdict per location of every check.

    Pair locations are formatted from the pair indices, independently of the
    check's own location labels and vectorised columns.
    """
    for c in report.checks:
        pairs = c in report.pair_checks
        for j in range(len(c.locations)):
            loc = f"({int(c.locations.iu[j])},{int(c.locations.iv[j])})" if pairs else c.locations[j]
            lhs, rhs = float(c.lhs[j]), float(c.rhs[j])
            m = rel_margin(lhs, rhs)
            yield (c.name, loc, lhs, rhs, rhs - lhs, m, m >= -REL_SLACK)


def _keep_worst(best, name, location, lhs, rhs):
    """Keep the first candidate with the smallest reference relative margin per name."""
    m = rel_margin(lhs, rhs)
    if name not in best or m < best[name][3]:
        best[name] = (location, lhs, rhs, m)


def worst_start_level_gap(table, trace):
    """Reference start_level_gap row of a trace: (location, lhs, rhs, rel_margin).

    Walks every u in the extended balls of the points whose start level is
    tau, one scalar candidate at a time.
    """
    best = {}
    ext = table.extended_vector(trace.tau, trace.l)
    for x, tau_x in ((trace.s, trace.tau_s), (trace.t, trace.tau_t)):
        if tau_x != trace.tau:
            continue
        radius = ext[x] + 1e-12 * max(1.0, ext[x])
        for u in np.flatnonzero(table.space.dist[x] <= radius):
            _keep_worst(best, "start_level_gap", f"u={int(u)}",
                        float(trace.d_levels[trace.tau]), table.radius(trace.tau - 1, int(u)))
    return best["start_level_gap"]


def worst_witness_rows(space, phi, psi, R, n0, t, l):
    """Reference worst rows of the witness's pair and breakpoint checks.

    Returns {name: (location, lhs, rhs, rel_margin)} for difference_jensen,
    step_average_bound and inverse_reconstruction, one pair or breakpoint at
    a time.
    """
    table = radius_table(space, phi, R)
    radii = np.array([table.radius(k, t) for k in range(l + 2)])
    full_radii = np.array([table.radius(k, t) for k in range(table.kstar + 2)])
    dists = space.dist[:, t]
    psi_h = psi.value(_step_value(radii, R, n0, dists, l))
    witness = _step_integral(radii, R, n0, dists, l)
    psi_integral = _step_integral(radii, R, n0, dists, l, transform=psi.value)
    best = {}
    for u in range(space.n):
        for v in range(u + 1, space.n):
            quot = abs(witness[u] - witness[v]) / space.dist[u, v]
            gap = abs(dists[u] - dists[v])
            avg = float(abs(psi_integral[u] - psi_integral[v]) / gap) if gap > 0 else 0.0
            _keep_worst(best, "difference_jensen", f"({u},{v})", float(psi.value(quot)), avg)
            _keep_worst(best, "step_average_bound", f"({u},{v})", avg, float(psi_h[u] + psi_h[v]))
    for eps in np.unique(dists):
        lhs = phi.inverse(1.0 / space.ball_mass(t, eps, closed=True))
        rhs = R ** (n0 + 1) * _step_value(full_radii, R, n0, float(eps), table.kstar)
        _keep_worst(best, "inverse_reconstruction", f"eps={eps:.6g}", float(lhs), float(rhs))
    return best


def ball_growth_integral_riemann(space, phi, x, upper, panels=100000):
    """Reference growth integral: the midpoint rule on a uniform grid.

    The grid is refined at the distances from x, and the ball mass is
    evaluated directly per midpoint, independently of the cumulative-mass
    bookkeeping of the exact breakpoint sum. upper is clamped to the diameter.
    """
    u = min(float(upper), space.diameter)
    if u == 0.0:
        return 0.0
    grid = np.linspace(0.0, u, panels + 1)
    row = space.dist[x]
    cuts = row[(row > 0) & (row < u)]
    grid = np.unique(np.concatenate([grid, cuts]))
    mids = 0.5 * (grid[:-1] + grid[1:])
    masses = (row[None, :] <= mids[:, None]) @ space.mass
    vals = phi.inverse(1.0 / masses)
    return float(np.sum(vals * np.diff(grid)))


def minorizing_metric(space, phi, s, t):
    """Reference tau(s, t): the larger of the pair's two growth integrals up to their distance."""
    d = float(space.dist[s, t])
    if d == 0.0:
        return 0.0
    return max(ball_growth_integral(space, phi, s, d), ball_growth_integral(space, phi, t, d))


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
