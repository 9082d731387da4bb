"""Shared space builders and slow reference implementations for the test suite."""

import csv
import io
import math
from unittest import mock

import numpy as np

from chaincert import (
    Check,
    MetricMeasureSpace,
    ProofTrace,
    VerificationReport,
    averaging_kernel,
    ball_growth_integral,
    constant_a,
    generate_space,
    luxemburg_norm,
    radius_table,
)
from chaincert import verify
from chaincert.chain import _check_agreement, modulus_pairs
from chaincert.cli import CAPITALIZED_VERDICTS, _field, _fmt
from chaincert.mspace import _triu
from chaincert.verify import (
    REL_SLACK,
    _as_test_function,
    _bracket_index,
    _PairLocations,
    _step_integral,
    _step_value,
    _worst_row,
)
from chaincert.young import ConvexGauge


def two_point_space():
    """Two points at distance 1, uniform mass."""
    return generate_space("grid", n=2)


def line3_space():
    """Points {0, 1, 2} on the line with d = |i - j|, uniform mass."""
    return generate_space("grid", n=3, scale=2.0)


def unvalidated_space(dist, mass):
    """A space on a matrix that validation would reject, such as one breaking the triangle inequality."""
    with mock.patch.object(MetricMeasureSpace, "_validate", lambda *args: None):
        return MetricMeasureSpace(dist, mass)


def _corrupted_kernel(table, k):
    """averaging_kernel with row 0 of the level-1 kernel scaled by 1.1."""
    kernel = averaging_kernel(table, k)
    if k == 1:
        kernel[0] *= 1.1
    return kernel


def corrupted_kernels():
    """A context in which invariant_suite builds its level-1 kernel with row 0 scaled by 1.1."""
    return mock.patch.object(verify, "averaging_kernel", _corrupted_kernel)


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


def full_sort_luxemburg(values, weights, gauge):
    """Reference Luxemburg norm in the gauge (x^p - 1)+: the closed form over every atom.

    Sorts all atoms with w > 0 and v != 0 in descending order of |v| and finds,
    by searchsorted on the integral at each sorted value, the segment where the
    integral crosses 1. The library sorts only the atoms above its lower bound
    on the norm and otherwise runs the same operations, so the two agree bit
    for bit whenever both sorts put the active atoms in the same order.
    """
    p = gauge.base.p
    v = np.abs(np.asarray(values, dtype=float).ravel())
    w = np.asarray(weights, dtype=float).ravel()
    atoms = (w > 0) & (v > 0)
    if not atoms.any():
        return 0.0
    v, w = v[atoms], w[atoms]
    vmax = float(v.max())
    order = np.argsort(-v)
    u = v[order] / vmax
    w = w[order]
    W = np.cumsum(w)
    up = u ** p
    S = np.cumsum(w * up)
    with np.errstate(divide="ignore", over="ignore"):
        at_values = S / up - W
    k = int(np.searchsorted(at_values, 1.0, side="right"))
    return vmax * float(S[k - 1] / (1.0 + W[k - 1])) ** (1.0 / p)


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


def searchsorted_ball_mass(space, x, eps, closed=True):
    """Reference ball mass: one binary search on the sorted row of x."""
    sorted_d, cum = space.distances_from(x)
    idx = int(np.searchsorted(sorted_d, eps, side="right" if closed else "left"))
    return 0.0 if idx == 0 else float(cum[idx - 1])


def per_path_sample(sampler, n_paths, seed, block=1024):
    """Reference sampler: one path at a time from the normal stream of its block.

    Path i is the (i mod block)-th run of n - 1 draws from
    default_rng([seed, i // block]): Brownian steps scaled by sqrt(dt) and
    summed from 0.
    """
    width = sampler.n - 1
    out = np.empty((n_paths, sampler.n))
    for b in range(0, -(-n_paths // block)):
        rows = min(block, n_paths - b * block)
        z = np.random.default_rng([seed, b]).standard_normal(rows * width)
        for j in range(rows):
            zj = z[j * width:(j + 1) * width]
            out[b * block + j] = np.concatenate([[0.0], np.cumsum(zj * np.sqrt(np.diff(sampler.times)))])
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
    if lhs == math.inf or (rhs == -math.inf and lhs > -math.inf):
        return -math.inf
    if lhs == -math.inf or math.isinf(rhs):
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


def csv_text(header, rows):
    """Reference csv file text: csv.writer, one row and one _fmt per value at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


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
    ext = loop_extended(table, trace.tau, trace.l)
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


# The per-point growth profile that chaincert.minorize replaced by its array
# growth table, kept verbatim as the table's reference.
class _GrowthProfile:
    """Prefix integrals of eps -> phi^{-1}(1/m(B(x, eps))) for one point."""

    def __init__(self, space, phi, x):
        sorted_d, cum = space.distances_from(x)
        # unique breakpoints with the cumulative mass attained at each
        eps, last_idx = np.unique(sorted_d, return_index=True)
        counts = np.diff(np.append(last_idx, sorted_d.size))
        take = last_idx + counts - 1
        masses = cum[take]
        self.eps = eps
        self.vals = phi.inverse(1.0 / masses)
        widths = np.diff(eps)
        self.cumint = np.concatenate([[0.0], np.cumsum(self.vals[:-1] * widths)])

    def integral(self, u):
        """Exact value of the growth integral on [0, u], u within [0, D]."""
        arr = np.asarray(u, dtype=float)
        j = np.clip(np.searchsorted(self.eps, arr, side="right") - 1, 0, self.eps.size - 1)
        out = self.cumint[j] + self.vals[j] * (arr - self.eps[j])
        return float(out) if np.ndim(u) == 0 else out


def profile_metrics(space, phi):
    """Reference (tau, total) of MinorizingMetrics from one _GrowthProfile per point."""
    profiles = [_GrowthProfile(space, phi, x) for x in range(space.n)]
    rows = np.vstack([profiles[x].integral(space.dist[x]) for x in range(space.n)])
    tau = np.maximum(rows, rows.T)
    np.fill_diagonal(tau, 0.0)
    full = np.array([p.integral(space.diameter) for p in profiles])
    full[space.mass == 0] = 0.0  # a massless atom has weight 0, also where its integral is +inf
    return tau, float(np.dot(space.mass, full))


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


def loop_extended(table, k, l):
    """Reference extended radii r^l_k = sum_{i=k}^{l} 2^(i-k) r_i, componentwise over points."""
    if not 0 <= k <= l:
        raise ValueError("need 0 <= k <= l")
    out = np.zeros(table.space.n)
    for i in range(k, l + 1):
        out += (2.0 ** (i - k)) * table.radius_vector(i)
    return out


def _loop_ball(space, x, radius, closed=True):
    row = space.dist[x]
    tol = 1e-12 * max(1.0, radius)
    return np.flatnonzero(row <= radius + tol) if closed else np.flatnonzero(row < radius)


def _loop_neg_margin(lhs, rhs):
    return lhs - rhs - REL_SLACK * max(1.0, abs(rhs))


def loop_proof_trace(table, metrics, s, t, l, f=None, n=2):
    """Reference proof trace: one ball query per point and level, one scalar step at a time.

    Rebuilds the extended radii, the balls and P_l on every call and sums
    each ball average with np.dot over the ball's members.
    """
    space = table.space
    R = table.R
    if R <= 5:
        raise ValueError("proof traces require R > 5")
    if s == t:
        raise ValueError("need two distinct points")
    d = float(space.dist[s, t])
    D = space.diameter

    if d >= D * (1.0 - 1e-12):
        a = b = c = 0
    else:
        a = _bracket_index(table, s, d)
        b = _bracket_index(table, t, d)
        c = max(a, b)
    if l <= c:
        raise ValueError("need l > c")

    ext = {k: loop_extended(table, k, l) for k in range(0, l + 1)}

    def condition(k, x):
        u_ball = _loop_ball(space, x, ext[k][x])
        union = np.union1d(_loop_ball(space, s, ext[k][s]), _loop_ball(space, t, ext[k][t]))
        if k == 1:
            return True
        for u in u_ball:
            r_prev = table.radius(k - 1, u)
            if np.any(space.dist[u, union] >= r_prev):
                return False
        return True

    cap = max(c, 1)
    tau_by_point = {}
    for x in (s, t):
        satisfied = [k for k in range(1, cap + 1) if condition(k, x)]
        tau_by_point[x] = max(satisfied)
    tau_s, tau_t = tau_by_point[s], tau_by_point[t]
    tau = min(tau_s, tau_t)
    anchor = t if tau == tau_t else s

    d_levels = np.array([min(ext[k][s] + ext[k][t] + d, D) for k in range(l + 1)])
    checks = []

    us = np.concatenate([_loop_ball(space, x, ext[tau][x]) for x in (s, t) if tau_by_point[x] == tau])
    gap = Check("start_level_gap", [f"u={u}" for u in us.tolist()], np.full(us.size, d_levels[tau]),
                table.radius_vector(tau - 1)[us])
    checks.append(gap.worst())

    lhs_sum = d_levels[tau] * R ** tau
    lhs_sum += sum((ext[k][s] + ext[k][t]) * R ** k for k in range(tau, c + 1))
    rhs_sum = (R / (R - 5.0)) * R ** c * (1.5 * d + 2.0 * (ext[c][s] + ext[c][t]))
    checks.append(Check("geometric_level_sum", f"c={c}", float(lhs_sum), float(rhs_sum)))

    A = constant_a(R)
    lhs_tm = d_levels[tau] * R ** tau
    lhs_tm += sum(ext[k][x] * R ** k for x in (s, t) for k in range(tau, l))
    checks.append(Check("trace_metric_bound", "A*tau", float(lhs_tm), float(A * metrics.tau[s, t])))

    if f is not None:
        f = _as_test_function(f)
        checks.append(_loop_smoothing_check(table, space, f, s, t, l, tau, anchor, ext, d_levels, n))

    return ProofTrace(
        s=s, t=t, l=l, distance=d, a=a, b=b, c=c,
        tau_s=tau_s, tau_t=tau_t, tau=tau, anchor=anchor,
        d_levels=d_levels, checks=checks,
    )


def _loop_averaged_quotient(space, fd_row, member_idx, threshold):
    if member_idx.size == 0:
        return 0.0
    w = space.mass[member_idx]
    tot = float(w.sum())
    if tot <= 0.0:
        return 0.0
    vals = fd_row[member_idx]
    vals = np.where(vals >= threshold, vals, 0.0)
    return float(np.dot(w, vals)) / tot


def _loop_smoothing_check(table, space, f, s, t, l, tau, anchor, ext, d_levels, n):
    R = table.R
    phi = table.phi
    fd = f.quotients(space)
    P_l = averaging_kernel(table, l)
    smoothed = P_l @ f.values
    lhs = abs(float(smoothed[s] - smoothed[t]))

    total = d_levels[tau] * R ** (tau + n)
    total += sum(ext[k][x] * R ** (k + n) for x in (s, t) for k in range(tau, l))
    for x in (s, t):
        for k in range(tau, l):
            outer = _loop_ball(space, x, ext[k + 1][x])
            acc = 0.0
            thr = R ** (k + n)
            for u in outer:
                inner = _loop_ball(space, int(u), table.radius(k, int(u)))
                acc += space.mass[u] * table.radius(k, int(u)) * _loop_averaged_quotient(space, fd[u], inner, thr)
            if acc:  # a zero sum adds an exact 0, also under a weight that overflows to inf
                total += phi.value(R ** (k + 1)) * acc
    acc = 0.0
    thr = R ** (tau + n)
    for u in _loop_ball(space, anchor, ext[tau][anchor]):
        if tau - 1 == 0:
            inner = np.arange(space.n)
        else:
            inner = _loop_ball(space, int(u), table.radius(tau - 1, int(u)), closed=False)
        acc += space.mass[u] * _loop_averaged_quotient(space, fd[u], inner, thr)
    if acc:
        total += d_levels[tau] * phi.value(R ** (tau + 1)) * acc
    return Check("smoothing_difference_bound", f"n={n}", lhs, float(total))


def loop_invariant_suite(space, phi, psi, R, n0, seed=0):
    """Reference invariant suite: every aggregate check as a loop over points, levels and balls.

    Ball masses come from one searchsorted per point, the growth integral
    from one profile call per (point, radius), and ball_nesting walks every
    (x, u in the ball of x) pair with a full-row support count.
    """
    table = radius_table(space, phi, R)
    kstar = table.kstar
    l = kstar + 1
    n = space.n
    dist = space.dist
    mass = space.mass
    kernels = [averaging_kernel(table, k) for k in range(l + 1)]
    checks = []

    radii = np.vstack([table.radius_vector(k) for k in range(kstar + 1)])
    checks.append(Check("radii_monotone", "all k", float(np.max(np.diff(radii, axis=0), initial=-np.inf)), 0.0))
    lip = max(
        float(np.max(np.abs(radii[k][:, None] - radii[k][None, :]) - dist))
        for k in range(kstar + 1)
    )
    checks.append(Check("radii_lipschitz", "all k", lip, 0.0))

    worst_lo = -math.inf
    worst_hi = -math.inf
    logR = math.log(R)
    for k in range(kstar + 1):
        pk = math.exp(phi.log_value_exp(k * logR))
        for x in range(n):
            if k == 0:
                closed, opened = 1.0, 1.0
            else:
                closed = space.ball_mass(x, radii[k, x], closed=True)
                opened = space.ball_mass(x, radii[k, x], closed=False)
            worst_lo = max(worst_lo, 1.0 - pk * closed)
            worst_hi = max(worst_hi, pk * opened - 1.0)
    checks.append(Check("ball_mass_lower", "all x,k", worst_lo, 0.0))
    checks.append(Check("ball_mass_upper", "all x,k", worst_hi, 0.0))

    profiles = [_GrowthProfile(space, phi, x) for x in range(n)]

    def growth(x, u):
        return 0.0 if u == 0.0 else profiles[x].integral(u)

    worst = -math.inf
    for x in range(n):
        for c in range(kstar + 1):
            lhs = sum(radii[k, x] * R ** k for k in range(c, kstar + 1))
            rhs = (R / (R - 1.0)) * growth(x, radii[c, x])
            worst = max(worst, _loop_neg_margin(lhs, rhs))
    checks.append(Check("radius_series_integral", "all x,c", worst, 0.0))

    if R > 2:
        worst = -math.inf
        ll = kstar + 2
        ext = [loop_extended(table, k, ll) for k in range(ll)]
        for x in range(n):
            for c in range(ll):
                lhs = sum(ext[k][x] * R ** k for k in range(c, ll))
                rhs = (R ** 2 / ((R - 1.0) * (R - 2.0))) * growth(x, table.radius(min(c, kstar), x))
                worst = max(worst, _loop_neg_margin(lhs, rhs))
        checks.append(Check("extended_series_integral", "all x,c", worst, 0.0))

    ext = [loop_extended(table, k, l) for k in range(l + 1)]
    worst = -math.inf
    support_bad = 0.0
    for k in range(l):
        ext_k, ext_k1 = ext[k], ext[k + 1]
        for x in range(n):
            for u in _loop_ball(space, x, ext_k1[x]):
                r_u = table.radius(k, int(u))
                mid = table.radius(k, x) + ext_k1[x]
                worst = max(worst, _loop_neg_margin(r_u, mid), _loop_neg_margin(mid, ext_k[x]))
                outside = dist[u] > ext_k[x] + 1e-12 * max(1.0, ext_k[x])
                inside_u = dist[u] <= r_u + 1e-12 * max(1.0, r_u)
                support_bad = max(support_bad, float(np.sum(inside_u & outside)))
    checks.append(Check("ball_nesting", "all x,u,k", worst, 0.0))
    checks.append(Check("ball_nesting_support", "all x,u,k", support_bad, 0.0))

    dev = max(float(np.max(np.abs(kernels[k].sum(axis=1) - 1.0))) for k in range(l + 1))
    checks.append(Check("kernel_stochastic", "all k", dev, 0.0))

    worst_support = -math.inf
    worst_rowsum = -math.inf
    rng = np.random.default_rng(seed)
    fs = [rng.standard_normal(n) for _ in range(3)]
    worst_avg = -math.inf
    comp = None
    for k in range(l, -1, -1):
        comp = kernels[k] if comp is None else comp @ kernels[k]
        ext_k = ext[k]
        outside = dist > ext_k[:, None] + 1e-12 * np.maximum(1.0, ext_k)[:, None]
        worst_support = max(worst_support, float(np.abs(comp[outside]).max(initial=0.0)))
        worst_rowsum = max(worst_rowsum, float(np.max(np.abs(comp.sum(axis=1) - 1.0))))
        pk = math.exp(phi.log_value_exp(k * logR))
        for fvals in fs:
            lhs_vec = comp @ np.abs(fvals)
            inball = dist <= ext_k[:, None] + 1e-12 * np.maximum(1.0, ext_k)[:, None]
            rhs_vec = pk * (inball * (mass * np.abs(fvals))[None, :]).sum(axis=1)
            worst_avg = max(worst_avg, float(np.max(lhs_vec - rhs_vec - REL_SLACK * np.maximum(1.0, rhs_vec))))
    checks.append(Check("kernel_support", "composed", max(worst_support, worst_rowsum), 0.0))
    checks.append(Check("kernel_average_bound", "composed", worst_avg, 0.0))

    unit_dev = max(
        float(np.max(np.abs(kernels[k] @ np.ones(n) - 1.0))) for k in range(l + 1)
    )
    checks.append(Check("operator_unit", "all k", unit_dev, 0.0))
    g = fs[0] + np.abs(rng.standard_normal(n))
    mono = max(
        float(np.max(kernels[k] @ fs[0] - kernels[k] @ g)) for k in range(l + 1)
    )
    checks.append(Check("operator_monotone", "f<=g", mono, 0.0))
    offdiag = dist[~np.eye(n, dtype=bool)]
    if offdiag.size == 0 or offdiag.min() > 0:
        settle = float(np.max(np.abs(kernels[min(kstar, l)] @ fs[0] - fs[0])))
        checks.append(Check("operator_settles", "k=kstar", settle, 0.0))

    params = {"R": R, "n0": n0, "kstar": kstar, "phi": phi.spec(), "psi": psi.spec() if psi else None}
    return VerificationReport(checks, params)


def loop_growth_ratios(space, phi, R, n0, t):
    """Reference witness growth ratios: one growth integral and one step integral per point."""
    table = radius_table(space, phi, R)
    full_radii = np.array([table.radius(k, t) for k in range(table.kstar + 2)])
    dists = space.dist[:, t]
    ratios = np.zeros(space.n)
    profile = _GrowthProfile(space, phi, t)
    for x in range(space.n):
        if x == t or dists[x] == 0:
            continue
        growth = profile.integral(float(dists[x]))
        w = _step_integral(full_radii, R, n0, float(dists[x]), table.kstar)
        ratios[x] = growth / w if w > 0 else math.inf
    return ratios


# -- the per-function verify path, one numpy pass per quantity ------------------


def gather_quotients(f, space):
    """Reference difference quotients: a zeroed matrix divided where d > 0."""
    f = f.values
    if f.size != space.n:
        raise ValueError(f"test function has the wrong length: {f.size} values on a {space.n}-point space")
    out = np.zeros(space.dist.shape)
    with np.errstate(over="ignore"):  # d > 0 off the diagonal, so any overflow is an inf quotient, rejected below
        np.divide(np.abs(f[:, None] - f[None, :]), space.dist, out=out, where=space.dist > 0)
    if not np.isfinite(out).all():
        raise ValueError("difference quotients |f(s) - f(t)| / d(s, t) overflow")
    return out


def shifted_power_luxemburg(values, weights, gauge):
    """Reference Luxemburg norm in (x^p - 1)+: every check on the full arrays, u^p computed again after the sort."""
    w = np.asarray(weights, dtype=float).ravel()
    v = np.abs(np.asarray(values, dtype=float).ravel())
    if v.shape != w.shape:
        raise ValueError(f"values and weights are misaligned: {v.shape} vs {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    if not np.isfinite(v).all():
        raise ValueError("function values must be finite")
    atoms = (w > 0) & (v > 0)
    if not atoms.any():
        return 0.0
    v, w = v[atoms], w[atoms]
    vmax = float(v.max())
    base = gauge.base
    up = v / vmax
    up **= base.p
    s = float(np.dot(w, up))
    keep = v >= 0.5 * vmax * (s / (1.0 + float(w.sum()))) ** (1.0 / base.p)
    v, w = v[keep], w[keep]
    order = np.argsort(-v)
    u = v[order] / vmax
    w = w[order]
    W = np.cumsum(w)
    up = u ** base.p
    S = np.cumsum(w * up)
    with np.errstate(divide="ignore", over="ignore"):
        at_values = S / up - W
    k = int(np.searchsorted(at_values, 1.0, side="right"))
    return vmax * float(S[k - 1] / (1.0 + W[k - 1])) ** (1.0 / base.p)


def gather_verify_thm1(cert, metrics, f, nabla_r=None):
    """Reference verify_thm1: the pair differences and tau gathered by index, the gauge sides unguarded."""
    f = _as_test_function(f)
    if cert.theorem != "T1":
        raise ValueError("expected a ratio-pair (T1) certificate")
    _check_agreement(cert, metrics)
    space = metrics.space
    gauge = ConvexGauge(cert.psi)
    fd = gather_quotients(f, space)
    lux = shifted_power_luxemburg(fd.ravel(), cert.nu.ravel(), gauge)

    iu, iv = _triu(space.n)
    pairs = _PairLocations(iu, iv)
    lhs = np.abs(f.values[iu] - f.values[iv])
    tau = metrics.tau[iu, iv]
    holder = Check("holder_bound", pairs, lhs, cert.K * lux * tau)

    checks = []
    relaxed_K = cert.A * cert.R ** (cert.n0 + 1) * (1.0 + cert.B)
    if lhs.size:
        checks.append(_worst_row("holder_bound_relaxed", pairs, lhs, relaxed_K * lux * tau))

    if nabla_r is not None:
        rhs_int = float((cert.nu * gauge.value(fd)).sum())
        denom = cert.K * nabla_r * tau
        ratios = np.divide(lhs, denom, out=np.where(lhs > 0, np.inf, 0.0), where=denom > 0)
        sup_lhs = float(gauge.value(ratios).max()) if ratios.size else 0.0
        checks.append(Check("gauge_sup_bound", "sup", sup_lhs, rhs_int))
    checks.append(holder)

    params = {
        "theorem": "T1",
        "K": cert.K,
        "quotient_norm": lux,
        "nabla_r": nabla_r,
        "relaxed_K": relaxed_K,
    }
    return VerificationReport(checks, params)


def gather_verify_thm3(cert, metrics, f):
    """Reference verify_thm3: the pair differences gathered by index, the integral side unguarded."""
    f = _as_test_function(f)
    if cert.theorem != "T3":
        raise ValueError("expected a radius-weighted (T3) certificate")
    space = cert.space
    gauge = ConvexGauge(cert.phi)
    fd = gather_quotients(f, space)
    rhs_int = float((cert.nu * gauge.value(fd)).sum())

    iu, iv = _triu(space.n)
    mod = modulus_pairs(cert, metrics)
    diff = np.abs(f.values[iu] - f.values[iv])
    with np.errstate(over="ignore"):
        lhs = gauge.value(diff / mod)
    rhs = np.full(iu.size, rhs_int)
    params = {"theorem": "T3", "K": cert.K, "C": cert.C, "mass_integral": metrics.total}
    return VerificationReport([Check("modulus_bound", _PairLocations(iu, iv), lhs, rhs)], params)


def _tree_hops(i, j):
    # 1-based heap indices; hop distance via the lowest common ancestor
    di, dj = i.bit_length() - 1, j.bit_length() - 1
    hops = 0
    while i != j:
        if di >= dj:
            i >>= 1
            di -= 1
        else:
            j >>= 1
            dj -= 1
        hops += 1
    return hops


def loop_tree_dist(depth):
    """Reference hop matrix of the balanced binary tree of the given depth, one pair at a time."""
    n = 2 ** (depth + 1) - 1
    dist = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            dist[a, b] = dist[b, a] = _tree_hops(a + 1, b + 1)
    return dist


def four_mask_pwl_inverse(phi, arr):
    """Reference inverse of a piecewise Young function: one mask each for y = 0, a segment, a knot and beyond."""
    xs, ys, slopes = phi.knots_x, phi.knots_y, phi.slopes
    j = np.searchsorted(ys, arr, side="left")
    out = np.empty_like(arr)
    at_knot = (j < len(ys)) & (ys[np.minimum(j, len(ys) - 1)] == arr)
    inside = (j > 0) & (j < len(ys))
    beyond = j >= len(ys)
    out[j == 0] = 0.0
    if inside.any():
        ji = j[inside]
        out[inside] = xs[ji - 1] + (arr[inside] - ys[ji - 1]) / slopes[ji - 1]
    if at_knot.any():
        jk = np.minimum(j[at_knot], len(ys) - 1)
        out[at_knot] = xs[jk]
    if beyond.any():
        out[beyond] = xs[-1] + (arr[beyond] - ys[-1]) / slopes[-1]
    return out


def masked_ball_rows(space, radii, closed=True, centers=slice(None)):
    """Reference chain._ball_rows: mass/rowmass written only inside each ball of positive mass."""
    dist, radii = space.dist[centers], radii[centers, None]
    ind = dist <= radii if closed else dist < radii
    rowmass = ind @ space.mass
    return np.divide(space.mass, rowmass[:, None], out=np.zeros(ind.shape), where=ind & (rowmass > 0)[:, None])


def masked_gauge_sup_sides(gauge, fd, nu, lhs, K, nabla_r, tau):
    """Reference verify._gauge_sup_sides: the ratios through np.divide(where=), inf for a positive lhs over
    an underflowed denominator and 0 for a zero one, and the sup of the gauge values."""
    with np.errstate(over="ignore"):
        rhs_int = float((gauge.value(fd) * nu).sum())
        denom = K * nabla_r * tau
        ratios = np.divide(lhs, denom, out=np.where(lhs > 0, np.inf, 0.0), where=denom > 0)
        sup_lhs = float(gauge.value(ratios).max()) if ratios.size else 0.0
    return sup_lhs, rhs_int


def loop_thm3_nu(space, phi, R):
    """Reference certificate_thm3 pair measure: the level sum written out with the masked ball rows."""
    table = radius_table(space, phi, R)
    mass = space.mass[:, None]
    S = np.zeros_like(space.dist)
    open_prev = np.outer(space.mass, space.mass)
    for k in range(1, table.kstar + 1):
        closed = masked_ball_rows(space, table.radius_vector(k)) * mass
        rk, rk1 = table.radius_vector(k), table.radius_vector(k - 1)
        S += R ** (k + 1) * (2.0 * rk[:, None] * closed + rk1[:, None] * open_prev)
        open_prev = masked_ball_rows(space, table.radius_vector(k), closed=False) * mass
    return S / float(S.sum())


def row_fstring_report_rows(report, prefix):
    """Reference verify.csv text of one report: each pair row formats its two indices in its own f-string."""
    out = []
    for c in report.checks:
        locations, lhs, rhs, margin, rel, passed = c.columns()
        columns = [list(map(repr, v.tolist())) for v in (lhs, rhs, margin, rel)]
        verdict = str if c.name in CAPITALIZED_VERDICTS else (lambda x: "true" if x else "false")
        verdicts = map(verdict, passed.tolist())
        name = _field(c.name)
        if c in report.pair_checks:
            out += [f'{name},"{prefix}({i},{j})",{a},{b},{m},{r},{v}\n'
                    for i, j, a, b, m, r, v in zip(locations.iu.tolist(), locations.iv.tolist(), *columns, verdicts)]
        else:
            out += [f"{name},{_field(prefix + x)},{a},{b},{m},{r},{v}\n"
                    for x, a, b, m, r, v in zip(locations, *columns, verdicts)]
    return "".join(out)


def certificate_payload(cert):
    """The certificate.json payload with nu as a list, for json.dumps(payload, sort_keys=True)."""
    return {
        "theorem": cert.theorem,
        "R": cert.R,
        "n0": cert.n0,
        "A": cert.A,
        "B": cert.B,
        "K": cert.K,
        "C": cert.C,
        "nu": cert.nu.ravel().tolist(),
        "tail_bound": cert.tail_bound,
        "escalated_R": cert.escalated_from,
    }
