"""Deterministic verification of the certificate inequalities.

verify_thm1 / verify_thm3 check the Hölder bounds delivered by the two
certificates on a supplied function, pair by pair. proof_trace re-derives the
internal quantities of the chaining argument for one pair (bracketing level
c, start levels tau_s/tau_t, padded distances d_k) and measures each step
inequality. converse_witness builds the step-function witness showing the
minorizing metric is optimal up to constants. invariant_suite aggregates the
structural invariants of radii, kernels and their compositions.

Margins are reported relative to max(1, |rhs|); a check passes when its
relative margin is at least -1e-9.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .chain import averaging_kernel, constant_a, modulus_pairs
from .minorize import _GrowthProfile
from .mspace import radius_table
from .orlicz import luxemburg_norm
from .young import ConvexGauge, pair_series, shifted_series

__all__ = [
    "REL_SLACK",
    "TestFunction",
    "Check",
    "PairChecks",
    "VerificationReport",
    "verify_thm1",
    "verify_thm3",
    "ProofTrace",
    "proof_trace",
    "ConverseWitness",
    "converse_witness",
    "invariant_suite",
]

REL_SLACK = 1e-9


@dataclass(frozen=True)
class TestFunction:
    """Function values per point with the derived difference quotients."""

    __test__ = False  # not a pytest collectable despite the name

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if not np.all(np.isfinite(v)):
            raise ValueError("test functions must be finite")
        object.__setattr__(self, "values", v)

    def quotients(self, space):
        """|f(u) - f(v)| / d(u, v) with 0/0 = 0 on the diagonal."""
        f = self.values
        num = np.abs(f[:, None] - f[None, :])
        out = np.zeros_like(num)
        np.divide(num, space.dist, out=out, where=space.dist > 0)
        return out


def _rel_margin(lhs, rhs):
    if math.isinf(lhs):
        return -math.inf
    if math.isinf(rhs):
        return math.inf
    return (rhs - lhs) / max(1.0, abs(rhs))


@dataclass(frozen=True)
class Check:
    """A single measured inequality lhs <= rhs."""

    name: str
    location: str
    lhs: float
    rhs: float

    @property
    def margin(self):
        return self.rhs - self.lhs

    @property
    def rel_margin(self):
        return _rel_margin(self.lhs, self.rhs)

    @property
    def passed(self):
        return self.rel_margin >= -REL_SLACK


@dataclass(frozen=True)
class PairChecks:
    """One named inequality measured on every point pair (vectorized)."""

    name: str
    iu: np.ndarray = field(repr=False)
    iv: np.ndarray = field(repr=False)
    lhs: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)

    @property
    def rel_margins(self):
        with np.errstate(invalid="ignore"):
            out = (self.rhs - self.lhs) / np.maximum(1.0, np.abs(self.rhs))
        out = np.where(np.isinf(self.rhs) & ~np.isinf(self.lhs), np.inf, out)
        return np.where(np.isinf(self.lhs), -np.inf, out)

    @property
    def worst_rel_margin(self):
        m = self.rel_margins
        return float(m.min()) if m.size else math.inf

    @property
    def passed(self):
        return self.worst_rel_margin >= -REL_SLACK

    def columns(self):
        """The verify.csv columns as lists: location, lhs, rhs, margin, rel_margin, passed.

        Built on demand, never by verify_thm1 / verify_thm3 themselves; the
        location strings are made once per pair list and shared.
        """
        rel = self.rel_margins
        with np.errstate(invalid="ignore"):  # inf - inf is nan, as for one Check
            margin = self.rhs - self.lhs
        return (
            _pair_locations(self.iu, self.iv),
            self.lhs.tolist(),
            self.rhs.tolist(),
            margin.tolist(),
            rel.tolist(),
            (rel >= -REL_SLACK).tolist(),
        )


@functools.lru_cache(maxsize=4)
def _triu_locations(n):
    iu, iv = np.triu_indices(n, 1)
    return iu, iv, tuple(f"({i},{j})" for i, j in zip(iu.tolist(), iv.tolist()))


def _pair_locations(iu, iv):
    """Location strings "(i,j)" per pair, cached for the np.triu_indices(n, 1) list of the verifiers."""
    n = int(iv[-1]) + 1 if iv.size else 0
    tu, tv, locations = _triu_locations(n)
    if np.array_equal(iu, tu) and np.array_equal(iv, tv):
        return locations
    return tuple(f"({i},{j})" for i, j in zip(iu.tolist(), iv.tolist()))


@dataclass
class VerificationReport:
    checks: list
    pair_checks: list
    params: dict

    @property
    def passed(self):
        return all(c.passed for c in self.checks) and all(p.passed for p in self.pair_checks)

    @property
    def worst_rel_margin(self):
        worst = math.inf
        for c in self.checks:
            worst = min(worst, c.rel_margin)
        for p in self.pair_checks:
            worst = min(worst, p.worst_rel_margin)
        return worst

    def failed_names(self):
        names = [c.name for c in self.checks if not c.passed]
        names += [p.name for p in self.pair_checks if not p.passed]
        return sorted(set(names))

    def rows(self):
        """(name, location, lhs, rhs, margin, rel_margin, passed) per inequality."""
        for c in self.checks:
            yield (c.name, c.location, c.lhs, c.rhs, c.margin, c.rel_margin, c.passed)
        for p in self.pair_checks:
            yield from zip(repeat(p.name), *p.columns())


def _as_test_function(f):
    return f if isinstance(f, TestFunction) else TestFunction(np.asarray(f, dtype=float))


def _check_compatible(cert, metrics, f):
    if cert.n != metrics.n:
        raise ValueError("certificate and metric matrix live on different spaces")
    if f.values.size != metrics.n:
        raise ValueError("test function has the wrong length")
    if cert.phi != metrics.phi:
        raise ValueError("certificate and metrics were built for different Young functions")


def verify_thm1(cert, metrics, f, nabla_r=None):
    """Check |f(s)-f(t)| <= K * |f^d|_gauge * tau(s,t) on every pair.

    The gauge norm is the Luxemburg norm of the difference quotients under
    the certificate's pair measure with gauge (psi - 1)+. When psi satisfies
    the product condition with threshold 1 and multiplier nabla_r, the
    sup-form bound sup psi_+(|df| / (K r tau)) <= int psi_+(f^d) dnu is
    checked as well. A relaxed variant with constant A*R^(n0+1)*(1+B), the
    bound the chaining argument itself delivers, is reported for diagnosis.
    """
    f = _as_test_function(f)
    if cert.theorem != "T1":
        raise ValueError("expected a ratio-pair (T1) certificate")
    _check_compatible(cert, metrics, f)
    space = metrics.space
    gauge = ConvexGauge(cert.psi)
    fd = f.quotients(space)
    lux = luxemburg_norm(fd.ravel(), cert.nu.ravel(), gauge)

    iu, iv = np.triu_indices(space.n, 1)
    lhs = np.abs(f.values[iu] - f.values[iv])
    tau = metrics.tau[iu, iv]
    rhs = cert.K * lux * tau
    pair_checks = [PairChecks("holder_bound", iu, iv, lhs, rhs)]

    checks = []
    relaxed_K = cert.A * cert.R ** (cert.n0 + 1) * (1.0 + cert.B)
    rhs_relaxed = relaxed_K * lux * tau
    j = int(np.argmin((rhs_relaxed - lhs) / np.maximum(1.0, rhs_relaxed))) if lhs.size else None
    if j is not None:
        checks.append(
            Check("holder_bound_relaxed", f"({iu[j]},{iv[j]})", float(lhs[j]), float(rhs_relaxed[j]))
        )

    if nabla_r is not None:
        rhs_int = float(np.sum(cert.nu * gauge.value(fd)))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(tau > 0, lhs / (cert.K * nabla_r * tau), np.where(lhs > 0, np.inf, 0.0))
        sup_lhs = float(gauge.value(ratios).max()) if ratios.size else 0.0
        checks.append(Check("gauge_sup_bound", "sup", sup_lhs, rhs_int))

    params = {
        "theorem": "T1",
        "K": cert.K,
        "quotient_norm": lux,
        "nabla_r": nabla_r,
        "relaxed_K": relaxed_K,
    }
    return VerificationReport(checks, pair_checks, params)


def verify_thm3(cert, metrics, f):
    """Check sup phi_+(|df| / modulus(s,t)) <= int phi_+(f^d) dnu pairwise."""
    f = _as_test_function(f)
    if cert.theorem != "T3":
        raise ValueError("expected a radius-weighted (T3) certificate")
    _check_compatible(cert, metrics, f)
    space = metrics.space
    gauge = ConvexGauge(cert.phi)
    fd = f.quotients(space)
    rhs_int = float(np.sum(cert.nu * gauge.value(fd)))

    iu, iv = np.triu_indices(space.n, 1)
    mod = modulus_pairs(cert, metrics, iu, iv)
    diff = np.abs(f.values[iu] - f.values[iv])
    with np.errstate(over="ignore"):
        lhs = gauge.value(diff / mod)
    rhs = np.full(iu.size, rhs_int)
    params = {"theorem": "T3", "K": cert.K, "C": cert.C, "mass_integral": metrics.total}
    return VerificationReport([], [PairChecks("modulus_bound", iu, iv, lhs, rhs)], params)


# -- proof traces -------------------------------------------------------------


@dataclass
class ProofTrace:
    s: int
    t: int
    l: int
    distance: float
    a: int
    b: int
    c: int
    tau_s: int
    tau_t: int
    tau: int
    anchor: int
    d_levels: np.ndarray
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _ball(space, x, radius, closed=True):
    row = space.dist[x]
    tol = 1e-12 * max(1.0, radius)
    return np.flatnonzero(row <= radius + tol) if closed else np.flatnonzero(row < radius)


def _bracket_index(table, x, d):
    tol = 1e-12 * max(1.0, d)
    for k in range(1, table.kstar + 1):
        if table.radius(k, x) <= d + tol:
            return k
    return table.kstar


def proof_trace(table, metrics, s, t, l, f=None, n=2):
    """Re-derive the chaining quantities for one pair and measure each step.

    Checks reported: start_level_gap (the padded distance at the start level
    is dominated by the previous-level radius inside the defining balls),
    geometric_level_sum, trace_metric_bound, and, when f is given,
    smoothing_difference_bound for the supplied threshold shift n.
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

    ext = {k: table.extended_vector(k, l) for k in range(0, l + 1)}

    def condition(k, x):
        # union of the level-k extended balls sits strictly inside the
        # previous-level open ball around every point of the x ball
        u_ball = _ball(space, x, ext[k][x])
        union = np.union1d(_ball(space, s, ext[k][s]), _ball(space, t, ext[k][t]))
        if k == 1:
            return True  # level-0 open balls are the whole space by convention
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

    # start_level_gap: d_tau <= r_(tau-1)(u) on the balls that define tau
    worst = None
    for x in (s, t):
        if tau_by_point[x] != tau:
            continue
        for u in _ball(space, x, ext[tau][x]):
            cand = Check("start_level_gap", f"u={int(u)}", float(d_levels[tau]), table.radius(tau - 1, int(u)))
            if worst is None or cand.rel_margin < worst.rel_margin:
                worst = cand
    if worst is not None:
        checks.append(worst)

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
        checks.append(_smoothing_difference_check(table, space, f, s, t, l, tau, anchor, ext, d_levels, n))

    return ProofTrace(
        s=s, t=t, l=l, distance=d, a=a, b=b, c=c,
        tau_s=tau_s, tau_t=tau_t, tau=tau, anchor=anchor,
        d_levels=d_levels, checks=checks,
    )


def _averaged_quotient(space, fd_row, member_idx, threshold):
    """Normalized average of fd over a ball, keeping quotients >= threshold."""
    if member_idx.size == 0:
        return 0.0
    w = space.mass[member_idx]
    tot = float(w.sum())
    if tot <= 0.0:
        return 0.0
    vals = fd_row[member_idx]
    vals = np.where(vals >= threshold, vals, 0.0)
    return float(np.dot(w, vals)) / tot


def _smoothing_difference_check(table, space, f, s, t, l, tau, anchor, ext, d_levels, n):
    R = table.R
    phi = table.phi
    fd = f.quotients(space)
    P_l = averaging_kernel(table, l).matrix
    smoothed = P_l @ f.values
    lhs = abs(float(smoothed[s] - smoothed[t]))

    total = d_levels[tau] * R ** (tau + n)
    total += sum(ext[k][x] * R ** (k + n) for x in (s, t) for k in range(tau, l))
    for x in (s, t):
        for k in range(tau, l):
            outer = _ball(space, x, ext[k + 1][x])
            acc = 0.0
            thr = R ** (k + n)
            for u in outer:
                inner = _ball(space, int(u), table.radius(k, int(u)))
                acc += space.mass[u] * table.radius(k, int(u)) * _averaged_quotient(space, fd[u], inner, thr)
            total += phi.value(R ** (k + 1)) * acc
    acc = 0.0
    thr = R ** (tau + n)
    for u in _ball(space, anchor, ext[tau][anchor]):
        if tau - 1 == 0:
            inner = np.arange(space.n)
        else:
            inner = _ball(space, int(u), table.radius(tau - 1, int(u)), closed=False)
        acc += space.mass[u] * _averaged_quotient(space, fd[u], inner, thr)
    total += d_levels[tau] * phi.value(R ** (tau + 1)) * acc
    return Check("smoothing_difference_bound", f"n={n}", lhs, float(total))


# -- converse witness ----------------------------------------------------------


@dataclass
class ConverseWitness:
    base_point: int
    l: int
    tail_constant: float
    implied_factor: float
    step_values: np.ndarray
    witness_values: np.ndarray
    growth_ratios: np.ndarray
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _step_value(radii, R, n0, eps, l):
    """The level step function: R^(k-n0) on [r_(k+1), r_k), zero below r_(l+1)."""
    arr = np.atleast_1d(np.asarray(eps, dtype=float))
    above = (arr[:, None] < radii[None, :l + 1]).sum(axis=-1) - 1
    vals = np.where(above >= 0, R ** (above.astype(float) - n0), R ** (-float(n0)))
    vals = np.where(arr < radii[l + 1], 0.0, vals)
    return float(vals[0]) if np.ndim(eps) == 0 else vals


def _step_integral(radii, R, n0, upper, l, transform=None):
    """Exact integral of (transform of) the step function on [0, upper]."""
    total = np.zeros_like(np.asarray(upper, dtype=float))
    for k in range(l + 1):
        level = R ** (k - n0) if transform is None else transform(R ** (k - n0))
        lo, hi = radii[k + 1], radii[k]
        overlap = np.clip(np.minimum(upper, hi) - lo, 0.0, None)
        total = total + level * overlap
    return total


def converse_witness(space, phi, psi, R, n0, t, l):
    """Step-function witness anchored at t for the optimality direction.

    Builds h_l from the radius ladder of t, the induced witness function
    f_l(x) = int_0^{d(t,x)} h_l, and measures: the exact shell decomposition
    of int psi(h_l(d(t,u))) dm with its series bound, the Jensen bound on the
    difference quotients of f_l, and the reconstruction inequality
    phi^{-1}(1/m(B(t,eps))) <= R^(n0+1) h(eps) at every breakpoint. Returns
    the tail constant D and the per-point ratio of the growth integral to the
    witness integral (bounded by R^(n0+1)).
    """
    series = pair_series(psi, phi, R, n0)
    if not series.converges:
        raise ValueError("sum_k psi(R^k)/phi(R^(k+n0)) must converge for the witness")
    tail = shifted_series(psi, phi, R, -n0, 0)
    Dconst = tail.total

    table = radius_table(space, phi, R)
    radii = np.array([table.radius(k, t) for k in range(l + 2)])
    dists = space.dist[:, t]
    n = space.n

    h_at = _step_value(radii, R, n0, dists, l)
    psi_h = psi.value(h_at)
    moment = float(np.dot(space.mass, psi_h))

    shells = 0.0
    for k in range(l + 1):
        hi_mass = 1.0 if k == 0 else space.ball_mass(t, radii[k], closed=False)
        lo_mass = space.ball_mass(t, radii[k + 1], closed=False)
        shells += psi.value(R ** float(k - n0)) * max(hi_mass - lo_mass, 0.0)
    checks = [Check("step_moment_identity", "shells", abs(moment - shells), 0.0)]

    logR = math.log(R)
    bound = sum(
        math.exp(psi.log_value_exp((k - n0) * logR) - phi.log_value_exp(k * logR))
        for k in range(l + 1)
    )
    checks.append(Check("step_moment_bound", f"l={l}", moment, float(bound)))

    witness = _step_integral(radii, R, n0, dists, l)
    psi_integral = _step_integral(radii, R, n0, dists, l, transform=psi.value)
    worst_jensen = None
    worst_avg = None
    for u in range(n):
        for v in range(u + 1, n):
            duv = space.dist[u, v]
            if duv <= 0:
                continue
            quot = abs(witness[u] - witness[v]) / duv
            gap = abs(dists[u] - dists[v])
            avg = abs(psi_integral[u] - psi_integral[v]) / gap if gap > 0 else 0.0
            c1 = Check("difference_jensen", f"({u},{v})", float(psi.value(quot)), float(avg))
            c2 = Check("step_average_bound", f"({u},{v})", float(avg), float(psi_h[u] + psi_h[v]))
            if worst_jensen is None or c1.rel_margin < worst_jensen.rel_margin:
                worst_jensen = c1
            if worst_avg is None or c2.rel_margin < worst_avg.rel_margin:
                worst_avg = c2
    if worst_jensen is not None:
        checks.append(worst_jensen)
        checks.append(worst_avg)

    # reconstruction against the full ladder (levels beyond l add no zeros)
    full_radii = np.array([table.radius(k, t) for k in range(table.kstar + 2)])
    breakpoints = np.unique(dists)
    worst_rec = None
    factor = R ** (n0 + 1)
    for eps in breakpoints:
        lhs = phi.inverse(1.0 / space.ball_mass(t, eps, closed=True))
        rhs = factor * _step_value(full_radii, R, n0, float(eps), table.kstar)
        cand = Check("inverse_reconstruction", f"eps={eps:.6g}", float(lhs), float(rhs))
        if worst_rec is None or cand.rel_margin < worst_rec.rel_margin:
            worst_rec = cand
    checks.append(worst_rec)

    ratios = np.zeros(n)
    profile = _GrowthProfile(space, phi, t)
    for x in range(n):
        if x == t or dists[x] == 0:
            continue
        growth = profile.integral(float(dists[x]))
        w = _step_integral(full_radii, R, n0, float(dists[x]), table.kstar)
        ratios[x] = growth / w if w > 0 else math.inf

    return ConverseWitness(
        base_point=t,
        l=l,
        tail_constant=Dconst,
        implied_factor=(1.0 + 2.0 * Dconst) * factor,
        step_values=h_at,
        witness_values=witness,
        growth_ratios=ratios,
        checks=checks,
    )


# -- structural invariant suite -------------------------------------------------


def invariant_suite(space, phi, psi, R, n0, kernels=None, seed=0):
    """Measure the structural invariants of one configuration.

    Covers: monotone and 1-Lipschitz radii, the ball-mass sandwich
    1/m(B_k) <= phi(R^k) <= 1/m(open B_k), the two radius-series integral
    bounds, ball nesting, composed-kernel support and stochasticity, the
    kernel averaging bound, and the averaging-operator identities. A caller
    may inject its own kernels (e.g. deliberately corrupted ones); they are
    then used for every kernel-level check.
    """
    table = radius_table(space, phi, R)
    kstar = table.kstar
    l = kstar + 1
    n = space.n
    dist = space.dist
    mass = space.mass
    if kernels is None:
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

    def growth(x, u):  # radii are distances, so no clamp to the diameter is needed
        return 0.0 if u == 0.0 else profiles[x].integral(u)

    worst = -math.inf
    for x in range(n):
        for c in range(kstar + 1):
            lhs = sum(radii[k, x] * R ** k for k in range(c, kstar + 1))
            rhs = (R / (R - 1.0)) * growth(x, radii[c, x])
            worst = max(worst, _neg_margin(lhs, rhs))
    checks.append(Check("radius_series_integral", "all x,c", worst, 0.0))

    if R > 2:
        worst = -math.inf
        ll = kstar + 2
        ext = [table.extended_vector(k, ll).tolist() for k in range(ll)]  # floats, as the rows expect
        for x in range(n):
            for c in range(ll):
                lhs = sum(ext[k][x] * R ** k for k in range(c, ll))
                rhs = (R ** 2 / ((R - 1.0) * (R - 2.0))) * growth(x, table.radius(min(c, kstar), x))
                worst = max(worst, _neg_margin(lhs, rhs))
        checks.append(Check("extended_series_integral", "all x,c", worst, 0.0))

    ext = [table.extended_vector(k, l) for k in range(l + 1)]
    worst = -math.inf
    support_bad = 0.0
    for k in range(l):
        ext_k, ext_k1 = ext[k], ext[k + 1]
        for x in range(n):
            for u in _ball(space, x, ext_k1[x]):
                r_u = table.radius(k, int(u))
                mid = table.radius(k, x) + ext_k1[x]
                worst = max(worst, _neg_margin(r_u, mid), _neg_margin(mid, ext_k[x]))
                outside = dist[u] > ext_k[x] + 1e-12 * max(1.0, ext_k[x])
                inside_u = dist[u] <= r_u + 1e-12 * max(1.0, r_u)
                support_bad = max(support_bad, float(np.sum(inside_u & outside)))
    checks.append(Check("ball_nesting", "all x,u,k", worst, 0.0))
    checks.append(Check("ball_nesting_support", "all x,u,k", support_bad, 0.0))

    dev = max(float(np.max(np.abs(kernels[k].matrix.sum(axis=1) - 1.0))) for k in range(l + 1))
    checks.append(Check("kernel_stochastic", "all k", dev, 0.0))

    worst_support = -math.inf
    worst_rowsum = -math.inf
    rng = np.random.default_rng(seed)
    fs = [rng.standard_normal(n) for _ in range(3)]
    worst_avg = -math.inf
    comp = None
    for k in range(l, -1, -1):
        # the composed kernel P_l ... P_k, one factor more per level
        comp = kernels[k].matrix if comp is None else comp @ kernels[k].matrix
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
        float(np.max(np.abs(kernels[k].matrix @ np.ones(n) - 1.0))) for k in range(l + 1)
    )
    checks.append(Check("operator_unit", "all k", unit_dev, 0.0))
    g = fs[0] + np.abs(rng.standard_normal(n))
    mono = max(
        float(np.max(kernels[k].matrix @ fs[0] - kernels[k].matrix @ g)) for k in range(l + 1)
    )
    checks.append(Check("operator_monotone", "f<=g", mono, 0.0))
    offdiag = dist[~np.eye(n, dtype=bool)]
    if offdiag.size == 0 or offdiag.min() > 0:
        settle = float(np.max(np.abs(kernels[min(kstar, l)].matrix @ fs[0] - fs[0])))
        checks.append(Check("operator_settles", "k=kstar", settle, 0.0))

    params = {"R": R, "n0": n0, "kstar": kstar, "phi": phi.spec(), "psi": psi.spec() if psi else None}
    return VerificationReport(checks, [], params)


def _neg_margin(lhs, rhs):
    """Positive when lhs exceeds rhs beyond the relative slack."""
    return lhs - rhs - REL_SLACK * max(1.0, abs(rhs))
